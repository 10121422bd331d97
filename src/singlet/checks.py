"""Built-in verification suites wrapping the documented invariants.

Each suite enumerates a deterministic universe of labels and records every
failing instance with its inputs.  A suite whose body raises a
``SingletError`` is recorded by :func:`run_suite` as one failing case that
names the error, so the suites after it still run.  The CLI ``check``
subcommand and the acceptance tests both drive these.
"""

from __future__ import annotations

from fractions import Fraction

from . import fusion, modules, orbifold
from .characters import QSeries, ch_expr, ch_vir_irr, check_order, partition_numbers
from .errors import DomainError, SingletError
from .modules import FockAtypical, FockTypical, GenVerma, ModuleExpr, MSimple, Proj, label
from .weights import Params, allowed_neighbor_weights, conformal_weight, h_rs

__all__ = ["SUITE_NAMES", "SuiteResult", "universe", "run_suite", "run_suites"]

_DEFAULT_ORDER = 40  # the character truncation order of the suites

class SuiteResult:
    """The name of a suite, its number of cases and the text of each
    failing case; each result owns its ``failures`` list."""

    __slots__ = ("name", "cases", "failures")
    __hash__ = None

    def __init__(self, name: str, cases: int = 0, failures: list | None = None):
        self.name = name
        self.cases = cases
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.cases, self.failures) == (other.name, other.cases, other.failures)

    def __repr__(self):
        return f"SuiteResult(name={self.name!r}, cases={self.cases!r}, failures={self.failures!r})"

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, description: str, *values):
        """Count one case.  A failing case records ``description`` with
        ``values`` put into its ``{}`` fields, a module label as its text
        label (:func:`label`) and any other value by ``str``; a passing case
        formats nothing."""
        self.cases += 1
        if not condition:
            texts = [label(v) if hasattr(v, "_TAG") else str(v) for v in values]
            self.failures.append(description.format(*texts))


_TYPICAL_COORDS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(5, 6))


def universe(params: Params) -> list:
    """The documented test universe of fusable labels."""
    atoms = [MSimple(r, s) for r in range(-2, 4) for s in range(1, params.p + 1)]
    atoms += [Proj(r, s) for r in range(-1, 3) for s in range(1, params.p)]
    atoms += [FockTypical(q) for q in _TYPICAL_COORDS]
    return atoms


def sample_coords() -> list[Fraction]:
    """50 deterministic non-integral rational coordinates."""
    out: list[Fraction] = []
    for den in (2, 3, 4, 5, 7):
        for num in range(-3 * den, 3 * den + 1):
            f = Fraction(num, den)
            if f.denominator != 1 and f not in out:
                out.append(f)
    return out[:50]


def _suite_associativity(params: Params) -> SuiteResult:
    res = SuiteResult("associativity")
    atoms = universe(params)
    unit = MSimple(1, 1)
    for x in atoms:
        res.check(
            fusion.fuse(params, unit, x) == ModuleExpr.of(x),
            "unit failed at {}", x,
        )
    # These cases cannot fail: _Table.row serves (i, j) and (j, i) from the
    # one cached row of the unordered pair, so both sides read the same row.
    # Commutativity holds by the cache's construction; the cases are kept so
    # that the suite's case count and output do not change.
    for x in atoms:
        for y in atoms:
            res.check(
                fusion.fuse(params, x, y) == fusion.fuse(params, y, x),
                "commutativity failed at {}, {}", x, y,
            )
    # The triple loop runs on the ids of the fusion table.  singles[i] is
    # x_i as the flat terms (id, 1), and rows[i][j] is the cached product row
    # of x_i and x_j itself, not a copy.  Both sides are {id: mult} sums,
    # which are equal exactly when the expressions are.  rows[i][j] and
    # rows[j][i] are one row and product() is symmetric in its operands, so
    # case (z, y, x) compares the two sums of case (x, y, z), swapped: each
    # unordered pair {x, z} is compared once per y and the result recorded
    # under both triples.  The x == z cases still test that symmetry.
    t = fusion.id_table(params)
    singles = [t.ids(x) for x in atoms]
    rows = [[t.row(xs[0], ys[0]) for ys in singles] for xs in singles]
    product = t.product
    n = len(atoms)
    failed = set()  # (a*n + b)*n + c for each failing case (x_a, x_b, x_c)
    for b, y_rows in enumerate(rows):
        for a, (xs, xy) in enumerate(zip(singles, y_rows)):
            for c in range(a, n):
                if product(xy, singles[c]) != product(xs, y_rows[c]):
                    failed.add((a * n + b) * n + c)
                    failed.add((c * n + b) * n + a)
    for a, x in enumerate(atoms):
        for b, y in enumerate(atoms):
            k = (a * n + b) * n
            for c, z in enumerate(atoms):
                res.check(k + c not in failed, "associativity failed at {}, {}, {}", x, y, z)
    return res


def _suite_kring(params: Params) -> SuiteResult:
    res = SuiteResult("kring")
    atoms = universe(params)
    for x in atoms:
        for y in atoms:
            product = fusion.fuse(params, x, y)
            rhs = fusion.k_product(params, modules.k_class(params, x), modules.k_class(params, y))
            ok = modules.k_class(params, product) == rhs
            if Proj in (type(x), type(y)):  # the product is projective: the peel gives it back
                ok = ok and fusion.projective_decompose(params, rhs) == product
            res.check(ok, "K-ring homomorphism failed at {}, {}", x, y)
    return res


def _suite_duality(params: Params) -> SuiteResult:
    res = SuiteResult("duality")
    atoms = universe(params)
    extra = [FockAtypical(r, s) for r in range(-1, 3) for s in range(1, params.p)]
    for x in atoms + extra:
        e = ModuleExpr.of(x)
        res.check(
            modules.dual(params, modules.dual(params, e)) == e,
            "dual involution failed at {}", x,
        )
        res.check(
            modules.k_class(params, modules.dual(params, e))
            == modules.dual(params, modules.k_class(params, e)),
            "dual/K-class compatibility failed at {}", x,
        )
        res.check(
            modules.t_grade(params, modules.dual(params, e).atoms()[0])
            == (-modules.t_grade(params, x)) % 2,
            "dual grading failed at {}", x,
        )
    for x in atoms:
        for y in atoms:
            lhs = modules.dual(params, fusion.fuse(params, x, y))
            rhs = fusion.fuse(params, modules.dual(params, x), modules.dual(params, y))
            res.check(lhs == rhs, "duality of fusion failed at {}, {}", x, y)
    return res


def _suite_grading(params: Params) -> SuiteResult:
    res = SuiteResult("grading")
    p = params.p
    atoms = universe(params)
    for x in atoms:
        gx = modules.t_grade(params, x)
        for y in atoms:
            expected = (gx + modules.t_grade(params, y)) % 2
            for z in fusion.fuse(params, x, y).atoms():
                res.check(
                    modules.t_grade(params, z) == expected,
                    "grading additivity failed at {}, {} -> {}", x, y, z,
                )
    simples = [a for a in atoms if isinstance(a, (MSimple, FockTypical))]
    h21 = h_rs(params, 2, 1)
    for y in simples:
        product = fusion.fuse(params, MSimple(2, 1), y)
        lw = min(modules.lowest_weight(params, a) for a in product.atoms())
        balance = (lw - h21 - modules.lowest_weight(params, y)) % 1
        res.check(
            balance == modules.monodromy_phase_with_m21(params, y).exponent,
            "balancing failed at {}", y,
        )
    composites = [Proj(r, s) for r in range(-1, 3) for s in range(1, p)]
    composites += [FockAtypical(r, s) for r in range(-1, 3) for s in range(1, p)]
    composites += [GenVerma(r, s) for r in range(-1, 4) for s in range(1, p + 1)]
    for x in composites:
        e = modules.monodromy_phase_with_m21(params, x)
        for f in modules.k_class(params, x).atoms():
            res.check(
                modules.monodromy_phase_with_m21(params, f) == e,
                "monodromy not constant on factors of {}", x,
            )
    for q in sample_coords():
        res.check(
            4 * p * conformal_weight(params, q) + (p - 1) ** 2 == (q + p - 1) ** 2,
            "weight identity failed at q={}", q,
        )
        allowed = allowed_neighbor_weights(params, q, "via12")
        for out in fusion.fuse(params, MSimple(1, 2), FockTypical(q)).atoms():
            res.check(
                conformal_weight(params, out.q) in allowed,
                "neighbor-weight audit failed at q={} -> {}", q, out,
            )
    return res


def _suite_characters(params: Params, order: int) -> SuiteResult:
    res = SuiteResult("characters")
    p = params.p
    part = partition_numbers(order)
    for r in range(-3, 5):
        for s in range(1, p):
            fa = FockAtypical(r, s)
            res.check(
                ch_expr(params, fa, order)
                == ch_expr(params, ModuleExpr.of(MSimple(r, s), MSimple(r + 1, p - s)), order),
                "Fock factor identity failed at {}", fa,
            )
            # Independent series oracle: a length-2 Fock module has the
            # graded dimension of a Verma module, and P(r,s) is filtered by
            # Fa(r,s) and Fa(r-1,p-s), so it has two of them.
            lws = [modules.lowest_weight(params, a) for a in (fa, FockAtypical(r - 1, p - s))]
            base = min(lws)
            shifts = [int(lw - base) for lw in lws]
            two_vermas = [sum(part[k - d] for d in shifts if d <= k) for k in range(order + 1)]
            proj = Proj(r, s)
            res.check(
                ch_expr(params, proj, order).series() == [QSeries(base, two_vermas)],
                "projective factor identity failed at {}", proj,
            )
            res.check(
                ch_expr(params, fa, order).series() == [QSeries(lws[0], part)],
                "Fock graded dimension failed at {}", fa,
            )
        for s in range(1, p + 1):
            simple = MSimple(r, s)
            res.check(
                ch_expr(params, simple, order) == ch_expr(params, MSimple(2 - r, s), order),
                "contragredient characters differ at {}", simple,
            )
    for r in range(1, 5):
        for s in range(1, p + 1):
            series = ch_vir_irr(params, r, s, order)
            res.check(
                series.coeffs[0] == 1 and all(c >= 0 for c in series.coeffs),
                "Virasoro character sanity failed at ({},{})", r, s,
            )
    for q in _TYPICAL_COORDS:
        res.check(
            ch_expr(params, FockTypical(q), order)
            == ch_expr(params, FockTypical(2 - 2 * p - q), order),
            "contragredient Fock characters differ at q={}", q,
        )
    return res


def _suite_oracle(params: Params) -> SuiteResult:
    res = SuiteResult("oracle")
    p = params.p
    atoms = universe(params)
    for x in atoms:
        for y in atoms:
            res.check(
                fusion.chebyshev_fuse(params, x, y) == fusion.fuse(params, x, y),
                "oracle disagreement at {}, {}", x, y,
            )
    pairing = ModuleExpr.of(*(modules.normalize_atom(params, Proj(1, s)) for s in range(1, p + 1, 2)))
    for q in _TYPICAL_COORDS:
        res.check(
            fusion.fuse(params, FockTypical(q), FockTypical(2 - 2 * p - q)) == pairing,
            "dual pairing identity failed at q={}", q,
        )
    for q in _TYPICAL_COORDS[:3]:
        for q2 in _TYPICAL_COORDS:
            lhs = fusion.fuse(
                params,
                fusion.fuse(params, FockTypical(q), FockTypical(q2)),
                FockTypical(2 - 2 * p - q2),
            )
            rhs = ModuleExpr.of(
                *(FockTypical(q + 2 - 2 * p + 2 * (l1 + l2)) for l1 in range(p) for l2 in range(p))
            )
            res.check(lhs == rhs, "triple product identity failed at q={}, mu={}", q, q2)
    return res


def _suite_orbifold(params: Params, m: int) -> SuiteResult:
    op = orbifold.OrbifoldParams(params.p, m)
    res = SuiteResult(f"orbifold(m={m})")
    p = params.p
    simples = orbifold.list_simples(op)
    res.check(
        len(simples) == len(set(simples)) == 2 * p * m * m,
        "simple count is not 2pm^2 at (p,m)=({},{})", p, m,
    )
    atoms = [a for a in universe(params) if orbifold.is_local(op, a)]
    induced = [orbifold.induce(op, ModuleExpr.of(x)) for x in atoms]
    for x, ix in zip(atoms, induced):
        for y, iy in zip(atoms, induced):
            lhs = orbifold.induce(op, fusion.fuse(params, x, y))
            rhs = orbifold.orbifold_fuse(op, ix, iy)
            res.check(lhs == rhs, "induction functoriality failed at {}, {}", x, y)
    # A cover's middle layer, J x W(r,p-s) + J^-1 x W(r,p-s) for J = W(2,1),
    # comes from orbifold_fuse, not from the socle series (at m = 1, J = J^-1).
    currents = ModuleExpr.of(orbifold.w_simple(op, 2, 1), orbifold.w_simple(op, 0, 1))
    for r in range(op.r_modulus):
        for s in range(1, p + 1):
            w = orbifold.WSimple(r, s)
            cover, layers = orbifold.orbifold_projective_cover(op, w)
            if s == p:
                res.check(
                    cover == w and layers == [[cover]],
                    "simple projective column failed at {}", w,
                )
                continue
            x = orbifold.WSimple(r, p - s)
            middle = orbifold.orbifold_fuse(op, currents, x).terms()
            res.check(
                cover == orbifold.RProj(r, s)
                and layers == [[w], [a for a, n in middle for _ in range(n)], [w]],
                "cover layers differ from J x {} + J^-1 x {} at {}", x, x, w,
            )
    # The first 2p W labels and the first 2p V labels (none at m = 1): W
    # sorts first and there are 2pm of them, so a plain prefix holds no V.
    depth = 10
    ws = [a for a in simples if isinstance(a, orbifold.WSimple)]
    vs = [a for a in simples if isinstance(a, orbifold.VTypical)]
    for atom in ws[: 2 * p] + vs[: 2 * p]:
        lift = orbifold.lift_atom(op, atom)
        brute = ModuleExpr.of(*(modules.shift(params, lift, op.r_modulus * n) for n in range(-8, 9)))
        res.check(
            orbifold.orbifold_char_expr(op, atom, depth) == ch_expr(params, brute, depth),
            "orbit character window failed at {}", atom,
        )
    return res


# Suite name -> body(params, m, order), in the order ``all`` runs them.
# ``all`` runs every entry, and the benchmark's verify workload requires
# exactly these suites and their case counts at p = 2 and 3: a new suite
# goes in a table that ``--suite`` reads and ``all`` does not, until the
# benchmark's ``suite_cases`` counts it.
_SUITES = {
    "associativity": lambda params, m, order: _suite_associativity(params),
    "kring": lambda params, m, order: _suite_kring(params),
    "duality": lambda params, m, order: _suite_duality(params),
    "grading": lambda params, m, order: _suite_grading(params),
    "characters": lambda params, m, order: _suite_characters(params, order),
    "oracle": lambda params, m, order: _suite_oracle(params),
    "orbifold": lambda params, m, order: _suite_orbifold(params, m),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str, params: Params, m: int | None = None, order: int = _DEFAULT_ORDER
) -> list[SuiteResult]:
    """The results of suite ``name``: one, or for ``orbifold`` one per m
    (m = 1 and 2 when ``m`` is None).  A bad argument raises before any
    case runs; a ``SingletError`` raised in the body of one result is that
    result's one failing case, and the others still run."""
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    check_order(order)
    if m is not None:
        orbifold.OrbifoldParams(params.p, m)  # the one rule of m
    if name != "orbifold":
        runs = [(name, m)]
    else:
        runs = [(f"orbifold(m={mm})", mm) for mm in ([m] if m is not None else [1, 2])]
    out = []
    for title, mm in runs:
        try:
            out.append(_SUITES[name](params, mm, order))
        except SingletError as exc:
            out.append(SuiteResult(title, 1, [f"raised {exc.__class__.__name__}: {exc}"]))
    return out


def run_suites(
    names, params: Params, m: int | None = None, order: int = _DEFAULT_ORDER
) -> list[SuiteResult]:
    return [res for name in names for res in run_suite(name, params, m=m, order=order)]
