"""Built-in verification suites wrapping the documented invariants.

Each suite enumerates a deterministic universe of labels and records every
failing instance with its inputs; nothing is thrown.  The CLI ``check``
subcommand and the acceptance tests both drive these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import fusion, modules, orbifold
from .characters import QSeries, ch_expr, ch_indec, ch_vir_irr, partition_numbers
from .modules import FockAtypical, FockTypical, GenVerma, ModuleExpr, MSimple, Proj, label
from .weights import Params, Weight, allowed_neighbor_weights, conformal_weight, h_rs

__all__ = ["SUITE_NAMES", "SuiteResult", "universe", "run_suite", "run_suites"]

SUITE_NAMES = (
    "associativity",
    "kring",
    "duality",
    "grading",
    "characters",
    "oracle",
    "orbifold",
)


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, description: str):
        self.cases += 1
        if not condition:
            self.failures.append(description)


_TYPICAL_COORDS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(5, 6))


def universe(params: Params) -> list:
    """The documented test universe of fusable labels."""
    atoms = [MSimple(r, s) for r in range(-2, 4) for s in range(1, params.p + 1)]
    atoms += [Proj(r, s) for r in range(-1, 3) for s in range(1, params.p)]
    atoms += [FockTypical(q) for q in _TYPICAL_COORDS]
    return atoms


def sample_coords(count: int = 50) -> list[Fraction]:
    """Deterministic non-integral rational coordinates."""
    out: list[Fraction] = []
    for den in (2, 3, 4, 5, 7):
        for num in range(-3 * den, 3 * den + 1):
            f = Fraction(num, den)
            if f.denominator != 1 and f not in out:
                out.append(f)
    return out[:count]


def _suite_associativity(params: Params) -> SuiteResult:
    res = SuiteResult("associativity")
    atoms = universe(params)
    unit = MSimple(1, 1)
    for x in atoms:
        res.check(
            fusion.fuse(params, unit, x) == ModuleExpr.of(x),
            f"unit failed at {label(x)}",
        )
    for x in atoms:
        for y in atoms:
            res.check(
                fusion.fuse(params, x, y) == fusion.fuse(params, y, x),
                f"commutativity failed at {label(x)}, {label(y)}",
            )
    for x in atoms:
        for y in atoms:
            xy = fusion.fuse(params, x, y)
            for z in atoms:
                lhs = fusion.fuse(params, xy, z)
                rhs = fusion.fuse(params, x, fusion.fuse(params, y, z))
                res.check(lhs == rhs, f"associativity failed at {label(x)}, {label(y)}, {label(z)}")
    return res


def _suite_kring(params: Params) -> SuiteResult:
    res = SuiteResult("kring")
    atoms = universe(params)
    for x in atoms:
        for y in atoms:
            lhs = modules.k_class(params, fusion.fuse(params, x, y))
            rhs = fusion.k_product(
                params, modules.k_class(params, x), modules.k_class(params, y)
            )
            res.check(lhs == rhs, f"K-ring homomorphism failed at {label(x)}, {label(y)}")
    return res


def _suite_duality(params: Params) -> SuiteResult:
    res = SuiteResult("duality")
    atoms = universe(params)
    extra = [FockAtypical(r, s) for r in range(-1, 3) for s in range(1, params.p)]
    for x in atoms + extra:
        e = ModuleExpr.of(x)
        res.check(
            modules.dual(params, modules.dual(params, e)) == e,
            f"dual involution failed at {label(x)}",
        )
        res.check(
            modules.k_class(params, modules.dual(params, e))
            == modules.dual(params, modules.k_class(params, e)),
            f"dual/K-class compatibility failed at {label(x)}",
        )
        res.check(
            modules.t_grade(params, modules.dual(params, e).atoms()[0])
            == (-modules.t_grade(params, x)) % 2,
            f"dual grading failed at {label(x)}",
        )
    for x in atoms:
        for y in atoms:
            lhs = modules.dual(params, fusion.fuse(params, x, y))
            rhs = fusion.fuse(params, modules.dual(params, x), modules.dual(params, y))
            res.check(lhs == rhs, f"duality of fusion failed at {label(x)}, {label(y)}")
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
                    f"grading additivity failed at {label(x)}, {label(y)} -> {label(z)}",
                )
    simples = [a for a in atoms if isinstance(a, (MSimple, FockTypical))]
    h21 = h_rs(params, 2, 1)
    for y in simples:
        product = fusion.fuse(params, MSimple(2, 1), y)
        lw = min(modules.lowest_weight(params, a) for a in product.atoms())
        balance = (lw - h21 - modules.lowest_weight(params, y)) % 1
        res.check(
            balance == modules.monodromy_phase_with_m21(params, y).exponent,
            f"balancing failed at {label(y)}",
        )
    composites = [Proj(r, s) for r in range(-1, 3) for s in range(1, p)]
    composites += [FockAtypical(r, s) for r in range(-1, 3) for s in range(1, p)]
    composites += [GenVerma(r, s) for r in range(-1, 4) for s in range(1, p + 1)]
    for x in composites:
        e = modules.monodromy_phase_with_m21(params, x)
        for f in modules.k_class(params, x).atoms():
            res.check(
                modules.monodromy_phase_with_m21(params, f) == e,
                f"monodromy not constant on factors of {label(x)}",
            )
    for q in sample_coords():
        w = Weight(q, p)
        res.check(
            4 * p * conformal_weight(w) + (p - 1) ** 2 == (q + p - 1) ** 2,
            f"weight identity failed at q={q}",
        )
        allowed = allowed_neighbor_weights(w, "via12")
        for out in fusion.fuse(params, MSimple(1, 2), FockTypical(q)).atoms():
            res.check(
                conformal_weight(Weight(out.q, p)) in allowed,
                f"neighbor-weight audit failed at q={q} -> {label(out)}",
            )
    return res


def _suite_characters(params: Params, order: int) -> SuiteResult:
    res = SuiteResult("characters")
    p = params.p
    for r in range(-3, 5):
        for s in range(1, p):
            fa = FockAtypical(r, s)
            res.check(
                ch_indec(params, fa, order)
                == ch_expr(params, ModuleExpr.of(MSimple(r, s), MSimple(r + 1, p - s)), order),
                f"Fock factor identity failed at Fa({r},{s})",
            )
            res.check(
                ch_indec(params, Proj(r, s), order)
                == ch_expr(params, ModuleExpr.of(fa, FockAtypical(r - 1, p - s)), order),
                f"projective factor identity failed at P({r},{s})",
            )
            # Independent series oracle: a length-2 Fock module has the
            # graded dimension of a Verma module.
            got = ch_indec(params, fa, order).series()
            base = modules.lowest_weight(params, fa)
            res.check(
                got == [QSeries(base, partition_numbers(order))],
                f"Fock graded dimension failed at Fa({r},{s})",
            )
        for s in range(1, p + 1):
            res.check(
                ch_indec(params, MSimple(r, s), order) == ch_indec(params, MSimple(2 - r, s), order),
                f"contragredient characters differ at M({r},{s})",
            )
    for r in range(1, 5):
        for s in range(1, p + 1):
            series = ch_vir_irr(params, r, s, order)
            res.check(
                series.coeffs[0] == 1 and all(c >= 0 for c in series.coeffs),
                f"Virasoro character sanity failed at ({r},{s})",
            )
    for q in _TYPICAL_COORDS:
        res.check(
            ch_indec(params, FockTypical(q), order)
            == ch_indec(params, FockTypical(2 - 2 * p - q), order),
            f"contragredient Fock characters differ at q={q}",
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
                f"oracle disagreement at {label(x)}, {label(y)}",
            )
    pairing = ModuleExpr([(fusion._proj_or_simple(p, 1, s), 1) for s in range(1, p + 1, 2)])
    for q in _TYPICAL_COORDS:
        res.check(
            fusion.fuse(params, FockTypical(q), FockTypical(2 - 2 * p - q)) == pairing,
            f"dual pairing identity failed at q={q}",
        )
    for q in _TYPICAL_COORDS[:3]:
        for q2 in _TYPICAL_COORDS:
            lhs = fusion.fuse(
                params,
                fusion.fuse(params, FockTypical(q), FockTypical(q2)),
                FockTypical(2 - 2 * p - q2),
            )
            rhs = ModuleExpr(
                [
                    (FockTypical(q + 2 - 2 * p + 2 * (l1 + l2)), 1)
                    for l1 in range(p)
                    for l2 in range(p)
                ]
            )
            res.check(lhs == rhs, f"triple product identity failed at q={q}, mu={q2}")
    return res


def _suite_orbifold(params: Params, m: int) -> SuiteResult:
    op = orbifold.OrbifoldParams(params.p, m)
    res = SuiteResult("orbifold")
    p = params.p
    simples = orbifold.list_simples(op)
    res.check(
        len(simples) == len(set(simples)) == 2 * p * m * m,
        f"simple count is not 2pm^2 at (p,m)=({p},{m})",
    )
    atoms = [a for a in universe(params) if orbifold.is_local(op, a)]
    for x in atoms:
        ix = orbifold.induce(op, ModuleExpr.of(x))
        for y in atoms:
            lhs = orbifold.induce(op, fusion.fuse(params, x, y))
            rhs = orbifold.orbifold_fuse(op, ix, orbifold.induce(op, ModuleExpr.of(y)))
            res.check(lhs == rhs, f"induction functoriality failed at {label(x)}, {label(y)}")
    for r in range(op.r_modulus):
        for s in range(1, p + 1):
            cover, layers = orbifold.orbifold_projective_cover(op, orbifold.WSimple(r, s))
            if s == p:
                res.check(
                    cover == orbifold.WSimple(r, s) and layers == [[cover]],
                    f"simple projective column failed at W({r},{s})",
                )
                continue
            induced = [
                sorted(
                    (orbifold.w_simple(op, a.r, a.s) for a in layer),
                    key=modules.sort_key,
                )
                for layer in modules.loewy_layers(params, Proj(r, s))
            ]
            res.check(
                cover == orbifold.RProj(r, s) and layers == induced,
                f"cover layers differ from induced layers at W({r},{s})",
            )
    depth = 10
    for atom in simples[: 4 * p]:
        if isinstance(atom, orbifold.WSimple):
            lifts = [MSimple(atom.r + op.r_modulus * n, atom.s) for n in range(-8, 9)]
        else:
            lifts = [FockTypical(atom.q + op.q_modulus * n) for n in range(-8, 9)]
        brute = ModuleExpr.of(*lifts)
        res.check(
            orbifold.orbifold_char(op, atom, depth) == ch_expr(params, brute, depth),
            f"orbit character window failed at {label(atom)}",
        )
    return res


def run_suite(name: str, params: Params, m: int | None = None, order: int = 40) -> list[SuiteResult]:
    if name == "associativity":
        return [_suite_associativity(params)]
    if name == "kring":
        return [_suite_kring(params)]
    if name == "duality":
        return [_suite_duality(params)]
    if name == "grading":
        return [_suite_grading(params)]
    if name == "characters":
        return [_suite_characters(params, order)]
    if name == "oracle":
        return [_suite_oracle(params)]
    if name == "orbifold":
        ms = [m] if m is not None else [1, 2]
        out = []
        for mm in ms:
            result = _suite_orbifold(params, mm)
            result.name = f"orbifold(m={mm})"
            out.append(result)
        return out
    raise ValueError(f"unknown suite {name!r}")


def run_suites(names, params: Params, m: int | None = None, order: int = 40) -> list[SuiteResult]:
    out = []
    for name in names:
        out.extend(run_suite(name, params, m=m, order=order))
    return out
