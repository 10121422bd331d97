"""Shared test helpers."""

from fractions import Fraction

from singlet.characters import CharacterSum, QSeries, partition_numbers
from singlet.errors import DomainError, NotProjectiveClass, SingletError
from singlet.fusion import _CLOSED_FORMS, _fusable, fuse, projective_decompose
from singlet.modules import (
    FockAtypical,
    FockTypical,
    ModuleExpr,
    MSimple,
    Proj,
    as_expr,
    k_class,
    label,
    lowest_weight,
    normalize_atom,
    sort_key,
)
from singlet.orbifold import VTypical, WSimple, induce, lift_atom
from singlet.weights import h_rs


def outcome(fn, *args, message=True):
    """The result of ``fn(*args)``, or the type (and message) of the
    SingletError it raises."""
    try:
        return fn(*args)
    except SingletError as exc:
        return (type(exc), str(exc)) if message else type(exc)


def orbit_lift(op, atom, n):
    """The singlet lift of an orbifold label n orbit steps from its canonical
    lift: W(r,s) -> M(r + 2mn, s), R(r,s) -> P(r + 2mn, s), V(q) -> F(q + 2pmn)."""
    if isinstance(atom, VTypical):
        return FockTypical(atom.q + n * op.q_modulus)
    species = MSimple if isinstance(atom, WSimple) else Proj
    return species(atom.r + n * op.r_modulus, atom.s)


def random_expr_text(rng, orbifold=False):
    """Random valid expression text at p = 2 (m = 2 for the orbifold family),
    with haphazard whitespace, explicit 1* multiplicities, and unsorted terms."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        mult = rng.choice(["", "1*", "2*", "3*", "12*"])
        if orbifold:
            kind = rng.choice(["W", "V", "R"])
            if kind == "V":
                atom = f"V({rng.choice([1, 3, 5, 7, -1, -3])}/2)"
            else:
                s = rng.randint(1, 1 if kind == "R" else 2)
                atom = f"{kind}({rng.randint(-6, 6)},{s})"
        else:
            kind = rng.choice(["M", "P", "F", "Fa", "G"])
            if kind == "F":
                den = rng.choice([2, 3, 4, 5])
                num = rng.choice([n for n in range(-12, 13) if n % den != 0])
                atom = f"F({num}/{den})"
            else:
                s = rng.randint(1, 1 if kind in ("P", "Fa") else 2)
                atom = f"{kind}({rng.randint(-9, 9)},{s})"
        pad = rng.choice(["", " ", "  "])
        terms.append(f"{pad}{mult}{atom}{pad}")
    return "+".join(terms)


def ch_expr_by_terms(params, x, n):
    """Oracle for ``characters.ch_expr``: every Fock factor and every
    embedding-chain term of every summand is summed into the coefficients
    on its own, term by term, with no numerator shared between them."""
    by_coset = {}
    for atom, mult in as_expr(x).terms():
        atom = normalize_atom(params, atom)
        lw = lowest_weight(params, atom)
        by_coset.setdefault(lw % 1, []).append((atom, mult, lw))
    out = {}
    for key, atoms in by_coset.items():
        base = min(lw for _, _, lw in atoms)
        acc = [0] * (n + 1)
        for atom, mult, _ in atoms:
            _add_atom_coeffs(params, atom, mult, base, acc)
        out[key] = QSeries(base, acc)
    return CharacterSum(out)


def _add_atom_coeffs(params, atom, mult, base, acc):
    """Add the graded dimensions of ``atom`` into acc[k] ~ weight base + k."""
    depth = len(acc) - 1
    p = params.p
    for factor, fmult in k_class(params, atom).terms():
        fmult *= mult
        if isinstance(factor, FockTypical):
            off = lowest_weight(params, factor) - base
            if off > depth:
                continue
            assert off.denominator == 1 and off >= 0
            off = int(off)
            part = partition_numbers(depth - off)
            for k in range(off, depth + 1):
                acc[k] += fmult * part[k - off]
        else:
            r0 = max(factor.r, 2 - factor.r)
            s = factor.s
            i = 0
            while True:
                r = r0 + 2 * i
                off = h_rs(params, r, s) - base
                if off > depth:
                    break
                assert off.denominator == 1 and off >= 0
                off = int(off)
                gap = r * p if s == p else r * s
                part = partition_numbers(depth - off)
                for k in range(off, depth + 1):
                    j = k - off
                    acc[k] += fmult * (part[j] - (part[j - gap] if j >= gap else 0))
                i += 1


def k_class_by_species(params, x):
    """Oracle for ``modules.k_class``: the composition factors of each species
    written out case by case, apart from the socle-series table that
    ``k_class``, ``loewy_layers`` and ``verma_quotient_factors`` share."""
    p = params.p
    pieces = []
    for atom, mult in as_expr(x).terms():
        atom = normalize_atom(params, atom)
        if isinstance(atom, (MSimple, FockTypical)):
            factors = ModuleExpr.of(atom)
        elif isinstance(atom, FockAtypical):
            factors = ModuleExpr.of(MSimple(atom.r, atom.s), MSimple(atom.r + 1, p - atom.s))
        elif isinstance(atom, Proj):
            simple = MSimple(atom.r, atom.s)
            factors = ModuleExpr.of(
                simple, simple, MSimple(atom.r - 1, p - atom.s), MSimple(atom.r + 1, p - atom.s)
            )
        else:
            factors = verma_factors_by_cases(p, atom.r, atom.s)
        pieces.append((mult, factors))
    return ModuleExpr.combine(pieces)


def verma_factors_by_cases(p, r, s):
    """Oracle for ``modules.verma_quotient_factors`` at 1 <= s <= p: top M(r,s)
    over socle M(r+1,p-s) for r > 1, M(0,p-s) + M(2,p-s) for r = 1 and
    M(r-1,p-s) for r < 1; simple for s = p."""
    if s == p:
        return ModuleExpr.of(MSimple(r, p))
    if r > 1:
        return ModuleExpr.of(MSimple(r, s), MSimple(r + 1, p - s))
    if r < 1:
        return ModuleExpr.of(MSimple(r, s), MSimple(r - 1, p - s))
    return ModuleExpr.of(MSimple(1, s), MSimple(0, p - s), MSimple(2, p - s))


def projective_decompose_by_chains(params, k):
    """Oracle for ``fusion.projective_decompose``: the banded solver.

    The class map couples (r, s) with (r +- 1, p - s), so the s < p labels
    split into chains, along each of which the multiplicities n[j] of the
    projectives solve c[j] = 2n[j] + n[j-1] + n[j+1].  They are found by
    forward substitution from the lowest label and checked for
    nonnegativity and against the two top equations."""
    p = params.p
    out = []
    chains = {}
    for atom, mult in as_expr(k).terms():
        atom = normalize_atom(params, atom)
        if isinstance(atom, FockTypical) or (isinstance(atom, MSimple) and atom.s == p):
            out.append((atom, mult))
        elif isinstance(atom, MSimple):
            chains.setdefault(_chain_id(p, atom.r, atom.s), {})[atom.r] = mult
        else:
            raise DomainError(f"K-class must contain only simple labels, got {label(atom)}")
    for chain, c in chains.items():
        lo, hi = min(c), max(c)
        if hi - lo < 2:
            raise NotProjectiveClass(f"isolated composition factors around r={lo}")
        n = {lo + 1: c[lo]}
        for j in range(lo + 1, hi - 1):
            n[j + 1] = c.get(j, 0) - 2 * n.get(j, 0) - n.get(j - 1, 0)
        ok = (
            all(v >= 0 for v in n.values())
            and c.get(hi - 1, 0) == 2 * n.get(hi - 1, 0) + n.get(hi - 2, 0)
            and c.get(hi, 0) == n.get(hi - 1, 0)
        )
        if not ok:
            raise NotProjectiveClass("no nonnegative integer projective decomposition")
        for j, mult in n.items():
            if mult:
                out.append((Proj(j, _chain_s_at(p, chain, j)), mult))
    return ModuleExpr(out)


def _chain_id(p, r, s):
    """A chain is labelled by the smaller of {s, p-s} plus the parity of r
    that carries it (-1 when s = p - s, which every r carries)."""
    s0 = min(s, p - s)
    if s0 == p - s0:
        return (s0, -1)
    return (s0, r % 2 if s == s0 else (r + 1) % 2)


def _chain_s_at(p, chain, j):
    s0, anchor = chain
    if anchor == -1:
        return s0
    return s0 if j % 2 == anchor else p - s0


def laurent_image(params, x):
    """The K-class of ``x`` as a Laurent polynomial ``{Fraction exponent: int}``.

    M(r,s) -> x^(p(r-1)) (x^(1-s) + x^(3-s) + ... + x^(s-1)) and
    F(q) -> x^(q+p-1) (x^(1-p) + ... + x^(p-1)): the weight characters of the
    unrolled quantum group behind the false-theta Verlinde formula.  The map
    is injective and multiplicative, and it does not use any fusion rule."""
    p = params.p
    out = {}
    for atom, mult in k_class(params, x).terms():
        if isinstance(atom, FockTypical):
            centre, width = atom.q + p - 1, p
        else:
            centre, width = Fraction(p * (atom.r - 1)), atom.s
        for k in range(1 - width, width, 2):
            out[centre + k] = out.get(centre + k, 0) + mult
    return out


def laurent_product(f, g):
    """Product of two Laurent polynomials ``{exponent: coefficient}``."""
    out = {}
    for e, a in f.items():
        for e2, b in g.items():
            out[e + e2] = out.get(e + e2, 0) + a * b
    return out


def k_product_by_pairs(params, a, b):
    """Oracle for ``fusion.k_product``: bilinear over the simple factors of
    both K-classes, each pair multiplied by its closed form in species order,
    and same-species products (which hold projectives) taken to their class."""
    ka, kb = k_class(params, a).terms(), k_class(params, b).terms()
    pieces = []
    for x, mx in ka:
        for y, my in kb:
            lo, hi = (x, y) if x._RANK <= y._RANK else (y, x)
            product = _CLOSED_FORMS[type(lo), type(hi)](params, lo, hi)
            if type(x) is type(y):
                product = k_class(params, product)
            pieces.append((mx * my, product))
    return ModuleExpr.combine(pieces)


def closed_form(params, x, y):
    """The closed form of ``fusion._CLOSED_FORMS`` at two normalized fusable
    labels, applied to them in canonical order, with no id table."""
    lo, hi = (y, x) if sort_key(y) < sort_key(x) else (x, y)
    return _CLOSED_FORMS[type(lo), type(hi)](params, lo, hi)


# The species pairs whose closed form ``fuse_by_term_pairs`` takes from
# ``fusion._CLOSED_FORMS``; P x M, F x P and P x P are not among them.
_ORACLE_CLOSED_FORMS = (
    (MSimple, MSimple),
    (MSimple, FockTypical),
    (FockTypical, FockTypical),
)


def fuse_by_term_pairs(params, x, y):
    """Oracle for ``fusion.fuse``: the sorted terms of x are normalized one by
    one, then those of y, so the first bad label of x, else of y, raises;
    then a nested loop over the pairs builds each pair's row afresh, with no
    id table and no cache: the closed form of the pair in canonical order
    for the pairs in ``_ORACLE_CLOSED_FORMS``, and, for P x M, F x P and
    P x P, the peel of the K-ring product summed pair by pair over the
    simple factors, a derivation that does not use the rules of those three
    pairs."""
    xs = [(_fusable(params, a), ma) for a, ma in as_expr(x).terms()]
    ys = [(_fusable(params, b), mb) for b, mb in as_expr(y).terms()]
    pieces = []
    for a, ma in xs:
        for b, mb in ys:
            lo, hi = (b, a) if sort_key(b) < sort_key(a) else (a, b)
            if (type(lo), type(hi)) in _ORACLE_CLOSED_FORMS:
                row = _CLOSED_FORMS[type(lo), type(hi)](params, lo, hi)
            else:
                row = projective_decompose(params, k_product_by_pairs(params, lo, hi))
            pieces.append((ma * mb, row))
    return ModuleExpr.combine(pieces)


def orbifold_fuse_by_term_pairs(op, x, y):
    """Oracle for ``orbifold.orbifold_fuse``: the sum over every pair of
    terms of the induced singlet product of the two canonical lifts, one
    product and one induction per pair."""
    xs = [(lift_atom(op, a), ma) for a, ma in as_expr(x).terms()]
    ys = [(lift_atom(op, b), mb) for b, mb in as_expr(y).terms()]
    pieces = []
    for a, ma in xs:
        for b, mb in ys:
            pieces.append((ma * mb, induce(op, fuse(op.singlet, a, b))))
    return ModuleExpr.combine(pieces)
