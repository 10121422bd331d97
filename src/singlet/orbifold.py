"""Cyclic triplet orbifold layer: simples, induction, fusion, covers, characters.

The orbifold of order m extends the singlet algebra by the index-2m simple
current orbit; its module labels are orbits of singlet labels:

* ``WSimple(r, s)``  r taken mod 2m, 1 <= s <= p
* ``VTypical(q)``    q taken mod 2pm, with m*q integral and q non-integral
* ``RProj(r, s)``    r mod 2m, 1 <= s <= p-1; ``RProj(r, p)`` collapses to
  ``WSimple(r, p)``

Induction is defined exactly on local singlet modules (m*q integral).
Fusion is implemented twice: by the direct closed formulas with indices
reduced modulo the orbit lattice, and (for products involving covers) by
lifting to singlet representatives, fusing there, and inducing back.  The
check suites require the two paths to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .characters import CharacterSum, ch_expr
from .errors import DomainError, NotLocal, UnsupportedSpecies
from .fusion import atypical_sum_ranges, atypical_target, fuse, typical_pair_terms
from .modules import (
    FockTypical,
    ModuleExpr,
    MSimple,
    Proj,
    as_expr,
    defining_coord,
    label,
    lowest_weight,
    normalize_atom,
    sort_key,
    term_pairs,
)
from .weights import Params

__all__ = [
    "OrbifoldParams",
    "WSimple",
    "VTypical",
    "RProj",
    "w_simple",
    "v_typical",
    "r_proj",
    "list_simples",
    "is_local",
    "induce",
    "lift_atom",
    "orbifold_fuse",
    "orbifold_projective_cover",
    "orbifold_char",
    "orbifold_char_expr",
]


@dataclass(frozen=True)
class OrbifoldParams:
    """Orbifold parameters: singlet p >= 2 and cyclic order m >= 1."""

    p: int
    m: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise DomainError(f"p must be an integer >= 2, got {self.p!r}")
        if not isinstance(self.m, int) or self.m < 1:
            raise DomainError(f"m must be an integer >= 1, got {self.m!r}")

    @property
    def singlet(self) -> Params:
        return Params(self.p)

    @property
    def r_modulus(self) -> int:
        return 2 * self.m

    @property
    def q_modulus(self) -> int:
        return 2 * self.p * self.m


@dataclass(frozen=True)
class WSimple:
    r: int
    s: int
    _TAG: ClassVar[str] = "W"
    _RANK: ClassVar[int] = 5


@dataclass(frozen=True)
class VTypical:
    q: Fraction
    _TAG: ClassVar[str] = "V"
    _RANK: ClassVar[int] = 6

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))


@dataclass(frozen=True)
class RProj:
    r: int
    s: int
    _TAG: ClassVar[str] = "R"
    _RANK: ClassVar[int] = 7


def w_simple(op: OrbifoldParams, r: int, s: int) -> WSimple:
    if not 1 <= s <= op.p:
        raise DomainError(f"W label needs 1 <= s <= {op.p}, got s={s}")
    return WSimple(r % op.r_modulus, s)


def r_proj(op: OrbifoldParams, r: int, s: int):
    if not 1 <= s <= op.p:
        raise DomainError(f"R label needs 1 <= s <= {op.p}, got s={s}")
    if s == op.p:
        return WSimple(r % op.r_modulus, s)
    return RProj(r % op.r_modulus, s)


def v_typical(op: OrbifoldParams, q) -> VTypical:
    q = Fraction(q)
    if q.denominator == 1:
        raise DomainError(f"V coordinate must be non-integral, got {q}")
    if (op.m * q).denominator != 1:
        raise DomainError(f"V coordinate must have m*q integral, got q={q} at m={op.m}")
    return VTypical(q % op.q_modulus)


def normalize_orbifold_atom(op: OrbifoldParams, atom):
    if isinstance(atom, WSimple):
        return w_simple(op, atom.r, atom.s)
    if isinstance(atom, RProj):
        return r_proj(op, atom.r, atom.s)
    if isinstance(atom, VTypical):
        return v_typical(op, atom.q)
    raise DomainError(f"not an orbifold module label: {atom!r}")


def list_simples(op: OrbifoldParams) -> list:
    """All simple labels: 2pm orbit simples and 2pm(m-1) typical orbits."""
    out = [WSimple(r, s) for r in range(op.r_modulus) for s in range(1, op.p + 1)]
    out += [
        VTypical(Fraction(j, op.m))
        for j in range(op.q_modulus * op.m)
        if j % op.m != 0
    ]
    return sorted(out, key=sort_key)


def is_local(op: OrbifoldParams, atom) -> bool:
    """True iff the singlet atom induces to an untwisted orbifold module."""
    return (op.m * defining_coord(op.singlet, normalize_atom(op.singlet, atom))).denominator == 1


def induce(op: OrbifoldParams, x) -> ModuleExpr:
    """Induction of a local singlet expression to the orbifold."""
    params = op.singlet
    out = []
    for atom, mult in as_expr(x).terms():
        atom = normalize_atom(params, atom)
        if isinstance(atom, MSimple):
            out.append((w_simple(op, atom.r, atom.s), mult))
        elif isinstance(atom, Proj):
            out.append((r_proj(op, atom.r, atom.s), mult))
        elif isinstance(atom, FockTypical):
            if not is_local(op, atom):
                raise NotLocal(f"{label(atom)} is not local at m={op.m}")
            out.append((v_typical(op, atom.q), mult))
        else:
            raise UnsupportedSpecies(f"induction is not defined for {label(atom)}")
    return ModuleExpr(out)


def lift_atom(op: OrbifoldParams, atom):
    """Canonical singlet representative of an orbifold label."""
    if isinstance(atom, WSimple):
        return MSimple(atom.r, atom.s)
    if isinstance(atom, RProj):
        return Proj(atom.r, atom.s)
    if isinstance(atom, VTypical):
        return FockTypical(atom.q)
    raise DomainError(f"not an orbifold module label: {atom!r}")


def _fuse_ww(op: OrbifoldParams, a: WSimple, b: WSimple) -> ModuleExpr:
    rr = a.r + b.r - 1
    first, second = atypical_sum_ranges(op.p, a.s, b.s)
    terms = [(w_simple(op, rr, l), 1) for l in first]
    terms += [(r_proj(op, rr, l), 1) for l in second]
    return ModuleExpr(terms)


def _fuse_wv(op: OrbifoldParams, a: WSimple, b: VTypical) -> ModuleExpr:
    base = b.q + op.p * (a.r - 1) - (a.s - 1)
    return ModuleExpr([(v_typical(op, base + 2 * l), 1) for l in range(a.s)])


def _fuse_vv(op: OrbifoldParams, a: VTypical, b: VTypical) -> ModuleExpr:
    p = op.p
    total = (a.q + b.q) % op.q_modulus
    if total.denominator != 1:
        return ModuleExpr([(v_typical(op, total + 2 * l), 1) for l in range(p)])
    n = int(total) - (2 - 2 * p)
    r, s = atypical_target(p, n)
    return ModuleExpr([(r_proj(op, rr, ss), 1) for rr, ss in typical_pair_terms(p, r, s)])


def _orbifold_pair(op: OrbifoldParams, a, b) -> ModuleExpr:
    if isinstance(a, RProj) or isinstance(b, RProj):
        lifted = fuse(op.singlet, ModuleExpr.of(lift_atom(op, a)), ModuleExpr.of(lift_atom(op, b)))
        return induce(op, lifted)
    if isinstance(a, WSimple) and isinstance(b, WSimple):
        return _fuse_ww(op, a, b)
    if isinstance(a, WSimple):
        return _fuse_wv(op, a, b)
    if isinstance(b, WSimple):
        return _fuse_wv(op, b, a)
    return _fuse_vv(op, a, b)


def orbifold_fuse(op: OrbifoldParams, x, y) -> ModuleExpr:
    """Tensor product of orbifold expressions.

    Simple x simple products use the closed formulas with indices reduced
    mod the orbit lattice; products involving a cover lift to singlet
    representatives, fuse there, and induce back.
    """
    return ModuleExpr.combine(
        (ma * mb, _orbifold_pair(op, a, b))
        for a, ma, b, mb in term_pairs(x, y, lambda atom: normalize_orbifold_atom(op, atom))
    )


def orbifold_projective_cover(op: OrbifoldParams, w) -> tuple:
    """Projective cover of a simple orbifold module, with its socle series
    (top first, socle last).  Typical orbits and the s = p column are their
    own covers."""
    atom = normalize_orbifold_atom(op, w)
    if isinstance(atom, VTypical) or atom.s == op.p:
        return atom, [[atom]]
    if isinstance(atom, RProj):
        raise DomainError(f"{label(atom)} is not simple")
    cover = RProj(atom.r, atom.s)
    middle = sorted(
        [w_simple(op, atom.r - 1, op.p - atom.s), w_simple(op, atom.r + 1, op.p - atom.s)],
        key=sort_key,
    )
    return cover, [[atom], middle, [atom]]


def _orbit_lifts(op: OrbifoldParams, atom, depth: int) -> ModuleExpr:
    """All singlet lifts of ``atom`` whose lowest weight lies within
    ``depth`` of the orbit minimum."""
    params = op.singlet
    step = op.r_modulus  # shift of the r index per orbit generator

    if isinstance(atom, VTypical):
        def member(n):
            return FockTypical(atom.q + op.q_modulus * n)
    elif isinstance(atom, WSimple):
        def member(n):
            return MSimple(atom.r + step * n, atom.s)
    else:
        def member(n):
            return Proj(atom.r + step * n, atom.s)

    def lw(n):
        return lowest_weight(params, member(n))

    # The weight of each composition factor is a parabola in n; their minimum
    # is unimodal up to a plateau of bounded width, so expand a window and
    # keep pushing while within a margin of the best value seen.
    window = {0: lw(0)}
    best = window[0]
    for direction in (1, -1):
        n = direction
        misses = 0
        while misses < 3:
            window[n] = lw(n)
            best = min(best, window[n])
            misses = misses + 1 if window[n] > best + depth else 0
            n += direction
    return ModuleExpr([(member(n), 1) for n, w in window.items() if w <= best + depth])


def orbifold_char(op: OrbifoldParams, atom, n: int) -> CharacterSum:
    """Truncated character of an orbifold module: the sum of its singlet
    lifts' characters over the orbit."""
    return orbifold_char_expr(op, ModuleExpr.of(atom), n)


def orbifold_char_expr(op: OrbifoldParams, x, n: int) -> CharacterSum:
    lifted = ModuleExpr.combine(
        (mult, _orbit_lifts(op, normalize_orbifold_atom(op, atom), n))
        for atom, mult in as_expr(x).terms()
    )
    return ch_expr(op.singlet, lifted, n)
