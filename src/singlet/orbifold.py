"""Cyclic triplet orbifold layer: simples, induction, fusion, covers, characters.

The orbifold of order m extends the singlet algebra by the index-2m simple
current orbit; its module labels are orbits of singlet labels:

* ``WSimple(r, s)``  r taken mod 2m, 1 <= s <= p
* ``VTypical(q)``    q taken mod 2pm, with m*q integral and q non-integral
* ``RProj(r, s)``    r mod 2m, 1 <= s <= p-1; ``RProj(r, p)`` collapses to
  ``WSimple(r, p)``

Induction is defined exactly on local singlet modules (m*q integral).  It is
a tensor functor, so an orbifold product is computed in one way: lift both
operands to singlet representatives, fuse there, and induce back.  The
``orbifold`` check suite and the property tests require the result not to
depend on the chosen lifts.

Each orbifold species is the induction of one singlet species: the table
``_LIFTS`` maps each orbifold class to the singlet class of its canonical lift
and to its normalizer, and lifting, induction and normalization all read it.
:func:`lift_atom` is the one lift: products, characters, Loewy layers and
covers (the induced layers of a lift) all go through it.  An
:class:`OrbifoldParams` keeps every image that induction has made and every
lift that :func:`lift_atom` has made (successes only), so a label is
validated and converted once per parameter set.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import CharacterSum, ch_expr, check_order
from .errors import DomainError, NotLocal, UnsupportedSpecies
from .fusion import fuse
from .modules import (
    CoordLabel,
    FockTypical,
    ModuleExpr,
    MSimple,
    PairLabel,
    Proj,
    as_expr,
    check_s,
    defining_coord,
    label,
    loewy_layers,
    lowest_weight,
    normalize_atom,
    shift,
    sort_key,
)
from .weights import Params, Value, exact

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
    "orbifold_loewy_layers",
    "orbifold_projective_cover",
    "orbifold_char_expr",
]


_setattr = object.__setattr__


class OrbifoldParams(Value):
    """Orbifold parameters: singlet p and cyclic order m >= 1.  ``singlet`` is
    the one :class:`Params` of p, built and checked once; ``images`` maps each
    singlet label already induced to its orbifold label, and ``lifts`` each
    orbifold label already lifted by :func:`lift_atom` to its canonical
    singlet lift (successes only, so a bad label is checked on every call).
    None of these is a field: equality, hash and repr read (p, m) only."""

    __slots__ = ("p", "m", "singlet", "images", "lifts")
    _fields = ("p", "m")

    def __init__(self, p: int, m: int):
        _setattr(self, "p", p)
        _setattr(self, "m", m)
        _setattr(self, "singlet", Params(p))
        _setattr(self, "images", {})
        _setattr(self, "lifts", {})
        if m.__class__ is not int or m < 1:
            raise DomainError(f"m must be an integer >= 1, got {m!r}")

    @property
    def r_modulus(self) -> int:
        return 2 * self.m

    @property
    def q_modulus(self) -> int:
        return 2 * self.p * self.m


class WSimple(PairLabel):
    __slots__ = ()
    _TAG = "W"
    _RANK = 5


class VTypical(CoordLabel):
    __slots__ = ()
    _TAG = "V"
    _RANK = 6


class RProj(PairLabel):
    __slots__ = ()
    _TAG = "R"
    _RANK = 7


def w_simple(op: OrbifoldParams, r: int, s: int) -> WSimple:
    check_s(op.p, WSimple(r, s))
    return WSimple(r % op.r_modulus, s)


def r_proj(op: OrbifoldParams, r: int, s: int):
    check_s(op.p, RProj(r, s))
    return (WSimple if s == op.p else RProj)(r % op.r_modulus, s)


def v_typical(op: OrbifoldParams, q) -> VTypical:
    q = exact(q)
    if q.denominator == 1:
        raise DomainError(f"V coordinate must be non-integral, got {q}")
    if (op.m * q).denominator != 1:
        raise DomainError(f"V coordinate must have m*q integral, got q={q} at m={op.m}")
    return VTypical(q % op.q_modulus)


# Orbifold class -> (singlet class of its canonical lift, normalizer).
_LIFTS = {
    WSimple: (MSimple, w_simple),
    RProj: (Proj, r_proj),
    VTypical: (FockTypical, v_typical),
}
# Singlet class -> normalizer of its image, for the species that induce.
_IMAGES = {lift: normalize for lift, normalize in _LIFTS.values()}


def normalize_orbifold_atom(op: OrbifoldParams, atom):
    if atom.__class__ not in _LIFTS:
        raise DomainError(f"not an orbifold module label: {atom!r}")
    return _LIFTS[atom.__class__][1](op, *atom._values())


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


def _induce_atom(op: OrbifoldParams, atom):
    """The orbifold label of one singlet label, read from ``op.images`` or
    computed and kept there; a bad label raises and is not kept."""
    image = op.images.get(atom)
    if image is None:
        singlet = normalize_atom(op.singlet, atom)
        if singlet.__class__ not in _IMAGES:
            raise UnsupportedSpecies(f"induction is not defined for {label(singlet)}")
        if not is_local(op, singlet):
            raise NotLocal(f"{label(singlet)} is not local at m={op.m}")
        image = op.images[atom] = _IMAGES[singlet.__class__](op, *singlet._values())
    return image


def induce(op: OrbifoldParams, x) -> ModuleExpr:
    """Induction of a local singlet expression to the orbifold, term by term
    through :meth:`ModuleExpr.expand`: of several bad terms, the first in
    canonical order is reported."""
    return as_expr(x).expand(lambda atom: (_induce_atom(op, atom),))


def lift_atom(op: OrbifoldParams, atom):
    """The canonical singlet lift of an orbifold label, read from ``op.lifts``
    or computed and kept there; a bad label raises the normalizer's error and
    is not kept, and a value that is not an orbifold label is refused."""
    lift = op.lifts.get(atom) if atom.__class__ in _LIFTS else None
    if lift is None:
        canon = normalize_orbifold_atom(op, atom)
        lift = op.lifts[atom] = _LIFTS[canon.__class__][0](*canon._values())
    return lift


def orbifold_fuse(op: OrbifoldParams, x, y) -> ModuleExpr:
    """Tensor product of orbifold expressions.

    Both operands are lifted term by term to their canonical singlet
    representatives (:func:`lift_atom`, memoized in ``op.lifts``), fused
    there as whole sums, and the product is induced back once.  Induction
    is a tensor functor, so any other choice of lifts gives the same
    result.  Errors follow the rule of every product: the first bad label
    of ``x`` in canonical order, else the first of ``y``.
    """

    def lift(z) -> ModuleExpr:
        return as_expr(z).expand(lambda atom: (lift_atom(op, atom),))

    return induce(op, fuse(op.singlet, lift(x), lift(y)))


def orbifold_loewy_layers(op: OrbifoldParams, atom) -> list[list]:
    """Socle series of an orbifold label, top layer first, socle last.
    Induction is exact, so these are the induced layers of its canonical
    singlet lift, each canonically sorted."""
    return [
        sorted((_induce_atom(op, a) for a in layer), key=sort_key)
        for layer in loewy_layers(op.singlet, lift_atom(op, atom))
    ]


def orbifold_projective_cover(op: OrbifoldParams, w) -> tuple:
    """Projective cover of a simple orbifold module, with its socle series
    (top first, socle last): R(r,s) for W(r,s), which is W(r,p) at s = p,
    and V(q) itself for V(q).  Each is the induction of the singlet cover of
    the lift, P(r,s) or F(q), so its layers are the induced layers."""
    atom = normalize_orbifold_atom(op, w)
    if isinstance(atom, RProj):
        raise DomainError(f"{label(atom)} is not simple")
    cover = r_proj(op, atom.r, atom.s) if isinstance(atom, WSimple) else atom
    return cover, orbifold_loewy_layers(op, cover)


def _orbit_lifts(op: OrbifoldParams, atom, depth: int) -> list:
    """All singlet lifts of ``atom`` whose lowest weight lies within
    ``depth`` of the orbit minimum.

    Lift n is J^(2mn) x the canonical lift: each composition factor moves n
    orbit steps.  A factor's lowest weight is (v^2 - (p-1)^2) / 4p, with
    v = p|r-1| + p - s for M(r, s) and v = |q + p - 1| for F(q).  Along the
    orbit v is a constant >= 0 plus a multiple of |a line in n|, so the
    weight is convex in n; and as the canonical lift has 0 <= r < 2m or
    0 <= q < 2pm, it is least at n = -1, 0 or 1.  So the orbit minimum is
    read at those three lifts, and left of -1 and right of 1 the weight of
    every factor, hence of the lift (their least), does not decrease as |n|
    grows: each walk outward stops exactly at the first lift past ``depth``.
    """
    singlet, step = op.singlet, op.r_modulus
    lift = lift_atom(op, atom)
    near = [shift(singlet, lift, n * step) for n in (-1, 0, 1)]
    weights = [lowest_weight(singlet, x) for x in near]
    top = min(weights) + depth
    kept = [x for x, w in zip(near, weights) if w <= top]
    for k in (-step, step):
        x = shift(singlet, lift, 2 * k)
        while lowest_weight(singlet, x) <= top:
            kept.append(x)
            x = shift(singlet, x, k)
    return kept


def orbifold_char_expr(op: OrbifoldParams, x, n: int) -> CharacterSum:
    """Truncated character of an orbifold expression (or of a single label):
    the sum of the characters of each summand's singlet lifts over its orbit."""
    check_order(n)
    lifted = as_expr(x).expand(lambda atom: _orbit_lifts(op, atom, n))
    return ch_expr(op.singlet, lifted, n)
