"""Indecomposable module labels, direct sums, and structural data.

Species
-------
* ``MSimple(r, s)``       atypical simple, r in Z, 1 <= s <= p
* ``FockTypical(q)``      typical Fock module at non-integer coordinate q
* ``Proj(r, s)``          length-4 projective cover, 1 <= s <= p-1
* ``FockAtypical(r, s)``  length-2 Fock module at an integral weight, s < p
* ``GenVerma(r, s)``      generalized Verma quotient (structural species)

``Proj(r, p)`` and ``FockAtypical(r, p)`` are never stored; the label
conventions collapse both to ``MSimple(r, p)`` (see :func:`normalize_atom`).

A :class:`ModuleExpr` is a finite multiset of labels with positive integer
multiplicities.  K-classes (multisets of composition factors) reuse the same
container, restricted to simple species.

:meth:`ModuleExpr.combine` is the one way to accumulate a direct sum: it
adds ``n * expr`` over ``(n, expr)`` pairs into a single dict, checking each
scalar once.  ``ModuleExpr(...)`` validates every multiplicity it is given;
the results of ``combine``, ``+``, ``*``, ``subtract`` and ``map_atoms`` are
valid by construction (no zero or negative multiplicity) and skip that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

from .errors import DomainError, NonSemisimpleTwist, UnsupportedSpecies
from .weights import Params, UnitPhase, Weight, conformal_weight, h_rs

__all__ = [
    "MSimple",
    "FockTypical",
    "Proj",
    "FockAtypical",
    "GenVerma",
    "Indecomposable",
    "ModuleExpr",
    "as_expr",
    "term_pairs",
    "label",
    "sort_key",
    "normalize_atom",
    "defining_coord",
    "dual",
    "dual_atom",
    "k_class",
    "loewy_layers",
    "lowest_weight",
    "t_grade",
    "twist_phase",
    "monodromy_phase_with_m21",
    "verma_quotient_factors",
    "virasoro_induce",
]


@dataclass(frozen=True)
class MSimple:
    r: int
    s: int
    _TAG: ClassVar[str] = "M"
    _RANK: ClassVar[int] = 0


@dataclass(frozen=True)
class FockTypical:
    q: Fraction
    _TAG: ClassVar[str] = "F"
    _RANK: ClassVar[int] = 1

    def __post_init__(self):
        q = Fraction(self.q)
        if q.denominator == 1:
            raise DomainError(f"typical Fock coordinate must be non-integral, got {q}")
        object.__setattr__(self, "q", q)
        # Fraction hashing is slow and these atoms are dict keys on every
        # product; the value is the one the dataclass would compute.
        object.__setattr__(self, "_hash", hash((q,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Proj:
    r: int
    s: int
    _TAG: ClassVar[str] = "P"
    _RANK: ClassVar[int] = 2


@dataclass(frozen=True)
class FockAtypical:
    r: int
    s: int
    _TAG: ClassVar[str] = "Fa"
    _RANK: ClassVar[int] = 3


@dataclass(frozen=True)
class GenVerma:
    r: int
    s: int
    _TAG: ClassVar[str] = "G"
    _RANK: ClassVar[int] = 4


Indecomposable = Union[MSimple, FockTypical, Proj, FockAtypical, GenVerma]


def label(atom) -> str:
    """Canonical text label, e.g. ``M(-1,2)`` or ``F(1/2)``."""
    q = getattr(atom, "q", None)
    if q is not None:
        return f"{atom._TAG}({q})"
    return f"{atom._TAG}({atom.r},{atom.s})"


def sort_key(atom):
    """Total order on labels: species rank, then (r, s) or the coordinate.

    Ranks differ between species, so an int r is never compared with a
    Fraction coordinate."""
    q = getattr(atom, "q", None)
    if q is not None:
        return (atom._RANK, q, 0)
    return (atom._RANK, atom.r, atom.s)


def normalize_atom(params: Params, atom) -> Indecomposable:
    """Validate s-ranges against p and collapse the s = p conventions."""
    p = params.p
    if isinstance(atom, FockTypical):
        return atom
    if not isinstance(atom, (MSimple, Proj, FockAtypical, GenVerma)):
        raise DomainError(f"not a singlet module label: {atom!r}")
    if not 1 <= atom.s <= p:
        raise DomainError(f"label {label(atom)} needs 1 <= s <= {p}")
    if isinstance(atom, (Proj, FockAtypical)) and atom.s == p:
        return MSimple(atom.r, p)
    return atom


class ModuleExpr:
    """Finite direct sum: multiset of labels with positive multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if isinstance(terms, ModuleExpr):
            data.update(terms._terms)
        elif isinstance(terms, dict):
            self._accumulate(data, terms.items())
        elif terms is not None:
            self._accumulate(data, terms)
        object.__setattr__(self, "_terms", data)

    @staticmethod
    def _accumulate(data, items):
        for atom, mult in items:
            if not isinstance(mult, int) or mult < 0:
                raise DomainError(f"multiplicity must be a nonnegative integer, got {mult!r}")
            if mult:
                data[atom] = data.get(atom, 0) + mult

    @classmethod
    def _trusted(cls, data: dict) -> "ModuleExpr":
        """Wrap a dict of positive int multiplicities without validating it."""
        out = object.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def combine(cls, pieces) -> "ModuleExpr":
        """Direct sum of ``n * expr`` over the ``(n, expr)`` pairs in ``pieces``."""
        data: dict = {}
        get = data.get
        for n, expr in pieces:
            if not isinstance(n, int) or n < 0:
                raise DomainError(f"scalar must be a nonnegative integer, got {n!r}")
            if n:
                for atom, mult in expr._terms.items():
                    data[atom] = get(atom, 0) + n * mult
        return cls._trusted(data)

    @classmethod
    def of(cls, *atoms) -> "ModuleExpr":
        data: dict = {}
        for atom in atoms:
            data[atom] = data.get(atom, 0) + 1
        return cls._trusted(data)

    @classmethod
    def zero(cls) -> "ModuleExpr":
        return cls()

    def terms(self):
        """Canonically sorted (atom, multiplicity) pairs."""
        return sorted(self._terms.items(), key=lambda kv: sort_key(kv[0]))

    def atoms(self):
        return [a for a, _ in self.terms()]

    def multiplicity(self, atom) -> int:
        return self._terms.get(atom, 0)

    def total(self) -> int:
        return sum(self._terms.values())

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, ModuleExpr) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "ModuleExpr") -> "ModuleExpr":
        return ModuleExpr.combine(((1, self), (1, other)))

    def __rmul__(self, n: int) -> "ModuleExpr":
        return ModuleExpr.combine(((n, self),))

    __mul__ = __rmul__

    def subtract(self, other: "ModuleExpr") -> "ModuleExpr":
        """Exact multiset difference; ValueError if any count would go negative."""
        out = dict(self._terms)
        for atom, mult in other._terms.items():
            left = out.get(atom, 0) - mult
            if left < 0:
                raise ValueError(f"multiset subtraction went negative at {label(atom)}")
            if left:
                out[atom] = left
            else:
                out.pop(atom, None)
        return ModuleExpr._trusted(out)

    def map_atoms(self, fn) -> "ModuleExpr":
        out: dict = {}
        for atom, mult in self._terms.items():
            new = fn(atom)
            out[new] = out.get(new, 0) + mult
        return ModuleExpr._trusted(out)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for atom, mult in self.terms():
            parts.append(label(atom) if mult == 1 else f"{mult}*{label(atom)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ModuleExpr({self})"

    def to_json(self) -> list:
        """Canonical serialization: sorted list of term objects."""
        out = []
        for atom, mult in self.terms():
            entry: dict = {"species": atom._TAG}
            q = getattr(atom, "q", None)
            if q is not None:
                entry["q"] = str(q)
            else:
                entry["r"] = atom.r
                entry["s"] = atom.s
            entry["mult"] = mult
            out.append(entry)
        return out


def as_expr(x) -> ModuleExpr:
    return x if isinstance(x, ModuleExpr) else ModuleExpr.of(x)


def term_pairs(x, y, normalize):
    """Every pair of terms of two expressions, as ``(a, ma, b, mb)`` with the
    atoms passed through ``normalize``, in canonical order.

    ``y`` is normalized once, right after the first term of ``x``, so the
    first error raised is the one a nested loop over ``x`` and ``y`` raises.
    """
    ys = None
    for a, ma in as_expr(x).terms():
        a = normalize(a)
        if ys is None:
            ys = [(normalize(b), mb) for b, mb in as_expr(y).terms()]
        for b, mb in ys:
            yield a, ma, b, mb


def defining_coord(params: Params, atom) -> Fraction:
    """Coordinate q of the weight labelling the atom: alpha_{r,s} for the
    integrally-labelled species, the Fock weight itself for typical."""
    q = getattr(atom, "q", None)
    if q is not None:
        return q
    return Fraction(params.p * (atom.r - 1) - (atom.s - 1))


def dual_atom(params: Params, atom) -> Indecomposable:
    p = params.p
    if isinstance(atom, MSimple):
        return MSimple(2 - atom.r, atom.s)
    if isinstance(atom, FockTypical):
        return FockTypical(2 - 2 * p - atom.q)
    if isinstance(atom, Proj):
        # Contragredients reverse the socle filtration, carrying the Loewy
        # diagram of P(r,s) onto that of P(2-r,s).
        return Proj(2 - atom.r, atom.s)
    if isinstance(atom, FockAtypical):
        return FockAtypical(1 - atom.r, p - atom.s)
    raise UnsupportedSpecies(f"dual is not defined for {label(atom)}")


def dual(params: Params, x) -> ModuleExpr:
    """Termwise contragredient; an involution on everything but GenVerma."""
    return as_expr(x).map_atoms(lambda a: dual_atom(params, normalize_atom(params, a)))


def verma_quotient_factors(params: Params, r: int, s: int) -> ModuleExpr:
    """Composition factors of the generalized Verma quotient at (r, s).

    Top factor M(r,s); socle M(r+1,p-s) for r > 1, M(0,p-s) + M(2,p-s) for
    r = 1, M(r-1,p-s) for r < 1.  For s = p the module is simple.
    """
    p = params.p
    if not 1 <= s <= p:
        raise DomainError(f"verma quotient needs 1 <= s <= {p}, got s={s}")
    if s == p:
        return ModuleExpr.of(MSimple(r, p))
    if r > 1:
        return ModuleExpr.of(MSimple(r, s), MSimple(r + 1, p - s))
    if r < 1:
        return ModuleExpr.of(MSimple(r, s), MSimple(r - 1, p - s))
    return ModuleExpr.of(MSimple(1, s), MSimple(0, p - s), MSimple(2, p - s))


def k_class(params: Params, x) -> ModuleExpr:
    """Multiset of composition factors (Grothendieck-group element)."""
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
            factors = verma_quotient_factors(params, atom.r, atom.s)
        pieces.append((mult, factors))
    return ModuleExpr.combine(pieces)


def loewy_layers(params: Params, atom) -> list[list[Indecomposable]]:
    """Socle series of a single indecomposable, top layer first, socle last.

    Simple species give a single layer.  Layers are canonically sorted lists;
    repeated entries record multiplicities.
    """
    atom = normalize_atom(params, atom)
    p = params.p
    if isinstance(atom, (MSimple, FockTypical)):
        return [[atom]]
    if isinstance(atom, FockAtypical):
        return [[MSimple(atom.r + 1, p - atom.s)], [MSimple(atom.r, atom.s)]]
    if isinstance(atom, Proj):
        middle = sorted(
            [MSimple(atom.r - 1, p - atom.s), MSimple(atom.r + 1, p - atom.s)], key=sort_key
        )
        return [[MSimple(atom.r, atom.s)], middle, [MSimple(atom.r, atom.s)]]
    if atom.s == p:
        return [[MSimple(atom.r, p)]]
    socle = verma_quotient_factors(params, atom.r, atom.s).subtract(
        ModuleExpr.of(MSimple(atom.r, atom.s))
    )
    flat = [a for a, m in socle.terms() for _ in range(m)]
    return [[MSimple(atom.r, atom.s)], flat]


def lowest_weight(params: Params, atom) -> Fraction:
    """Minimal conformal weight of the atom."""
    atom = normalize_atom(params, atom)
    if isinstance(atom, MSimple):
        return h_rs(params, max(atom.r, 2 - atom.r), atom.s)
    if isinstance(atom, FockTypical):
        return conformal_weight(Weight(atom.q, params.p))
    return min(lowest_weight(params, a) for a in k_class(params, atom).atoms())


def t_grade(params: Params, atom) -> Fraction:
    """Monodromy-grading coset of the atom: defining coordinate mod 2."""
    return defining_coord(params, normalize_atom(params, atom)) % 2


def twist_phase(params: Params, atom) -> UnitPhase:
    """Ribbon twist scalar exp(2*pi*i*h) on a simple module."""
    atom = normalize_atom(params, atom)
    if not isinstance(atom, (MSimple, FockTypical)):
        raise NonSemisimpleTwist(f"twist is not scalar on {label(atom)}")
    return UnitPhase(lowest_weight(params, atom))


def monodromy_phase_with_m21(params: Params, atom) -> UnitPhase:
    """Monodromy scalar of the order-two simple current against the atom.

    The exponent is q/2 mod 1 for defining coordinate q; this is the
    convention under which the balancing identity
    ``lowest_weight(M(2,1) x Y) - h_{2,1} - lowest_weight(Y) = q(Y)/2 mod 1``
    holds exactly for simple Y.
    """
    return UnitPhase(defining_coord(params, normalize_atom(params, atom)) / 2)


def virasoro_induce(params: Params, r: int, s: int) -> ModuleExpr:
    """Induction of the irreducible Virasoro module at (r, s), r >= 1:
    the direct sum of MSimple(2k - r, s) for k = 1..r."""
    if r < 1:
        raise DomainError(f"induction needs r >= 1, got r={r}")
    if not 1 <= s <= params.p:
        raise DomainError(f"induction needs 1 <= s <= {params.p}, got s={s}")
    return ModuleExpr.of(*(MSimple(2 * k - r, s) for k in range(1, r + 1)))
