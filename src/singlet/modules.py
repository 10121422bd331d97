"""Indecomposable module labels, direct sums, and structural data.

Species
-------
* ``MSimple(r, s)``       atypical simple, r in Z, 1 <= s <= p
* ``FockTypical(q)``      typical Fock module at non-integer coordinate q
* ``Proj(r, s)``          length-4 projective cover, 1 <= s <= p-1
* ``FockAtypical(r, s)``  length-2 Fock module at an integral weight, s < p
* ``GenVerma(r, s)``      generalized Verma quotient (structural species)

Labels are frozen values with ``__slots__``, so that no label carries a
``__dict__``: product caches hold thousands of them.  Their equality, hash
and repr are the one rule of :class:`~singlet.weights.Value`: equal only
within a species, on equal fields.  Every label is a ``PairLabel`` of two
ints (r, s) or a ``CoordLabel`` of one rational q; these two state that
rule directly.  A ``PairLabel`` compares r and s without building a
tuple and hashes ``(r, s)``; a ``CoordLabel`` compares the (numerator,
denominator) ints of q and caches its hash.
A label checks its fields once, when it is made, so a label equal to a
valid one is valid and no cache keyed by labels checks them again; the
rules that depend on p are :func:`normalize_atom`'s, and its s-range test,
:func:`check_s`, is the one every pair label of any family goes through.

``Proj(r, p)`` and ``FockAtypical(r, p)`` are never stored; the label
conventions collapse both to ``MSimple(r, p)`` in :func:`normalize_atom` only.
The socle series of each species, the Verma socle cases included, is stated
once, in ``_layers``; K-classes, Loewy layers, lowest weights, Verma
factors and the test of simplicity in :func:`twist_phase` read it, and so
do the peel of projective classes and the orbifold covers, through them.

A :class:`ModuleExpr` is a finite multiset of labels with positive integer
multiplicities.  K-classes (multisets of composition factors) reuse the same
container, restricted to simple species.

:meth:`ModuleExpr.combine` is the one way to accumulate a direct sum, and
:meth:`ModuleExpr.expand` the one way to extend a rule on labels over one:
of several bad terms, the first in canonical order is reported.  The results
of ``combine``, ``+``, ``*`` and ``expand`` are valid by construction;
``ModuleExpr(...)`` validates every multiplicity it is given.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import DomainError, NonSemisimpleTwist, SingletError, UnsupportedSpecies
from .weights import Params, UnitPhase, Value, conformal_weight, exact, h_rs

__all__ = [
    "MSimple",
    "FockTypical",
    "Proj",
    "FockAtypical",
    "GenVerma",
    "ModuleExpr",
    "as_label",
    "as_expr",
    "label",
    "sort_key",
    "check_s",
    "normalize_atom",
    "shift",
    "orbit",
    "alpha",
    "alpha_label",
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


_setattr = object.__setattr__


class PairLabel(Value):
    """A label ``Name(r, s)`` of two ints.  An int is of class int: a float
    or a bool equal to an int hashes as that int, so a label made of one
    would stand in a cache for the int label; it is refused here, once."""

    __slots__ = _fields = ("r", "s")

    def __init__(self, r: int, s: int):
        if r.__class__ is not int or s.__class__ is not int:
            raise DomainError(f"label {self._TAG}({r!r},{s!r}) needs integer r and s")
        _setattr(self, "r", r)
        _setattr(self, "s", s)

    # The rule of Value, stated directly: these labels are hashed on every
    # id-table lookup and every closed-form dict.  Equality builds no tuple;
    # the hash is that of (r, s), as in Value.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.r == other.r and self.s == other.s

    def __hash__(self):
        return hash((self.r, self.s))


class MSimple(PairLabel):
    __slots__ = ()
    _TAG = "M"
    _RANK = 0


class CoordLabel(Value):
    """A label ``Name(q)`` of one rational coordinate."""

    __slots__ = ("q", "_key", "_hash")
    _fields = ("q",)

    def __init__(self, q: Fraction):
        q = exact(q)
        _setattr(self, "q", q)
        # Fraction hashing and equality are slow, and labels are dict keys on
        # every product: compare the ints of q, and cache the hash of (q,).
        _setattr(self, "_key", (q.numerator, q.denominator))
        _setattr(self, "_hash", hash((q,)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash


class FockTypical(CoordLabel):
    __slots__ = ()
    _TAG = "F"
    _RANK = 1

    def __init__(self, q: Fraction):
        super().__init__(q)
        if self.q.denominator == 1:
            raise DomainError(f"typical Fock coordinate must be non-integral, got {self.q}")


class Proj(PairLabel):
    __slots__ = ()
    _TAG = "P"
    _RANK = 2


class FockAtypical(PairLabel):
    __slots__ = ()
    _TAG = "Fa"
    _RANK = 3


class GenVerma(PairLabel):
    __slots__ = ()
    _TAG = "G"
    _RANK = 4


def label(atom) -> str:
    """Canonical text label, e.g. ``M(-1,2)`` or ``F(1/2)``."""
    q = getattr(atom, "q", None)
    if q is not None:
        return f"{atom._TAG}({q})"
    return f"{atom._TAG}({atom.r},{atom.s})"


def sort_key(atom):
    """Total order on labels: species rank, then (r, s) or the coordinate.

    Ranks differ between species, so an int r is never compared with a
    Fraction coordinate.  Sorting a sum is the first thing most operations
    do, so a value that is not a label raises DomainError here."""
    try:
        q = getattr(atom, "q", None)
        return (atom._RANK, atom.r, atom.s) if q is None else (atom._RANK, q, 0)
    except AttributeError:
        raise DomainError(f"not a module label: {atom!r}") from None


def check_s(p: int, atom):
    """Raise the one s-range DomainError of every label family unless the
    pair label ``atom``, of any species, has 1 <= s <= p."""
    if not 1 <= atom.s <= p:
        raise DomainError(f"label {label(atom)} needs 1 <= s <= {p}")


def normalize_atom(params: Params, atom):
    """Check the rules of a label that depend on p: the s-range, and the
    s = p conventions, which it collapses.  That r and s are ints is the
    label's own rule, checked when it was made."""
    p = params.p
    if isinstance(atom, FockTypical):
        return atom
    if not isinstance(atom, (MSimple, Proj, FockAtypical, GenVerma)):
        raise DomainError(f"not a singlet module label: {atom!r}")
    check_s(p, atom)
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

    def items(self):
        """(atom, multiplicity) pairs in the order they were added, unsorted."""
        return self._terms.items()

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
        if not isinstance(other, ModuleExpr):
            return NotImplemented
        return ModuleExpr.combine(((1, self), (1, other)))

    def __rmul__(self, n: int) -> "ModuleExpr":
        return ModuleExpr.combine(((n, self),))

    __mul__ = __rmul__

    def expand(self, fn) -> "ModuleExpr":
        """Sum of ``mult * fn(atom)`` over the terms, in dict order, for ``fn``
        mapping a label to an iterable of labels.  On a SingletError, ``fn`` is
        called again over the terms in canonical order, so the first bad one
        there is reported: ``fn`` must raise when called, not when iterated."""
        out: dict = {}
        try:
            for atom, mult in self._terms.items():
                for new in fn(atom):
                    out[new] = out.get(new, 0) + mult
        except SingletError:
            for atom, _ in self.terms():
                fn(atom)
            raise
        return ModuleExpr._trusted(out)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for atom, mult in self.terms():
            parts.append(label(atom) if mult == 1 else f"{mult}*{label(atom)}")
        return " + ".join(parts)

    def __repr__(self):
        try:
            return f"ModuleExpr({self})"
        except DomainError:  # a hand-built sum that holds a non-label
            return f"ModuleExpr({self._terms!r})"

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


def as_label(x):
    """``x`` itself if it is a module label; DomainError on anything else,
    before a list or a dict can fail as a dict key."""
    if not isinstance(x, (PairLabel, CoordLabel)):
        raise DomainError(f"not a module label: {x!r}")
    return x


def as_expr(x) -> ModuleExpr:
    """``x`` if it is an expression, else the one-term sum of the label ``x``."""
    return x if isinstance(x, ModuleExpr) else ModuleExpr.of(as_label(x))


def shift(params: Params, atom, k: int):
    """The label J^k x atom, for the simple current J = M(2,1): r -> r + k
    on an (r, s) label, q -> q + kp on a coordinate label."""
    if isinstance(atom, FockTypical):
        return FockTypical(atom.q + k * params.p)
    return type(atom)(atom.r + k, atom.s)


def orbit(params: Params, atom) -> tuple:
    """The J-orbit of a label as ``(key, d)``: the label is J^d x base, for
    the one base of its orbit ``key`` with d = 0, so :func:`shift` by k
    keeps the key and adds k to d.  The key of an (r, s) label is its class
    and s, with d = r; that of F(q), q = n/den, is den and n mod den*p,
    with d = floor(q / p)."""
    q = getattr(atom, "q", None)
    if q is None:
        return (atom.__class__, atom.s), atom.r
    den = q.denominator
    d, n = divmod(q.numerator, den * params.p)
    return (den, n), d


def alpha(p: int, r: int, s: int) -> int:
    """The integral coordinate alpha_{r,s} = p(r-1) - (s-1) of the weight
    labelling M(r,s); :func:`alpha_label` inverts it."""
    return p * (r - 1) - (s - 1)


def alpha_label(p: int, n: int) -> tuple:
    """The (r, s) with 1 <= s <= p and alpha_{r,s} = n: every int is
    alpha_{r,s} for exactly one such pair."""
    up = -(-n // p)  # ceil(n / p)
    return up + 1, p * up - n + 1


def defining_coord(params: Params, atom) -> Fraction:
    """Coordinate q of the weight labelling the atom: alpha_{r,s} for the
    integrally-labelled species, the Fock weight itself for typical."""
    q = getattr(atom, "q", None)
    if q is not None:
        return q
    return Fraction(alpha(params.p, atom.r, atom.s))


def dual_atom(params: Params, atom):
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
    return as_expr(x).expand(lambda atom: (dual_atom(params, normalize_atom(params, atom)),))


def _layers(p: int, atom) -> tuple:
    """Socle series of a normalized atom, top layer first, socle last; the
    layers are not sorted.  The one statement of each species' structure:

    * M(r,s), F(q): simple;
    * Fa(r,s): M(r+1,p-s) over M(r,s);
    * P(r,s): M(r,s) over M(r-1,p-s) + M(r+1,p-s) over M(r,s);
    * G(r,s): M(r,s) over M(r+1,p-s) for r > 1, M(0,p-s) + M(2,p-s) for
      r = 1, M(r-1,p-s) for r < 1; simple for s = p.
    """
    if isinstance(atom, (MSimple, FockTypical)):
        return ((atom,),)
    r, s = atom.r, atom.s
    top = MSimple(r, s)
    if isinstance(atom, GenVerma) and s == p:
        return ((top,),)
    below, above = MSimple(r - 1, p - s), MSimple(r + 1, p - s)
    if isinstance(atom, Proj):
        return (top,), (below, above), (top,)
    if isinstance(atom, FockAtypical):
        return (above,), (top,)
    return (top,), (above,) if r > 1 else (below,) if r < 1 else (below, above)


def verma_quotient_factors(params: Params, r: int, s: int) -> ModuleExpr:
    """Composition factors of the generalized Verma quotient G(r, s)."""
    return k_class(params, GenVerma(r, s))


def k_class(params: Params, x) -> ModuleExpr:
    """Multiset of composition factors (Grothendieck-group element)."""
    p = params.p
    return as_expr(x).expand(lambda atom: chain.from_iterable(_layers(p, normalize_atom(params, atom))))


def loewy_layers(params: Params, atom) -> list[list]:
    """Socle series of a single indecomposable, top layer first, socle last.

    Simple species give a single layer.  Layers are canonically sorted lists;
    repeated entries record multiplicities.
    """
    return [sorted(layer, key=sort_key) for layer in _layers(params.p, normalize_atom(params, atom))]


def lowest_weight(params: Params, atom) -> Fraction:
    """Minimal conformal weight of the atom: that of F(q), or the least over
    the composition factors M(r,s) of any other label."""
    atom = normalize_atom(params, atom)
    if isinstance(atom, FockTypical):
        return conformal_weight(params, atom.q)
    return min(h_rs(params, max(a.r, 2 - a.r), a.s) for a in chain.from_iterable(_layers(params.p, atom)))


def t_grade(params: Params, atom) -> Fraction:
    """Monodromy-grading coset of the atom: defining coordinate mod 2."""
    return defining_coord(params, normalize_atom(params, atom)) % 2


def twist_phase(params: Params, atom) -> UnitPhase:
    """Ribbon twist scalar exp(2*pi*i*h) on a simple module: any label whose
    socle series is one composition factor, G(r,p) included."""
    atom = normalize_atom(params, atom)
    factors = list(chain.from_iterable(_layers(params.p, atom)))
    if len(factors) > 1:
        raise NonSemisimpleTwist(f"twist is not scalar on {label(atom)}")
    return UnitPhase(lowest_weight(params, factors[0]))


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
    check_s(params.p, MSimple(r, s))
    if r < 1:
        raise DomainError(f"induction needs r >= 1, got r={r}")
    return ModuleExpr.of(*(MSimple(2 * k - r, s) for k in range(1, r + 1)))
