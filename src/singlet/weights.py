"""Exact arithmetic on Heisenberg weights, conformal weights and phases.

Weights live on the rational ray through half the short lattice generator:
a weight is given by the coordinate ``q`` with lambda = q * (alpha_minus/2).
In these coordinates the long generator alpha_plus has coordinate ``-2p``,
alpha_minus has coordinate ``2``, and the lattice memberships become
congruence conditions on ``q`` (integral q <=> dual lattice, q in 2pZ <=>
lattice itself).  Everything is a ``fractions.Fraction``; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DomainError

__all__ = [
    "Params",
    "UnitPhase",
    "h_rs",
    "conformal_weight",
    "allowed_neighbor_weights",
    "h0_squared",
]


_setattr = object.__setattr__


def exact(x) -> Fraction:
    """``Fraction(x)`` for an exact number, and a Fraction itself unchanged
    (rebuilding one costs as much as the arithmetic around most calls).  A
    float raises DomainError: it holds a binary approximation (1/3 is
    6004799503160661/2**54), not the rational that was meant."""
    if x.__class__ is Fraction:
        return x
    if isinstance(x, float):
        raise DomainError(f"numbers must be exact (an int or a Fraction), got the float {x!r}")
    return Fraction(x)


class Value:
    """Immutable value object.

    A subclass lists its fields in ``__slots__`` and sets each once in
    ``__init__`` with ``object.__setattr__``; ``_fields`` names the
    constructor arguments.  The rule of every value is stated once, here,
    on the tuple of those fields: two values are equal exactly when they
    are of the same class with equal tuples, the hash is the hash of the
    tuple, the repr is ``Name(field=value, ...)``, and pickling and copying
    rebuild the object from the tuple.  ``UnitPhase`` keeps a shorter
    repr, and the two label shapes hashed on every product,
    ``PairLabel`` and ``CoordLabel``, state the same equality and hash
    directly: neither builds a tuple to compare, ``PairLabel`` hashes
    ``(r, s)`` and ``CoordLabel`` caches its hash.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__name__}({args})"

    def __reduce__(self):
        return self.__class__, self._values()


class Params(Value):
    """Family parameter ``p >= 2`` of the singlet algebra."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int):
        if p.__class__ is not int or p < 2:
            raise DomainError(f"p must be an integer >= 2, got {p!r}")
        _setattr(self, "p", p)

    @property
    def central_charge(self) -> Fraction:
        return 13 - 6 * Fraction(self.p) - 6 * Fraction(1, self.p)


class UnitPhase(Value):
    """The root of unity exp(2*pi*i*e), stored as the exponent e in [0, 1).

    Phases multiply by adding exponents mod 1, so equality is exact.
    """

    __slots__ = _fields = ("exponent",)

    def __init__(self, exponent: Fraction):
        _setattr(self, "exponent", exact(exponent) % 1)

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase(self.exponent + other.exponent)

    def inverse(self) -> "UnitPhase":
        return UnitPhase(-self.exponent)

    def __repr__(self):
        return f"UnitPhase({self.exponent})"


def h_rs(params: Params, r: int, s: int) -> Fraction:
    """Virasoro conformal weight h_{r,s} = ((pr - s)^2 - (p-1)^2) / 4p."""
    p = params.p
    return Fraction((p * r - s) ** 2 - (p - 1) ** 2, 4 * p)


def conformal_weight(params: Params, q) -> Fraction:
    """Lowest conformal weight (q^2 + 2q(p-1)) / 4p of the Fock module at
    coordinate ``q``, as one Fraction of the ints of q = n/d.

    At the defining coordinate of M(r,s) this is h_{r,s}.
    Satisfies 4p*h + (p-1)^2 = (q+p-1)^2 exactly.
    """
    q = exact(q)
    n, d = q.numerator, q.denominator
    p = params.p
    return Fraction(n * (n + 2 * d * (p - 1)), 4 * p * d * d)


def allowed_neighbor_weights(params: Params, q, kind: str) -> frozenset[Fraction]:
    """Conformal weights reachable from the Fock module at coordinate ``q``
    by a surjective degenerate intertwining operator.

    ``kind`` is ``"via12"`` (the weight-h_{1,2} degenerate field) or
    ``"via31"`` (the weight-h_{3,1} field).  The discriminant
    4p*h + (p-1)^2 is the perfect square (q+p-1)^2, so the sets are exact:

    * via12: { h + 1/4p +- |q+p-1|/2p }
    * via31: { h, h + p +- |q+p-1| }
    """
    p = params.p
    q = exact(q)
    h = conformal_weight(params, q)
    root = abs(q + p - 1)
    if kind == "via12":
        return frozenset(
            {h + Fraction(1, 4 * p) + Fraction(sgn * root, 2 * p) for sgn in (1, -1)}
        )
    if kind == "via31":
        return frozenset({h, h + p + root, h + p - root})
    raise DomainError(f"kind must be 'via12' or 'via31', got {kind!r}")


def h0_squared(params: Params, h) -> Fraction:
    """Square of the zero-mode of the extra generator on a weight-h vector.

    Returns C_p * (h - h_{1,p}) * prod_{s=1}^{p-1} (h - h_{1,s})^2 with
    C_p = (4p)^(2p-1) / ((2p-1)!)^2.  Vanishes exactly at the h_{1,s}, which
    is what distinguishes the self-contragredient column of simple modules.
    """
    p = params.p
    h = exact(h)
    c_p = Fraction((4 * p) ** (2 * p - 1), factorial(2 * p - 1) ** 2)
    value = c_p * (h - h_rs(params, 1, p))
    for s in range(1, p):
        value *= (h - h_rs(params, 1, s)) ** 2
    return value
