"""Exact truncated graded characters (q-series without the c/24 prefactor).

A :class:`QSeries` is a leading exponent plus an integer coefficient vector;
a :class:`CharacterSum` groups series by the fractional part of the leading
exponent, for expressions whose summands live in different weight cosets.

A character is additive on composition factors, so it is read off the
K-class: per weight coset, one sparse integer numerator times the partition
series 1/prod(1 - q^k).  A Fock factor is a single monomial.  An atypical
simple is the alternating sum over its linear embedding chain, truncated
where the quadratic weight growth leaves the window: the Virasoro
irreducible at (r, s) gives q^h (1 - q^gap).  Equal offsets merge or cancel
in the numerator, and each of its terms then adds one shifted partition
series.  Partition numbers come from a cache that Euler's recurrence
extends with two C-level gathers per coefficient.
Everything is exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add

from .errors import DomainError
from .modules import FockTypical, _check_rs, k_class, lowest_weight
from .weights import Params, Value, exact, h_rs

__all__ = [
    "QSeries",
    "CharacterSum",
    "partition_numbers",
    "ch_vir_irr",
    "ch_expr",
]

_partitions = [1]
_TERM_BLOCK = 1024


def _pentagonal(limit: int):
    """Generalized pentagonal numbers k(3k -+ 1)/2 up to ``limit``, with the
    sign (-1)^(k+1) they carry in Euler's recurrence, in increasing order."""
    k = 1
    while True:
        sign = 1 if k % 2 else -1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g > limit:
                return
            yield g, sign
        k += 1


def _extend_partitions(end: int) -> None:
    """Append p(len(_partitions))..p(end - 1) to the cache by Euler's
    recurrence p(k) = sum of sign(g) * p(k - g) over the pentagonal g <= k.

    When the cache holds p(0)..p(k - 1), p(k - g) is its item -g, so every
    k between two pentagonal numbers reads the same offsets from the end of
    the cache: each p(k) there is two C-level gathers (``map`` of the list's
    ``__getitem__`` over the offsets of each sign) and two sums.  An offset
    joins its list when k reaches it; a last stop at ``end`` fills the tail.
    ``operator.itemgetter`` gathers faster, but its tuple of a new length at
    each pentagonal number left about 50 KB more resident after a fill to
    order 10000.
    """
    part = _partitions
    get = part.__getitem__
    plus, minus = [], []
    for g, sign in chain(_pentagonal(end - 1), [(end, 0)]):
        for _ in range(g - len(part)):
            part.append(sum(map(get, plus)) - sum(map(get, minus)))
        (plus if sign > 0 else minus).append(-g)


def check_order(n) -> None:
    """Raise DomainError unless the truncation order ``n`` is an int >= 0: of
    class int, as in a label, so a bool is refused."""
    if n.__class__ is not int:
        raise DomainError(f"truncation order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"truncation order must be >= 0, got {n}")


def partition_numbers(n: int) -> list[int]:
    """Partition numbers p(0)..p(n) by Euler's pentagonal-number recurrence,
    cached across calls; a copy of the cache, empty for n < 0."""
    if n.__class__ is int and n < 0:
        return []
    check_order(n)
    if len(_partitions) <= n:
        _extend_partitions(n + 1)
    return _partitions[: n + 1]


_setattr = object.__setattr__


class QSeries(Value):
    """Truncated series sum_n coeffs[n] * q^(h0 + n)."""

    __slots__ = _fields = ("h0", "coeffs")

    def __init__(self, h0: Fraction, coeffs: tuple):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise DomainError(f"series coefficients must be ints, got {c!r}")
        _setattr(self, "h0", exact(h0))
        _setattr(self, "coeffs", coeffs)

    def __str__(self):
        return f"q^({self.h0}) * {list(self.coeffs)}"


class CharacterSum:
    """Finite map from exponent-mod-1 cosets to truncated series; its text
    is one series per line, or ``0``."""

    __slots__ = ("_series",)

    def __init__(self, series):
        items = sorted(series.items() if isinstance(series, dict) else series, key=lambda kv: kv[1].h0)
        object.__setattr__(self, "_series", dict(items))

    def series(self):
        return list(self._series.values())

    def coset(self, key: Fraction):
        return self._series.get(exact(key) % 1)

    def __eq__(self, other):
        return isinstance(other, CharacterSum) and self._series == other._series

    def __str__(self):
        return "\n".join(str(s) for s in self.series()) or "0"

    def to_json(self) -> dict:
        return {
            "cosets": [{"h0": str(s.h0), "coeffs": list(s.coeffs)} for s in self.series()]
        }


def _times_partitions(numerator: dict, n: int) -> list:
    """Coefficients 0..n of sum_o c_o q^o / prod_k (1 - q^k).

    ``numerator`` maps offsets o >= 0 to integers c_o.  Each term with
    o <= n adds c_o times the partition series, shifted by o, one slice of
    ``_TERM_BLOCK`` coefficients at a time, so the new big ints of a slice
    and the old ones they replace coexist for one block only; offsets
    beyond n and zero coefficients add nothing.
    """
    part = partition_numbers(n)
    acc = [0] * (n + 1)
    for o, c in numerator.items():
        if o <= n and c:
            for lo in range(o, n + 1, _TERM_BLOCK):
                hi = lo + _TERM_BLOCK
                acc[lo:hi] = map(add, acc[lo:hi], map(c.__mul__, part[lo - o : hi - o]))
    return acc


def _gap(params: Params, r: int, s: int) -> int:
    """Level of the singular vector quotiented out of the Virasoro Verma
    module at (r, s): r*s, or r*p in the boundary column s = p."""
    return r * (params.p if s == params.p else s)


def ch_vir_irr(params: Params, r: int, s: int, n: int) -> QSeries:
    """Character of the irreducible Virasoro module at (r, s), r >= 1.

    One embedding subtraction suffices: the numerator is 1 - q^gap.
    """
    _check_rs(params.p, r, s, "Virasoro irreducible")
    if r < 1:
        raise DomainError(f"Virasoro irreducible needs r >= 1, got r={r}")
    check_order(n)
    return QSeries(h_rs(params, r, s), _times_partitions({0: 1, _gap(params, r, s): -1}, n))


def _add_numerator(params: Params, factor, mult: int, off: int, n: int, numerator: dict):
    """Add ``mult`` times the numerator of one simple factor, whose lowest
    weight is ``off`` above its coset's base, into ``numerator`` up to n.

    A Fock factor is +mult at ``off``.  An atypical simple walks its
    embedding chain r = r0, r0 + 2, ... from r0 = max(r, 2 - r): the
    Virasoro irreducible at (r, s) is +mult at h_{r,s}, -mult gap above.
    """
    if isinstance(factor, FockTypical):
        numerator[off] = numerator.get(off, 0) + mult
        return
    p, s = params.p, factor.s
    r = max(factor.r, 2 - factor.r)
    # 4p * (h_{r,s} - h_{r0,s}) = (pr - s)^2 - (pr0 - s)^2, a multiple of 4p.
    sq0 = (p * r - s) ** 2
    while (k := off + ((p * r - s) ** 2 - sq0) // (4 * p)) <= n:
        numerator[k] = numerator.get(k, 0) + mult
        k += _gap(params, r, s)
        numerator[k] = numerator.get(k, 0) - mult
        r += 2


def ch_expr(params: Params, x, n: int) -> CharacterSum:
    """Character of a module expression or a single label, one series per
    weight coset.

    It is read off the K-class of ``x`` in one pass over its simple factors.
    Each coset's series starts at the minimal weight among its factors and
    is exact to n orders above it.  All factors add into one numerator, so
    a chain term shared by several summands, such as the nested orbit lifts
    of an orbifold module, reaches the coefficients once.
    """
    check_order(n)
    by_coset: dict = {}
    for factor, mult in k_class(params, x).terms():
        lw = lowest_weight(params, factor)
        by_coset.setdefault(lw % 1, []).append((factor, mult, lw))
    out = {}
    for key, factors in by_coset.items():
        base = min(lw for _, _, lw in factors)
        numerator: dict = {}
        for factor, mult, lw in factors:
            off = lw - base
            assert off.denominator == 1
            _add_numerator(params, factor, mult, int(off), n, numerator)
        out[key] = QSeries(base, _times_partitions(numerator, n))
    return CharacterSum(out)
