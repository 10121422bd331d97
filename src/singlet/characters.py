"""Exact truncated graded characters (q-series without the c/24 prefactor).

A :class:`QSeries` is a leading exponent plus an integer coefficient vector;
a :class:`CharacterSum` groups series by the fractional part of the leading
exponent, for expressions whose summands live in different weight cosets.

Every character is one sparse integer numerator times the partition series
1/prod(1 - q^k) per weight coset.  A Fock factor is one shifted partition
series, a single monomial.  An atypical simple is the alternating sum over
its linear embedding chain, truncated where the quadratic weight growth
leaves the window: the Virasoro irreducible at (r, s) gives q^h (1 - q^gap).
Composite species use their composition factors.  :func:`ch_expr` adds the
monomials of all summands into one numerator, where equal offsets merge or
cancel, and then builds each coefficient once.  Partition numbers come from
a cache extended in blocks.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from .errors import DomainError
from .modules import FockTypical, ModuleExpr, as_expr, k_class, lowest_weight, normalize_atom
from .weights import Params, h_rs

__all__ = [
    "QSeries",
    "CharacterSum",
    "partition_numbers",
    "eta_inv_series",
    "ch_vir_irr",
    "ch_indec",
    "ch_expr",
    "check_character_identity",
]

_partitions = [1]
_partitions_lock = threading.Lock()
_PARTITION_BLOCK = 64


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
    """Append p(start)..p(end - 1) to the cache, start = len(_partitions).

    The block is at most ``start`` long, so every pentagonal offset at least
    the block length reads only cached values: those are added to the whole
    block at once.  Only the smaller offsets need the per-n loop.
    """
    part = _partitions
    start = len(part)
    size = end - start
    total = [0] * size
    near_plus, near_minus = [], []
    for g, sign in _pentagonal(end - 1):
        if g < size:
            (near_plus if sign > 0 else near_minus).append(g)
            continue
        j = max(start, g) - start
        total[j:] = map(add if sign > 0 else sub, total[j:], part[j + start - g : end - g])
    get = part.__getitem__
    for t, base in enumerate(total, start):
        part.append(
            base + sum(map(get, map(t.__sub__, near_plus))) - sum(map(get, map(t.__sub__, near_minus)))
        )


def partition_numbers(n: int) -> list[int]:
    """Partition numbers p(0)..p(n) by Euler's pentagonal-number recurrence,
    cached across calls and extended in blocks."""
    if n < 0:
        return []
    with _partitions_lock:
        while len(_partitions) <= n:
            start = len(_partitions)
            _extend_partitions(min(n + 1, start + min(start, _PARTITION_BLOCK)))
        return _partitions[: n + 1]


@dataclass(frozen=True)
class QSeries:
    """Truncated series sum_n coeffs[n] * q^(h0 + n)."""

    h0: Fraction
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "h0", Fraction(self.h0))
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        return f"q^({self.h0}) * {list(self.coeffs)}"


class CharacterSum:
    """Finite map from exponent-mod-1 cosets to truncated series."""

    __slots__ = ("_series",)

    def __init__(self, series):
        items = sorted(series.items() if isinstance(series, dict) else series, key=lambda kv: kv[1].h0)
        object.__setattr__(self, "_series", dict(items))

    def items(self):
        return list(self._series.items())

    def series(self):
        return list(self._series.values())

    def coset(self, key: Fraction):
        return self._series.get(Fraction(key) % 1)

    def __eq__(self, other):
        return isinstance(other, CharacterSum) and self._series == other._series

    def __str__(self):
        return "; ".join(str(s) for s in self.series()) or "0"

    def to_json(self) -> dict:
        return {
            "cosets": [{"h0": str(s.h0), "coeffs": list(s.coeffs)} for s in self.series()]
        }


def eta_inv_series(n: int) -> QSeries:
    """The partition generating series to order n (Verma graded dimension)."""
    if n < 0:
        raise DomainError(f"truncation order must be >= 0, got {n}")
    return QSeries(Fraction(0), partition_numbers(n))


def _times_partitions(numerator: dict, n: int) -> list:
    """Coefficients 0..n of sum_o c_o q^o / prod_k (1 - q^k).

    ``numerator`` maps offsets o to integers c_o, with at least one nonzero
    c_o at an offset o <= n; offsets beyond n and zero coefficients are
    dropped.  Each coefficient is built once, as the sum of c_o * p(k - o)
    over the offsets o <= k.
    """
    terms = sorted((o, c) for o, c in numerator.items() if o <= n and c)
    get = partition_numbers(n - terms[0][0]).__getitem__
    acc = [0] * terms[0][0]
    offsets, coeffs = [], []
    for (lo, c), (hi, _) in zip(terms, terms[1:] + [(n + 1, 0)]):
        offsets.append(lo)
        coeffs.append(c)
        acc.extend(sum(map(mul, coeffs, map(get, map(k.__sub__, offsets)))) for k in range(lo, hi))
    return acc


def _gap(params: Params, r: int, s: int) -> int:
    """Level of the singular vector quotiented out of the Virasoro Verma
    module at (r, s): r*s, or r*p in the boundary column s = p."""
    return r * (params.p if s == params.p else s)


def ch_vir_irr(params: Params, r: int, s: int, n: int) -> QSeries:
    """Character of the irreducible Virasoro module at (r, s), r >= 1.

    One embedding subtraction suffices: the numerator is 1 - q^gap.
    """
    p = params.p
    if r < 1 or not 1 <= s <= p:
        raise DomainError(f"need r >= 1 and 1 <= s <= {p}, got (r,s)=({r},{s})")
    if n < 0:
        raise DomainError(f"truncation order must be >= 0, got {n}")
    return QSeries(h_rs(params, r, s), _times_partitions({0: 1, _gap(params, r, s): -1}, n))


def _add_numerator(params: Params, atom, mult: int, base: Fraction, n: int, numerator: dict):
    """Add ``mult`` times the character numerator of ``atom`` into
    ``numerator``, as offsets above the weight ``base``, up to offset n.

    A Fock factor contributes +1 at its lowest weight.  An atypical simple
    is the alternating sum over its embedding chain: the Virasoro
    irreducible at (r, s) contributes +1 at h_{r,s} and -1 at h_{r,s} + gap.
    """
    p4 = 4 * params.p
    get = numerator.get
    for factor, fmult in k_class(params, atom).terms():
        fmult *= mult
        if isinstance(factor, FockTypical):
            off = lowest_weight(params, factor) - base
            if off <= n:
                assert off.denominator == 1 and off >= 0
                off = int(off)
                numerator[off] = get(off, 0) + fmult
            continue
        # 4p * (h_{r,s} - base) = (pr - s)^2 - shift, a multiple of 4p.
        shift = (params.p - 1) ** 2 + p4 * base
        assert shift.denominator == 1
        shift, limit, s = int(shift), p4 * n, factor.s
        r = max(factor.r, 2 - factor.r)
        while (v := (params.p * r - s) ** 2 - shift) <= limit:
            off, rem = divmod(v, p4)
            assert rem == 0 and off >= 0
            numerator[off] = get(off, 0) + fmult
            off += _gap(params, r, s)
            numerator[off] = get(off, 0) - fmult
            r += 2


def ch_expr(params: Params, x, n: int) -> CharacterSum:
    """Character of a module expression, one series per weight coset.

    Each coset's series starts at the minimal weight among its summands and
    is exact to n orders above it.  It is one sparse integer numerator times
    the partition series.  The monomials of all summands (Fock factors and
    embedding-chain terms) are added into that numerator first, where equal
    offsets merge or cancel: a chain term shared by several summands, such
    as the nested orbit lifts of an orbifold module, reaches the
    coefficients once.
    """
    if n < 0:
        raise DomainError(f"truncation order must be >= 0, got {n}")
    by_coset: dict = {}
    for atom, mult in as_expr(x).terms():
        atom = normalize_atom(params, atom)
        lw = lowest_weight(params, atom)
        by_coset.setdefault(lw % 1, []).append((atom, mult, lw))
    out = {}
    for key, atoms in by_coset.items():
        base = min(lw for _, _, lw in atoms)
        numerator: dict = {}
        for atom, mult, _ in atoms:
            _add_numerator(params, atom, mult, base, n, numerator)
        out[key] = QSeries(base, _times_partitions(numerator, n))
    return CharacterSum(out)


def ch_indec(params: Params, atom, n: int) -> CharacterSum:
    """Character of a single indecomposable."""
    return ch_expr(params, ModuleExpr.of(atom), n)


def check_character_identity(params: Params, lhs, rhs, n: int) -> bool:
    """True iff both expressions have identical characters to order n on
    every coset."""
    return ch_expr(params, lhs, n) == ch_expr(params, rhs, n)
