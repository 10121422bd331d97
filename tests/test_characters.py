import random
from fractions import Fraction

import pytest

from singlet import characters
from singlet.characters import (
    CharacterSum,
    QSeries,
    ch_expr,
    ch_vir_irr,
    partition_numbers,
)
from singlet.errors import DomainError
from singlet.modules import (
    FockAtypical,
    FockTypical,
    GenVerma,
    ModuleExpr,
    MSimple,
    Proj,
    k_class,
    lowest_weight,
)
from singlet.orbifold import OrbifoldParams, WSimple, orbifold_char_expr
from singlet.weights import Params, h_rs

from helpers import ch_expr_by_terms


def _partitions_by_parts(n):
    """p(0)..p(n) by counting partitions part size by part size."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            counts[k] += counts[k - part]
    return counts


def test_partition_numbers():
    assert partition_numbers(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_numbers(300) == _partitions_by_parts(300)
    assert partition_numbers(-1) == []


def test_partition_numbers_known_values():
    part = partition_numbers(1000)
    assert part[100] == 190569292
    assert part[1000] == 24061467864032622473692149727991


def test_partition_cache_extends_exactly(monkeypatch):
    # From an empty cache, in an order that both grows and reuses it; the
    # benchmark reads the cache length as a metric.
    monkeypatch.setattr(characters, "_partitions", [1])
    full = _partitions_by_parts(1000)
    for n in (5, 300, 100, 1000):
        assert partition_numbers(n) == full[: n + 1]
    assert len(characters._partitions) == 1001


@pytest.mark.parametrize("start", range(1, 13))
def test_partition_cache_extends_from_any_length(monkeypatch, start):
    # Starts below the pentagonal numbers 1, 2, 5 and 7 fill coefficients
    # whose recurrence reads zero or one cached value of a sign.
    full = _partitions_by_parts(400)
    monkeypatch.setattr(characters, "_partitions", full[:start])
    assert partition_numbers(400) == full
    assert characters._partitions == full


def test_partition_numbers_match_counting_by_parts(monkeypatch):
    monkeypatch.setattr(characters, "_partitions", [1])
    assert partition_numbers(2000) == _partitions_by_parts(2000)


def test_partition_numbers_return_a_copy(monkeypatch):
    # The recurrence reads the cache from its end, so an alias handed out
    # and mutated would corrupt every later coefficient.
    monkeypatch.setattr(characters, "_partitions", [1])
    full = _partitions_by_parts(300)
    got = partition_numbers(100)
    got[-1] = 0
    got.append(0)
    assert partition_numbers(100) == full[:101]
    assert partition_numbers(300) == full


def _times_partitions_naive(numerator, n):
    part = _partitions_by_parts(n)
    return [sum(c * part[k - o] for o, c in numerator.items() if o <= k) for k in range(n + 1)]


@pytest.mark.parametrize("seed", range(8))
def test_times_partitions_matches_double_loop(seed):
    # Sparse numerators with zero coefficients and offsets beyond n; and
    # prod_k (1 - q^k) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)),
    # a numerator that cancels the partition series down to 1.
    rng = random.Random(seed)
    for n in [0, 1, 2, 400] + [rng.randrange(401) for _ in range(6)]:
        numerator = {rng.randrange(n + 30): rng.randint(-5, 5) for _ in range(rng.randrange(1, 40))}
        assert characters._times_partitions(numerator, n) == _times_partitions_naive(numerator, n)
        euler = {g: -sign for g, sign in characters._pentagonal(n + 10)}
        euler[0] = 1
        assert characters._times_partitions(euler, n) == [1] + [0] * n
    assert characters._times_partitions({}, 5) == [0] * 6
    assert characters._times_partitions({0: 0, 9: 3}, 5) == [0] * 6


def test_deep_character_matches_term_by_term_sum():
    params = Params(3)
    x = ModuleExpr.of(Proj(3, 1))
    assert ch_expr(params, x, 2000) == ch_expr_by_terms(params, x, 2000)


def test_eta_inv_series(p2):
    # The partition generating series 1/prod(1 - q^k), and the graded
    # dimension of the length-2 Fock module Fa(1,1), a Verma module.
    assert QSeries(0, partition_numbers(5)) == QSeries(0, (1, 1, 2, 3, 5, 7))
    assert QSeries(0, partition_numbers(0)) == QSeries(0, (1,))
    assert partition_numbers(10)[10] == 42
    h = lowest_weight(p2, FockAtypical(1, 1))
    assert ch_expr(p2, FockAtypical(1, 1), 5).series() == [QSeries(h, (1, 1, 2, 3, 5, 7))]


@pytest.mark.parametrize(
    "p, r, s, n, h0, coeffs",
    [
        (2, 1, 1, 5, Fraction(0), (1, 0, 1, 1, 2, 2)),
        (2, 1, 2, 3, Fraction(-1, 8), (1, 1, 1, 2)),
        (3, 2, 1, 0, Fraction(7, 4), (1,)),
    ],
)
def test_ch_vir_irr_examples(p, r, s, n, h0, coeffs):
    assert ch_vir_irr(Params(p), r, s, n) == QSeries(h0, coeffs)


def test_ch_vir_irr_domain(p2):
    with pytest.raises(DomainError):
        ch_vir_irr(p2, 0, 1, 5)
    with pytest.raises(DomainError):
        ch_vir_irr(p2, 1, 3, 5)


@pytest.mark.parametrize(
    "r, s",
    [(1.5, 1), (1, 1.0), ("1", 1), (1, "1"), (True, 1)],
    ids=["float r", "float s", "str r", "str s", "bool r"],
)
def test_ch_vir_irr_refuses_a_non_int_label(p2, r, s):
    with pytest.raises(DomainError) as err:
        ch_vir_irr(p2, r, s, 5)
    assert str(err.value) == f"label M({r!r},{s!r}) needs integer r and s"


@pytest.mark.parametrize(
    "call",
    [lambda p: ch_expr(p, MSimple(1, 1), -1), lambda p: ch_vir_irr(p, 1, 1, -1)],
    ids=["ch_expr", "ch_vir_irr"],
)
def test_a_negative_order_is_refused(p2, call):
    with pytest.raises(DomainError) as err:
        call(p2)
    assert str(err.value) == "truncation order must be >= 0, got -1"


@pytest.mark.parametrize(
    "call",
    [
        partition_numbers,
        lambda n: ch_expr(Params(2), MSimple(1, 1), n),
        lambda n: ch_vir_irr(Params(2), 1, 1, n),
        lambda n: orbifold_char_expr(OrbifoldParams(2, 1), WSimple(0, 1), n),
    ],
    ids=["partition_numbers", "ch_expr", "ch_vir_irr", "orbifold_char_expr"],
)
@pytest.mark.parametrize("n", [5.0, "5", Fraction(5), None, True])
def test_a_non_int_order_is_refused(call, n):
    with pytest.raises(DomainError) as err:
        call(n)
    assert str(err.value) == f"truncation order must be an integer, got {n!r}"


def test_vacuum_character(p2):
    got = ch_expr(p2, MSimple(1, 1), 5)
    assert got.series() == [QSeries(0, (1, 0, 1, 2, 3, 4))]


def test_fock_typical_character(p2):
    got = ch_expr(p2, FockTypical(Fraction(1, 2)), 3)
    assert got.series() == [QSeries(Fraction(5, 32), (1, 1, 2, 3))]


def test_atypical_fock_is_partition_series(p2, p3, p5):
    # Independent oracle: a rank-one Fock module has the graded dimension of
    # a Verma module, so the two-factor sum must reproduce pure partitions.
    for params in (p2, p3, p5):
        for r in range(-3, 5):
            for s in range(1, params.p):
                atom = FockAtypical(r, s)
                base = lowest_weight(params, atom)
                assert ch_expr(params, atom, 24).series() == [
                    QSeries(base, partition_numbers(24))
                ]


def test_character_respects_k_class(p2, p3, p5):
    for params in (p2, p3, p5):
        atoms = [Proj(r, s) for r in range(-3, 5) for s in range(1, params.p)]
        atoms += [FockAtypical(r, s) for r in range(-3, 5) for s in range(1, params.p)]
        atoms += [GenVerma(r, s) for r in range(-3, 5) for s in range(1, params.p + 1)]
        for atom in atoms:
            assert ch_expr(params, atom, 12) == ch_expr(params, k_class(params, atom), 12)


@pytest.mark.parametrize(
    "lhs, rhs, expected",
    [
        (
            ModuleExpr.of(FockAtypical(1, 1)),
            ModuleExpr.of(MSimple(1, 1), MSimple(2, 1)),
            True,
        ),
        (
            ModuleExpr.of(Proj(1, 1)),
            ModuleExpr.of(FockAtypical(1, 1), FockAtypical(0, 1)),
            True,
        ),
        (ModuleExpr.of(MSimple(1, 1)), ModuleExpr.of(MSimple(1, 2)), False),
    ],
)
def test_check_character_identity_p2(p2, lhs, rhs, expected):
    assert (ch_expr(p2, lhs, 40) == ch_expr(p2, rhs, 40)) is expected


def test_exact_sequence_identities_deep(p2, p3):
    for params in (p2, p3):
        p = params.p
        for r in range(-3, 5):
            for s in range(1, p):
                assert ch_expr(params, FockAtypical(r, s), 40) == ch_expr(
                    params, ModuleExpr.of(MSimple(r, s), MSimple(r + 1, p - s)), 40
                )
                assert ch_expr(params, Proj(r, s), 40) == ch_expr(
                    params, ModuleExpr.of(FockAtypical(r, s), FockAtypical(r - 1, p - s)), 40
                )


def test_contragredient_pairs_share_characters(p2, p3):
    for params in (p2, p3):
        for r in range(-3, 5):
            for s in range(1, params.p + 1):
                assert ch_expr(params, MSimple(r, s), 20) == ch_expr(
                    params, MSimple(2 - r, s), 20
                )
        for q in (Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)):
            assert ch_expr(params, FockTypical(q), 20) == ch_expr(
                params, FockTypical(2 - 2 * params.p - q), 20
            )


def test_character_sum_groups_cosets(p2):
    expr = ModuleExpr.of(MSimple(1, 1), MSimple(1, 2), FockTypical(Fraction(1, 2)))
    cs = ch_expr(p2, expr, 4)
    assert len(cs.series()) == 3
    assert cs.coset(Fraction(0)).h0 == 0
    assert cs.coset(Fraction(-1, 8)).h0 == Fraction(-1, 8)
    assert cs.coset(Fraction(5, 32)).h0 == Fraction(5, 32)


def test_character_alignment_within_coset(p2):
    # M(1,1) + M(2,1) live one conformal level apart in the same coset; their
    # sum is the vacuum Fock graded dimension.
    cs = ch_expr(p2, ModuleExpr.of(MSimple(1, 1), MSimple(2, 1)), 6)
    assert cs.series() == [QSeries(0, partition_numbers(6))]


def test_vir_characters_positive(p3):
    for r in range(1, 5):
        for s in range(1, 4):
            series = ch_vir_irr(p3, r, s, 30)
            assert series.coeffs[0] == 1
            assert all(c >= 0 for c in series.coeffs)
            assert series.h0 == h_rs(p3, r, s)


def test_character_sum_equality_semantics(p2):
    a = ch_expr(p2, ModuleExpr.of(Proj(1, 1)), 15)
    b = ch_expr(
        p2, ModuleExpr.of(FockAtypical(1, 1)) + ModuleExpr.of(FockAtypical(0, 1)), 15
    )
    assert isinstance(a, CharacterSum)
    assert a == b
    assert a != ch_expr(p2, ModuleExpr.of(Proj(1, 1)), 14)
