from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singlet.characters import CharacterSum, QSeries
from singlet.errors import DomainError
from singlet.modules import (
    FockAtypical,
    FockTypical,
    MSimple,
    alpha_label,
    defining_coord,
    dual_atom,
    lowest_weight,
    normalize_atom,
)
from singlet.orbifold import OrbifoldParams, VTypical, v_typical
from singlet.weights import (
    Params,
    UnitPhase,
    allowed_neighbor_weights,
    conformal_weight,
    exact,
    h0_squared,
    h_rs,
)

rationals = st.fractions(max_denominator=40, min_value=-30, max_value=30)
params_st = st.integers(min_value=2, max_value=7).map(Params)


def alpha(params, r, s) -> Fraction:
    """The weight alpha_{r,s}: the defining coordinate of M(r,s)."""
    return defining_coord(params, MSimple(r, s))


def fock(params, q):
    """The Fock module at coordinate q: F(q) off the integers, else the
    normalized Fa(r,s) whose defining coordinate p(r-1) - (s-1) is q."""
    if q.denominator != 1:
        return FockTypical(q)
    s = int(-q % params.p) + 1
    return normalize_atom(params, FockAtypical(int(q + s - 1) // params.p + 1, s))


def test_params_validation():
    with pytest.raises(DomainError):
        Params(1)
    assert Params(2).central_charge == Fraction(-2)
    assert Params(3).central_charge == Fraction(-7)


@pytest.mark.parametrize("p", [0, 1, 2.5])
def test_weight_validates_p(p):
    # conformal_weight reads p from a Params, which states the rule and its
    # message; an unchecked p = 0 would divide by zero.
    with pytest.raises(DomainError, match=rf"^p must be an integer >= 2, got {p!r}$"):
        conformal_weight(Params(p), Fraction(1, 2))


@pytest.mark.parametrize(
    "p, r, s, q",
    [(2, 1, 1, 0), (2, 3, 1, 4), (3, 0, 2, -4), (2, 2, 1, 2), (3, 1, 2, -1)],
)
def test_alpha_coord(p, r, s, q):
    assert alpha(Params(p), r, s) == q


@pytest.mark.parametrize("p", range(2, 13))
def test_alpha_label_inverts_alpha(p):
    # alpha_label(p, n) is the one (r, s) with 1 <= s <= p whose alpha is n;
    # fock() above finds the same label its own way, as Fa(r,s) for s < p.
    params = Params(p)
    for r in range(-4, 5):
        for s in range(1, p + 1):
            assert alpha_label(p, int(alpha(params, r, s))) == (r, s)
    for n in range(-3 * p, 3 * p + 1):
        r, s = alpha_label(p, n)
        assert 1 <= s <= p and alpha(params, r, s) == n
        want = MSimple(r, p) if s == p else FockAtypical(r, s)
        assert fock(params, Fraction(n)) == want


def test_alpha_coord_periodicity():
    params = Params(3)
    for r in range(-2, 3):
        for s in range(1, 4):
            assert alpha(params, r + 1, s + 3) == alpha(params, r, s)


@pytest.mark.parametrize(
    "p, q, h",
    [
        (2, 0, Fraction(0)),
        (2, -1, Fraction(-1, 8)),
        (2, Fraction(1, 2), Fraction(5, 32)),
        (2, Fraction(-5, 2), Fraction(5, 32)),
        (3, -1, Fraction(-1, 4)),
    ],
)
def test_conformal_weight(p, q, h):
    assert conformal_weight(Params(p), q) == h


def test_typical_lowest_weight_is_the_conformal_weight():
    # The discriminant identity 4p*h + (p-1)^2 = (q+p-1)^2 on the lowest
    # weight of F(q), its right side written from the ints of q = n/d.
    for p in range(2, 12):
        params = Params(p)
        for d in range(2, 13):
            for n in range(-3 * p * d, 3 * p * d + 1):
                if n % d:
                    h = lowest_weight(params, FockTypical(Fraction(n, d)))
                    assert 4 * p * h + (p - 1) ** 2 == Fraction((n + (p - 1) * d) ** 2, d * d), (p, n, d)


def test_conformal_weight_matches_kac_table(p3):
    for r in range(-3, 5):
        for s in range(1, 4):
            assert conformal_weight(p3, alpha(p3, r, s)) == h_rs(p3, r, s)


def test_kac_symmetry_with_periodicity(p2, p3):
    # h at alpha_{r,s} equals h at alpha_{1-r,p-s} = alpha_{-r,-s}: the
    # integral weights come in contragredient pairs of equal weight.
    for params in (p2, p3):
        for r in range(-3, 4):
            for s in range(1, params.p + 1):
                lhs = conformal_weight(params, alpha(params, r, s))
                rhs = conformal_weight(params, alpha(params, 1 - r, params.p - s))
                assert lhs == rhs
                dual = dual_atom(params, fock(params, alpha(params, r, s)))
                assert defining_coord(params, dual) == alpha(params, 1 - r, params.p - s)


@pytest.mark.parametrize(
    "p, q, typical",
    [(2, Fraction(1, 2), True), (2, 4, False), (5, Fraction(7, 3), True)],
)
def test_is_typical(p, q, typical):
    # A typical coordinate is a non-integral one: FockTypical accepts exactly
    # those, so the fusion rules never meet an integral one.
    q = Fraction(q)
    if typical:
        assert FockTypical(q).q == q
    else:
        with pytest.raises(DomainError, match="non-integral"):
            FockTypical(q)


@pytest.mark.parametrize(
    "p, q, dual_q",
    [(2, Fraction(1, 2), Fraction(-5, 2)), (2, -1, -1), (3, 0, -4)],
)
def test_contragredient(p, q, dual_q):
    params = Params(p)
    assert defining_coord(params, dual_atom(params, fock(params, Fraction(q)))) == dual_q


@given(params_st, rationals)
def test_weight_discriminant_identity(params, q):
    assert 4 * params.p * conformal_weight(params, q) + (params.p - 1) ** 2 == (q + params.p - 1) ** 2


@given(params_st, rationals)
def test_contragredient_involution(params, q):
    x = fock(params, q)
    dual = dual_atom(params, x)
    q2 = defining_coord(params, dual)
    assert q2 == 2 - 2 * params.p - q
    assert dual_atom(params, dual) == x
    assert conformal_weight(params, q2) == conformal_weight(params, q)
    assert isinstance(dual, FockTypical) == isinstance(x, FockTypical)


@pytest.mark.parametrize(
    "p, q, kind, expected",
    [
        (2, Fraction(1, 2), "via12", {Fraction(21, 32), Fraction(-3, 32)}),
        (2, Fraction(0), "via31", {Fraction(0), Fraction(1), Fraction(3)}),
        (3, Fraction(-1), "via12", {Fraction(0), Fraction(-1, 3)}),
    ],
)
def test_allowed_neighbor_weights(p, q, kind, expected):
    assert allowed_neighbor_weights(Params(p), q, kind) == frozenset(expected)


def test_allowed_neighbor_weights_bad_kind(p2):
    with pytest.raises(DomainError):
        allowed_neighbor_weights(p2, Fraction(0), "via99")


@pytest.mark.parametrize(
    "p, h, expected",
    [(2, 0, 0), (2, Fraction(-1, 8), 0), (2, 1, 16)],
)
def test_h0_squared_values(p, h, expected):
    assert h0_squared(Params(p), h) == expected


def test_h0_squared_roots_exactly_first_row():
    for p in (2, 3, 5):
        params = Params(p)
        first_row = {h_rs(params, 1, s) for s in range(1, p + 1)}
        for s in range(1, p + 1):
            assert h0_squared(params, h_rs(params, 1, s)) == 0
        for r in range(-3, 5):
            for s in range(1, p + 1):
                h = h_rs(params, max(r, 2 - r), s)
                value = h0_squared(params, h)
                if h in first_row:
                    assert value == 0
                else:
                    assert value != 0


def test_unit_phase_arithmetic():
    a = UnitPhase(Fraction(3, 4))
    b = UnitPhase(Fraction(1, 2))
    assert (a * b).exponent == Fraction(1, 4)
    assert a.inverse().exponent == Fraction(1, 4)
    assert UnitPhase(Fraction(-1, 8)).exponent == Fraction(7, 8)


@given(st.fractions(max_denominator=64), st.fractions(max_denominator=64))
def test_unit_phase_group_laws(e1, e2):
    a, b = UnitPhase(e1), UnitPhase(e2)
    assert (a * b) == (b * a)
    assert (a * a.inverse()).exponent == 0
    assert 0 <= a.exponent < 1


# Every place a caller's number becomes a Fraction, each given a float.
FLOAT_CALLS = {
    "FockTypical": lambda: FockTypical(1 / 3),
    "VTypical": lambda: VTypical(0.5),
    "conformal_weight": lambda: conformal_weight(Params(3), 0.5),
    "UnitPhase": lambda: UnitPhase(0.25),
    "QSeries.h0": lambda: QSeries(0.5, (1,)),
    "CharacterSum.coset": lambda: CharacterSum({}).coset(0.5),
    "v_typical": lambda: v_typical(OrbifoldParams(2, 2), 0.5),
    "h0_squared": lambda: h0_squared(Params(2), 0.5),
}


@pytest.mark.parametrize("call", FLOAT_CALLS.values(), ids=FLOAT_CALLS)
def test_floats_are_refused(call):
    # A float is a binary approximation: FockTypical(1/3) would otherwise be
    # F(6004799503160661/18014398509481984).
    with pytest.raises(DomainError, match="float"):
        call()


def test_exact_numbers_are_accepted():
    q = Fraction(7, 12)
    assert exact(q) is q and exact(7) == Fraction(7)
    assert FockTypical(Fraction(1, 3)).q == FockTypical("1/3").q == Fraction(1, 3)
    assert conformal_weight(Params(3), 1) == conformal_weight(Params(3), Fraction(1))
    assert UnitPhase(-1).exponent == 0
    assert h0_squared(Params(2), 0) == h0_squared(Params(2), Fraction(0))


@pytest.mark.parametrize("coeffs", [(1, 2.7), (1, 2.0), (Fraction(1, 2),), (Fraction(2),)])
def test_series_coefficients_must_be_ints(coeffs):
    with pytest.raises(DomainError, match="must be ints"):
        QSeries(0, coeffs)
    assert QSeries(0, [1, 2]).coeffs == (1, 2)
