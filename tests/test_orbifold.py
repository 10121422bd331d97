import random
import re
from fractions import Fraction

import pytest

from singlet.characters import QSeries, ch_expr
from singlet.errors import DomainError, NotLocal, UnsupportedSpecies
from singlet.fusion import fuse
from singlet.modules import (
    FockAtypical,
    FockTypical,
    GenVerma,
    ModuleExpr,
    MSimple,
    Proj,
    k_class,
    lowest_weight,
    shift,
)
from singlet.orbifold import (
    OrbifoldParams,
    RProj,
    VTypical,
    WSimple,
    _orbit_lifts,
    induce,
    is_local,
    lift_atom,
    list_simples,
    normalize_orbifold_atom,
    orbifold_char_expr,
    orbifold_fuse,
    orbifold_loewy_layers,
    orbifold_projective_cover,
    r_proj,
    v_typical,
    w_simple,
)
from singlet.weights import Params


def test_a_refused_non_int_label_leaves_later_inductions_printing_ints():
    # The images of op are kept per singlet label, so M(1.0,1), which equals
    # M(1,1), would be read from there once M(1,1) was induced: no such
    # label can be made.
    op = OrbifoldParams(3, 2)
    assert str(induce(op, ModuleExpr.of(MSimple(1, 1), Proj(1, 1)))) == "W(1,1) + R(1,1)"
    for species, r, s in ((MSimple, 1.0, 1), (MSimple, 1, 1.0), (Proj, True, 1)):
        with pytest.raises(DomainError, match=r"needs integer r and s$"):
            species(r, s)
    assert str(induce(op, ModuleExpr.of(MSimple(1, 1), Proj(1, 1)))) == "W(1,1) + R(1,1)"
    assert str(orbifold_fuse(op, WSimple(1, 2), WSimple(0, 2))) == "W(0,1) + W(0,3)"

from helpers import ch_expr_by_terms, orbit_lift


@pytest.fixture
def op21():
    return OrbifoldParams(2, 1)


@pytest.fixture
def op22():
    return OrbifoldParams(2, 2)


def test_params_validation():
    with pytest.raises(DomainError):
        OrbifoldParams(1, 1)
    with pytest.raises(DomainError):
        OrbifoldParams(2, 0)
    # A bool equals an int, but m is an int of class int, as r and s are.
    with pytest.raises(DomainError) as exc:
        OrbifoldParams(2, True)
    assert str(exc.value) == "m must be an integer >= 1, got True"


def test_params_hold_one_singlet_params():
    op = OrbifoldParams(3, 2)
    assert op.singlet is op.singlet
    assert op.singlet == Params(3)
    assert op == OrbifoldParams(3, 2) and hash(op) == hash(OrbifoldParams(3, 2))
    assert repr(op) == "OrbifoldParams(p=3, m=2)"
    with pytest.raises(DomainError) as orbifold_error:
        OrbifoldParams(1, 2)
    with pytest.raises(DomainError) as singlet_error:
        Params(1)
    assert str(orbifold_error.value) == str(singlet_error.value)


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)])
def test_simple_counts(p, m):
    simples = list_simples(OrbifoldParams(p, m))
    assert len(simples) == 2 * p * m * m
    assert len(set(simples)) == len(simples)
    ws = [a for a in simples if isinstance(a, WSimple)]
    vs = [a for a in simples if isinstance(a, VTypical)]
    assert len(ws) == 2 * p * m
    assert len(vs) == 2 * p * m * (m - 1)


def test_simples_at_minimal_orbifold(op21):
    assert [(a.r, a.s) for a in list_simples(op21)] == [(0, 1), (0, 2), (1, 1), (1, 2)]


def test_v_labels_at_m2(op22):
    vs = [a for a in list_simples(op22) if isinstance(a, VTypical)]
    assert [a.q for a in vs] == [Fraction(k, 2) for k in range(1, 16, 2)]


def test_label_normalization(op22):
    assert w_simple(op22, 5, 1) == WSimple(1, 1)
    assert r_proj(op22, -1, 1) == RProj(3, 1)
    assert r_proj(op22, 1, 2) == WSimple(1, 2)  # s = p column is simple
    assert v_typical(op22, Fraction(-5, 2)) == VTypical(Fraction(11, 2))
    with pytest.raises(DomainError):
        v_typical(op22, Fraction(1, 3))
    with pytest.raises(DomainError):
        w_simple(op22, 0, 3)


@pytest.mark.parametrize(
    "m, atom, local",
    [
        (2, FockTypical(Fraction(1, 2)), True),
        (2, FockTypical(Fraction(1, 3)), False),
        (1, FockTypical(Fraction(1, 2)), False),
        (1, MSimple(4, 1), True),
        (3, Proj(-2, 1), True),
    ],
)
def test_is_local(m, atom, local):
    assert is_local(OrbifoldParams(2, m), atom) is local


def test_induce_examples(op22):
    assert induce(op22, ModuleExpr.of(MSimple(5, 1))) == ModuleExpr.of(WSimple(1, 1))
    assert induce(op22, ModuleExpr.of(FockTypical(Fraction(1, 2)))) == ModuleExpr.of(
        VTypical(Fraction(1, 2))
    )
    assert induce(op22, ModuleExpr.of(Proj(6, 1))) == ModuleExpr.of(RProj(2, 1))
    with pytest.raises(NotLocal):
        induce(op22, ModuleExpr.of(FockTypical(Fraction(1, 3))))
    with pytest.raises(UnsupportedSpecies):
        induce(op22, ModuleExpr.of(FockAtypical(1, 1)))


@pytest.mark.parametrize(
    "terms, error, atom",
    [
        # The first bad term in canonical order is reported, whatever the
        # order the terms were added in: F before Fa before G.
        ((FockAtypical(1, 1), FockTypical(Fraction(1, 3))), NotLocal, "F(1/3)"),
        ((FockTypical(Fraction(1, 3)), FockAtypical(1, 1)), NotLocal, "F(1/3)"),
        ((GenVerma(0, 1), FockTypical(Fraction(1, 2)), FockAtypical(1, 1)), UnsupportedSpecies, "Fa(1,1)"),
    ],
)
def test_induce_reports_the_first_bad_term(op22, terms, error, atom):
    with pytest.raises(error, match=re.escape(atom)):
        induce(op22, ModuleExpr.of(*terms))


@pytest.mark.parametrize("atom, text", [(FockAtypical(1, 1), "Fa(1,1)"), (GenVerma(1, 1), "G(1,1)")])
def test_induce_refuses_the_structural_species(op22, atom, text):
    with pytest.raises(UnsupportedSpecies) as err:
        induce(op22, atom)
    assert str(err.value) == f"induction is not defined for {text}"


@pytest.mark.parametrize("convert", [lift_atom, normalize_orbifold_atom])
@pytest.mark.parametrize("atom", [MSimple(1, 1), "x", [1]])
def test_only_orbifold_labels_lift_and_normalize(op22, convert, atom):
    with pytest.raises(DomainError) as err:
        convert(op22, atom)
    assert str(err.value) == f"not an orbifold module label: {atom!r}"


def test_induce_keeps_the_images_of_good_labels_only():
    op = OrbifoldParams(2, 2)
    good = ModuleExpr.of(MSimple(5, 1), Proj(6, 1), Proj(3, 2), FockTypical(Fraction(1, 2)))
    expected = ModuleExpr.of(WSimple(1, 1), RProj(2, 1), WSimple(3, 2), VTypical(Fraction(1, 2)))
    assert induce(op, good) == expected
    assert set(op.images) == set(good.atoms())
    bad = good + ModuleExpr.of(FockAtypical(1, 1), FockTypical(Fraction(1, 3)))
    with pytest.raises(NotLocal, match=re.escape("F(1/3)")):
        induce(op, bad)
    assert set(op.images) == set(good.atoms())
    assert induce(op, good) == expected
    assert OrbifoldParams(2, 2) == op and hash(OrbifoldParams(2, 2)) == hash(op)


def test_orbifold_fuse_keeps_the_lifts_of_good_labels_only():
    op = OrbifoldParams(3, 2)
    good = ModuleExpr.of(WSimple(5, 1), RProj(1, 2), VTypical(Fraction(1, 2)))
    expected = orbifold_fuse(op, good, WSimple(0, 3))
    assert op.lifts == {
        WSimple(5, 1): MSimple(1, 1),
        RProj(1, 2): Proj(1, 2),
        VTypical(Fraction(1, 2)): FockTypical(Fraction(1, 2)),
        WSimple(0, 3): MSimple(0, 3),
    }
    for bad, error in ((WSimple(1, 4), "W label needs 1 <= s <= 3, got s=4"),
                       (MSimple(1, 1), "not an orbifold module label: MSimple(r=1, s=1)")):
        for _ in range(2):
            with pytest.raises(DomainError) as err:
                orbifold_fuse(op, good, good + ModuleExpr.of(bad))
            assert str(err.value) == error
            assert bad not in op.lifts and len(op.lifts) == 4
    assert orbifold_fuse(op, good, WSimple(0, 3)) == expected


def test_lift_atom_normalizes_and_keeps_good_labels_only():
    op = OrbifoldParams(2, 2)
    assert lift_atom(op, WSimple(9, 1)) == MSimple(1, 1)
    assert lift_atom(op, RProj(1, 2)) == MSimple(1, 2)
    assert op.lifts == {WSimple(9, 1): MSimple(1, 1), RProj(1, 2): MSimple(1, 2)}
    for bad, error in ((WSimple(1, 99), "W label needs 1 <= s <= 2, got s=99"),
                       (VTypical(Fraction(1, 3)), "V coordinate must have m*q integral, got q=1/3 at m=2")):
        for _ in range(2):
            with pytest.raises(DomainError) as err:
                lift_atom(op, bad)
            assert str(err.value) == error
            assert bad not in op.lifts and len(op.lifts) == 2


def test_lift_atom_roundtrip(op22):
    for atom in list_simples(op22):
        assert induce(op22, ModuleExpr.of(lift_atom(op22, atom))) == ModuleExpr.of(atom)


def test_orbifold_fuse_examples(op22, op21):
    assert orbifold_fuse(op22, WSimple(3, 1), WSimple(3, 1)) == ModuleExpr.of(WSimple(1, 1))
    assert orbifold_fuse(op22, WSimple(1, 2), VTypical(Fraction(1, 2))) == ModuleExpr.of(
        VTypical(Fraction(3, 2)), VTypical(Fraction(15, 2))
    )
    # Dual pairing lifted to the orbifold: V(1/2) x V(-5/2 mod 8).
    assert orbifold_fuse(
        op22, VTypical(Fraction(1, 2)), v_typical(op22, Fraction(-5, 2))
    ) == ModuleExpr.of(RProj(1, 1))
    assert orbifold_fuse(op21, WSimple(1, 2), WSimple(1, 2)) == ModuleExpr.of(RProj(1, 1))


def test_orbifold_fuse_with_cover(op22):
    # Lifted K-solve route: P(1,1) x M(2,1) = P(2,1) upstairs.
    got = orbifold_fuse(op22, RProj(1, 1), WSimple(2, 1))
    assert got == ModuleExpr.of(RProj(2, 1))


def test_functoriality(op21, op22):
    for op in (op21, op22):
        params = op.singlet
        atoms = [MSimple(r, s) for r in range(-2, 3) for s in (1, 2)]
        atoms += [Proj(r, 1) for r in range(-1, 3)]
        if op.m == 2:
            atoms += [FockTypical(Fraction(1, 2)), FockTypical(Fraction(-3, 2))]
        for x in atoms:
            for y in atoms:
                lhs = induce(op, fuse(params, x, y))
                rhs = orbifold_fuse(
                    op, induce(op, ModuleExpr.of(x)), induce(op, ModuleExpr.of(y))
                )
                assert lhs == rhs, (op.m, x, y)


def test_projective_covers(op21, op22):
    cover, layers = orbifold_projective_cover(op21, WSimple(1, 1))
    assert cover == RProj(1, 1)
    assert layers == [
        [WSimple(1, 1)],
        [WSimple(0, 1), WSimple(0, 1)],
        [WSimple(1, 1)],
    ]
    cover, layers = orbifold_projective_cover(op22, WSimple(0, 1))
    assert cover == RProj(0, 1)
    assert layers[1] == [WSimple(1, 1), WSimple(3, 1)]
    atom, layers = orbifold_projective_cover(OrbifoldParams(3, 1), WSimple(1, 3))
    assert atom == WSimple(1, 3)
    assert layers == [[WSimple(1, 3)]]


def test_a_cover_label_has_no_cover(op22):
    with pytest.raises(DomainError) as err:
        orbifold_projective_cover(op22, RProj(1, 1))
    assert str(err.value) == "R(1,1) is not simple"


def test_cover_layers_match_induced_projective(op21, op22):
    # The cover of W(r,s) is the induced P(r,s).  Its middle layer is
    # derived here without the socle series it is induced from: it is
    # J x W(r,p-s) + J^-1 x W(r,p-s) for the simple current J = W(2,1).
    for op in (op21, op22):
        currents = ModuleExpr.of(w_simple(op, 2, 1), w_simple(op, 0, 1))
        for r in range(op.r_modulus):
            for s in range(1, op.p):
                w = WSimple(r, s)
                cover, layers = orbifold_projective_cover(op, w)
                assert induce(op, Proj(r, s)) == ModuleExpr.of(cover)
                assert layers[0] == layers[2] == [w]
                middle = orbifold_fuse(op, currents, WSimple(r, op.p - s))
                assert ModuleExpr.of(*layers[1]) == middle


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (3, 2)])
def test_loewy_layers_are_the_induced_layers_of_a_lift(p, m):
    op = OrbifoldParams(p, m)
    for atom in list_simples(op):
        assert orbifold_loewy_layers(op, atom) == [[atom]]
    for r in range(op.r_modulus):
        for s in range(1, p):
            cover_layers = orbifold_projective_cover(op, WSimple(r, s))[1]
            assert orbifold_loewy_layers(op, RProj(r, s)) == cover_layers


def test_orbifold_char_examples(op21, op22):
    got = orbifold_char_expr(op21, WSimple(1, 1), 3)
    assert got.series() == [QSeries(0, (1, 0, 1, 4))]
    got = orbifold_char_expr(op22, VTypical(Fraction(1, 2)), 2)
    assert got.series() == [QSeries(Fraction(5, 32), (1, 1, 2))]


def test_orbifold_char_matches_brute_force_window():
    for p, m in ((2, 1), (2, 2), (3, 2), (3, 3)):
        op = OrbifoldParams(p, m)
        covers = [RProj(r, s) for r in range(op.r_modulus) for s in range(1, p)]
        for atom in list_simples(op) + covers:
            brute = ModuleExpr.of(*(orbit_lift(op, atom, n) for n in range(-8, 9)))
            assert orbifold_char_expr(op, atom, 12) == ch_expr(op.singlet, brute, 12)


def test_deep_orbifold_character_matches_term_by_term_sum():
    op = OrbifoldParams(3, 2)
    lifts = [orbit_lift(op, RProj(1, 1), n) for n in range(-20, 21)]
    weights = [lowest_weight(op.singlet, lift) for lift in lifts]
    assert min(weights[0], weights[-1]) > min(weights) + 1500
    want = ch_expr_by_terms(op.singlet, ModuleExpr.of(*lifts), 1500)
    assert orbifold_char_expr(op, RProj(1, 1), 1500) == want


def test_orbit_lifts_match_brute_force_scan():
    # The exact window against a scan of n in [-400, 400] with the minimum
    # taken over the scan, on a seeded sample of (p, m, label, depth).
    cases = []
    for p in range(2, 7):
        for m in range(1, 5):
            op = OrbifoldParams(p, m)
            covers = [RProj(r, s) for r in range(op.r_modulus) for s in range(1, p)]
            for atom in list_simples(op) + covers:
                cases += [(op, atom, depth) for depth in (0, 1, 5, 40, 300)]
    for op, atom, depth in random.Random(11).sample(cases, 50):
        lifts = [orbit_lift(op, atom, n) for n in range(-400, 401)]
        weights = [lowest_weight(op.singlet, lift) for lift in lifts]
        best = min(weights)
        brute = ModuleExpr.of(*(lift for lift, w in zip(lifts, weights) if w <= best + depth))
        assert ModuleExpr.of(*_orbit_lifts(op, atom, depth)) == brute, (op, atom, depth)


def test_orbit_minimum_lies_next_to_the_canonical_lift():
    # The premise of the walk in _orbit_lifts: every composition factor of
    # the canonical lift has its least weight over the orbit at n = -1, 0 or
    # 1.  The labels are built from representatives three orbit steps away,
    # so this fails if w_simple, r_proj or v_typical stop reducing them.
    factors = 0
    for p in range(2, 9):
        for m in range(1, 6):
            op = OrbifoldParams(p, m)
            far_r, far_q = 3 * op.r_modulus, 3 * op.q_modulus
            pairs = [(r, s) for r in range(op.r_modulus) for s in range(1, p + 1)]
            coords = [atom.q for atom in list_simples(op) if isinstance(atom, VTypical)]
            labels = [w_simple(op, r + far_r, s) for r, s in pairs]
            labels += [r_proj(op, r - far_r, s) for r, s in pairs if s < p]
            labels += [v_typical(op, q - far_q) for q in coords]
            for atom in labels:
                for factor in k_class(op.singlet, lift_atom(op, atom)).atoms():
                    weights = [
                        lowest_weight(op.singlet, shift(op.singlet, factor, n * op.r_modulus))
                        for n in range(-50, 51)
                    ]
                    near = weights[49:52]  # n = -1, 0, 1
                    assert min(near) == min(weights), (op, atom, factor)
                    factors += 1
    assert factors == 6370


def test_orbifold_char_of_cover(op21):
    # The cover's orbit character equals the induced projective's lift sum.
    got = orbifold_char_expr(op21, RProj(1, 1), 4)
    brute = ModuleExpr()
    for n in range(-6, 7):
        brute = brute + ModuleExpr.of(Proj(1 + 2 * n, 1))
    assert got == ch_expr(Params(2), brute, 4)
