from fractions import Fraction

import pytest

from singlet.errors import DomainError, NonSemisimpleTwist, UnsupportedSpecies
from singlet.modules import (
    FockAtypical,
    FockTypical,
    GenVerma,
    ModuleExpr,
    MSimple,
    Proj,
    dual,
    k_class,
    label,
    loewy_layers,
    lowest_weight,
    monodromy_phase_with_m21,
    normalize_atom,
    sort_key,
    t_grade,
    twist_phase,
    verma_quotient_factors,
    virasoro_induce,
)
from singlet.orbifold import OrbifoldParams, RProj, WSimple, r_proj, w_simple
from singlet.weights import Params

F12 = FockTypical(Fraction(1, 2))


def species_universe(params):
    atoms = [MSimple(r, s) for r in range(-2, 4) for s in range(1, params.p + 1)]
    atoms += [Proj(r, s) for r in range(-2, 4) for s in range(1, params.p)]
    atoms += [FockAtypical(r, s) for r in range(-2, 4) for s in range(1, params.p)]
    atoms += [GenVerma(r, s) for r in range(-2, 4) for s in range(1, params.p + 1)]
    atoms += [FockTypical(Fraction(1, 2)), FockTypical(Fraction(-7, 3))]
    return atoms


def test_normalize_collapses_boundary(p2):
    assert normalize_atom(p2, Proj(3, 2)) == MSimple(3, 2)
    assert normalize_atom(p2, FockAtypical(0, 2)) == MSimple(0, 2)
    with pytest.raises(DomainError):
        normalize_atom(p2, MSimple(1, 3))


def test_module_expr_container():
    e = ModuleExpr([(MSimple(1, 1), 2), (F12, 1)])
    assert e.multiplicity(MSimple(1, 1)) == 2
    assert str(e) == "2*M(1,1) + F(1/2)"
    assert e + ModuleExpr.of(F12) == ModuleExpr([(MSimple(1, 1), 2), (F12, 2)])
    assert 0 * e == ModuleExpr()
    assert str(ModuleExpr()) == "0"


def test_canonical_ordering():
    atoms = [Proj(1, 1), FockTypical(Fraction(-1, 2)), MSimple(2, 1), MSimple(1, 2)]
    assert [label(a) for a in sorted(atoms, key=sort_key)] == [
        "M(1,2)",
        "M(2,1)",
        "F(-1/2)",
        "P(1,1)",
    ]


@pytest.mark.parametrize(
    "atom, expected",
    [
        (MSimple(2, 1), MSimple(0, 1)),
        (F12, FockTypical(Fraction(-5, 2))),
        (Proj(1, 1), Proj(1, 1)),
        (FockAtypical(1, 1), FockAtypical(0, 1)),
    ],
)
def test_dual_examples_p2(p2, atom, expected):
    assert dual(p2, atom) == ModuleExpr.of(expected)


def test_dual_rejects_gen_verma(p2):
    with pytest.raises(UnsupportedSpecies):
        dual(p2, GenVerma(1, 1))


@pytest.mark.parametrize("terms", [(GenVerma(2, 1), GenVerma(1, 1)), (GenVerma(1, 1), GenVerma(2, 1))])
def test_dual_reports_the_first_bad_term(p3, terms):
    # G(1,1) sorts before G(2,1), whatever the order the terms were added in.
    with pytest.raises(UnsupportedSpecies) as err:
        dual(p3, ModuleExpr.of(*terms))
    assert str(err.value) == "dual is not defined for G(1,1)"


def test_dual_is_involution_and_commutes_with_k_class(p2, p3):
    for params in (p2, p3):
        for atom in species_universe(params):
            if isinstance(atom, GenVerma):
                continue
            e = ModuleExpr.of(atom)
            assert dual(params, dual(params, e)) == e
            assert k_class(params, dual(params, e)) == dual(params, k_class(params, e))


@pytest.mark.parametrize(
    "p, atom, expected",
    [
        (2, Proj(1, 1), {MSimple(1, 1): 2, MSimple(0, 1): 1, MSimple(2, 1): 1}),
        (2, FockAtypical(1, 1), {MSimple(1, 1): 1, MSimple(2, 1): 1}),
        (3, GenVerma(1, 2), {MSimple(1, 2): 1, MSimple(0, 1): 1, MSimple(2, 1): 1}),
    ],
)
def test_k_class_examples(p, atom, expected):
    assert k_class(Params(p), atom) == ModuleExpr(expected)


@pytest.mark.parametrize(
    "p, atom, expected",
    [
        (2, Proj(2, 1), [[MSimple(2, 1)], [MSimple(1, 1), MSimple(3, 1)], [MSimple(2, 1)]]),
        (2, MSimple(1, 2), [[MSimple(1, 2)]]),
        (2, GenVerma(0, 1), [[MSimple(0, 1)], [MSimple(-1, 1)]]),
        (3, GenVerma(1, 2), [[MSimple(1, 2)], [MSimple(0, 1), MSimple(2, 1)]]),
        (2, FockAtypical(1, 1), [[MSimple(2, 1)], [MSimple(1, 1)]]),
    ],
)
def test_loewy_layers_examples(p, atom, expected):
    assert loewy_layers(Params(p), atom) == expected


def test_k_class_equals_loewy_union(p2, p3, p5):
    for params in (p2, p3, p5):
        for atom in species_universe(params):
            layers = loewy_layers(params, atom)
            flat = ModuleExpr([(a, 1) for layer in layers for a in layer])
            assert k_class(params, atom) == flat


@pytest.mark.parametrize(
    "p, atom, expected",
    [
        (2, MSimple(0, 1), Fraction(1)),
        (2, F12, Fraction(5, 32)),
        (2, Proj(1, 1), Fraction(0)),
    ],
)
def test_lowest_weight_examples(p, atom, expected):
    assert lowest_weight(Params(p), atom) == expected


def test_lowest_weight_contragredient_symmetry(p2, p3):
    for params in (p2, p3):
        for r in range(-3, 4):
            for s in range(1, params.p + 1):
                assert lowest_weight(params, MSimple(r, s)) == lowest_weight(
                    params, MSimple(2 - r, s)
                )


@pytest.mark.parametrize(
    "p, atom, expected",
    [
        (2, MSimple(2, 1), Fraction(0)),
        (2, F12, Fraction(1, 2)),
        (3, MSimple(1, 2), Fraction(1)),
    ],
)
def test_t_grade_examples(p, atom, expected):
    assert t_grade(Params(p), atom) == expected


@pytest.mark.parametrize(
    "p, atom, exponent",
    [
        (2, MSimple(2, 1), Fraction(0)),
        (2, F12, Fraction(5, 32)),
        (2, MSimple(1, 2), Fraction(7, 8)),
    ],
)
def test_twist_examples(p, atom, exponent):
    assert twist_phase(Params(p), atom).exponent == exponent


@pytest.mark.parametrize("p", range(2, 7))
def test_twist_of_simple_verma_quotient(p):
    # G(r,p) has the single composition factor M(r,p), so its twist is scalar.
    params = Params(p)
    for r in range(-3, 4):
        assert twist_phase(params, GenVerma(r, p)) == twist_phase(params, MSimple(r, p))


def test_twist_rejects_non_simple(p2):
    with pytest.raises(NonSemisimpleTwist):
        twist_phase(p2, Proj(1, 1))
    with pytest.raises(NonSemisimpleTwist):
        twist_phase(p2, FockAtypical(1, 1))


@pytest.mark.parametrize(
    "p, atom, exponent",
    [
        (2, F12, Fraction(1, 4)),
        (2, MSimple(2, 1), Fraction(0)),
        (2, MSimple(1, 1), Fraction(0)),
        (5, MSimple(1, 1), Fraction(0)),
    ],
)
def test_monodromy_examples(p, atom, exponent):
    assert monodromy_phase_with_m21(Params(p), atom).exponent == exponent


def test_monodromy_constant_on_factors(p2, p3):
    for params in (p2, p3):
        for atom in species_universe(params):
            e = monodromy_phase_with_m21(params, atom)
            for factor in k_class(params, atom).atoms():
                assert monodromy_phase_with_m21(params, factor) == e


def test_grade_of_dual_negates(p2, p3):
    for params in (p2, p3):
        for atom in species_universe(params):
            if isinstance(atom, GenVerma):
                continue
            image = dual(params, atom).atoms()[0]
            assert t_grade(params, image) == (-t_grade(params, atom)) % 2


@pytest.mark.parametrize(
    "p, r, s, expected",
    [
        (2, 2, 1, [(2, 1), (3, 1)]),
        (2, 1, 2, [(1, 2)]),
        (2, -1, 1, [(-1, 1), (-2, 1)]),
    ],
)
def test_verma_quotient_examples(p, r, s, expected):
    assert verma_quotient_factors(Params(p), r, s) == ModuleExpr.of(
        *(MSimple(a, b) for a, b in expected)
    )


def test_verma_quotient_r1_socle_flips_s(p3):
    # r = 1 socle lives in the complementary column p - s, as forced by the
    # Virasoro content of the quotient of the projective cover.
    assert verma_quotient_factors(p3, 1, 2) == ModuleExpr.of(
        MSimple(1, 2), MSimple(0, 1), MSimple(2, 1)
    )


def test_verma_quotient_domain(p2):
    with pytest.raises(DomainError):
        verma_quotient_factors(p2, 1, 3)


@pytest.mark.parametrize(
    "p, r, s, expected",
    [
        (2, 1, 1, [(1, 1)]),
        (2, 2, 1, [(0, 1), (2, 1)]),
        (3, 3, 2, [(-1, 2), (1, 2), (3, 2)]),
    ],
)
def test_virasoro_induce_examples(p, r, s, expected):
    assert virasoro_induce(Params(p), r, s) == ModuleExpr.of(
        *(MSimple(a, b) for a, b in expected)
    )


def test_virasoro_induce_domain(p2):
    with pytest.raises(DomainError):
        virasoro_induce(p2, 0, 1)
    with pytest.raises(DomainError):
        virasoro_induce(p2, 1, 3)


@pytest.mark.parametrize(
    "species", [MSimple, Proj, FockAtypical, GenVerma, WSimple, RProj], ids=lambda c: c._TAG
)
@pytest.mark.parametrize("r, s", [(1.0, 1), (1, True), ("1", 1)], ids=["float", "bool", "str"])
def test_pair_labels_refuse_a_non_int_field(species, r, s):
    # A float or a bool equals an int and hashes as it: a label made of one
    # would stand in every cache for the int label, so none is made.
    with pytest.raises(DomainError) as exc:
        species(r, s)
    assert str(exc.value) == f"label {species._TAG}({r!r},{s!r}) needs integer r and s"


# Every s-range check reports "label {label} needs 1 <= s <= {top}", and an
# r or s that is not of class int is refused before that, by the label when
# it is made.
S_RANGE_CALLS = {
    "verma_quotient_factors": (
        lambda: verma_quotient_factors(Params(3), 1, 4),
        "label G(1,4) needs 1 <= s <= 3",
    ),
    "virasoro_induce": (
        lambda: virasoro_induce(Params(3), 2, 0),
        "label M(2,0) needs 1 <= s <= 3",
    ),
    "w_simple": (lambda: w_simple(OrbifoldParams(3, 2), 1, 4), "label W(1,4) needs 1 <= s <= 3"),
    "r_proj": (lambda: r_proj(OrbifoldParams(3, 2), 1, 0), "label R(1,0) needs 1 <= s <= 3"),
    "normalize_atom non-int": (
        lambda: normalize_atom(Params(3), GenVerma(1, 2.0)),
        "label G(1,2.0) needs integer r and s",
    ),
    "verma_quotient_factors non-int": (
        lambda: verma_quotient_factors(Params(3), 1.0, 2),
        "label G(1.0,2) needs integer r and s",
    ),
    "virasoro_induce non-int": (
        lambda: virasoro_induce(Params(3), 2, True),
        "label M(2,True) needs integer r and s",
    ),
    "w_simple non-int": (
        lambda: w_simple(OrbifoldParams(3, 2), 1.0, 1),
        "label W(1.0,1) needs integer r and s",
    ),
    "r_proj non-int": (
        lambda: r_proj(OrbifoldParams(3, 2), 1, "2"),
        "label R(1,'2') needs integer r and s",
    ),
}


@pytest.mark.parametrize("call, message", S_RANGE_CALLS.values(), ids=S_RANGE_CALLS)
def test_s_range_messages(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
