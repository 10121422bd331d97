"""Hypothesis properties of products, structure and characters over random
direct sums at random p."""

from fractions import Fraction
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from singlet.characters import ch_expr
from singlet.fusion import chebyshev_fuse, fuse, k_product, projective_decompose
from singlet.modules import (
    FockAtypical,
    FockTypical,
    GenVerma,
    ModuleExpr,
    MSimple,
    Proj,
    dual,
    k_class,
    loewy_layers,
    lowest_weight,
    sort_key,
    verma_quotient_factors,
)
from singlet.orbifold import (
    OrbifoldParams,
    WSimple,
    induce,
    orbifold_char_expr,
    orbifold_fuse,
    r_proj,
    v_typical,
    w_simple,
)
from singlet.weights import Params

from helpers import (
    ch_expr_by_terms,
    fuse_by_term_pairs,
    k_class_by_species,
    k_product_by_pairs,
    laurent_image,
    laurent_product,
    orbifold_fuse_by_term_pairs,
    orbit_lift,
    outcome,
    projective_decompose_by_chains,
    verma_factors_by_cases,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

_R = st.integers(-4, 4)
_TYPICAL = (
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([2, 3, 4, 6]))
    .filter(lambda q: q.denominator != 1)
    .map(FockTypical)
)


def _fusable_atoms(p: int):
    return st.one_of(
        st.builds(MSimple, _R, st.integers(1, p)),
        st.builds(Proj, _R, st.integers(1, p - 1)),
        _TYPICAL,
    )


def _all_atoms(p: int):
    return st.one_of(
        _fusable_atoms(p),
        st.builds(FockAtypical, _R, st.integers(1, p - 1)),
        st.builds(GenVerma, _R, st.integers(1, p)),
    )


def _exprs(atoms, max_terms: int):
    terms = st.lists(st.tuples(atoms, st.integers(1, 3)), min_size=1, max_size=max_terms)
    return terms.map(ModuleExpr)


@st.composite
def fusable_triples(draw, max_p=12, max_terms=4):
    p = draw(st.integers(2, max_p))
    exprs = _exprs(_fusable_atoms(p), max_terms)
    return Params(p), draw(exprs), draw(exprs), draw(exprs)


@st.composite
def composite_pairs(draw):
    p = draw(st.integers(2, 12))
    exprs = _exprs(_all_atoms(p), 4)
    return Params(p), draw(exprs), draw(exprs)


@st.composite
def character_cases(draw):
    p = draw(st.integers(2, 8))
    return Params(p), draw(_exprs(_all_atoms(p), 4)), draw(st.integers(0, 200))


@PROPERTY_SETTINGS
@given(fusable_triples())
def test_fuse_is_bilinear(case):
    params, x, x2, y = case
    assert fuse(params, x + x2, y) == fuse(params, x, y) + fuse(params, x2, y)
    assert fuse(params, 2 * x, y) == 2 * fuse(params, x, y)


@PROPERTY_SETTINGS
@given(fusable_triples())
def test_fuse_is_commutative(case):
    params, x, _, y = case
    assert fuse(params, x, y) == fuse(params, y, x)


@PROPERTY_SETTINGS
@given(fusable_triples())
def test_fuse_has_the_unit_m11(case):
    params, x, _, _ = case
    unit = MSimple(1, 1)
    assert fuse(params, unit, x) == x == fuse(params, x, unit)


@PROPERTY_SETTINGS
@given(fusable_triples(max_terms=3))
def test_fuse_is_associative(case):
    params, x, y, z = case
    assert fuse(params, fuse(params, x, y), z) == fuse(params, x, fuse(params, y, z))


@PROPERTY_SETTINGS
@given(fusable_triples())
def test_fuse_commutes_with_duality(case):
    params, x, _, y = case
    assert dual(params, fuse(params, x, y)) == fuse(params, dual(params, x), dual(params, y))


@PROPERTY_SETTINGS
@given(composite_pairs())
def test_k_class_is_additive(case):
    params, x, x2 = case
    assert k_class(params, x + x2) == k_class(params, x) + k_class(params, x2)


@PROPERTY_SETTINGS
@given(fusable_triples(max_p=6, max_terms=3))
def test_chebyshev_oracle_matches_fuse(case):
    params, x, _, y = case
    assert chebyshev_fuse(params, x, y) == fuse(params, x, y)


@st.composite
def structure_cases(draw):
    """Random sums of M/P/Fa/G/F labels, s = p and G(0..2, s) drawn often."""
    p = draw(st.integers(2, 12))
    r, s = st.integers(-6, 6), st.one_of(st.just(p), st.integers(1, p))
    atoms = st.one_of(
        st.builds(MSimple, r, s),
        st.builds(Proj, r, s),
        st.builds(FockAtypical, r, s),
        st.builds(GenVerma, st.one_of(st.integers(0, 2), r), s),
        _TYPICAL,
    )
    return Params(p), draw(_exprs(atoms, 4))


@PROPERTY_SETTINGS
@given(structure_cases())
def test_structure_matches_species_oracle(case):
    params, x = case
    assert k_class(params, x) == k_class_by_species(params, x)
    for atom in x.atoms():
        layers = loewy_layers(params, atom)
        assert all(layer == sorted(layer, key=sort_key) for layer in layers)
        assert ModuleExpr.of(*chain.from_iterable(layers)) == k_class_by_species(params, atom)
        if isinstance(atom, GenVerma):
            expected = verma_factors_by_cases(params.p, atom.r, atom.s)
            assert verma_quotient_factors(params, atom.r, atom.s) == expected


@st.composite
def fusable_atom_pairs(draw):
    p = draw(st.integers(2, 12))
    atoms = _fusable_atoms(p)
    return Params(p), draw(atoms), draw(atoms)


@PROPERTY_SETTINGS
@given(fusable_atom_pairs())
def test_laurent_image_is_multiplicative(case):
    # The expectation goes through no fusion rule, so unlike the kring suite
    # this is not circular for P x M and P x P.
    params, x, y = case
    expected = laurent_product(laurent_image(params, x), laurent_image(params, y))
    assert laurent_image(params, fuse(params, x, y)) == expected
    assert laurent_image(params, k_product(params, k_class(params, x), k_class(params, y))) == expected


@st.composite
def projective_classes(draw):
    """K-classes of random projective sums, half of them with one more simple."""
    p = draw(st.integers(2, 12))
    projectives = st.one_of(
        st.builds(Proj, _R, st.integers(1, p - 1)),
        st.builds(MSimple, _R, st.just(p)),
        _TYPICAL,
    )
    k = k_class(Params(p), draw(_exprs(projectives, 4)))
    if draw(st.booleans()):
        k = k + ModuleExpr.of(draw(st.builds(MSimple, _R, st.integers(1, p))))
    return Params(p), k


@PROPERTY_SETTINGS
@given(projective_classes())
def test_projective_decompose_matches_chain_solver(case):
    # The two solvers word their failures differently; only the type must agree.
    params, k = case
    assert outcome(projective_decompose, params, k, message=False) == outcome(
        projective_decompose_by_chains, params, k, message=False
    )


@st.composite
def k_product_cases(draw):
    """Random sums of all five species; in half of the cases an s may fall
    outside 1..p, which k_class rejects."""
    p = draw(st.integers(2, 12))
    s = st.integers(0, p + 1) if draw(st.booleans()) else st.integers(1, p)
    species = (MSimple, Proj, FockAtypical, GenVerma)
    exprs = _exprs(st.one_of(*(st.builds(kind, _R, s) for kind in species), _TYPICAL), 4)
    return Params(p), draw(exprs), draw(exprs)


@PROPERTY_SETTINGS
@given(k_product_cases())
def test_k_product_matches_pair_loop(case):
    params, a, b = case
    assert outcome(k_product, params, a, b) == outcome(k_product_by_pairs, params, a, b)


@st.composite
def fuse_cases(draw):
    """Random sums of M, P and F, or single labels, at p 2..12, with x = 0 in
    about a quarter of the cases; in half of the cases labels that fusion
    rejects are drawn too: an s outside 1..p, Fa or G."""
    p = draw(st.integers(2, 12))
    atoms = st.one_of(
        st.builds(MSimple, _R, st.integers(1, p)), st.builds(Proj, _R, st.integers(1, p)), _TYPICAL
    )
    if draw(st.booleans()):
        bad_s = st.sampled_from([0, p + 1])
        atoms = st.one_of(
            atoms,
            st.builds(MSimple, _R, bad_s),
            st.builds(Proj, _R, bad_s),
            st.builds(FockAtypical, _R, st.integers(1, p - 1)),
            st.builds(GenVerma, _R, st.integers(1, p)),
        )
    sums = st.lists(st.tuples(atoms, st.integers(1, 3)), min_size=1, max_size=4).map(ModuleExpr)
    operands = st.one_of(sums, atoms)
    x = ModuleExpr() if draw(st.integers(0, 3)) == 0 else draw(operands)
    return Params(p), x, draw(operands)


@PROPERTY_SETTINGS
@given(fuse_cases())
def test_fuse_matches_term_pair_loop(case):
    params, x, y = case
    assert outcome(fuse, params, x, y) == outcome(fuse_by_term_pairs, params, x, y)


def _orbifold_labels(op: OrbifoldParams):
    labels = [
        st.builds(lambda r, s: w_simple(op, r, s), _R, st.integers(1, op.p)),
        st.builds(lambda r, s: r_proj(op, r, s), _R, st.integers(1, op.p)),
    ]
    if op.m > 1:  # V labels need m*q integral and q non-integral
        q = st.integers(-2 * op.q_modulus, 2 * op.q_modulus).filter(lambda j: j % op.m)
        labels.append(q.map(lambda j: v_typical(op, Fraction(j, op.m))))
    return st.one_of(labels)


@st.composite
def orbifold_lift_pairs(draw):
    op = OrbifoldParams(draw(st.integers(2, 8)), draw(st.integers(1, 4)))
    labels, shifts = _orbifold_labels(op), st.integers(-3, 3)
    return op, draw(labels), draw(shifts), draw(labels), draw(shifts)


@PROPERTY_SETTINGS
@given(orbifold_lift_pairs())
def test_orbifold_fuse_does_not_depend_on_the_lifts(case):
    op, a, k1, b, k2 = case
    lifted = fuse(op.singlet, orbit_lift(op, a, k1), orbit_lift(op, b, k2))
    assert induce(op, lifted) == orbifold_fuse(op, a, b)


@st.composite
def orbifold_sum_pairs(draw):
    """Two random orbifold sums with multiplicities; a W label may come
    with its r not yet reduced mod 2m."""
    op = OrbifoldParams(draw(st.integers(2, 6)), draw(st.integers(1, 4)))
    labels = st.one_of(_orbifold_labels(op), st.builds(WSimple, _R, st.integers(1, op.p)))
    terms = st.lists(st.tuples(labels, st.integers(1, 3)), min_size=1, max_size=4)
    return op, ModuleExpr(draw(terms)), ModuleExpr(draw(terms))


@PROPERTY_SETTINGS
@given(orbifold_sum_pairs())
def test_orbifold_fuse_matches_term_pair_sum(case):
    op, x, y = case
    assert orbifold_fuse(op, x, y) == orbifold_fuse_by_term_pairs(op, x, y)


@PROPERTY_SETTINGS
@given(character_cases())
def test_ch_expr_matches_term_by_term_sum(case):
    params, x, n = case
    assert ch_expr(params, x, n) == ch_expr_by_terms(params, x, n)


ORBIT_REACH = 12


@st.composite
def orbifold_character_cases(draw):
    op = OrbifoldParams(draw(st.integers(2, 5)), draw(st.integers(1, 4)))
    terms = st.lists(st.tuples(_orbifold_labels(op), st.integers(1, 3)), min_size=1, max_size=3)
    return op, ModuleExpr(draw(terms)), draw(st.integers(0, 80))


@PROPERTY_SETTINGS
@given(orbifold_character_cases())
def test_orbifold_char_expr_matches_lift_window(case):
    op, x, n = case
    lifts = []
    for atom, mult in x.terms():
        window = [orbit_lift(op, atom, k) for k in range(-ORBIT_REACH, ORBIT_REACH + 1)]
        # The window reaches past the order: its end lifts lie beyond every
        # coefficient kept, so no lift that counts is left out.
        least = min(lowest_weight(op.singlet, lift) for lift in window)
        assert min(lowest_weight(op.singlet, window[0]), lowest_weight(op.singlet, window[-1])) > least + n
        lifts += [(lift, mult) for lift in window]
    assert orbifold_char_expr(op, x, n) == ch_expr_by_terms(op.singlet, ModuleExpr(lifts), n)
