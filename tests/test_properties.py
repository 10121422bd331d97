"""Hypothesis properties of products over random direct sums at random p."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from singlet.fusion import chebyshev_fuse, fuse
from singlet.modules import FockAtypical, FockTypical, GenVerma, ModuleExpr, MSimple, Proj, k_class
from singlet.weights import Params

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
@given(composite_pairs())
def test_k_class_is_additive(case):
    params, x, x2 = case
    assert k_class(params, x + x2) == k_class(params, x) + k_class(params, x2)


@PROPERTY_SETTINGS
@given(fusable_triples(max_p=6, max_terms=3))
def test_chebyshev_oracle_matches_fuse(case):
    params, x, _, y = case
    assert chebyshev_fuse(params, x, y) == fuse(params, x, y)
