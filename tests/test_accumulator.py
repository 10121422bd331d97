"""The direct-sum accumulator: ``ModuleExpr.combine`` and the operations that
share its trusted constructor, plus the integer sort keys and cached hashes
of the atoms it sums."""

import random
from fractions import Fraction

import pytest

from singlet.checks import universe
from singlet.errors import DomainError
from singlet.modules import FockAtypical, FockTypical, GenVerma, ModuleExpr, MSimple, Proj, sort_key
from singlet.orbifold import OrbifoldParams, RProj, list_simples
from singlet.weights import Params

F12 = FockTypical(Fraction(1, 2))
X = ModuleExpr([(MSimple(1, 1), 2), (F12, 1)])
Y = ModuleExpr([(F12, 3), (Proj(0, 1), 1)])


def stored(expr):
    """The multiplicities an expression holds internally."""
    return list(expr._terms.values())


@pytest.mark.parametrize("n", [-1, 1.5, Fraction(2), "2", None])
def test_combine_rejects_bad_scalars(n):
    with pytest.raises(DomainError, match="scalar must be a nonnegative integer"):
        ModuleExpr.combine([(1, X), (n, Y)])


def test_combine_sums_scaled_pieces():
    got = ModuleExpr.combine([(2, X), (1, Y), (3, ModuleExpr.of(MSimple(1, 1)))])
    assert got == ModuleExpr([(MSimple(1, 1), 7), (F12, 5), (Proj(0, 1), 1)])
    assert got == 2 * X + Y + 3 * ModuleExpr.of(MSimple(1, 1))
    assert ModuleExpr.combine(iter([(1, X)])) == X
    assert ModuleExpr.combine([]) == ModuleExpr.zero()


def test_zero_scalar_adds_nothing():
    assert ModuleExpr.combine([(0, X)]) == ModuleExpr.zero()
    assert stored(ModuleExpr.combine([(0, X)])) == []
    assert ModuleExpr.combine([(0, X), (1, Y), (0, Y)]) == Y
    assert stored(0 * X) == []


def test_no_result_stores_a_zero_multiplicity():
    results = [
        ModuleExpr.combine([(0, X), (2, Y), (0, ModuleExpr.zero())]),
        X + Y,
        X + ModuleExpr.zero(),
        ModuleExpr.zero() + ModuleExpr.zero(),
        X.subtract(X),
        (X + Y).subtract(X),
        X.map_atoms(lambda atom: F12),
        ModuleExpr.zero().map_atoms(lambda atom: F12),
        0 * X,
        3 * Y,
        X * 2,
        ModuleExpr.of(F12, F12, MSimple(1, 1)),
        ModuleExpr.zero(),
    ]
    for expr in results:
        assert all(isinstance(m, int) and m > 0 for m in stored(expr)), expr
    assert X.subtract(X) == ModuleExpr.zero()
    assert (X + Y).subtract(X) == Y
    assert X.map_atoms(lambda atom: F12) == ModuleExpr([(F12, 3)])


@pytest.mark.parametrize("terms", [{MSimple(1, 1): -1}, [(MSimple(1, 1), 1.5)], [(F12, "1")]])
def test_public_constructor_still_validates(terms):
    with pytest.raises(DomainError, match="multiplicity must be a nonnegative integer"):
        ModuleExpr(terms)


def test_public_constructor_drops_zero_multiplicities():
    assert stored(ModuleExpr({MSimple(1, 1): 0, F12: 2})) == [2]


def fraction_sort_key(atom):
    """The sort key as it was defined with ``Fraction`` components."""
    q = getattr(atom, "q", None)
    if q is not None:
        return (atom._RANK, q, Fraction(0))
    return (atom._RANK, Fraction(atom.r), Fraction(atom.s))


def test_integer_sort_key_keeps_the_fraction_order():
    p = 3
    op = OrbifoldParams(p, 2)
    atoms = universe(Params(p))
    atoms += [FockAtypical(r, s) for r in range(-2, 4) for s in range(1, p)]
    atoms += [GenVerma(r, s) for r in range(-2, 4) for s in range(1, p + 1)]
    atoms += [FockTypical(Fraction(-7, 3)), FockTypical(Fraction(11, 6))]
    atoms += list_simples(op) + [RProj(r, s) for r in range(op.r_modulus) for s in range(1, p)]
    random.Random(7).shuffle(atoms)
    assert sorted(atoms, key=sort_key) == sorted(atoms, key=fraction_sort_key)
    assert len({type(a) for a in atoms}) == 8


def test_equal_typical_atoms_hash_and_compare_equal():
    a, b, c = FockTypical(Fraction(1, 2)), FockTypical(Fraction(2, 4)), FockTypical("1/2")
    assert a == b == c
    assert hash(a) == hash(b) == hash(c) == hash((Fraction(1, 2),))
    assert len({a, b, c}) == 1
    assert FockTypical(Fraction(1, 2)) != FockTypical(Fraction(-1, 2))
    assert ModuleExpr.of(a, b).multiplicity(c) == 2
