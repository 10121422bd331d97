"""The direct-sum accumulator: ``ModuleExpr.combine`` and the operations that
share its trusted constructor, plus the integer sort keys and cached hashes
of the atoms it sums, and the error a sum of something else raises."""

import random
import re
from fractions import Fraction

import pytest

from singlet.characters import ch_expr
from singlet.checks import universe
from singlet.errors import DomainError
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
    lowest_weight,
    sort_key,
)
from singlet.orbifold import (
    OrbifoldParams,
    RProj,
    VTypical,
    WSimple,
    induce,
    list_simples,
    orbifold_char_expr,
    orbifold_fuse,
)
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
    assert ModuleExpr.combine([]) == ModuleExpr()


def test_zero_scalar_adds_nothing():
    assert ModuleExpr.combine([(0, X)]) == ModuleExpr()
    assert stored(ModuleExpr.combine([(0, X)])) == []
    assert ModuleExpr.combine([(0, X), (1, Y), (0, Y)]) == Y
    assert stored(0 * X) == []


def test_no_result_stores_a_zero_multiplicity():
    results = [
        ModuleExpr.combine([(0, X), (2, Y), (0, ModuleExpr())]),
        X + Y,
        X + ModuleExpr(),
        ModuleExpr() + ModuleExpr(),
        X.expand(lambda atom: (F12,)),
        ModuleExpr().expand(lambda atom: (F12,)),
        0 * X,
        3 * Y,
        X * 2,
        ModuleExpr.of(F12, F12, MSimple(1, 1)),
        ModuleExpr(),
    ]
    for expr in results:
        assert all(isinstance(m, int) and m > 0 for m in stored(expr)), expr
    assert X.expand(lambda atom: (F12,)) == ModuleExpr([(F12, 3)])


@pytest.mark.parametrize("other", [MSimple(1, 1), 1])
def test_a_sum_with_a_non_expression_is_a_type_error(other):
    with pytest.raises(TypeError):
        X + other
    with pytest.raises(TypeError):
        other + X
    assert sum([X, X], ModuleExpr()) == 2 * X


@pytest.mark.parametrize("terms", [{MSimple(1, 1): -1}, [(MSimple(1, 1), 1.5)], [(F12, "1")]])
def test_public_constructor_still_validates(terms):
    with pytest.raises(DomainError, match="multiplicity must be a nonnegative integer"):
        ModuleExpr(terms)


def test_public_constructor_drops_zero_multiplicities():
    assert stored(ModuleExpr({MSimple(1, 1): 0, F12: 2})) == [2]


def test_public_constructor_copies_an_expression():
    copy = ModuleExpr(X)
    assert copy == X and stored(copy) == stored(X)
    assert copy._terms is not X._terms


def test_only_a_zero_sum_is_falsy():
    assert not ModuleExpr() and not 0 * X and not ModuleExpr({F12: 0})
    assert X and ModuleExpr.of(MSimple(1, 1))


def test_equal_sums_built_in_different_orders_hash_equal():
    forward, backward = X + Y, ModuleExpr.combine([(1, Y), (1, X)])
    assert list(forward.items()) != list(backward.items())
    assert hash(forward) == hash(backward)
    assert len({X, Y, forward, backward}) == 3


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


@pytest.mark.parametrize("cls", [FockTypical, VTypical])
def test_equal_typical_atoms_hash_and_compare_equal(cls):
    a, b, c = cls(Fraction(1, 2)), cls(Fraction(2, 4)), cls("1/2")
    assert a == b == c
    assert hash(a) == hash(b) == hash(c) == hash((Fraction(1, 2),))
    assert len({a, b, c}) == 1
    assert cls(Fraction(1, 2)) != cls(Fraction(-1, 2))
    assert ModuleExpr.of(a, b).multiplicity(c) == 2


def test_typical_atoms_equal_only_typical_atoms():
    half = FockTypical("1/2")
    assert half == FockTypical(Fraction(2, 4))
    assert half != VTypical(Fraction(1, 2)) and VTypical(Fraction(1, 2)) != half
    assert half != Fraction(1, 2) and Fraction(1, 2) != half
    assert half != MSimple(1, 2)


P2, OP22 = Params(2), OrbifoldParams(2, 2)
ENTRY_POINTS = {
    "fuse": lambda x: fuse(P2, x, MSimple(1, 1)),
    "chebyshev_fuse": lambda x: chebyshev_fuse(P2, x, MSimple(1, 1)),
    "k_class": lambda x: k_class(P2, x),
    "k_product": lambda x: k_product(P2, x, MSimple(1, 1)),
    "projective_decompose": lambda x: projective_decompose(P2, x),
    "ch_expr": lambda x: ch_expr(P2, x, 3),
    "induce": lambda x: induce(OP22, x),
    "orbifold_fuse": lambda x: orbifold_fuse(OP22, x, WSimple(1, 1)),
    "orbifold_char_expr": lambda x: orbifold_char_expr(OP22, x, 3),
    "fuse_right": lambda x: fuse(P2, MSimple(1, 1), x),
    "dual": lambda x: dual(P2, x),
}
# Operand -> (the operand, the non-label it holds).  A list or a dict is
# unhashable, so it must be refused before it is used as a dict key.
OPERANDS = {
    "bare": ("x", "x"),
    "in a sum": (ModuleExpr.of(MSimple(1, 1), "x"), "x"),
    "a list": ([1], [1]),
    "a dict": ({}, {}),
}


@pytest.mark.parametrize("operand", OPERANDS)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_non_label_operand_is_a_domain_error(name, operand):
    x, bad = OPERANDS[operand]
    with pytest.raises(DomainError, match=re.escape(f"module label: {bad!r}")):
        ENTRY_POINTS[name](x)


def test_repr_of_a_sum_that_holds_a_non_label_shows_its_terms():
    held = ModuleExpr.of(MSimple(1, 1), "x")
    assert repr(held) == "ModuleExpr({MSimple(r=1, s=1): 1, 'x': 1})"
    assert repr(ModuleExpr.of(MSimple(1, 1), MSimple(1, 1))) == "ModuleExpr(2*M(1,1))"
    # lowest_weight takes one label, so the sum is itself the non-label.
    with pytest.raises(DomainError, match=re.escape(f"module label: {held!r}")):
        lowest_weight(P2, held)
