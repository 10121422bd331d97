import re
from fractions import Fraction
from itertools import product

import pytest

from singlet.errors import (
    DomainError,
    NotProjectiveClass,
    NotTypical,
    UnsupportedSpecies,
)
from singlet.fusion import (
    chebyshev_fuse,
    fuse,
    fuse_proj_typical,
    fuse_simple_simple_atypical,
    fuse_simple_typical,
    fuse_typical_typical,
    k_product,
    projective_decompose,
)
from singlet.modules import (
    FockAtypical,
    FockTypical,
    GenVerma,
    ModuleExpr,
    MSimple,
    Proj,
    k_class,
)
from singlet.weights import Params


def F(q):
    return FockTypical(Fraction(q))


def expr(*pairs):
    return ModuleExpr(list(pairs))


@pytest.mark.parametrize(
    "p, a, b, expected",
    [
        (2, (1, 2), (1, 2), [(Proj(1, 1), 1)]),
        (3, (1, 2), (1, 2), [(MSimple(1, 1), 1), (MSimple(1, 3), 1)]),
        (2, (1, 1), (2, 2), [(MSimple(2, 2), 1)]),
        (2, (2, 1), (2, 1), [(MSimple(3, 1), 1)]),
        (3, (1, 3), (1, 3), [(MSimple(1, 3), 1), (Proj(1, 1), 1)]),
    ],
)
def test_simple_simple_examples(p, a, b, expected):
    got = fuse_simple_simple_atypical(Params(p), a[0], a[1], b[0], b[1])
    assert got == expr(*expected)


def test_simple_simple_empty_ranges_taken_literally(p2):
    # s + s2 large enough that the first sum is empty at p = 2.
    got = fuse_simple_simple_atypical(p2, 1, 2, 1, 2)
    assert got == ModuleExpr.of(Proj(1, 1))


@pytest.mark.parametrize(
    "p, rs, q, expected_qs",
    [
        (2, (2, 1), Fraction(1, 2), [Fraction(5, 2)]),
        (2, (1, 2), Fraction(1, 2), [Fraction(-1, 2), Fraction(3, 2)]),
        (3, (1, 3), Fraction(1, 3), [Fraction(-5, 3), Fraction(1, 3), Fraction(7, 3)]),
    ],
)
def test_simple_typical_examples(p, rs, q, expected_qs):
    got = fuse_simple_typical(Params(p), rs[0], rs[1], q)
    assert got == ModuleExpr.of(*(F(x) for x in expected_qs))


def test_simple_typical_rejects_integral(p2):
    with pytest.raises(NotTypical):
        fuse_simple_typical(p2, 1, 1, Fraction(4, 2))


@pytest.mark.parametrize(
    "p, rs, q, expected",
    [
        (2, (1, 1), Fraction(1, 2), [(F("-3/2"), 1), (F("1/2"), 2), (F("5/2"), 1)]),
        (2, (2, 1), Fraction(1, 2), [(F("1/2"), 1), (F("5/2"), 2), (F("9/2"), 1)]),
        (
            3,
            (1, 2),
            Fraction(1, 2),
            [(F("-5/2"), 1), (F("-1/2"), 2), (F("3/2"), 2), (F("7/2"), 1)],
        ),
    ],
)
def test_proj_typical_examples(p, rs, q, expected):
    got = fuse_proj_typical(Params(p), rs[0], rs[1], q)
    assert got == expr(*expected)


def test_proj_typical_domain(p2):
    with pytest.raises(DomainError):
        fuse_proj_typical(p2, 1, 2, Fraction(1, 2))  # s = p is simple
    with pytest.raises(NotTypical):
        fuse_proj_typical(p2, 1, 1, 3)


@pytest.mark.parametrize(
    "p, q1, q2, expected",
    [
        (2, Fraction(1, 2), Fraction(1, 3), [(F("5/6"), 1), (F("17/6"), 1)]),
        (2, Fraction(1, 2), Fraction(-1, 2), [(Proj(2, 1), 1)]),
        (2, Fraction(1, 2), Fraction(-5, 2), [(Proj(1, 1), 1)]),
        (3, Fraction(1, 2), Fraction(-1, 2), [(MSimple(3, 3), 1), (Proj(2, 2), 1)]),
    ],
)
def test_typical_typical_examples(p, q1, q2, expected):
    assert fuse_typical_typical(Params(p), q1, q2) == expr(*expected)


def test_dual_pairing_identity(p2, p3, p5):
    # F(q) x F(2-2p-q) is the full odd column of projectives.
    for params in (p2, p3, p5):
        p = params.p
        expected = ModuleExpr.of(
            *(MSimple(1, s) if s == p else Proj(1, s) for s in range(1, p + 1, 2))
        )
        for q in (Fraction(1, 2), Fraction(-7, 3), Fraction(9, 4)):
            assert fuse_typical_typical(params, q, 2 - 2 * p - q) == expected


@pytest.mark.parametrize(
    "p, a, b, expected",
    [
        (2, ModuleExpr.of(MSimple(1, 2)), ModuleExpr.of(MSimple(1, 2)), {MSimple(1, 1): 2, MSimple(0, 1): 1, MSimple(2, 1): 1}),
        (2, ModuleExpr.of(F("1/2")), ModuleExpr.of(F("-1/2")), {MSimple(2, 1): 2, MSimple(1, 1): 1, MSimple(3, 1): 1}),
    ],
)
def test_k_product_examples(p, a, b, expected):
    params = Params(p)
    assert k_product(params, k_class(params, a), k_class(params, b)) == ModuleExpr(expected)


def test_k_product_unit(p2):
    unit = k_class(p2, ModuleExpr.of(MSimple(1, 1)))
    x = k_class(p2, ModuleExpr.of(Proj(1, 1), F("1/2")))
    assert k_product(p2, unit, x) == x


def brute_force_decompose(params, target):
    """Exhaustive search over projective multisets supported on the target."""
    p = params.p
    support = {a for a in target.atoms() if isinstance(a, MSimple) and a.s < p}
    rs = [a.r for a in support] or [0]
    candidates = [
        Proj(r, s)
        for r in range(min(rs), max(rs) + 1)
        for s in range(1, p)
    ]
    direct = [a for a in target.atoms() if not (isinstance(a, MSimple) and a.s < p)]

    def helper(remaining, chosen, start):
        if not any(isinstance(a, MSimple) and a.s < p for a in remaining.atoms()):
            return chosen
        for i in range(start, len(candidates)):
            cand = candidates[i]
            try:
                rest = remaining.subtract(k_class(params, cand))
            except ValueError:
                continue
            found = helper(rest, chosen + ModuleExpr.of(cand), i)
            if found is not None:
                return found
        return None

    base = ModuleExpr([(a, target.multiplicity(a)) for a in direct])
    leftover = target.subtract(k_class(params, base))
    solved = helper(leftover, ModuleExpr.zero(), 0)
    return None if solved is None else base + solved


@pytest.mark.parametrize(
    "p, target, expected",
    [
        (
            2,
            {MSimple(2, 1): 2, MSimple(1, 1): 1, MSimple(3, 1): 1},
            [(Proj(2, 1), 1)],
        ),
        (
            2,
            {MSimple(1, 1): 6, MSimple(0, 1): 4, MSimple(2, 1): 4, MSimple(-1, 1): 1, MSimple(3, 1): 1},
            [(Proj(0, 1), 1), (Proj(1, 1), 2), (Proj(2, 1), 1)],
        ),
        (2, {MSimple(1, 2): 1}, [(MSimple(1, 2), 1)]),
    ],
)
def test_projective_decompose_examples(p, target, expected):
    params = Params(p)
    target = ModuleExpr(target)
    got = projective_decompose(params, target)
    assert got == expr(*expected)
    assert brute_force_decompose(params, target) == got


def test_projective_decompose_matches_brute_force(p2, p3):
    for params in (p2, p3):
        p = params.p
        projs = [Proj(r, s) for r in range(-1, 3) for s in range(1, p)]
        projs += [MSimple(r, p) for r in range(-1, 3)]
        for a, b in product(projs, repeat=2):
            target = k_class(params, ModuleExpr.of(a)) + k_class(params, ModuleExpr.of(b))
            got = projective_decompose(params, target)
            assert got == brute_force_decompose(params, target)
            assert k_class(params, got) == target


def test_projective_decompose_with_support_gap(p2):
    # Two far-apart covers leave zero residuals between their chains.
    target = k_class(p2, ModuleExpr.of(Proj(0, 1))) + k_class(p2, ModuleExpr.of(Proj(4, 1)))
    assert projective_decompose(p2, target) == ModuleExpr.of(Proj(0, 1), Proj(4, 1))


def test_projective_decompose_rejections(p2):
    with pytest.raises(NotProjectiveClass):
        projective_decompose(p2, ModuleExpr.of(MSimple(1, 1)))
    with pytest.raises(NotProjectiveClass):
        projective_decompose(
            p2, ModuleExpr([(MSimple(1, 1), 1), (MSimple(0, 1), 1), (MSimple(2, 1), 1)])
        )
    with pytest.raises(DomainError):
        projective_decompose(p2, ModuleExpr.of(Proj(1, 1)))


@pytest.mark.parametrize(
    "p, x, y, expected",
    [
        (2, MSimple(2, 1), Proj(1, 1), [(Proj(2, 1), 1)]),
        (2, Proj(1, 1), Proj(1, 1), [(Proj(0, 1), 1), (Proj(1, 1), 2), (Proj(2, 1), 1)]),
        (3, F("1/2"), F("-1/2"), [(MSimple(3, 3), 1), (Proj(2, 2), 1)]),
        (2, MSimple(1, 2), Proj(1, 1), [(MSimple(0, 2), 1), (MSimple(1, 2), 2), (MSimple(2, 2), 1)]),
    ],
)
def test_fuse_examples(p, x, y, expected):
    assert fuse(Params(p), x, y) == expr(*expected)


def test_fuse_rejects_structural_species(p2):
    with pytest.raises(UnsupportedSpecies):
        fuse(p2, FockAtypical(1, 1), MSimple(1, 1))
    with pytest.raises(UnsupportedSpecies):
        fuse(p2, MSimple(1, 1), GenVerma(1, 1))


@pytest.mark.parametrize("product", [fuse, chebyshev_fuse])
@pytest.mark.parametrize(
    "x, y, error, atom",
    [
        # The first bad atom of a nested loop over x, then y, is reported:
        # x[0], then every term of y, then x[1], ...
        ((MSimple(1, 1), GenVerma(1, 1)), (FockAtypical(0, 1),), UnsupportedSpecies, "Fa(0,1)"),
        ((GenVerma(1, 1),), (MSimple(1, 3),), UnsupportedSpecies, "G(1,1)"),
        ((MSimple(1, 1), Proj(0, 1)), (MSimple(1, 1), MSimple(1, 3)), DomainError, "M(1,3)"),
        ((MSimple(1, 1), GenVerma(1, 1)), (), UnsupportedSpecies, "G(1,1)"),
    ],
)
def test_first_error_follows_term_order(p2, product, x, y, error, atom):
    with pytest.raises(error, match=re.escape(atom)):
        product(p2, ModuleExpr.of(*x), ModuleExpr.of(*y))
    assert product(p2, ModuleExpr.zero(), ModuleExpr.of(*y)) == ModuleExpr.zero()


def test_fuse_bilinear(p2):
    x = expr((MSimple(1, 2), 2), (F("1/2"), 1))
    y = expr((MSimple(1, 2), 1))
    direct = fuse(p2, x, y)
    parts = 2 * fuse(p2, MSimple(1, 2), MSimple(1, 2)) + fuse(p2, F("1/2"), MSimple(1, 2))
    assert direct == parts


@pytest.mark.parametrize(
    "p, x, y",
    [
        (2, MSimple(1, 2), Proj(1, 1)),
        (2, MSimple(1, 2), MSimple(1, 2)),
        (3, MSimple(1, 3), F("1/3")),
        (3, Proj(2, 2), Proj(-1, 1)),
        (2, Proj(1, 1), F("5/6")),
    ],
)
def test_chebyshev_matches_fuse(p, x, y):
    params = Params(p)
    assert chebyshev_fuse(params, x, y) == fuse(params, x, y)


def test_chebyshev_m12_proj_instance(p2):
    # M(1,2) x P(1,1) at p = 2: the degenerate-field product of the cover
    # picks up the simple projectives M(0,2), M(2,2) alongside 2*M(1,2).
    got = chebyshev_fuse(p2, MSimple(1, 2), Proj(1, 1))
    assert got == expr((MSimple(0, 2), 1), (MSimple(1, 2), 2), (MSimple(2, 2), 1))


def test_oracle_and_kring_at_p5(p5):
    # Larger p exercises the deep rungs of both recursion ladders.
    atoms = [MSimple(r, s) for r in (-1, 1, 2) for s in (1, 3, 5)]
    atoms += [Proj(r, s) for r in (0, 2) for s in (1, 2, 4)]
    atoms += [F("1/2"), F("-7/3")]
    for x in atoms:
        for y in atoms:
            product = fuse(p5, x, y)
            assert chebyshev_fuse(p5, x, y) == product
            assert k_class(p5, product) == k_product(
                p5, k_class(p5, x), k_class(p5, y)
            )
