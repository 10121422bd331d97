import random
import re
from fractions import Fraction
from itertools import product

import pytest

from singlet import fusion
from singlet.checks import run_suite, universe
from singlet.errors import (
    DomainError,
    NotProjectiveClass,
    OracleSubtractionFailure,
    UnsupportedSpecies,
)
from singlet.fusion import (
    _fuse_atoms,
    chebyshev_fuse,
    fuse,
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
    orbit,
    shift,
    sort_key,
)
from singlet.orbifold import OrbifoldParams, RProj, VTypical, WSimple, orbifold_fuse
from singlet.weights import Params

from helpers import closed_form, outcome, wrong_m12_m12


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
    got = fuse(Params(p), MSimple(*a), MSimple(*b))
    assert got == expr(*expected)


def test_simple_simple_empty_ranges_taken_literally(p2):
    # s + s2 large enough that the first sum is empty at p = 2.
    got = fuse(p2, MSimple(1, 2), MSimple(1, 2))
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
    got = fuse(Params(p), MSimple(*rs), F(q))
    assert got == ModuleExpr.of(*(F(x) for x in expected_qs))


def test_simple_typical_rejects_integral(p2):
    # An integral coordinate is no typical label, so no rule ever meets one.
    with pytest.raises(DomainError, match="non-integral"):
        fuse(p2, MSimple(1, 1), FockTypical(Fraction(4, 2)))


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
    got = fuse(Params(p), Proj(*rs), F(q))
    assert got == expr(*expected)


def test_proj_typical_domain(p2):
    # P(r,p) is the simple M(r,p), so its row is the simple one.
    assert fuse(p2, Proj(1, 2), F("1/2")) == fuse(p2, MSimple(1, 2), F("1/2"))
    with pytest.raises(DomainError, match="non-integral"):
        fuse(p2, Proj(1, 1), FockTypical(3))


# The typical coordinates of the check universe, and one of denominator 12.
TYPICAL_COORDS = [a.q for a in universe(Params(2)) if isinstance(a, FockTypical)] + [Fraction(-7, 12)]


@pytest.mark.parametrize("q", TYPICAL_COORDS, ids=str)
@pytest.mark.parametrize("p", range(2, 8))
def test_typical_proj_closed_form(p, q):
    # The closed form of F(q) x P(r,s): p Fock modules stepping by 2 from each
    # of q + p(r-1) - (s-1) and q + p(r-2) - (p-s-1), each coordinate written
    # from the ints of q.  fuse takes the product by the exactness rule, as
    # the sum of F(q) x f over the composition factors f of P(r,s).
    params = Params(p)
    n, d = q.numerator, q.denominator
    for r in range(-2, 4):
        for s in range(1, p):
            bases = (p * (r - 1) - (s - 1), p * (r - 2) - (p - s - 1))
            expected = ModuleExpr.of(
                *(FockTypical(Fraction(n + d * (b + 2 * l), d)) for b in bases for l in range(p))
            )
            assert fuse(params, FockTypical(q), Proj(r, s)) == expected, (r, s)


@pytest.mark.parametrize(
    "p, rs, rs2, expected",
    [
        (2, (1, 1), (1, 1), [(Proj(1, 1), 1)]),
        # s2 = p: the doubled B term at l = p is 2 M(1,2), its flanks M(0,2), M(2,2).
        (2, (1, 1), (1, 2), [(MSimple(1, 2), 2), (MSimple(0, 2), 1), (MSimple(2, 2), 1)]),
        (3, (1, 1), (1, 2), [(Proj(1, 2), 1), (MSimple(0, 3), 1), (MSimple(2, 3), 1)]),
        (3, (1, 2), (1, 2), [(Proj(1, 1), 1), (MSimple(1, 3), 2)]),
        (3, (0, 1), (2, 3), [(MSimple(1, 3), 2), (Proj(0, 2), 1), (Proj(2, 2), 1)]),
        (4, (1, 3), (1, 3), [(Proj(1, 1), 1), (Proj(1, 3), 2)]),
        (
            4,
            (1, 1),
            (1, 4),
            [(MSimple(1, 4), 2), (Proj(0, 2), 1), (Proj(2, 2), 1), (MSimple(0, 4), 1), (MSimple(2, 4), 1)],
        ),
    ],
)
def test_proj_simple_examples(p, rs, rs2, expected):
    got = fuse(Params(p), Proj(*rs), MSimple(*rs2))
    assert got == expr(*expected)


def test_proj_simple_domain(p2):
    # P(r,p) is the simple M(r,p); an s beyond p is refused at the label.
    assert fuse(p2, Proj(1, 2), MSimple(1, 1)) == fuse(p2, MSimple(1, 2), MSimple(1, 1))
    with pytest.raises(DomainError, match=r"M\(1,3\) needs 1 <= s <= 2"):
        fuse(p2, Proj(1, 1), MSimple(1, 3))


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
    assert fuse(Params(p), F(q1), F(q2)) == expr(*expected)


def test_dual_pairing_identity(p2, p3, p5):
    # F(q) x F(2-2p-q) is the full odd column of projectives.
    for params in (p2, p3, p5):
        p = params.p
        expected = ModuleExpr.of(
            *(MSimple(1, s) if s == p else Proj(1, s) for s in range(1, p + 1, 2))
        )
        for q in (Fraction(1, 2), Fraction(-7, 3), Fraction(9, 4)):
            assert fuse(params, F(q), F(2 - 2 * p - q)) == expected


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


def difference(x, y):
    """The multiset x - y, or None if some count would go negative."""
    out = dict(x.items())
    for atom, mult in y.items():
        left = out.get(atom, 0) - mult
        if left < 0:
            return None
        out[atom] = left
    return ModuleExpr(out)


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
            rest = difference(remaining, k_class(params, cand))
            if rest is None:
                continue
            found = helper(rest, chosen + ModuleExpr.of(cand), i)
            if found is not None:
                return found
        return None

    base = ModuleExpr([(a, target.multiplicity(a)) for a in direct])
    leftover = difference(target, k_class(params, base))
    solved = helper(leftover, ModuleExpr(), 0)
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


# A float or a bool equals an int and hashes as it, so a label made of one
# would stand in the id tables for the int label; it is refused when made.
NON_INT_FIELDS = [
    pytest.param(MSimple, 1.0, 2, id="M(1.0,2)"),
    pytest.param(MSimple, 1, 2.0, id="M(1,2.0)"),
    pytest.param(MSimple, 1.5, 2, id="M(1.5,2)"),
    pytest.param(Proj, True, 1, id="P(True,1)"),
]


@pytest.mark.parametrize("product", [fuse, chebyshev_fuse])
@pytest.mark.parametrize("species, r, s", NON_INT_FIELDS)
def test_a_refused_non_int_label_leaves_later_products_printing_ints(fresh_rows, product, species, r, s):
    p3 = Params(3)
    # M(1,2) and P(1,1) are interned first: a label equal to one of them
    # would hit the table and skip every check there.
    assert str(product(p3, MSimple(1, 2), MSimple(1, 2))) == "M(1,1) + M(1,3)"
    assert str(product(p3, MSimple(1, 2), Proj(1, 1))) == "M(0,3) + M(2,3) + P(1,2)"
    with pytest.raises(DomainError, match=r"needs integer r and s$"):
        species(r, s)
    assert str(product(p3, MSimple(1, 2), MSimple(1, 2))) == "M(1,1) + M(1,3)"
    assert str(product(p3, MSimple(1, 2), Proj(1, 1))) == "M(0,3) + M(2,3) + P(1,2)"


def test_fuse_rejects_structural_species(p2):
    with pytest.raises(UnsupportedSpecies):
        fuse(p2, FockAtypical(1, 1), MSimple(1, 1))
    with pytest.raises(UnsupportedSpecies):
        fuse(p2, MSimple(1, 1), GenVerma(1, 1))


@pytest.mark.parametrize("product", [fuse, chebyshev_fuse])
@pytest.mark.parametrize(
    "x, y, error, atom",
    [
        # The first bad label of x in canonical order is reported, else the
        # first of y.
        ((MSimple(1, 1), FockAtypical(0, 1)), (GenVerma(1, 1),), UnsupportedSpecies, "Fa(0,1)"),
        ((GenVerma(1, 1),), (MSimple(1, 3),), UnsupportedSpecies, "G(1,1)"),
        ((MSimple(1, 1), Proj(0, 1)), (MSimple(1, 1), MSimple(1, 3)), DomainError, "M(1,3)"),
        ((MSimple(1, 1), GenVerma(1, 1)), (), UnsupportedSpecies, "G(1,1)"),
    ],
)
def test_first_error_follows_term_order(p2, product, x, y, error, atom):
    with pytest.raises(error, match=re.escape(atom)):
        product(p2, ModuleExpr.of(*x), ModuleExpr.of(*y))
    # A zero x is an operand like any other: y is read as a good x reads it.
    y = ModuleExpr.of(*y)
    assert outcome(product, p2, ModuleExpr(), y) == outcome(product, p2, MSimple(1, 1), y)


# The rule of fuse and chebyshev_fuse, at p = 2, m = 2: the first bad label
# of x in canonical order, else the first of y, a zero x included.
ORBIFOLD_FIRST_ERRORS = {
    "bad x[1] before bad y": (
        (WSimple(0, 1), WSimple(1, 3)),
        (RProj(1, 5),),
        "label W(1,3) needs 1 <= s <= 2",
    ),
    "bad y[0] before bad y[1]": (
        (WSimple(0, 1),),
        (VTypical(Fraction(1, 3)), RProj(1, 5)),
        "V coordinate must have m*q integral, got q=1/3 at m=2",
    ),
    "singlet label in x": (
        (MSimple(1, 1), RProj(0, 1)),
        (),
        "not an orbifold module label: MSimple(r=1, s=1)",
    ),
    "zero x, bad y": ((), (RProj(1, 1), WSimple(0, 3)), "label W(0,3) needs 1 <= s <= 2"),
}


@pytest.mark.parametrize("x, y, message", ORBIFOLD_FIRST_ERRORS.values(), ids=ORBIFOLD_FIRST_ERRORS)
def test_orbifold_first_error_follows_term_order(x, y, message):
    with pytest.raises(DomainError) as exc:
        orbifold_fuse(OrbifoldParams(2, 2), ModuleExpr.of(*x), ModuleExpr.of(*y))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "x, y",
    [
        (MSimple(-2, 5), F("1/3")),
        (F("7/2"), F("-1/3")),
        (MSimple(3, 30), MSimple(-1, 4)),
    ],
)
def test_swapped_product_reads_the_same_cached_row(x, y):
    # p = 31 is used by no other test, so no pair below is cached yet.
    params = Params(31)
    misses = _fuse_atoms.cache_info().misses
    assert fuse(params, x, y) == fuse(params, y, x)
    assert _fuse_atoms.cache_info().misses == misses + 1


def test_swapped_projective_product_adds_no_row():
    params = Params(31)
    x = ModuleExpr([(Proj(-7, 3), 2), (MSimple(4, 9), 1)])
    product = fuse(params, x, Proj(9, 11))
    misses = _fuse_atoms.cache_info().misses
    assert fuse(params, Proj(9, 11), x) == product
    assert _fuse_atoms.cache_info().misses == misses


def test_equal_labels_are_one_object_within_a_params(p3):
    atoms = universe(p3)
    shared = {}
    for x in atoms:
        for y in atoms:
            for atom in fuse(p3, x, y).atoms():
                assert shared.setdefault(atom, atom) is atom
    # M(1,3) is a summand of both M(1,2) x M(1,2) and M(1,1) x M(1,3); the
    # second product is asked with new label objects and another Params(3).
    first = fuse(p3, MSimple(1, 2), MSimple(1, 2)).atoms()
    second = fuse(Params(3), ModuleExpr.of(MSimple(1, 1)), MSimple(1, 3)).atoms()
    assert MSimple(1, 3) in first
    assert second == [MSimple(1, 3)]
    assert first[first.index(MSimple(1, 3))] is second[0] is shared[MSimple(1, 3)]


def test_a_label_valid_at_one_p_still_raises_at_a_smaller_p():
    assert fuse(Params(3), MSimple(1, 3), MSimple(1, 1)) == ModuleExpr.of(MSimple(1, 3))
    with pytest.raises(DomainError, match=re.escape("M(1,3)")):
        fuse(Params(2), MSimple(1, 3), MSimple(1, 1))
    with pytest.raises(DomainError, match=re.escape("M(1,3)")):
        fuse(Params(2), MSimple(1, 1), ModuleExpr.of(MSimple(1, 3)))


def test_fuse_never_reaches_the_k_ring(monkeypatch, fresh_rows):
    # Every row is made afresh while the K-ring product and its inversion
    # raise: each species pair has its own closed form.
    def unreachable(*args):
        raise AssertionError("fuse reached the K-ring")

    monkeypatch.setattr(fusion, "k_product", unreachable)
    monkeypatch.setattr(fusion, "projective_decompose", unreachable)
    for p in range(2, 8):
        params = Params(p)
        atoms = universe(params)
        for x in atoms:
            for y in atoms:
                fuse(params, x, y)


def test_projective_at_s_equal_p_reads_the_simple_row():
    # p = 29 is used by no other test, so no pair below is cached yet.
    params = Params(29)
    x = ModuleExpr([(MSimple(2, 3), 1), (F("1/2"), 2)])
    product = fuse(params, Proj(-1, 29), x)
    misses = _fuse_atoms.cache_info().misses
    assert fuse(params, MSimple(-1, 29), x) == product
    assert fuse(params, x, Proj(-1, 29)) == product
    assert _fuse_atoms.cache_info().misses == misses
    assert fuse(params, Proj(-1, 29), MSimple(1, 1)) == ModuleExpr.of(MSimple(-1, 29))


def test_fuse_bilinear(p2):
    x = expr((MSimple(1, 2), 2), (F("1/2"), 1))
    y = expr((MSimple(1, 2), 1))
    direct = fuse(p2, x, y)
    parts = 2 * fuse(p2, MSimple(1, 2), MSimple(1, 2)) + fuse(p2, F("1/2"), MSimple(1, 2))
    assert direct == parts


def test_shift_is_the_simple_current():
    # shift is the one statement of J = M(2,1); the closed forms of the
    # products with M(k+1,1) = J^k do not use it.
    for p in range(2, 7):
        params = Params(p)
        for x in universe(params):
            for k in range(-3, 4):
                want = ModuleExpr.of(shift(params, x, k))
                assert fuse(params, MSimple(k + 1, 1), x) == want, (p, x, k)


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


def test_oracle_keeps_no_state_and_reads_no_closed_form_row():
    # p = 19 is used by no other test: an oracle that interned into the id
    # tables of fuse or read its cached rows would add a table or a row.
    params = Params(19)
    tables = {p: len(t.atoms) for p, t in fusion._TABLES.items()}
    cache = _fuse_atoms.cache_info()
    atoms = [MSimple(2, 3), MSimple(-1, 19), Proj(0, 1), Proj(3, 18), F("1/2"), F("-7/3")]
    for x in atoms:
        for y in atoms:
            chebyshev_fuse(params, x, y)
    chebyshev_fuse(params, ModuleExpr.of(*atoms), ModuleExpr.of(*atoms[::2]))
    assert {p: len(t.atoms) for p, t in fusion._TABLES.items()} == tables
    assert _fuse_atoms.cache_info() == cache


def test_oracle_reports_a_negative_subtraction(monkeypatch):
    # A wrong base product M(1,2) x M(r,s) = M(r,s+1), 1 < s < p, leaves
    # the ladder of M(1,3) x M(1,4) short of the M(1,3) it subtracts.
    m12_row = fusion._m12_row

    def wrong(p, cls, b):
        if cls is MSimple and 1 < b < p:
            return [(MSimple, 0, b + 1, 1)]
        return m12_row(p, cls, b)

    monkeypatch.setattr(fusion, "_m12_row", wrong)
    with pytest.raises(OracleSubtractionFailure) as info:
        chebyshev_fuse(Params(5), MSimple(1, 3), MSimple(0, 4))
    assert str(info.value) == "multiset subtraction went negative at M(1,3)"


@pytest.mark.parametrize("p", range(2, 8))
def test_oracle_base_rows_are_the_m12_products(p):
    # Each (class, d, b, mult) term of a base row, read at a start label as
    # mult copies of class(r + d, b), or of F(q + d) when b = 0, is one
    # summand of fuse's M(1,2) x start.
    params = Params(p)
    starts = [MSimple(r, s) for r in (-2, 0, 3) for s in range(1, p + 1)]
    starts += [Proj(r, s) for r in (-2, 0, 3) for s in range(1, p)]
    starts += [F(q) for q in ("1/2", "-7/3", "5/6")]
    for start in starts:
        b = getattr(start, "s", 0)
        row = fusion._m12_row(p, type(start), b)
        got = ModuleExpr(
            [(cls(start.r + d, b2) if b2 else F(start.q + d), mult) for cls, d, b2, mult in row]
        )
        assert got == fuse(params, MSimple(1, 2), start), start


@pytest.mark.parametrize("p", [25, 40])
def test_oracle_deep_rungs(p):
    # Every rung of both ladders, from s = p down to s = 1, well past the
    # p <= 5 of the other oracle tests.
    params = Params(p)
    pairs = [(Proj(a, 1), Proj(b, 1)) for a, b in ((0, 1), (2, -1), (1, 1))]
    pairs += [(MSimple(r, p), Proj(r2, s)) for r, r2, s in ((1, 0, 1), (-1, 2, p // 2), (2, 1, p - 1))]
    pairs += [(Proj(r, s), F(q)) for r, s, q in ((0, 1, "1/2"), (2, p // 3, "-7/3"), (1, p - 1, "5/6"))]
    for x, y in pairs:
        assert chebyshev_fuse(params, x, y) == fuse(params, x, y), (x, y)


@pytest.mark.parametrize("p", range(2, 6))
def test_single_pair_product_is_its_row(p):
    # Two single labels of multiplicity 1 are read straight from their row;
    # the dict holds the row's ids and multiplicities in the row's order.
    # A multiplicity other than 1 takes the general loop and scales the row.
    t = fusion.id_table(Params(p))
    singles = [t.ids(x) for x in universe(Params(p))]
    for xs in singles:
        for ys in singles:
            row = t.row(xs[0], ys[0])
            want = list(zip(row[::2], row[1::2]))
            assert list(t.product(xs, ys).items()) == want
            assert list(t.product([xs[0], 2], ys).items()) == [(k, 2 * n) for k, n in want]


# Numerators of every sign, up to 10^6 in size, against denominators 2..12.
NUMERATORS = [n for k in (1, 5, 7, 11, 999_999, 10**6, 10**6 - 11) for n in (k, -k)]


@pytest.mark.parametrize("p", [2, 3, 7])
def test_typical_rules_on_ints_match_fraction_arithmetic(p):
    # The typical rules at large numerators of every sign; the reference
    # here is Fraction arithmetic, term by term and in order.
    params = Params(p)
    qs = [Fraction(n, d) for d in range(2, 13) for n in NUMERATORS if n % d]
    simples = [MSimple(r, s) for r in (-3, 1, 4) for s in range(1, p + 1)]
    for q in qs:
        for a in simples:
            base = q + p * (a.r - 1) - (a.s - 1)
            want = [(FockTypical(base + 2 * l), 1) for l in range(a.s)]
            assert list(fusion._simple_typical(params, a, F(q)).items()) == want, (a, q)
        for q2 in (Fraction(1, 3), Fraction(-5, 12), Fraction(1, 2) - q, Fraction(1, 3) - 2 * q):
            total = q + q2
            if q2.denominator == 1 or total.denominator == 1:
                continue
            want = [(FockTypical(total + 2 * l), 1) for l in range(p)]
            assert list(fusion._typical_typical(params, F(q), F(q2)).items()) == want, (q, q2)


@pytest.mark.parametrize("p", range(2, 13))
def test_ladder_codes_round_trip(p):
    # The 2p codes of the oracle's ladder keys: F, M(., 1..p), P(., 1..p-1).
    pairs = [(FockTypical, 0)] + [(MSimple, b) for b in range(1, p + 1)]
    pairs += [(Proj, b) for b in range(1, p)]
    assert [fusion._code(p, cls, b) for cls, b in pairs] == list(range(2 * p))
    assert [fusion._decode(p, code) for code in range(2 * p)] == pairs


def shifted(params, x, k):
    """J^k x for an expression x, through ``modules.shift``."""
    return x.expand(lambda atom: (shift(params, atom, k),))


def seeded_labels(params, seed, n=40):
    """n fusable labels with r up to 10^3 in size and typical coordinates
    of denominator 2..12 up to 10^3 in size."""
    rng = random.Random(seed)
    p = params.p
    out = []
    for k in range(n):
        r = rng.randint(-1000, 1000)
        if k % 3 == 0:
            out.append(MSimple(r, rng.randint(1, p)))
        elif k % 3 == 1:
            out.append(Proj(r, rng.randint(1, p - 1)))
        else:
            den = rng.randint(2, 12)
            out.append(F(Fraction(den * rng.randint(-1000, 999) + rng.randint(1, den - 1), den)))
    return out


SHIFTS = list(product(range(-3, 4), repeat=2))


def j_failures(params, rules, labels, seed):
    """The pairs at which a closed form does not commute with J: for each
    unordered pair {x, y} of ``labels`` in canonical order and three seeded
    shifts (a, b) in -3..3, the (x, y, u, v) with rule(u, v) != J^(a+b)
    rule(x, y), where u, v are J^a x and J^b y in canonical order.  Also
    returns the species pairs met."""
    rng = random.Random(seed)
    labels = sorted(labels, key=sort_key)
    failures, met = [], set()
    for i, x in enumerate(labels):
        for y in labels[i:]:
            met.add((type(x), type(y)))
            want = rules[type(x), type(y)](params, x, y)
            for a, b in rng.sample(SHIFTS, 3):
                u, v = shift(params, x, a), shift(params, y, b)
                if sort_key(v) < sort_key(u):
                    u, v = v, u
                if rules[type(u), type(v)](params, u, v) != shifted(params, want, a + b):
                    failures.append((x, y, u, v))
    return failures, met


@pytest.mark.parametrize("p", range(2, 8))
def test_every_closed_form_commutes_with_j(p):
    # fuse computes one row per J-orbit of label pairs and moves it along J
    # to the others, which is exact only if every rule commutes with J.
    params = Params(p)
    labels = universe(params) + seeded_labels(params, 100 + p)
    failures, met = j_failures(params, fusion._CLOSED_FORMS, labels, p)
    assert failures == []
    assert met == set(fusion._CLOSED_FORMS)


def _wrong_at_m12_m12(params, a, b):
    # M(1,2) x M(1,2) = M(1,1) + M(1,3) at p = 3; drop M(1,3) at that pair only.
    if (a, b) == (MSimple(1, 2), MSimple(1, 2)):
        return ModuleExpr.of(MSimple(1, 1))
    return fusion._simple_simple(params, a, b)


def _wrong_at_p02_f13(params, a, b):
    # P(0,2) x F(1/3) at p = 3 loses its largest label, at that pair only.
    out = fusion._exact_proj(params, a, b)
    if (a, b) == (F("1/3"), Proj(0, 2)):
        return ModuleExpr.of(*out.atoms()[:-1])
    return out


@pytest.mark.parametrize(
    "species, wrong, pair",
    [
        ((MSimple, MSimple), _wrong_at_m12_m12, (MSimple(1, 2), MSimple(1, 2))),
        ((FockTypical, Proj), _wrong_at_p02_f13, (F("1/3"), Proj(0, 2))),
    ],
)
def test_a_fault_at_one_pair_does_not_commute_with_j(species, wrong, pair):
    # The faults planted at one pair while every row was computed at its
    # own pair: a moved row would hide them, and the test above sees them.
    params = Params(3)
    rules = {**fusion._CLOSED_FORMS, species: wrong}
    failures, _ = j_failures(params, rules, universe(params), 3)
    assert failures
    assert all(pair in ((x, y), (u, v)) for x, y, u, v in failures)


@pytest.mark.parametrize("p", range(2, 8))
def test_moved_rows_are_the_rows_of_their_own_pairs(fresh_rows, p):
    # Every pair, met in universe order and then on a fresh table in the
    # reverse order, so that other pairs are the first of their orbit pair.
    params = Params(p)
    atoms = universe(params)
    pairs = [(x, y) for x in atoms for y in atoms]
    seeded = seeded_labels(params, 200 + p, 24)
    pairs += [(x, y) for x in seeded for y in seeded + atoms[::7]]
    for order in (pairs, pairs[::-1]):
        fusion._TABLES.clear()
        _fuse_atoms.cache_clear()
        for x, y in order:
            assert fuse(params, x, y) == closed_form(params, x, y), (x, y)


def _counted_rules(monkeypatch) -> list:
    """Wrap every closed form to record its operands; returns the record."""
    calls = []
    for species, rule in list(fusion._CLOSED_FORMS.items()):

        def counted(params, a, b, rule=rule):
            calls.append((a, b))
            return rule(params, a, b)

        monkeypatch.setitem(fusion._CLOSED_FORMS, species, counted)
    return calls


def test_associativity_runs_each_closed_form_once_per_orbit_pair(monkeypatch, fresh_rows):
    # 254 closed-form calls, nested F x P and P x P rules included; the
    # suite made 6,734 when every row missed by the cache ran its rule.
    calls = _counted_rules(monkeypatch)
    run_suite("associativity", Params(3))
    assert len(calls) == 254


@pytest.mark.parametrize(
    "first, second",
    [
        ((MSimple(1, 2), Proj(0, 1)), (MSimple(7, 2), Proj(-40, 1))),
        ((Proj(2, 1), Proj(0, 2)), (Proj(0, 2), Proj(-998, 1))),
        ((F("1/3"), Proj(0, 2)), (F(Fraction(1, 3) + 3 * 250), Proj(-3, 2))),
        ((F("-7/12"), F("1/3")), (F(Fraction(1, 3) - 3 * 9), F(Fraction(-7, 12) + 3 * 4))),
    ],
)
def test_a_second_pair_of_an_orbit_pair_runs_no_closed_form(monkeypatch, fresh_rows, first, second):
    params = Params(3)
    calls = _counted_rules(monkeypatch)
    fuse(params, *first)
    assert calls
    calls.clear()
    got = fuse(params, *second)
    assert calls == []
    assert got == closed_form(params, *second)


def test_one_cache_clear_resets_first_and_moved_rows(monkeypatch, fresh_rows):
    # M(1,2) x M(1,2) is the first pair of its orbit pair, and the row of
    # M(5,2) x M(1,2) is moved from it.  The tables hold no row, so a rule
    # planted or restored takes effect on both after one cache_clear().
    params = Params(3)
    first, moved = (MSimple(1, 2), MSimple(1, 2)), (MSimple(5, 2), MSimple(1, 2))
    clean = [fuse(params, *first), fuse(params, *moved)]
    assert clean == [
        ModuleExpr.of(MSimple(1, 1), MSimple(1, 3)),
        ModuleExpr.of(MSimple(5, 1), MSimple(5, 3)),
    ]
    rule = fusion._CLOSED_FORMS[MSimple, MSimple]
    wrong_m12_m12(monkeypatch)
    _fuse_atoms.cache_clear()
    # The moved pair first: its read of the first pair's row misses too.
    assert fuse(params, *moved) == ModuleExpr.of(MSimple(5, 1))
    assert fuse(params, *first) == ModuleExpr.of(MSimple(1, 1))
    monkeypatch.setitem(fusion._CLOSED_FORMS, (MSimple, MSimple), rule)
    _fuse_atoms.cache_clear()
    assert [fuse(params, *first), fuse(params, *moved)] == clean


@pytest.mark.parametrize("p", range(2, 8))
def test_orbit_keys_round_trip_through_shift(p):
    params = Params(p)
    seen = {}
    for x in universe(params) + seeded_labels(params, 300 + p):
        key, d = orbit(params, x)
        base = shift(params, x, -d)
        assert orbit(params, base) == (key, 0)
        assert shift(params, base, d) == x
        for k in range(-3, 4):
            assert orbit(params, shift(params, x, k)) == (key, d + k)
        # (key, d) names one label.
        assert seen.setdefault((key, d), x) == x
