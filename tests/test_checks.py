"""Failure reports of the check suites: the text of each failing case is
built only when the case fails, and reads exactly as the eager f-strings
wrote it."""

import hashlib
from fractions import Fraction

import pytest

from singlet import checks, fusion, modules, orbifold
from singlet.checks import SuiteResult, run_suite, run_suites
from singlet.cli import main
from singlet.errors import DomainError
from singlet.modules import FockTypical, ModuleExpr, MSimple, Proj
from singlet.weights import Params

# Suite at p = 2 (orbifold m = 3, character order 6) -> case count, first and
# last failure text, and the sha256 of all failure texts joined by newlines,
# when every case is made to fail.  Recorded from the suites as they were
# when each description was an f-string built before the case was checked.
EVERY_CASE_FAILING = {
    "associativity": (
        9723,
        "unit failed at M(-2,1)",
        "associativity failed at F(5/6), F(5/6), F(5/6)",
        "65f2c173d958b9b6c46392b44797d18dae77cc4feb9a990a6810938c956340b3",
    ),
    "kring": (
        441,
        "K-ring homomorphism failed at M(-2,1), M(-2,1)",
        "K-ring homomorphism failed at F(5/6), F(5/6)",
        "d5ac8a8299f5c2eb178124354b4683e1cf4feb64739e73c6ab951b47dc5e76a4",
    ),
    "duality": (
        516,
        "dual involution failed at M(-2,1)",
        "duality of fusion failed at F(5/6), F(5/6)",
        "24121b86721a8897b78683dc801d9490b4960677a52662b7eae64950d82e1485",
    ),
    "grading": (
        933,
        "grading additivity failed at M(-2,1), M(-2,1) -> M(-5,1)",
        "neighbor-weight audit failed at q=9/5 -> F(14/5)",
        "289ee425b9915970a27ffc14a152a7989acd54f049a9763832414a8d3bf35073",
    ),
    "characters": (
        53,
        "Fock factor identity failed at Fa(-3,1)",
        "contragredient Fock characters differ at q=5/6",
        "564e5c1bc3478008f359ae02eb5c7f5f6da0f4aeb50c0122ccd528e449aca11b",
    ),
    "oracle": (
        461,
        "oracle disagreement at M(-2,1), M(-2,1)",
        "triple product identity failed at q=1/3, mu=5/6",
        "e34a10bb7099474b1d72da75756812db4764bb6f6d3e3196172185e5074f2b72",
    ),
    "orbifold": (
        345,
        "simple count is not 2pm^2 at (p,m)=(2,3)",
        "orbit character window failed at V(5/3)",
        "a16b6d96f648c17223554d7cf1b0e9dd85ac030618f182e9e2f81edcc25a6acb",
    ),
}
# The orbifold entry was recorded again when its orbit windows came to take
# V labels: only its last four texts changed.  It was recorded a third time
# when its cover case came to derive the middle layer by orbifold_fuse: only
# the texts of that case changed.


@pytest.mark.parametrize("name", checks.SUITE_NAMES)
def test_failure_text_of_every_case(monkeypatch, name):
    check = SuiteResult.check
    monkeypatch.setattr(
        SuiteResult, "check", lambda self, condition, *description: check(self, False, *description)
    )
    [res] = run_suite(name, Params(2), m=3, order=6)
    cases, first, last, digest = EVERY_CASE_FAILING[name]
    assert res.cases == len(res.failures) == cases
    assert (res.failures[0], res.failures[-1]) == (first, last)
    assert hashlib.sha256("\n".join(res.failures).encode()).hexdigest() == digest


def test_one_wrong_product_is_one_failure(monkeypatch):
    fuse = fusion.fuse

    def wrong(params, x, y):
        if (x, y) == (MSimple(1, 2), Proj(0, 1)):
            return ModuleExpr()
        return fuse(params, x, y)

    monkeypatch.setattr(fusion, "fuse", wrong)
    [res] = run_suite("oracle", Params(2))
    assert res.failures == ["oracle disagreement at M(1,2), P(0,1)"]


def _wrong_m12_m12(monkeypatch):
    # M(1,2) x M(1,2) = M(1,1) + M(1,3) at p = 3; drop M(1,3).
    rule = fusion._CLOSED_FORMS[MSimple, MSimple]

    def wrong(params, a, b):
        if (a, b) == (MSimple(1, 2), MSimple(1, 2)):
            return ModuleExpr.of(MSimple(1, 1))
        return rule(params, a, b)

    monkeypatch.setitem(fusion._CLOSED_FORMS, (MSimple, MSimple), wrong)


def _wrong_p02_f13(monkeypatch):
    # P(0,2) x F(1/3) at p = 3 loses its largest label.
    rule = fusion._CLOSED_FORMS[FockTypical, Proj]

    def wrong(params, a, b):
        out = rule(params, a, b)
        if (a, b) == (FockTypical(Fraction(1, 3)), Proj(0, 2)):
            return ModuleExpr.of(*out.atoms()[:-1])
        return out

    monkeypatch.setitem(fusion._CLOSED_FORMS, (FockTypical, Proj), wrong)


def test_one_wrong_row_fails_associativity_at_that_pair(monkeypatch, fresh_rows):
    # The triple loop reads the cached rows without going through ``fuse``.
    rule = fusion._CLOSED_FORMS[MSimple, MSimple]
    _wrong_m12_m12(monkeypatch)
    [res] = run_suite("associativity", Params(3))
    assert res.cases == 30783
    assert all(f.startswith("associativity failed at ") for f in res.failures)
    # x x (M(1,2) x M(1,2)) reads the wrong row, (x x M(1,2)) x M(1,2) does not.
    assert "associativity failed at M(-2,1), M(1,2), M(1,2)" in res.failures
    assert "associativity failed at M(1,2), M(1,2), M(-2,1)" in res.failures
    monkeypatch.setitem(fusion._CLOSED_FORMS, (MSimple, MSimple), rule)
    fusion._fuse_atoms.cache_clear()
    fusion._TABLES.clear()
    assert run_suite("associativity", Params(3)) == [SuiteResult("associativity", 30783)]


# Planted fault -> number of associativity failures at p = 3 and the sha256
# of their texts joined by newlines, recorded from the triple loop that
# compared every ordered triple on its own.
PLANTED_ROW_FAULTS = {
    "M(1,2) x M(1,2)": (
        _wrong_m12_m12,
        74,
        "31f66a02c7a0fbdd23e747e3187845b79641ef9aea7d18a43cb10321e184a815",
    ),
    "P(0,2) x F(1/3)": (
        _wrong_p02_f13,
        248,
        "d545c2f5cde0391095ac774ba5787bae6ceb5d55fd84d41df5f2e2538e60248b",
    ),
}


@pytest.mark.parametrize("fault", PLANTED_ROW_FAULTS)
def test_a_wrong_row_gives_every_associativity_failure_in_order(monkeypatch, fresh_rows, fault):
    plant, count, digest = PLANTED_ROW_FAULTS[fault]
    plant(monkeypatch)
    [res] = run_suite("associativity", Params(3))
    assert (res.cases, len(res.failures)) == (30783, count)
    assert hashlib.sha256("\n".join(res.failures).encode()).hexdigest() == digest


def test_an_asymmetric_product_fails_associativity_where_x_is_z(monkeypatch):
    # Each unordered pair {x, z} is compared once per y, which is exact only
    # if _Table.product is symmetric in its operands.  Break that: drop the
    # last row when the first operand has one term and the second several.
    # The x == z cases compare (x y) z with x (y z), the same two operands
    # swapped, so they report it: at each of the 553 (x, y, x) triples where
    # the loop over ordered triples reported it too.
    product = fusion._Table.product

    def asymmetric(self, xs, ys):
        if len(xs) == 2 and len(ys) > 2:
            ys = ys[:-2]
        return product(self, xs, ys)

    monkeypatch.setattr(fusion._Table, "product", asymmetric)
    [res] = run_suite("associativity", Params(3))
    triples = [f.removeprefix("associativity failed at ").split(", ") for f in res.failures]
    x_is_z = [f for f, (x, _, z) in zip(res.failures, triples) if x == z]
    assert "associativity failed at M(1,2), M(1,2), M(1,2)" in x_is_z
    assert len(x_is_z) == 553


@pytest.mark.parametrize("p, m, failures", [(2, 2, 4), (3, 4, 6)])
def test_a_fault_in_the_v_windows_fails_the_orbifold_suite(monkeypatch, p, m, failures):
    # Drop one lift of every V window; the W windows stay right.
    lifts = orbifold._orbit_lifts

    def short(op, atom, depth):
        kept = lifts(op, atom, depth)
        return kept[1:] if isinstance(atom, orbifold.VTypical) else kept

    monkeypatch.setattr(orbifold, "_orbit_lifts", short)
    [res] = run_suite("orbifold", Params(p), m=m)
    assert len(res.failures) == failures
    assert all(f.startswith("orbit character window failed at V(") for f in res.failures)


@pytest.mark.parametrize("m, failures", [(1, 4), (2, 8)])
def test_a_fault_in_the_projective_socle_fails_the_orbifold_cover_case(
    monkeypatch, fresh_rows, m, failures
):
    # P(r,s)'s middle layer holds M(r+1,s) in place of M(r+1,p-s).  The
    # orbifold covers are induced from that socle series, and the suite's
    # cover case derives their middle layer by orbifold_fuse instead, so
    # every cover case fails.
    layers = modules._layers

    def wrong(p, atom):
        out = layers(p, atom)
        if isinstance(atom, Proj):
            top, (below, above), socle = out
            return top, (below, MSimple(above.r, atom.s)), socle
        return out

    monkeypatch.setattr(modules, "_layers", wrong)
    [res] = run_suite("orbifold", Params(3), m=m)
    cover = [f for f in res.failures if f.startswith("cover layers differ from ")]
    assert len(cover) == failures
    assert "cover layers differ from J x W(1,2) + J^-1 x W(1,2) at W(1,1)" in cover


def test_a_suite_that_raises_is_one_failing_case_and_check_goes_on(monkeypatch, fresh_rows, capsys):
    # P's middle layer loses M(r+1,p-s) at p = 3, in the socle series that
    # k_class and the peel of projective classes read.  The peel in kring
    # then finds no projective class and raises; the suites after it run.
    layers = modules._layers

    def wrong(p, atom):
        out = layers(p, atom)
        if isinstance(atom, Proj):
            top, (below, _), socle = out
            return top, (below,), socle
        return out

    monkeypatch.setattr(modules, "_layers", wrong)
    monkeypatch.setattr(fusion, "_layers", wrong)
    assert main(["--p", "3", "check", "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:8] == [
        "associativity: 30783 cases, 7216 failures",
        "kring: 1 cases, 1 failures",
        "duality: 1078 cases, 152 failures",
        "grading: 2149 cases, 0 failures",
        "characters: 89 cases, 16 failures",
        "oracle: 981 cases, 149 failures",
        "orbifold(m=1): 689 cases, 20 failures",
        "orbifold(m=2): 809 cases, 20 failures",
    ]
    assert "  FAIL kring: raised NotProjectiveClass: no nonnegative integer projective decomposition" in lines
    assert lines[-1] == "FAIL"


def test_a_bad_argument_raises_before_any_case_runs():
    with pytest.raises(DomainError, match="m must be an integer >= 1, got 0"):
        run_suite("orbifold", Params(2), m=0)
    with pytest.raises(DomainError, match="truncation order must be >= 0, got -1"):
        run_suite("characters", Params(2), order=-1)


def test_an_unknown_suite_is_a_value_error():
    # A DomainError, like every out-of-domain error of the library; it is a
    # ValueError, so callers that catch ValueError still do.
    with pytest.raises(DomainError, match="unknown suite 'nope'") as err:
        run_suite("nope", Params(2))
    assert isinstance(err.value, ValueError)
    with pytest.raises(DomainError, match="unknown suite 'nope'"):
        run_suites(["kring", "nope"], Params(2))


def test_passing_cases_format_nothing():
    res = SuiteResult("s")
    res.check(True, "{} {}", object(), object())
    res.check(False, "at {}, {}", MSimple(1, 2), Proj(0, 1))
    res.check(False, "plain")
    assert (res.cases, res.failures) == (3, ["at M(1,2), P(0,1)", "plain"])
