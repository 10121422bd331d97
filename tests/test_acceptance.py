"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is exact (integer or rational equality).
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from singlet import checks
from singlet.characters import QSeries, ch_expr, partition_numbers
from singlet.cli import main
from singlet.fusion import chebyshev_fuse, fuse, k_product
from singlet.modules import (
    FockAtypical,
    FockTypical,
    ModuleExpr,
    MSimple,
    Proj,
    dual,
    k_class,
    lowest_weight,
    monodromy_phase_with_m21,
    t_grade,
)
from singlet.orbifold import OrbifoldParams, induce, is_local, list_simples, orbifold_fuse
from singlet.parser import parse_expr
from singlet.weights import Params, allowed_neighbor_weights, conformal_weight, h_rs


def report(index, name):
    print(f"[criterion {index:02d}] {name}: PASS")


def test_01_simple_module_counts():
    for p, m in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)]:
        simples = list_simples(OrbifoldParams(p, m))
        assert len(simples) == 2 * p * m * m
        assert len(set(simples)) == 2 * p * m * m
    report(1, "simple-module counts 2pm^2")


def F(q):
    return FockTypical(Fraction(q))


GOLDEN_TABLE = [
    # (p, x, y, expected)
    (2, MSimple(1, 2), MSimple(1, 2), [(Proj(1, 1), 1)]),
    (3, MSimple(1, 2), MSimple(1, 2), [(MSimple(1, 1), 1), (MSimple(1, 3), 1)]),
    (2, MSimple(2, 1), F("1/2"), [(F("5/2"), 1)]),
    (2, MSimple(1, 2), F("1/2"), [(F("-1/2"), 1), (F("3/2"), 1)]),
    (3, MSimple(1, 3), F("1/3"), [(F("-5/3"), 1), (F("1/3"), 1), (F("7/3"), 1)]),
    (2, Proj(1, 1), F("1/2"), [(F("-3/2"), 1), (F("1/2"), 2), (F("5/2"), 1)]),
    (2, Proj(2, 1), F("1/2"), [(F("1/2"), 1), (F("5/2"), 2), (F("9/2"), 1)]),
    # The projective-times-typical rule instantiated at p = 3, (r,s) = (1,2):
    # offsets alpha(1,2) = -1 and alpha(0,1) = -3 over l = 0..2.
    (3, Proj(1, 2), F("1/2"), [(F("-5/2"), 1), (F("-1/2"), 2), (F("3/2"), 2), (F("7/2"), 1)]),
    (2, F("1/2"), F("1/3"), [(F("5/6"), 1), (F("17/6"), 1)]),
    (2, F("1/2"), F("-1/2"), [(Proj(2, 1), 1)]),
    (2, F("1/2"), F("-5/2"), [(Proj(1, 1), 1)]),
    (3, F("1/2"), F("-1/2"), [(MSimple(3, 3), 1), (Proj(2, 2), 1)]),
]


def test_02_fusion_golden_table():
    assert len(GOLDEN_TABLE) == 12
    for p, x, y, expected in GOLDEN_TABLE:
        got = fuse(Params(p), x, y)
        assert got == ModuleExpr(expected), (p, x, y, str(got))
    report(2, "fusion golden table (12 closed-form products)")


def test_03_character_identities():
    for p in (2, 3):
        params = Params(p)
        for r in range(-3, 5):
            for s in range(1, p):
                lhs = ch_expr(params, FockAtypical(r, s), 40)
                rhs = ch_expr(
                    params, ModuleExpr.of(MSimple(r, s), MSimple(r + 1, p - s)), 40
                )
                assert lhs == rhs
                lhs = ch_expr(params, Proj(r, s), 40)
                rhs = ch_expr(
                    params,
                    ModuleExpr.of(FockAtypical(r, s), FockAtypical(r - 1, p - s)),
                    40,
                )
                assert lhs == rhs
    report(3, "character identities for the exact sequences (N=40)")


def test_04_vacuum_character():
    params = Params(2)
    got = ch_expr(params, MSimple(1, 1), 5)
    assert got.series() == [QSeries(0, (1, 0, 1, 2, 3, 4))]
    # Independent oracle: telescoping the Fock exact sequences writes the
    # vacuum character as an alternating sum of pure partition series.
    order = 5
    part = partition_numbers(order)
    oracle = [0] * (order + 1)
    k = 0
    while True:
        off = h_rs(params, 1 + k, 1)
        if off > order:
            break
        off = int(off)
        sign = 1 if k % 2 == 0 else -1
        for n in range(off, order + 1):
            oracle[n] += sign * part[n - off]
        k += 1
    assert tuple(oracle) == (1, 0, 1, 2, 3, 4)
    report(4, "vacuum character [1,0,1,2,3,4] with independent oracle")


def test_05_ring_axioms():
    total_triples = 0
    for p in (2, 3):
        result = checks.run_suite("associativity", Params(p))[0]
        assert result.ok, result.failures[:3]
        total_triples += len(checks.universe(Params(p))) ** 3
    assert total_triples >= 500
    report(5, f"ring axioms over {total_triples} triples")


def test_06_oracle_equivalence():
    for p in (2, 3):
        params = Params(p)
        atoms = checks.universe(params)
        for x in atoms:
            for y in atoms:
                assert chebyshev_fuse(params, x, y) == fuse(params, x, y)
    report(6, "recursion oracle equals closed-form fusion on all pairs")


def test_07_k_ring_homomorphism():
    for p in (2, 3):
        params = Params(p)
        atoms = checks.universe(params)
        for x in atoms:
            for y in atoms:
                assert k_class(params, fuse(params, x, y)) == k_product(
                    params, k_class(params, x), k_class(params, y)
                )
    report(7, "K-ring homomorphism on all pairs")


def test_08_duality_and_grading():
    for p in (2, 3):
        params = Params(p)
        atoms = checks.universe(params)
        for x in atoms:
            gx = t_grade(params, x)
            dx = dual(params, x)
            for y in atoms:
                product = fuse(params, x, y)
                assert dual(params, product) == fuse(params, dx, dual(params, y))
                expected = (gx + t_grade(params, y)) % 2
                for z in product.atoms():
                    assert t_grade(params, z) == expected
    report(8, "duality compatibility and mod-2 grading additivity")


def test_09_balancing():
    for p in (2, 3):
        params = Params(p)
        h21 = h_rs(params, 2, 1)
        simples = [a for a in checks.universe(params) if isinstance(a, (MSimple, FockTypical))]
        for y in simples:
            product = fuse(params, MSimple(2, 1), y)
            lw = min(lowest_weight(params, a) for a in product.atoms())
            got = (lw - h21 - lowest_weight(params, y)) % 1
            assert got == monodromy_phase_with_m21(params, y).exponent
    report(9, "balancing congruence for the order-two simple current")


def test_10_orbifold_functoriality():
    for p, m in [(2, 1), (2, 2), (3, 2)]:
        op = OrbifoldParams(p, m)
        params = op.singlet
        local = [a for a in checks.universe(params) if is_local(op, a)]
        assert local
        for x in local:
            ix = induce(op, ModuleExpr.of(x))
            for y in local:
                lhs = induce(op, fuse(params, x, y))
                rhs = orbifold_fuse(op, ix, induce(op, ModuleExpr.of(y)))
                assert lhs == rhs, (p, m, x, y)
    report(10, "orbifold induction is a tensor functor on local pairs")


def test_11_weight_constraint_audit():
    params = Params(2)
    coords = checks.sample_coords()
    assert len(coords) == 50
    for q in coords:
        allowed = allowed_neighbor_weights(params, q, "via12")
        outputs = fuse(params, MSimple(1, 2), FockTypical(q))
        assert outputs.total() == 2
        for atom in outputs.atoms():
            assert conformal_weight(params, atom.q) in allowed
    report(11, "degenerate-field weight constraint on 50 sampled coordinates")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_12_cli_determinism_and_round_trip():
    commands = [
        ["--p", "2", "--format", "json", "fuse", "P(1,1)", "P(1,1) + 2*F(1/2)"],
        ["--p", "3", "--format", "json", "--order", "10", "char", "P(1,1) + F(1/2)"],
        ["--p", "2", "--m", "2", "--format", "json", "simples"],
        ["--p", "2", "--m", "2", "--format", "json", "orbfuse", "V(1/2)", "V(11/2)"],
        ["--p", "2", "--format", "json", "kclass", "2*P(1,1) + G(2,1) + Fa(0,1)"],
    ]
    for argv in commands:
        runs = {run_cli(*argv) for _ in range(3)}
        assert len(runs) == 1
        assert next(iter(runs))[0] == 0

    # 1000 generated expressions parse/print/parse to fixed points.
    from helpers import random_expr_text

    params = Params(2)
    op = OrbifoldParams(2, 2)
    rng = random.Random(7)
    for i in range(1000):
        text = random_expr_text(rng, orbifold=i % 2 == 1)
        expr = parse_expr(text, params, op)
        printed = str(expr)
        assert parse_expr(printed, params, op) == expr
    report(12, "CLI byte-stable JSON and 1000-expression round trip")
