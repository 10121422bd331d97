import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from singlet.cli import main
from singlet.errors import ExprSemanticError, ExprSyntaxError
from singlet.modules import FockTypical, ModuleExpr, MSimple, Proj
from singlet.orbifold import OrbifoldParams, VTypical, WSimple
from singlet.parser import parse_expr, print_expr
from singlet.weights import Params


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- grammar ---------------------------------------------------------------


def test_parse_basic(p2):
    got = parse_expr("2*P(1,1) + F(1/2)", p2)
    assert got == ModuleExpr([(Proj(1, 1), 2), (FockTypical(Fraction(1, 2)), 1)])


def test_parse_whitespace_insensitive(p2):
    a = parse_expr("  M( 1 , 2 )+2 * F( -5 / 2 ) ", p2)
    b = parse_expr("M(1,2)+2*F(-5/2)", p2)
    assert a == b


def test_parse_normalizes_boundary_labels(p2):
    assert parse_expr("P(1,2)", p2) == ModuleExpr.of(MSimple(1, 2))
    assert parse_expr("Fa(0,2)", p2) == ModuleExpr.of(MSimple(0, 2))


def test_parse_merges_repeated_atoms(p2):
    assert parse_expr("F(1/2) + F(1/2)", p2) == ModuleExpr([(FockTypical(Fraction(1, 2)), 2)])


@pytest.mark.parametrize(
    "text",
    ["F(4/2)", "M(1,3)", "0*M(1,1)", "-2*M(1,1)", "W(1,1)"],
)
def test_semantic_errors(p2, text):
    with pytest.raises(ExprSemanticError):
        parse_expr(text, p2)


def test_mixing_families_is_semantic_error(p2):
    with pytest.raises(ExprSemanticError):
        parse_expr("M(1,1) + W(0,1)", p2, OrbifoldParams(2, 2))


@pytest.mark.parametrize(
    "text, offset",
    [
        ("M(1,2", 5),
        ("Q(1,2)", 0),
        ("M(1 2)", 4),
        ("", 0),
        ("M(1,2) +", 8),
        ("2 M(1,1)", 2),
        ("F(1/0)", 4),
    ],
)
def test_syntax_errors_carry_offsets(p2, text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, p2)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, offset",
    [
        ("M(\uff11,1)", 2),  # full-width digit one
        ("F(\u0663/2)", 2),  # Arabic-Indic digit three
        ("M(1,1)\u00a0+ M(1,1)", 6),  # no-break space
        ("M(1,\u00a01)", 4),
        ("\uff12*M(1,1)", 0),
        ("M(1,1) + \uff2d(1,1)", 9),  # full-width letter M
    ],
)
def test_non_ascii_input_is_a_syntax_error(p2, text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, p2)
    assert err.value.offset == offset
    code, out, msg = run_cli("--p", "2", "fuse", text, "M(1,1)")
    assert (code, out) == (1, "")
    assert f"(at byte {offset})" in msg


def test_orbifold_atoms_parse_with_m(p2):
    op = OrbifoldParams(2, 2)
    got = parse_expr("W(5,1) + V(-5/2) + R(1,2)", p2, op)
    assert got == ModuleExpr.of(WSimple(1, 1), VTypical(Fraction(11, 2)), WSimple(1, 2))


from helpers import random_expr_text


def test_round_trip_corpus(p2):
    rng = random.Random(20240817)
    op = OrbifoldParams(2, 2)
    for i in range(1000):
        orbifold = i % 2 == 1
        text = random_expr_text(rng, orbifold=orbifold)
        expr = parse_expr(text, p2, op)
        printed = print_expr(expr)
        assert parse_expr(printed, p2, op) == expr
        assert print_expr(parse_expr(printed, p2, op)) == printed


# --- CLI -------------------------------------------------------------------


def test_cli_fuse_text():
    code, out, err = run_cli("--p", "2", "fuse", "M(1,2)", "M(1,2)")
    assert (code, err) == (0, "")
    assert out == "P(1,1)\n"


def test_cli_simples_count():
    code, out, _ = run_cli("--p", "2", "--m", "2", "simples")
    assert code == 0
    assert len(out.strip().splitlines()) == 16


def test_cli_json_fuse():
    code, out, _ = run_cli("--p", "2", "--format", "json", "fuse", "F(1/2)", "F(-1/2)")
    assert code == 0
    assert json.loads(out) == [{"species": "P", "r": 2, "s": 1, "mult": 1}]


def test_cli_char_json_shape():
    code, out, _ = run_cli("--p", "2", "--format", "json", "--order", "3", "char", "F(1/2)")
    assert code == 0
    assert json.loads(out) == {"cosets": [{"h0": "5/32", "coeffs": [1, 1, 2, 3]}]}


def test_cli_char_env_order(monkeypatch):
    monkeypatch.setenv("SINGLET_ORDER", "2")
    code, out, _ = run_cli("--p", "2", "--format", "json", "char", "F(1/2)")
    assert code == 0
    assert json.loads(out)["cosets"][0]["coeffs"] == [1, 1, 2]
    monkeypatch.setenv("SINGLET_ORDER", "zebra")
    code, _, err = run_cli("--p", "2", "char", "F(1/2)")
    assert code == 1
    assert "SINGLET_ORDER" in err


def test_cli_orbifold_commands():
    code, out, _ = run_cli("--p", "2", "--m", "2", "induce", "F(1/2)")
    assert (code, out) == (0, "V(1/2)\n")
    code, out, _ = run_cli("--p", "2", "--m", "2", "orbfuse", "W(3,1)", "W(3,1)")
    assert (code, out) == (0, "W(1,1)\n")
    code, _, err = run_cli("--p", "2", "induce", "F(1/2)")
    assert code == 1
    assert "--m" in err


def test_cli_loewy_and_verma():
    code, out, _ = run_cli("--p", "2", "loewy", "P(2,1)")
    assert code == 0
    assert out == "M(2,1) | M(1,1), M(3,1) | M(2,1)\n"
    code, out, _ = run_cli("--p", "2", "--m", "1", "loewy", "R(1,1)")
    assert code == 0
    assert out == "W(1,1) | W(0,1), W(0,1) | W(1,1)\n"
    code, out, _ = run_cli("--p", "2", "verma", "2", "1")
    assert code == 0
    assert "M(2,1) + M(3,1)" in out
    code, out, _ = run_cli("--p", "2", "factors", "-1", "1")
    assert (code, out) == (0, "M(-2,1) + M(-1,1)\n")


def test_cli_phase_commands():
    code, out, _ = run_cli("--p", "2", "grade", "M(2,1) + F(1/2)")
    assert code == 0
    assert out.splitlines() == ["M(2,1): 0", "F(1/2): 1/2"]
    code, out, _ = run_cli("--p", "2", "monodromy", "F(1/2)")
    assert (code, out) == (0, "F(1/2): 1/4\n")
    code, _, err = run_cli("--p", "2", "twist", "P(1,1)")
    assert code == 1
    assert "twist" in err


def test_cli_user_errors_exit_one():
    for argv in (
        ["--p", "2", "fuse", "M(1,3)", "M(1,1)"],
        ["--p", "2", "fuse", "F(4/2)", "M(1,1)"],
        ["--p", "2", "fuse", "M(1,2"],
        ["--p", "2", "nosuchcommand"],
        ["--p", "1", "simples"],
        ["fuse", "M(1,1)", "M(1,1)"],
    ):
        code, _, err = run_cli(*argv)
        assert code == 1, argv
        assert err


def test_cli_check_suite():
    code, out, _ = run_cli("--p", "2", "--order", "12", "check", "--suite", "characters")
    assert code == 0
    assert out.strip().endswith("PASS")
    code, out, _ = run_cli(
        "--p", "2", "--m", "1", "--format", "json", "check", "--suite", "orbifold"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["name"] == "orbifold(m=1)"


def test_cli_json_byte_stable():
    commands = [
        ["--p", "2", "--format", "json", "fuse", "P(1,1)", "P(1,1)"],
        ["--p", "3", "--format", "json", "--order", "8", "char", "P(1,1) + F(1/2)"],
        ["--p", "2", "--m", "2", "--format", "json", "simples"],
        ["--p", "2", "--format", "json", "kclass", "2*P(1,1) + G(2,1)"],
    ]
    for argv in commands:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0


def test_cli_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
