import io
import json
import random
import string
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from singlet.characters import ch_expr
from singlet.checks import SUITE_NAMES
from singlet import cli
from singlet.cli import main
from singlet.errors import ExprSemanticError, ExprSyntaxError
from singlet.modules import FockTypical, ModuleExpr, MSimple, Proj
from singlet.orbifold import OrbifoldParams, VTypical, WSimple
from singlet.parser import _DIGITS, _LETTERS, _SPACE, parse_expr
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


def test_error_texts_of_a_species_and_a_coordinate(p2):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("X(1,1)", p2)
    assert str(err.value) == "unknown species 'X' (at byte 0)"
    # A species name is ASCII letters only: a non-ASCII letter ends it.
    for text, message in [
        ("\u03a9(1,2)", "expected a species name (at byte 0)"),  # Greek capital omega
        ("M\u00e9(1,2)", "expected '(' (at byte 1)"),  # Latin small e with acute
    ]:
        assert run_cli("--p", "2", "fuse", text, "M(1,1)") == (1, "", f"error: {message}\n")
    with pytest.raises(ExprSemanticError) as err:
        parse_expr("F(1)", p2)
    assert str(err.value) == "typical Fock coordinate must be non-integral, got 1: F(1)"
    with pytest.raises(ExprSemanticError) as err:
        parse_expr("V(1)", p2, OrbifoldParams(2, 2))
    assert str(err.value) == "V coordinate must be non-integral, got 1: V(1)"


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


_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize(
    "template, offset",
    [
        ("{}*M(1,1)", 0),
        ("-{}*M(1,1)", 0),
        ("M( {},1)", 3),
        ("M(1,-{})", 4),
        ("F({}/7)", 2),
        ("F(1/ {})", 5),
    ],
)
def test_overlong_integer_literal_is_a_syntax_error(p2, template, offset):
    text = template.format("9" * (_INT_DIGIT_LIMIT + 1))
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, p2)
    assert err.value.offset == offset
    code, out, msg = run_cli("--p", "2", "fuse", "--", text, "M(1,1)")
    assert (code, out, msg) == (1, "", f"error: integer literal too long (at byte {offset})\n")


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="this interpreter converts integers of any length")
def test_result_past_the_int_digit_limit_is_a_user_error():
    # The label's digits are within the limit, but a conformal weight squares
    # the denominator (or r), which takes it past the limit.
    big = "7" * (_INT_DIGIT_LIMIT * 3 // 4)
    typical = f"F(1/{big})"
    message = f"error: the result has a number of more than {_INT_DIGIT_LIMIT} digits, too long to print\n"
    for argv in (
        ["--order", "2", "char", typical],
        ["--format", "json", "--order", "2", "char", typical],
        ["twist", typical],
        ["--format", "json", "twist", typical],
        ["verma", big, "1"],
    ):
        assert run_cli("--p", "2", *argv) == (1, "", message), argv[:-1]
    for argv in (["dual", typical], ["grade", typical], ["fuse", typical, "M(1,1)"]):
        code, out, err = run_cli("--p", "2", *argv)
        assert (code, err) == (0, ""), argv[0]
        assert big in out


# Every command that can print a number past the limit, on labels whose own
# numbers are within it.
_NINES = "9" * _INT_DIGIT_LIMIT
_PAST_THE_LIMIT = [
    ("fuse", "M(1,2)", f"F({_NINES}/2)"),
    ("dual", f"F({_NINES}/2)"),
    ("kclass", f"P({_NINES},1)"),
    ("factors", _NINES, "1"),
    ("loewy", f"P({_NINES},1)"),
    ("verma", _NINES, "1"),
    ("grade", f"F(-1/{_NINES})"),
    ("twist", f"F(-1/{_NINES})"),
    ("monodromy", f"F(-1/{_NINES})"),
    ("char", f"F(-1/{_NINES})"),
]


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", _PAST_THE_LIMIT, ids=lambda argv: argv[0])
def test_every_command_reports_a_result_past_the_int_digit_limit(argv, fmt):
    message = f"error: the result has a number of more than {_INT_DIGIT_LIMIT} digits, too long to print\n"
    assert run_cli("--p", "2", "--format", fmt, "--order", "2", *argv) == (1, "", message)


def _refuse(self):
    raise AssertionError("built a format that was not asked for")


def test_a_call_builds_only_the_format_asked_for(monkeypatch):
    argv = ["--p", "2", "fuse", "M(1,2)", "M(1,2)"]
    with monkeypatch.context() as patch:
        patch.setattr(ModuleExpr, "to_json", _refuse)
        assert run_cli(*argv) == (0, "P(1,1)\n", "")
    with monkeypatch.context() as patch:
        patch.setattr(ModuleExpr, "__str__", _refuse)
        out = '[{"species":"P","r":1,"s":1,"mult":1}]\n'
        assert run_cli("--format", "json", *argv) == (0, out, "")


def test_a_character_prints_as_its_text_form():
    params = Params(3)
    ch = ch_expr(params, parse_expr("P(1,1) + F(1/2)", params), 20)
    assert len(ch.series()) == 2
    assert run_cli("--p", "3", "char", "P(1,1) + F(1/2)") == (0, f"{ch}\n", "")


def test_scanner_classes_are_ascii_digits_and_whitespace():
    assert _DIGITS == frozenset(string.digits)
    assert _LETTERS == frozenset(string.ascii_letters)
    assert _SPACE == frozenset(string.whitespace)


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
        printed = str(expr)
        assert parse_expr(printed, p2, op) == expr
        assert str(parse_expr(printed, p2, op)) == printed


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


def test_cli_char_ignores_the_environment(monkeypatch):
    # --order is the one way to set the order: a SINGLET_ORDER variable left
    # in the environment changes neither char, whose default is 20, nor check.
    monkeypatch.setenv("SINGLET_ORDER", "2")
    code, out, _ = run_cli("--p", "2", "--format", "json", "char", "F(1/2)")
    assert code == 0
    assert len(json.loads(out)["cosets"][0]["coeffs"]) == 21
    monkeypatch.setenv("SINGLET_ORDER", "-5")
    code, out, _ = run_cli("--p", "2", "check", "--suite", "kring")
    assert (code, out.splitlines()[-1]) == (0, "PASS")


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


@pytest.mark.parametrize("text", ["G(2,1) + G(1,1)", "G(1,1) + G(2,1)"])
def test_cli_dual_reports_the_first_bad_term(text):
    assert run_cli("--p", "3", "dual", text) == (1, "", "error: dual is not defined for G(1,1)\n")


def test_cli_fuse_reports_the_first_bad_label_of_x_before_y():
    # The first operand is read first: its G(1,1) is named, not y's Fa(0,1).
    got = run_cli("--p", "2", "fuse", "M(1,1) + G(1,1)", "Fa(0,1)")
    assert got == (1, "", "error: fusion is not defined for G(1,1)\n")


@pytest.mark.parametrize("text", ["W(1,1)", "V(1/2)"])
def test_cli_loewy_of_an_orbifold_simple_is_the_label(text):
    assert run_cli("--p", "2", "--m", "2", "loewy", text) == (0, f"{text}\n", "")


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


def test_cli_negative_order_exits_one_for_every_suite():
    expected = (1, "", "error: truncation order must be >= 0, got -5\n")
    assert run_cli("--p", "2", "--order", "-5", "char", "M(1,1)") == expected
    for suite in SUITE_NAMES + ("all",):
        assert run_cli("--p", "2", "--order", "-5", "check", "--suite", suite) == expected, suite


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


_COMMAND_CHOICES = (
    "'fuse', 'dual', 'kclass', 'factors', 'loewy', 'char', 'grade', 'twist', 'monodromy', "
    "'verma', 'induce', 'simples', 'orbfuse', 'check'"
)
_SUITE_CHOICES = ", ".join(repr(name) for name in SUITE_NAMES + ("all",))

# What Python 3.11's argparse printed for --help at 80 columns.
_HELP = """\
usage: singlet [-h] --p P [--m M] [--format {text,json}] [--order ORDER]
               COMMAND ...

Command-line front end. Global flags select the algebra (``--p``, optional
``--m``), the output format, and the character truncation order; subcommands
dispatch to the library. Exit codes: 0 success, 1 user error (bad flags,
syntax/semantic errors, domain errors, failing check suites), 2 internal
invariant violation. JSON output is canonical and byte-stable across runs.

positional arguments:
  COMMAND
    fuse                tensor product of two expressions
    dual                termwise contragredient of an expression
    kclass              composition factors as a Grothendieck class
    factors             composition factors of the generalized Verma quotient
    loewy               socle series of a single indecomposable
    char                truncated graded character of an expression
    grade               monodromy grading (coordinate mod 2) per summand
    twist               ribbon twist exponent per simple summand
    monodromy           monodromy exponent against the order-two current
    verma               structure report of the generalized Verma quotient
    induce              orbifold induction of a local expression (needs --m)
    simples             list the simple orbifold modules (needs --m)
    orbfuse             tensor product of two orbifold expressions (needs --m)
    check               run built-in verification suites

options:
  -h, --help            show this help message and exit
  --p P                 singlet parameter p >= 2
  --m M                 cyclic orbifold order m >= 1
  --format {text,json}
  --order ORDER         character truncation order (default: 20; 40 under
                        check)
"""

_CHECK_HELP = """\
usage: singlet check [-h]
                     [--suite {associativity,kring,duality,grading,characters,oracle,orbifold,all}]

options:
  -h, --help            show this help message and exit
  --suite {associativity,kring,duality,grading,characters,oracle,orbifold,all}
"""

_POSITIONALS = {
    "fuse": "x y", "dual": "x", "kclass": "x", "factors": "r s", "loewy": "x", "char": "x",
    "grade": "x", "twist": "x", "monodromy": "x", "verma": "r s", "induce": "x", "simples": "",
    "orbfuse": "x y",
}


def _command_help(name):
    if name == "check":
        return _CHECK_HELP
    positionals = _POSITIONALS[name].split()
    listing = "".join(f"\n  {p}" for p in positionals)
    return (
        f"usage: singlet {name} [-h]{''.join(' ' + p for p in positionals)}\n\n"
        + (f"positional arguments:{listing}\n\n" if positionals else "")
        + "options:\n  -h, --help  show this help message and exit\n"
    )


_VERMA_AT_P3 = "G(-2,1): factors = M(-3,2) + M(-2,1); layers = M(-2,1) | M(-3,2); h0 = 39/4\n"
_INDUCED_JSON = '[{"species":"V","q":"1/2","mult":1}]\n'
_KRING_PASS = "kring: 441 cases, 0 failures\nPASS\n"

# argv -> (exit code, stdout, stderr): how the command line is read, apart
# from what the commands compute.  The error texts are argparse's.
CLI_SURFACE = [
    ([], 1, "", "error: the following arguments are required: --p\n"),
    (["--p", "x"], 1, "", "error: argument --p: invalid int value: 'x'\n"),
    (["--m", "x"], 1, "", "error: argument --m: invalid int value: 'x'\n"),
    (["--p", "2", "--p=", "simples"], 1, "", "error: argument --p: invalid int value: ''\n"),
    (["--p", "2", "verma", "x", "1"], 1, "", "error: argument r: invalid int value: 'x'\n"),
    (["--p", "2", "verma", "1", "1.5"], 1, "", "error: argument s: invalid int value: '1.5'\n"),
    (
        ["--p", "2", "--format", "xml", "simples"],
        1,
        "",
        "error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')\n",
    ),
    (
        ["--p", "2", "frob"],
        1,
        "",
        f"error: argument COMMAND: invalid choice: 'frob' (choose from {_COMMAND_CHOICES})\n",
    ),
    (
        ["--p", "2", "check", "--suite", "nope"],
        1,
        "",
        f"error: argument --suite: invalid choice: 'nope' (choose from {_SUITE_CHOICES})\n",
    ),
    (["--p", "2", "fuse", "M(1,1)"], 1, "", "error: the following arguments are required: y\n"),
    (["--p", "2", "fuse"], 1, "", "error: the following arguments are required: x, y\n"),
    (["--p", "2", "verma", "1"], 1, "", "error: the following arguments are required: s\n"),
    (["--p", "2", "fuse", "a", "b", "c"], 1, "", "error: unrecognized arguments: c\n"),
    (["--p", "2", "check", "extra"], 1, "", "error: unrecognized arguments: extra\n"),
    (["--p", "2", "-x", "fuse", "a", "b", "-y"], 1, "", "error: unrecognized arguments: -x -y\n"),
    (["--p", "2", "--order"], 1, "", "error: argument --order: expected one argument\n"),
    (["--p", "2", "--m", "--order", "3"], 1, "", "error: argument --m: expected one argument\n"),
    (["--p", "2", "check", "--suite"], 1, "", "error: argument --suite: expected one argument\n"),
    (["fuse", "--p", "2", "M(1,1)", "M(1,1)"], 1, "", "error: the following arguments are required: --p\n"),
    (["--p", "3", "fuse", "--p", "2", "M(1,1)"], 1, "", "error: unrecognized arguments: --p\n"),
    (["--p", "2"], 1, "", "error: a subcommand is required\n"),
    (["--p", "1"], 1, "", "error: p must be an integer >= 2, got 1\n"),
    # A label out of range reads the same in every family, parsed or raw.
    (["--p", "3", "--m", "2", "loewy", "W(1,4)"], 1, "", "error: label W(1,4) needs 1 <= s <= 3: W(1,4)\n"),
    (["--p", "3", "factors", "1", "4"], 1, "", "error: label G(1,4) needs 1 <= s <= 3\n"),
    # Accepted forms: flags in any order before the command, the last one
    # winning; --flag=value; unique prefixes; negative ints as values; "--".
    (["--p", "2", "fuse", "M(1,2)", "M(1,2)"], 0, "P(1,1)\n", ""),
    (["--p", "2", "--p", "3", "verma", "-2", "1"], 0, _VERMA_AT_P3, ""),
    (["--m", "2", "--format=json", "--p", "2", "induce", "F(1/2)"], 0, _INDUCED_JSON, ""),
    (["--fo", "json", "--p=2", "--format", "text", "fuse", "M(1,2)", "M(1,2)"], 0, "P(1,1)\n", ""),
    (["--p", "2", "--o", "3", "char", "M(1,1)"], 0, "q^(0) * [1, 0, 1, 2]\n", ""),
    (["--p", "2", "--ord=3", "char", "M(1,1)"], 0, "q^(0) * [1, 0, 1, 2]\n", ""),
    (["--p", "2", "--order", "-1", "char", "M(1,1)"], 1, "", "error: truncation order must be >= 0, got -1\n"),
    (["--p", "2", "factors", "-1", "1"], 0, "M(-2,1) + M(-1,1)\n", ""),
    (["--p", "2", "check", "--s", "kring"], 0, _KRING_PASS, ""),
    (["--p", "2", "check", "--su=kring"], 0, _KRING_PASS, ""),
    (["--p", "2", "check", "--suite", "grading", "--suite", "kring"], 0, _KRING_PASS, ""),
    (["--p", "2", "fuse", "--", "M(1,2)", "M(1,2)"], 0, "P(1,1)\n", ""),
    (["--p", "2", "fuse", "M(1,2)", "--", "M(1,2)"], 0, "P(1,1)\n", ""),
    (["--p", "2", "fuse", "--", "-M(1,2)", "M(1,2)"], 1, "", "error: expected an integer (at byte 0)\n"),
    # Help, whatever else is on the line, and whether --p is given or not.
    (["--help"], 0, _HELP, ""),
    (["-h", "--p", "x"], 0, _HELP, ""),
    (["--p", "2", "--he"], 0, _HELP, ""),
    (["--p", "x", "-h"], 1, "", "error: argument --p: invalid int value: 'x'\n"),
    (["-hx"], 1, "", "error: argument -h/--help: ignored explicit argument 'x'\n"),
    (["--help="], 1, "", "error: argument -h/--help: ignored explicit argument ''\n"),
    (["--p", "2", "fuse", "a", "-h", "b", "c"], 0, _command_help("fuse"), ""),
    (["verma", "x", "-h"], 1, "", "error: argument r: invalid int value: 'x'\n"),
    *[([name, "--help"], 0, _command_help(name), "") for name in (*_POSITIONALS, "check")],
    (
        ["--p", "2", "check", "--=x"],
        1,
        "",
        "error: ambiguous option: --=x could match --help, --p, --m, --format, --order\n",
    ),
    (["--p", "2", "fuse", "-M(1,2)", "M(1,2)", "M(1,2)"], 1, "", "error: unrecognized arguments: -M(1,2)\n"),
    (["--p", "2", "check", "--"], 1, "", "error: unrecognized arguments: --\n"),
    (["--p", "--", "2", "simples"], 1, "", "error: argument --p: expected one argument\n"),
    (
        ["--p", "2", "--", "fuse", "M(1,2)", "M(1,2)"],
        1,
        "",
        f"error: argument COMMAND: invalid choice: '--' (choose from {_COMMAND_CHOICES})\n",
    ),
]


@pytest.mark.parametrize(
    "argv, code, out, err", CLI_SURFACE, ids=[" ".join(row[0]) or "(none)" for row in CLI_SURFACE]
)
def test_cli_surface(argv, code, out, err):
    assert run_cli(*argv) == (code, out, err)


def _raising(exc):
    def call(*args):
        raise exc

    return call


def test_cli_out_of_memory_is_a_user_error(monkeypatch):
    # Exit 2 is a fault of the program; an input too large for the memory of
    # the machine is not one.
    help_text, rows, _ = cli._COMMANDS["simples"]
    monkeypatch.setitem(cli._COMMANDS, "simples", (help_text, rows, _raising(MemoryError())))
    expected = (1, "", "error: out of memory; try a smaller --p, --m or --order\n")
    assert run_cli("--p", "2", "--m", "2", "simples") == expected


def test_cli_a_fault_while_reading_argv_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(cli, "_parse", _raising(RuntimeError("planted")))
    assert run_cli("--p", "2", "simples") == (2, "", "internal error: RuntimeError('planted')\n")


def test_cli_main_reads_sys_argv(monkeypatch, capsys):
    # The console script calls main() with no list.
    monkeypatch.setattr(sys, "argv", ["singlet", "--p", "2", "fuse", "M(1,2)", "M(1,2)"])
    assert main() == 0
    assert capsys.readouterr() == ("P(1,1)\n", "")


def test_cli_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert (
        "--order ORDER character truncation order (default: 20; 40 under check)"
    ) in " ".join(out.split())


def _loaded_by_cli_import(*names, argv=None):
    """Which of ``names`` are loaded after ``import singlet.cli`` and, given
    ``argv``, one ``main(argv)``."""
    # -S keeps site hooks, which may import anything, out of the picture.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import singlet.cli; "
    if argv is not None:
        code += f"singlet.cli.main({argv!r}); "
    code += f"print('loaded:', *[name for name in {names!r} if name in sys.modules])"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1].split()[1:]


def test_cli_import_leaves_typing_and_string_unloaded():
    assert _loaded_by_cli_import("typing", "string") == []


def test_cli_import_leaves_dataclasses_and_threading_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize.
    assert _loaded_by_cli_import("dataclasses", "inspect", "ast", "dis", "tokenize", "threading") == []


def test_cli_call_leaves_argparse_and_shutil_unloaded():
    # argparse builds a HelpFormatter for each parser, which imports shutil
    # (and with it bz2, lzma and fnmatch); gettext and locale come with it.
    # No environment variable is read, so os is not loaded either.
    names = ("argparse", "shutil", "gettext", "locale", "textwrap", "os")
    assert _loaded_by_cli_import(*names, argv=["--p", "2", "fuse", "M(1,2)", "P(1,1)"]) == []
    assert _loaded_by_cli_import(*names, argv=["--p", "2", "fuse", "M(1,2)"]) == []


# A narrow terminal, or colour asked for without one (Python 3.14 colours
# help), changes no byte of the help.
@pytest.mark.parametrize("env", ["COLUMNS=40", "FORCE_COLOR=1", "PYTHON_COLORS=1"])
@pytest.mark.parametrize(
    "argv, text", [(["--help"], _HELP), (["check", "--help"], _CHECK_HELP)], ids=["top", "check"]
)
def test_cli_help_ignores_the_terminal_width(monkeypatch, env, argv, text):
    name, _, value = env.partition("=")
    monkeypatch.setenv(name, value)
    assert run_cli(*argv) == (0, text, "")
