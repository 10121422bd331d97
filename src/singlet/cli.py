"""Command-line front end.

Global flags select the algebra (``--p``, optional ``--m``), the output
format, and the character truncation order; subcommands dispatch to the
library.  Exit codes: 0 success, 1 user error (bad flags, syntax/semantic
errors, domain errors, failing check suites), 2 internal invariant
violation.  JSON output is canonical and byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks
from .characters import ch_expr
from .errors import ExprSemanticError, SingletError
from .fusion import fuse
from .modules import (
    GenVerma,
    ModuleExpr,
    label,
    loewy_layers,
    lowest_weight,
    monodromy_phase_with_m21,
    t_grade,
    twist_phase,
    verma_quotient_factors,
)
from .modules import dual as dual_op
from .modules import k_class as k_class_op
from .orbifold import (
    OrbifoldParams,
    RProj,
    WSimple,
    induce as induce_op,
    list_simples,
    orbifold_char_expr,
    orbifold_fuse,
    orbifold_projective_cover,
)
from .parser import is_orbifold_expr, parse_expr
from .weights import Params

__all__ = ["main", "run_command"]

_DEFAULT_ORDER = 20
_CHECK_ORDER = 40


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Output:
    """A command's result: its JSON value, its text form and its exit code."""

    __slots__ = ("data", "text", "code")

    def __init__(self, data, text: str, code: int = 0):
        self.data, self.text, self.code = data, text, code


class _Call:
    """A parsed command line with its algebra parameters."""

    __slots__ = ("args", "params", "op")

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.params = Params(args.p)
        self.op = None if args.m is None else OrbifoldParams(args.p, args.m)

    def orbifold(self) -> OrbifoldParams:
        if self.op is None:
            raise SingletError(f"subcommand {self.args.command!r} requires --m")
        return self.op

    def parse(self, text: str) -> ModuleExpr:
        return parse_expr(text, self.params, self.op)

    def singlet_expr(self, text: str) -> ModuleExpr:
        expr = self.parse(text)
        if is_orbifold_expr(expr):
            raise ExprSemanticError(
                f"{self.args.command} works on singlet expressions; use the orbifold subcommands"
            )
        return expr


def _checked_order(order: int) -> int:
    if order < 0:
        raise SingletError(f"truncation order must be >= 0, got {order}")
    return order


def _char_order(args) -> int:
    order = args.order
    if order is None:
        raw = os.environ.get("SINGLET_ORDER")
        if raw is None:
            return _DEFAULT_ORDER
        try:
            order = int(raw)
        except ValueError:
            raise SingletError(f"SINGLET_ORDER must be an integer, got {raw!r}") from None
    return _checked_order(order)


def _expr(expr: ModuleExpr) -> _Output:
    return _Output(expr.to_json(), str(expr))


def _layers_json(layers):
    return [[label(a) for a in layer] for layer in layers]


def _layers_text(layers) -> str:
    return " | ".join(", ".join(label(a) for a in layer) for layer in layers)


def _printed(to_text):
    """``to_text()``, with the interpreter's limit on the digits of an int
    turned into text reported as a user error: a coordinate of thousands of
    digits has a conformal weight of twice as many.  ``to_text`` only turns
    computed values into text, so its only ValueError is that limit."""
    try:
        return to_text()
    except ValueError:
        raise SingletError(
            f"the result has a number of more than {sys.get_int_max_str_digits()} digits, "
            "too long to print"
        ) from None


def _phase_table(call: _Call, value_of) -> _Output:
    values = [(label(atom), value_of(atom)) for atom in call.singlet_expr(call.args.x).atoms()]
    table = _printed(lambda: [(atom, str(value)) for atom, value in values])
    return _Output(
        [{"atom": atom, "value": value} for atom, value in table],
        "\n".join(f"{atom}: {value}" for atom, value in table),
    )


def _fuse(call: _Call) -> _Output:
    return _expr(fuse(call.params, call.singlet_expr(call.args.x), call.singlet_expr(call.args.y)))


def _dual(call: _Call) -> _Output:
    return _expr(dual_op(call.params, call.singlet_expr(call.args.x)))


def _kclass(call: _Call) -> _Output:
    return _expr(k_class_op(call.params, call.singlet_expr(call.args.x)))


def _factors(call: _Call) -> _Output:
    return _expr(verma_quotient_factors(call.params, call.args.r, call.args.s))


def _loewy(call: _Call) -> _Output:
    expr = call.parse(call.args.x)
    if expr.total() != 1:
        raise ExprSemanticError("loewy takes a single indecomposable label")
    atom = expr.atoms()[0]
    if is_orbifold_expr(expr):
        orb = call.orbifold()
        if isinstance(atom, RProj):
            _, layers = orbifold_projective_cover(orb, WSimple(atom.r, atom.s))
        else:
            layers = [[atom]]
    else:
        layers = loewy_layers(call.params, atom)
    return _Output({"layers": _layers_json(layers)}, _layers_text(layers))


def _char(call: _Call) -> _Output:
    order = _char_order(call.args)
    expr = call.parse(call.args.x)
    if is_orbifold_expr(expr):
        result = orbifold_char_expr(call.orbifold(), expr, order)
    else:
        result = ch_expr(call.params, expr, order)
    return _printed(
        lambda: _Output(result.to_json(), "\n".join(str(s) for s in result.series()) or "0")
    )


def _grade(call: _Call) -> _Output:
    return _phase_table(call, lambda atom: t_grade(call.params, atom))


def _twist(call: _Call) -> _Output:
    return _phase_table(call, lambda atom: twist_phase(call.params, atom).exponent)


def _monodromy(call: _Call) -> _Output:
    return _phase_table(call, lambda atom: monodromy_phase_with_m21(call.params, atom).exponent)


def _verma(call: _Call) -> _Output:
    r, s = call.args.r, call.args.s
    factors = verma_quotient_factors(call.params, r, s)
    layers = loewy_layers(call.params, GenVerma(r, s))
    weight = lowest_weight(call.params, GenVerma(r, s))
    h0 = _printed(lambda: str(weight))
    return _Output(
        {"r": r, "s": s, "factors": factors.to_json(), "layers": _layers_json(layers), "h0": h0},
        f"G({r},{s}): factors = {factors}; layers = {_layers_text(layers)}; h0 = {h0}",
    )


def _induce(call: _Call) -> _Output:
    orb = call.orbifold()
    return _expr(induce_op(orb, call.singlet_expr(call.args.x)))


def _simples(call: _Call) -> _Output:
    labels = [label(a) for a in list_simples(call.orbifold())]
    return _Output(labels, "\n".join(labels))


def _orbfuse(call: _Call) -> _Output:
    orb = call.orbifold()
    x, y = call.parse(call.args.x), call.parse(call.args.y)
    if not (is_orbifold_expr(x) and is_orbifold_expr(y)):
        raise ExprSemanticError("orbfuse works on orbifold expressions; use fuse")
    return _expr(orbifold_fuse(orb, x, y))


def _check(call: _Call) -> _Output:
    args = call.args
    order = _CHECK_ORDER if args.order is None else _checked_order(args.order)
    names = checks.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = checks.run_suites(names, call.params, m=args.m, order=order)
    ok = all(r.ok for r in results)
    lines = [f"{r.name}: {r.cases} cases, {len(r.failures)} failures" for r in results]
    for r in results:
        lines.extend(f"  FAIL {r.name}: {f}" for f in r.failures)
    lines.append("PASS" if ok else "FAIL")
    return _Output(
        {"ok": ok, "suites": [{"name": r.name, "cases": r.cases, "failures": r.failures} for r in results]},
        "\n".join(lines),
        0 if ok else 1,
    )


_EXPR = (("x", {}),)
_EXPR_PAIR = (("x", {}), ("y", {}))
_LABEL = (("r", {"type": int}), ("s", {"type": int}))

# Subcommand -> (help text, add_argument calls, handler), in the order that
# ``--help`` lists them.
_COMMANDS = {
    "fuse": ("tensor product of two expressions", _EXPR_PAIR, _fuse),
    "dual": ("termwise contragredient of an expression", _EXPR, _dual),
    "kclass": ("composition factors as a Grothendieck class", _EXPR, _kclass),
    "factors": ("composition factors of the generalized Verma quotient", _LABEL, _factors),
    "loewy": ("socle series of a single indecomposable", _EXPR, _loewy),
    "char": ("truncated graded character of an expression", _EXPR, _char),
    "grade": ("monodromy grading (coordinate mod 2) per summand", _EXPR, _grade),
    "twist": ("ribbon twist exponent per simple summand", _EXPR, _twist),
    "monodromy": ("monodromy exponent against the order-two current", _EXPR, _monodromy),
    "verma": ("structure report of the generalized Verma quotient", _LABEL, _verma),
    "induce": ("orbifold induction of a local expression (needs --m)", _EXPR, _induce),
    "simples": ("list the simple orbifold modules (needs --m)", (), _simples),
    "orbfuse": ("tensor product of two orbifold expressions (needs --m)", _EXPR_PAIR, _orbfuse),
    "check": (
        "run built-in verification suites",
        (("--suite", {"choices": checks.SUITE_NAMES + ("all",), "default": "all"}),),
        _check,
    ),
}


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="singlet", description=__doc__)
    parser.add_argument("--p", type=int, required=True, help="singlet parameter p >= 2")
    parser.add_argument("--m", type=int, default=None, help="cyclic orbifold order m >= 1")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--order",
        type=int,
        default=None,
        help=f"character truncation order (default: $SINGLET_ORDER or {_DEFAULT_ORDER}; "
        f"{_CHECK_ORDER} under check, which does not read $SINGLET_ORDER)",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help_text, arguments, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            cmd.add_argument(flag, **options)
    return parser


def _render(output: _Output, as_json: bool) -> tuple[str, int]:
    """The one place output is formatted; JSON is compact and canonical."""
    text = json.dumps(output.data, separators=(",", ":")) if as_json else output.text
    return text, output.code


def run_command(args) -> tuple[str, int]:
    """Execute a parsed command line; returns (rendered output, exit code)."""
    call = _Call(args)
    if args.command not in _COMMANDS:
        raise _UsageError("a subcommand is required")
    _, _, handler = _COMMANDS[args.command]
    return _render(handler(call), args.format == "json")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        output, code = run_command(args)
    except (_UsageError, SingletError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
