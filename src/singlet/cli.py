"""Command-line front end.

Global flags select the algebra (``--p``, optional ``--m``), the output
format, and the character truncation order; subcommands dispatch to the
library.  Exit codes: 0 success, 1 user error (bad flags, syntax/semantic
errors, domain errors, failing check suites), 2 internal invariant
violation.  JSON output is canonical and byte-stable across runs.

Two tables define the whole command line: ``_FLAGS``, the global flags, and
``_COMMANDS``, each subcommand with its arguments.  ``_read`` reads argv by
them as argparse did, with argparse's error texts: flags in any order before
the command, the last one winning, ``--flag=value``, unique prefixes of a
flag, negative numbers as values, and ``--`` before positionals.  ``_help``
has argparse lay out ``--help`` from them at 80 columns; its description is
the first two paragraphs of this docstring.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from . import checks
from .characters import CharacterSum, ch_expr, check_order
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
    induce as induce_op,
    list_simples,
    orbifold_char_expr,
    orbifold_fuse,
    orbifold_loewy_layers,
)
from .parser import is_orbifold_expr, parse_expr
from .weights import Params

__all__ = ["main", "run_command"]

_DEFAULT_ORDER = 20


class _UsageError(Exception):
    pass


class _Help(Exception):
    """``-h`` or ``--help`` was read after ``command`` (None: before any)."""

    def __init__(self, command):
        self.command = command


class _Output:
    """A result that is not a library value: a function that builds its JSON
    value, one that builds its text, and its exit code.  Like a library value
    it has ``to_json()`` and ``str()``, so only the form asked for is built."""

    __slots__ = ("to_json", "_text", "code")

    def __init__(self, to_json, text, code: int = 0):
        self.to_json, self._text, self.code = to_json, text, code

    def __str__(self):
        return self._text()


class _Call:
    """A parsed command line with its algebra parameters."""

    __slots__ = ("args", "params", "op")

    def __init__(self, args: SimpleNamespace):
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


def _order(args, default: int) -> int:
    order = default if args.order is None else args.order
    check_order(order)
    return order


def _layers_json(layers):
    return [[label(a) for a in layer] for layer in layers]


def _layers_text(layers) -> str:
    return " | ".join(", ".join(label(a) for a in layer) for layer in layers)


def _phase_table(call: _Call, value_of) -> _Output:
    rows = [(atom, value_of(atom)) for atom in call.singlet_expr(call.args.x).atoms()]
    return _Output(
        lambda: [{"atom": label(atom), "value": str(value)} for atom, value in rows],
        lambda: "\n".join(f"{label(atom)}: {value}" for atom, value in rows),
    )


def _fuse(call: _Call) -> ModuleExpr:
    return fuse(call.params, call.singlet_expr(call.args.x), call.singlet_expr(call.args.y))


def _dual(call: _Call) -> ModuleExpr:
    return dual_op(call.params, call.singlet_expr(call.args.x))


def _kclass(call: _Call) -> ModuleExpr:
    return k_class_op(call.params, call.singlet_expr(call.args.x))


def _factors(call: _Call) -> ModuleExpr:
    return verma_quotient_factors(call.params, call.args.r, call.args.s)


def _loewy(call: _Call) -> _Output:
    expr = call.parse(call.args.x)
    if expr.total() != 1:
        raise ExprSemanticError("loewy takes a single indecomposable label")
    atom = expr.atoms()[0]
    if is_orbifold_expr(expr):
        layers = orbifold_loewy_layers(call.orbifold(), atom)
    else:
        layers = loewy_layers(call.params, atom)
    return _Output(lambda: {"layers": _layers_json(layers)}, lambda: _layers_text(layers))


def _char(call: _Call) -> CharacterSum:
    order = _order(call.args, _DEFAULT_ORDER)
    expr = call.parse(call.args.x)
    if is_orbifold_expr(expr):
        return orbifold_char_expr(call.orbifold(), expr, order)
    return ch_expr(call.params, expr, order)


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
    h0 = lowest_weight(call.params, GenVerma(r, s))
    return _Output(
        lambda: {"r": r, "s": s, "factors": factors.to_json(), "layers": _layers_json(layers), "h0": str(h0)},
        lambda: f"G({r},{s}): factors = {factors}; layers = {_layers_text(layers)}; h0 = {h0}",
    )


def _induce(call: _Call) -> ModuleExpr:
    return induce_op(call.orbifold(), call.singlet_expr(call.args.x))


def _simples(call: _Call) -> _Output:
    simples = list_simples(call.orbifold())
    return _Output(lambda: list(map(label, simples)), lambda: "\n".join(map(label, simples)))


def _orbfuse(call: _Call) -> ModuleExpr:
    orb = call.orbifold()
    x, y = call.parse(call.args.x), call.parse(call.args.y)
    if not (is_orbifold_expr(x) and is_orbifold_expr(y)):
        raise ExprSemanticError("orbfuse works on orbifold expressions; use fuse")
    return orbifold_fuse(orb, x, y)


def _check(call: _Call) -> _Output:
    args = call.args
    order = _order(args, checks._DEFAULT_ORDER)
    names = checks.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = checks.run_suites(names, call.params, m=args.m, order=order)
    ok = all(r.ok for r in results)

    def text():
        lines = [f"{r.name}: {r.cases} cases, {len(r.failures)} failures" for r in results]
        lines += [f"  FAIL {r.name}: {f}" for r in results for f in r.failures]
        return "\n".join(lines + ["PASS" if ok else "FAIL"])

    return _Output(
        lambda: {"ok": ok, "suites": [{"name": r.name, "cases": r.cases, "failures": r.failures} for r in results]},
        text,
        0 if ok else 1,
    )


# An argument is a row (name, value, default, help).  A name that starts with
# "-" is a flag, any other a positional; a value is str, int or a tuple of
# choices; an argument whose default is _REQUIRED must be given.
_REQUIRED = object()
_EXPR = (("x", str, _REQUIRED, None),)
_EXPR_PAIR = _EXPR + (("y", str, _REQUIRED, None),)
_LABEL = (("r", int, _REQUIRED, None), ("s", int, _REQUIRED, None))

# The global flags, which come before the subcommand, in the order that
# ``--help`` lists them.
_FLAGS = (
    ("--p", int, _REQUIRED, "singlet parameter p >= 2"),
    ("--m", int, None, "cyclic orbifold order m >= 1"),
    ("--format", ("text", "json"), "text", None),
    (
        "--order",
        int,
        None,
        f"character truncation order (default: {_DEFAULT_ORDER}; {checks._DEFAULT_ORDER} under check)",
    ),
)

# Subcommand -> (help text, arguments, handler), in the order that ``--help``
# lists them.
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
        (("--suite", checks.SUITE_NAMES + ("all",), "all", None),),
        _check,
    ),
}


def _option(arg: str, flags):
    """What ``arg`` is among ``flags`` (which start with -h and --help): None
    for a positional, ``(flag, text after "=" or None)`` for a flag or a
    unique prefix of one, ``("", None)`` for an unknown option.  A negative
    number, and a text with a space, is a positional."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return name, value
    if arg[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        value = value if eq else None
    else:  # -h run together with what follows it
        matches, value = (["-h"], arg[2:]) if arg[1] == "h" else ([], None)
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg:
        return None
    return "", None


def _value(name: str, kind, text: str):
    """``text`` read as argument ``name``, whose value ``kind`` is str, int or
    a collection of choices."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise _UsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    return text


def _read(args: list, rows, values: dict, extras: list, command=None) -> int:
    """Read ``args`` by the argument ``rows`` into ``values``, as argparse
    did, and append to ``extras`` what no row takes.  At the top level
    (``command`` None) the first positional is the subcommand: its index is
    returned, or ``len(args)`` if there is none."""
    flags, spec, pending = ["-h", "--help"], {}, []
    for name, kind, default, _ in rows:
        if name[0] == "-":
            flags.append(name)
            spec[name] = kind
        else:
            pending.append((name, kind))
        if default is not _REQUIRED:
            values[name] = default
    # Every token is classified before any is read, so an ambiguous prefix is
    # the first error.  After the first "--" every token is a positional;
    # ("--", None) also stands for the end of ``args``.
    end = args.index("--") if "--" in args else len(args)
    kinds = [_option(arg, flags) for arg in args[:end]]
    kinds += [("--", None)] + [None] * (len(args) - end - 1)
    i, taken = 0, False
    while i < len(args):
        arg, kind = args[i], kinds[i]
        after_positional, taken = taken, False
        if command is None and (kind is None or kind[0] == "--" and i + 1 < len(args)):
            return i  # the subcommand; a "--" in its place is read as one
        if kind is None:
            if pending:
                name, value_kind = pending.pop(0)
                values[name] = _value(name, value_kind, arg)
                taken = True
            else:
                extras.append(arg)
        elif not kind[0]:  # an unknown option
            extras.append(arg)
        elif kind[0] == "--":
            # A positional swallows the "--" next to it.
            if command is None or not (after_positional or pending and i + 1 < len(args)):
                extras.append(arg)
        elif kind[0] in ("-h", "--help"):
            flag, value = kind
            if flag == "-h" and value:  # -hh asks twice, -hx gives help a value
                value = value.lstrip("h") or None
            if value is not None:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            raise _Help(command)
        else:
            flag, value = kind
            if value is None:
                if kinds[i + 1] is not None:
                    raise _UsageError(f"argument {flag}: expected one argument")
                i += 1
                value = args[i]
            values[flag] = _value(flag, spec[flag], value)
        i += 1
    return len(args)


def _require(rows, values: dict):
    missing = [row[0] for row in rows if row[2] is _REQUIRED and row[0] not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")


def _parse(argv) -> SimpleNamespace:
    """The command line ``argv``: the global flags, ``command`` (None if
    there is none) and the subcommand's arguments, by name."""
    args, values, extras = list(argv), {"command": None}, []
    at = _read(args, _FLAGS, values, extras)
    if at < len(args):
        command = values["command"] = _value("COMMAND", _COMMANDS, args[at])
        rows = _COMMANDS[command][1]
        _read(args[at + 1 :], rows, values, extras, command)
        _require(rows, values)
    _require(_FLAGS, values)
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**{name.lstrip("-"): value for name, value in values.items()})


def _help(command=None) -> str:
    """What ``--help`` prints for ``command`` (None: for the program):
    argparse's layout at 80 columns, whatever the terminal.  Only help
    imports argparse."""
    import argparse

    def parser(prog, rows, **kwargs):
        out = argparse.ArgumentParser(
            prog, formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78), **kwargs
        )
        out.color = False  # Python 3.14 colours help on a terminal; earlier ones ignore this
        for name, kind, default, help_text in rows:
            options = {"choices": kind} if isinstance(kind, tuple) else {}
            if name[0] == "-":
                options["required"] = default is _REQUIRED
            out.add_argument(name, help=help_text, **options)
        return out

    if command is not None:
        return parser(f"singlet {command}", _COMMANDS[command][1]).format_help()
    top = parser("singlet", _FLAGS, description=__doc__ and "\n\n".join(__doc__.split("\n\n")[:2]))
    commands = top.add_subparsers(metavar="COMMAND")
    for name, (help_text, _, _) in _COMMANDS.items():
        commands.add_parser(name, help=help_text)
    return top.format_help()


def _render(value, as_json: bool) -> tuple[str, int]:
    """The one place output is formatted: compact canonical JSON or the text,
    whichever was asked for, and the exit code (0 but for a failing check).
    Formatting only turns computed values into text, so its only ValueError
    is the interpreter's limit on the digits of an int turned into text,
    reported as a user error: a coordinate of thousands of digits has a
    conformal weight of twice as many."""
    try:
        text = json.dumps(value.to_json(), separators=(",", ":")) if as_json else str(value)
    except ValueError:
        raise SingletError(
            f"the result has a number of more than {sys.get_int_max_str_digits()} digits, "
            "too long to print"
        ) from None
    return text, getattr(value, "code", 0)


def run_command(args) -> tuple[str, int]:
    """Execute a parsed command line; returns (rendered output, exit code)."""
    call = _Call(args)
    if args.command not in _COMMANDS:
        raise _UsageError("a subcommand is required")
    _, _, handler = _COMMANDS[args.command]
    return _render(handler(call), args.format == "json")


def main(argv=None) -> int:
    try:
        output, code = run_command(_parse(sys.argv[1:] if argv is None else argv))
    except _Help as exc:
        print(_help(exc.command), end="")
        return 0
    except (_UsageError, SingletError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the input is too large for this machine, not a fault
        print("error: out of memory; try a smaller --p, --m or --order", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
