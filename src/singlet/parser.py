"""Expression grammar for the CLI.

::

    Expr     := Term ("+" Term)*
    Term     := [int "*"] Atom
    Atom     := "M(" int "," int ")" | "P(" int "," int ")" | "F(" rational ")"
              | "Fa(" int "," int ")" | "G(" int "," int ")"
              | "W(" int "," int ")" | "V(" rational ")" | "R(" int "," int ")"
    rational := int ["/" int]

The grammar is ASCII: ``int`` is an optional ``-`` and the digits ``0-9``,
and only ASCII whitespace (space, tab, newline, carriage return, vertical
tab, form feed) is skipped.

Whitespace is insignificant.  Parsing is two-phase: a grammar pass that
reports :class:`ExprSyntaxError` with a byte offset, then a semantic pass
against the active parameters that reports :class:`ExprSemanticError` with
the offending atom (s out of range, integral typical coordinates, orbifold
atoms without m, mixed orbifold/singlet expressions, nonpositive counts).

The canonical text form of an expression is ``str()`` of its
:class:`ModuleExpr`; printing then reparsing is the identity on canonical
forms.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ExprSemanticError, ExprSyntaxError
from .modules import CoordLabel, FockAtypical, FockTypical, GenVerma, ModuleExpr, MSimple, Proj, normalize_atom
from .orbifold import _LIFTS, OrbifoldParams, normalize_orbifold_atom
from .weights import Params

__all__ = ["parse_expr", "is_orbifold_expr"]

_SPECIES = {cls._TAG: cls for cls in (MSimple, FockTypical, Proj, FockAtypical, GenVerma, *_LIFTS)}
_DIGITS = frozenset("0123456789")
_SPACE = frozenset(" \t\n\r\x0b\x0c")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _byte(self, pos: int) -> int:
        return len(self.text[:pos].encode())

    def error(self, message: str, pos: int | None = None):
        raise ExprSyntaxError(message, self._byte(self.pos if pos is None else pos))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _SPACE:
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # More digits than the interpreter converts (sys.get_int_max_str_digits).
            self.error("integer literal too long", start)

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            den_pos = self.pos
            den = self.integer()
            if den == 0:
                self.error("zero denominator", den_pos)
            return Fraction(num, den)
        return Fraction(num)

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            self.error("expected a species name")
        return self.text[start : self.pos]


def _parse_atom(sc: _Scanner):
    """The class, constructor arguments and text of the next atom."""
    start = sc.pos
    name = sc.name()
    cls = _SPECIES.get(name)
    if cls is None:
        sc.error(f"unknown species {name!r}", start)
    sc.expect("(")
    if issubclass(cls, CoordLabel):
        args = (sc.rational(),)
    else:
        r = sc.integer()
        sc.expect(",")
        args = (r, sc.integer())
    sc.expect(")")
    return cls, args, sc.text[start : sc.pos].strip()


def _parse_terms(text: str):
    sc = _Scanner(text)
    terms = []
    if sc.at_end():
        sc.error("empty expression")
    while True:
        sc.skip_ws()
        mult = 1
        if sc.peek() in _DIGITS or sc.peek() == "-":
            mult = sc.integer()
            sc.expect("*")
        terms.append((mult, *_parse_atom(sc)))
        if sc.at_end():
            return terms
        sc.expect("+")


def _build_atom(cls, args, text, params: Params, op: OrbifoldParams | None):
    orbifold = cls in _LIFTS
    if orbifold and op is None:
        raise ExprSemanticError("orbifold labels require --m", text)
    try:
        atom = cls(*args)
        return normalize_orbifold_atom(op, atom) if orbifold else normalize_atom(params, atom)
    except DomainError as exc:
        raise ExprSemanticError(str(exc), text) from None


def parse_expr(text: str, params: Params, op: OrbifoldParams | None = None) -> ModuleExpr:
    """Parse and validate an expression against the active parameters."""
    terms = []
    families = set()
    for mult, cls, args, atom_text in _parse_terms(text):
        if mult < 1:
            raise ExprSemanticError("multiplicity must be a positive integer", f"{mult}*{atom_text}")
        atom = _build_atom(cls, args, atom_text, params, op)
        families.add(atom.__class__ in _LIFTS)
        terms.append((atom, mult))
    if len(families) > 1:
        raise ExprSemanticError("cannot mix orbifold and singlet labels in one expression", text.strip())
    return ModuleExpr(terms)


def is_orbifold_expr(expr: ModuleExpr) -> bool:
    return any(a.__class__ in _LIFTS for a, _ in expr.items())
