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

Canonical printing is ``str()`` of the resulting :class:`ModuleExpr`;
printing then reparsing is the identity on canonical forms.
"""

from __future__ import annotations

import string
from fractions import Fraction

from .errors import DomainError, ExprSemanticError, ExprSyntaxError
from .modules import FockAtypical, FockTypical, GenVerma, ModuleExpr, MSimple, Proj, normalize_atom
from .orbifold import OrbifoldParams, RProj, VTypical, WSimple, normalize_orbifold_atom
from .weights import Params

__all__ = ["parse_expr", "print_expr", "is_orbifold_expr"]

_PAIR_SPECIES = {"M": MSimple, "P": Proj, "Fa": FockAtypical, "G": GenVerma, "W": WSimple, "R": RProj}
_COORD_SPECIES = {"F": FockTypical, "V": VTypical}
_ORBIFOLD = (WSimple, VTypical, RProj)
_DIGITS = frozenset(string.digits)
_SPACE = frozenset(string.whitespace)


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
        return int(self.text[start : self.pos])

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
    start = sc.pos
    name = sc.name()
    if name in _PAIR_SPECIES:
        sc.expect("(")
        r = sc.integer()
        sc.expect(",")
        s = sc.integer()
        sc.expect(")")
        head = (name, (r, s))
    elif name in _COORD_SPECIES:
        sc.expect("(")
        q = sc.rational()
        sc.expect(")")
        head = (name, (q,))
    else:
        sc.error(f"unknown species {name!r}", start)
    return head, sc.text[start : sc.pos].strip()


def _parse_terms(text: str):
    sc = _Scanner(text)
    terms = []
    if sc.at_end():
        sc.error("empty expression")
    while True:
        sc.skip_ws()
        mult, mult_text = 1, None
        if sc.peek() in _DIGITS or sc.peek() == "-":
            mult = sc.integer()
            mult_text = str(mult)
            sc.expect("*")
        head, atom_text = _parse_atom(sc)
        terms.append((mult, mult_text, head, atom_text))
        if sc.at_end():
            return terms
        sc.expect("+")


def _build_atom(head, text, params: Params, op: OrbifoldParams | None):
    name, args = head
    cls = _PAIR_SPECIES.get(name) or _COORD_SPECIES[name]
    if cls in _ORBIFOLD and op is None:
        raise ExprSemanticError("orbifold labels require --m", text)
    try:
        if cls is FockTypical:
            atom = FockTypical(args[0])
        elif cls is VTypical:
            atom = VTypical(args[0])
        else:
            atom = cls(*args)
        if cls in _ORBIFOLD:
            return normalize_orbifold_atom(op, atom)
        return normalize_atom(params, atom)
    except DomainError as exc:
        raise ExprSemanticError(str(exc), text) from None


def parse_expr(text: str, params: Params, op: OrbifoldParams | None = None) -> ModuleExpr:
    """Parse and validate an expression against the active parameters."""
    terms = []
    families = set()
    for mult, mult_text, head, atom_text in _parse_terms(text):
        if mult < 1:
            raise ExprSemanticError("multiplicity must be a positive integer", f"{mult_text}*{atom_text}")
        atom = _build_atom(head, atom_text, params, op)
        families.add(isinstance(atom, _ORBIFOLD))
        terms.append((atom, mult))
    if len(families) > 1:
        raise ExprSemanticError("cannot mix orbifold and singlet labels in one expression", text.strip())
    return ModuleExpr(terms)


def print_expr(expr: ModuleExpr) -> str:
    """Canonical text form; reparses to an equal expression."""
    return str(expr)


def is_orbifold_expr(expr: ModuleExpr) -> bool:
    return any(isinstance(a, _ORBIFOLD) for a in expr.atoms())
