"""Seeded operation lists, one round of each workload.

Every run repeats the same round, so each round does the same work.  The
seed picks labels, parameters, output formats and the order of the calls;
the number of calls of each kind and their sizes are fixed, so a round
costs about the same under every seed.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from oracle import canonical, render_expr


class Op:
    """One operation: a CLI call (``argv``) or a scale library call (``spec``)."""

    def __init__(self, kind, p, m=None, fmt="text", argv=None, inputs=(), spec=None, **extra):
        self.kind, self.p, self.m, self.fmt = kind, p, m, fmt
        self.argv, self.inputs, self.spec = argv, list(inputs), spec
        self.extra = extra

    def name(self) -> str:
        return " ".join(self.argv) if self.argv else f"{self.kind} {self.spec}"


def _typical(rng, den_choices=(2, 3, 4, 5, 6)) -> Fraction:
    while True:
        q = Fraction(rng.randint(-12, 12), rng.choice(den_choices))
        if q.denominator != 1:
            return q


def _atom(rng, species, p, m=None):
    if species == "M":
        return ("M", rng.randint(-3, 4), rng.randint(1, p))
    if species in ("P", "Fa"):
        return (species, rng.randint(-3, 4), rng.randint(1, p - 1))
    if species == "G":
        return ("G", rng.randint(-2, 3), rng.randint(1, p))
    if species == "F":
        return ("F", _typical(rng))
    if species == "W":
        return ("W", rng.randrange(2 * m), rng.randint(1, p))
    if species == "R":
        return ("R", rng.randrange(2 * m), rng.randint(1, p - 1))
    if species == "V":  # m*q integral and q non-integral; needs m >= 2
        j = rng.randrange(2 * p * m * m)
        while j % m == 0:
            j = rng.randrange(2 * p * m * m)
        return ("V", Fraction(j, m))
    raise ValueError(species)


def _expr(rng, species, p, m=None):
    """Canonical expression with one atom per species named in ``species``,
    e.g. "PFa" for a projective and a length-2 Fock module."""
    return canonical([(_atom(rng, sp, p, m), rng.choice((1, 1, 2)))
                      for sp in re.findall(r"Fa|[A-Z]", species)])


def _cli(kind, p, fmt, args, m=None, order=None, inputs=(), **extra):
    argv = ["--p", str(p)]
    if m is not None:
        argv += ["--m", str(m)]
    if fmt == "json":
        argv += ["--format", "json"]
    if order is not None:
        argv += ["--order", str(order)]
    argv += [kind] + [str(a) for a in args]
    return Op(kind, p, m, fmt, argv=argv, inputs=inputs, order=order, **extra)


def _both_formats(rng, make):
    """The same call in text and in JSON, in seeded order."""
    fmts = ["text", "json"]
    rng.shuffle(fmts)
    return [make(f) for f in fmts]


def cli_round(seed: int) -> list:
    """40 short CLI calls at p in 2..7 and m in 1..3.

    Products come in pairs (X, Y) and (Y, X), one printed as text and one as
    JSON, and every other call is made in both formats, so each output can
    be compared with its twin as well as checked on its own.
    """
    rng = random.Random(seed)

    def P():
        return rng.randint(2, 7)

    ops = []
    # Fusion: the species patterns are fixed so that every round reaches the
    # closed forms, K-ring inversion and the typical rules.
    for xs, ys in (("P", "M"), ("PF", "P"), ("MM", "F"), ("F", "FM")):
        p = P()
        x, y = _expr(rng, xs, p), _expr(rng, ys, p)
        fmts = ["text", "json"]
        rng.shuffle(fmts)
        pair = len(ops)
        ops.append(_cli("fuse", p, fmts[0], [render_expr(x), render_expr(y)], inputs=[x, y], pair=pair))
        ops.append(_cli("fuse", p, fmts[1], [render_expr(y), render_expr(x)], inputs=[y, x], pair=pair))
    for kind, species in (("dual", "MPF"), ("dual", "FFa"), ("kclass", "PFa"), ("kclass", "GMF")):
        p = P()
        x = _expr(rng, species, p)
        ops += _both_formats(rng, lambda f: _cli(kind, p, f, [render_expr(x)], inputs=[x]))
    for species in ("P", rng.choice(("M", "F", "Fa", "G"))):
        p = P()
        x = [(_atom(rng, species, p), 1)]
        ops += _both_formats(rng, lambda f: _cli("loewy", p, f, [render_expr(x)], inputs=[x]))
    p, order = P(), rng.randint(8, 20)
    x = _expr(rng, "PF", p)
    ops += _both_formats(rng, lambda f: _cli("char", p, f, [render_expr(x)], order=order, inputs=[x]))
    p, m, order = P(), rng.randint(2, 3), rng.randint(8, 20)
    x = _expr(rng, rng.choice(("W", "R", "V")), p, m)
    ops += _both_formats(rng, lambda f: _cli("char", p, f, [render_expr(x)], m=m, order=order, inputs=[x]))
    for kind, species in (("grade", "MPF"), ("twist", "MF"), ("monodromy", "FaF")):
        p = P()
        x = _expr(rng, species, p)
        ops += _both_formats(rng, lambda f: _cli(kind, p, f, [render_expr(x)], inputs=[x]))
    for kind in ("verma", "factors"):
        p = P()
        r, s = rng.randint(-2, 3), rng.randint(1, p)
        ops += _both_formats(rng, lambda f: _cli(kind, p, f, [r, s], rs=(r, s)))
    p, m = P(), rng.randint(2, 3)
    x = canonical(_expr(rng, "MP", p) + [(("F", _local_typical(rng, m)), 1)])
    ops += _both_formats(rng, lambda f: _cli("induce", p, f, [render_expr(x)], m=m, inputs=[x]))
    p, m = P(), rng.randint(1, 3)
    ops += _both_formats(rng, lambda f: _cli("simples", p, f, [], m=m))
    p, m = P(), rng.randint(2, 3)
    x, y = _expr(rng, "RW", p, m), _expr(rng, "V", p, m)
    fmts = ["text", "json"]
    rng.shuffle(fmts)
    pair = len(ops)
    ops.append(_cli("orbfuse", p, fmts[0], [render_expr(x), render_expr(y)], m=m, inputs=[x, y], pair=pair))
    ops.append(_cli("orbfuse", p, fmts[1], [render_expr(y), render_expr(x)], m=m, inputs=[y, x], pair=pair))
    rng.shuffle(ops)
    return ops


def _local_typical(rng, m: int) -> Fraction:
    """A typical coordinate q with m*q integral (m >= 2)."""
    while True:
        q = Fraction(rng.randint(-4 * m, 4 * m), m)
        if q.denominator != 1:
            return q


def verify_round(seed: int) -> list:
    """`check --suite all` at p = 2 and 3, and the orbifold suite at m = 3
    or 4 (beyond the default m = 1, 2) at p = 2 and 3."""
    rng = random.Random(seed)
    ops = []
    for p, suite, m in ((2, "all", None), (3, "all", None),
                        (2, "orbifold", rng.choice((3, 4))), (3, "orbifold", rng.choice((3, 4)))):
        fmt = rng.choice(("text", "json"))
        ops.append(_cli("check", p, fmt, ["--suite", suite], m=m, suite=suite))
    rng.shuffle(ops)
    return ops


# Sizes of the scale workload: (p,) for products and (p, order) or
# (p, m, order) for characters.  Each grows at its own rate: k_product plus
# projective_decompose as p^2, the oracle ladders as p^3, ch_expr as
# order^1.5 and orbifold_char_expr as order^2.
FUSE_P = (250, 500, 1000)
ORACLE_P = (25, 50, 100)
ORBFUSE_PM = ((300, 2),)
CHAR = (("char", 3, None, 10000, "P"), ("orbchar", 3, 2, 3000, "W"), ("orbchar", 3, 2, 3000, "R"))


def scale_round(seed: int) -> list:
    """Few huge uncached calls in one interpreter; the seed picks the r labels."""
    rng = random.Random(seed)
    ops = []

    def lib(kind, p, m, args, **extra):
        spec = {"kind": kind, "p": p, "m": m, "args": [render_expr(a) for a in args], **extra}
        fmt = "json" if kind in ("char", "orbchar") else "text"
        return Op(kind, p, m, fmt, inputs=args, spec=spec, **extra)

    def proj(sp, p, m=None):
        r = rng.randint(-3, 3) % (2 * m) if m else rng.randint(-3, 3)
        return [((sp, r, 1), 1)]

    for p in FUSE_P:
        ops.append(lib("fuse", p, None, [proj("P", p), proj("P", p)]))
    for p in ORACLE_P:
        ops.append(lib("oracle", p, None, [proj("P", p), proj("P", p)]))
    for p, m in ORBFUSE_PM:
        ops.append(lib("orbfuse", p, m, [proj("R", p, m), proj("R", p, m)]))
    for kind, p, m, order, sp in CHAR:
        if m is None:
            x = [((sp, rng.randint(-2, 3), 1), 1)]
        else:
            x = [((sp, rng.randrange(2 * m), 1), 1)]
        ops.append(lib(kind, p, m, [x], order=order))
    return ops


ROUNDS = {"cli": cli_round, "verify": verify_round, "scale": scale_round}
