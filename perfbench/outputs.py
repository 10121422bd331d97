"""Reading and checking the outputs of each kind of operation.

``parse(op, raw)`` turns an output, text or JSON, into a structure and its
canonical text form.  ``checker(op, ctx)`` returns a function that lists the
problems of a parsed output; it computes its reference once, so the same
function can also be shown a deliberately corrupted copy
(``corrupt(op, parsed)``), which it must reject.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import oracle as O

EXPR_KINDS = ("fuse", "dual", "kclass", "factors", "induce", "orbfuse", "oracle")
PHASE_KINDS = ("grade", "twist", "monodromy")
_SERIES = re.compile(r"^q\^\((\S+)\) \* \[(.*)\]$")
_VERMA = re.compile(r"^G\((-?\d+),(-?\d+)\): factors = (.*); layers = (.*); h0 = (\S+)$")


def _atom_of(text):
    (a, n), = O.parse_expr(text)
    return a


def _layers_text(layers):
    return " | ".join(", ".join(O.label(a) for a in layer) for layer in layers)


def _layers_parse(text):
    return [[_atom_of(t) for t in layer.split(", ")] for layer in text.split(" | ")]


def parse(op, raw: str):
    """(canonical text, parsed structure) of one output."""
    kind, js = op.kind, op.fmt == "json"
    raw = raw.strip()
    if kind in EXPR_KINDS:
        terms = O.expr_from_json(json.loads(raw)) if js else O.parse_expr(raw)
        return O.render_expr(terms), terms
    if kind in ("char", "orbchar"):
        if js:
            series = O.character_from_json(json.loads(raw))
        else:
            series = []
            for line in raw.splitlines():
                m = _SERIES.match(line)
                if not m:
                    raise ValueError(f"unparsable series {line[:60]!r}")
                series.append((Fraction(m.group(1)), [int(c) for c in m.group(2).split(", ")]))
        return O.render_character(series), series
    if kind == "loewy":
        layers = ([[_atom_of(t) for t in layer] for layer in json.loads(raw)["layers"]]
                  if js else _layers_parse(raw))
        return _layers_text(layers), layers
    if kind in PHASE_KINDS:
        if js:
            rows = [(r["atom"], Fraction(r["value"])) for r in json.loads(raw)]
        else:
            rows = [(a, Fraction(v)) for a, v in (line.split(": ") for line in raw.splitlines())]
        return "\n".join(f"{a}: {v}" for a, v in rows), rows
    if kind == "verma":
        if js:
            obj = json.loads(raw)
            parsed = ((obj["r"], obj["s"]), O.expr_from_json(obj["factors"]),
                      [[_atom_of(t) for t in layer] for layer in obj["layers"]], Fraction(obj["h0"]))
        else:
            m = _VERMA.match(raw)
            if not m:
                raise ValueError("unparsable verma report")
            parsed = ((int(m.group(1)), int(m.group(2))), O.parse_expr(m.group(3)),
                      _layers_parse(m.group(4)), Fraction(m.group(5)))
        (r, s), factors, layers, h0 = parsed
        return (f"G({r},{s}): factors = {O.render_expr(factors)}; "
                f"layers = {_layers_text(layers)}; h0 = {h0}"), parsed
    if kind == "simples":
        labels = json.loads(raw) if js else raw.splitlines()
        return "\n".join(labels), [_atom_of(t) for t in labels]
    if kind == "check":
        ok, suites = O.parse_check_output(raw, js)
        lines = [f"{name}: {c} cases, {f} failures" for name, (c, f) in suites.items()]
        return "\n".join(lines + ["PASS" if ok else "FAIL"]), raw
    raise ValueError(f"no parser for {kind!r}")


class Context:
    """State shared by the checks of one run: the seeded evaluation points,
    the partition table and the grading-suite product counts."""

    def __init__(self, rng, src_dir):
        self.rng = rng
        self.parts = O.Partitions()
        self.src_dir = src_dir
        self._product_atoms = {}

    def product_atoms(self, p: int):
        """Distinct summands over all ordered products of the suite universe,
        each product first passing the Laurent check; (count, problems)."""
        if p not in self._product_atoms:
            import sys

            if self.src_dir not in sys.path:
                sys.path.insert(0, self.src_dir)
            from singlet import fusion, parser, weights

            params = weights.Params(p)
            univ = O.universe(p)
            exprs = [parser.parse_expr(O.label(a), params) for a in univ]
            count, problems = 0, []
            for a, x in zip(univ, exprs):
                for b, y in zip(univ, exprs):
                    out = O.parse_expr(str(fusion.fuse(params, x, y)))
                    bad = O.check_fusion(p, [(a, 1)], [(b, 1)], out, self.rng)
                    if bad:
                        problems.append(f"{O.label(a)} x {O.label(b)}: {bad[0]}")
                    count += len(out)
            self._product_atoms[p] = (count, problems)
        return self._product_atoms[p]


def checker(op, ctx: Context):
    """Problems of a parsed output of ``op`` (see module docstring)."""
    kind, p, m = op.kind, op.p, op.m
    if kind in ("fuse", "oracle"):
        x, y = op.inputs
        ref = op.extra.get("ref")

        def check(out):
            problems = O.check_fusion(p, x, y, out, ctx.rng)
            if ref is not None and out != ref:
                problems.append("chebyshev_fuse differs from fuse on the reversed pair")
            return problems
        return check
    if kind == "orbfuse":
        x, y = op.inputs
        return lambda out: O.check_orbifold_fusion(p, m, x, y, out)
    if kind == "dual":
        (x,) = op.inputs
        pt = O.laurent_point(ctx.rng, x)
        want = pt.value(O.blocks(p, x), invert=True)

        def species(terms):
            acc = {}
            for a, n in terms:
                acc[a[0]] = acc.get(a[0], 0) + n
            return acc

        def check(out):
            problems = O.check_canonical(out, p)
            if O.common_den(out) != pt.den or pt.value(O.blocks(p, out)) != want:
                problems.append("dual is not the image of x -> 1/x")
            if species(out) != species(x):
                problems.append("dual changed the species counts")
            return problems
        return check
    if kind == "kclass":
        (x,) = op.inputs
        want = O.canonical([(f, n * k) for a, n in x for f, k in O.simple_factors(p, a)])

        def check(out):
            problems = O.check_canonical(out, p)
            if any(a[0] not in ("M", "F") for a, _ in out):
                problems.append("K-class holds a non-simple label")
            pt = O.laurent_point(ctx.rng, x, out)
            if pt.value(O.blocks(p, out)) != pt.value(O.blocks(p, x)):
                problems.append("K-class has another Laurent image than its module")
            if out != want:
                problems.append("K-class differs from the composition factors")
            return problems
        return check
    if kind == "factors":
        want = O.canonical(O.verma_factors(p, *op.extra["rs"]))
        return lambda out: [] if out == want else ["Verma factors differ from the documented rule"]
    if kind == "verma":
        r, s = op.extra["rs"]
        factors = O.canonical(O.verma_factors(p, r, s))
        socle = sorted((a for a, _ in factors if a != ("M", r, s)), key=O.sort_key)
        layers = [[("M", r, s)]] + ([socle] if socle else [])
        h0 = min(O.lowest_weight(p, a) for a, _ in factors)
        want = ((r, s), factors, layers, h0)
        return lambda out: [] if out == want else ["Verma report differs from the documented structure"]
    if kind == "loewy":
        ((a, _),) = op.inputs[0]
        return lambda layers: O.loewy_problems(p, a, layers)
    if kind in ("char", "orbchar"):
        (x,) = op.inputs
        order = op.extra["order"]
        if any(a[0] in O.ORBIFOLD_SPECIES for a, _ in x):
            want = O.orbifold_character(p, m, x, order, ctx.parts)
        else:
            want = O.character(p, x, order, ctx.parts)
        return lambda series: O.check_character(series, want)
    if kind in PHASE_KINDS:
        want = O.phase_values(kind, p, op.inputs[0])
        return lambda rows: [] if rows == want else [f"{kind} values differ from the weight formulas"]
    if kind == "induce":
        want = O.induce_expected(p, m, op.inputs[0])
        return lambda out: [] if out == want else ["induction differs from the orbit reduction"]
    if kind == "simples":
        want = O.simples_expected(p, m)

        def check(labels):
            if len(labels) != 2 * p * m * m:
                return [f"{len(labels)} simples, expected 2pm^2 = {2 * p * m * m}"]
            return [] if labels == want else ["simple labels differ from the orbit enumeration"]
        return check
    if kind == "check":
        count, problems = ctx.product_atoms(p)
        want = O.suite_cases(p, m, count)
        if op.extra["suite"] != "all":
            want = {k: v for k, v in want.items() if k.startswith(op.extra["suite"])}
        js = op.fmt == "json"
        return lambda raw: problems + O.check_suite_output(raw, js, want)
    raise ValueError(f"no checker for {kind!r}")


def corrupt(op, parsed):
    """A copy of a parsed output with one deliberate error."""
    kind = op.kind
    if kind in EXPR_KINDS:
        if len(parsed) > 1:
            return parsed[:-1]  # a dropped summand
        (a, n), = parsed
        return [(a, n + 1)]
    if kind in ("char", "orbchar"):
        (h0, coeffs), *rest = parsed
        k = len(coeffs) // 2
        return [(h0, coeffs[:k] + [coeffs[k] + 1] + coeffs[k + 1:])] + rest
    if kind == "loewy":
        return parsed[:-1] + [parsed[-1][:-1]]
    if kind in PHASE_KINDS:
        (a, v), *rest = parsed
        return [(a, v + Fraction(1, 2))] + rest
    if kind == "verma":
        rs, factors, layers, h0 = parsed
        return (rs, factors, layers, h0 + 1)
    if kind == "simples":
        return parsed[:-1]
    if kind == "check":
        if op.fmt == "json":
            obj = json.loads(parsed)
            obj["suites"][0]["cases"] -= 1
            return json.dumps(obj)
        first, rest = parsed.split(" cases", 1)
        name, cases = first.rsplit(" ", 1)
        return f"{name} {int(cases) - 1} cases{rest}"
    raise ValueError(f"no corruption for {kind!r}")
