"""Independent checks of singlet outputs.

Nothing here imports the program.  Every check is either a computation of
the benchmark's own or a property the method must have:

* fusion: the Laurent-polynomial form of the Grothendieck ring,
  M(r,s) -> x^a(r,s) [s]_{x^2} and F(q) -> x^q [p]_{x^2} with
  a(r,s) = p(r-1) - (s-1), is a ring homomorphism (the shape of the singlet
  Verlinde formula).  It is evaluated at a seeded point modulo a large prime,
  so one check is one pass over the output;
* a product with a projective is a sum of projectives, and products commute;
* duals act on the Laurent form as x -> 1/x;
* characters are rebuilt from partition numbers and embedding-chain sums,
  and orbifold characters from sums over the orbit;
* check-suite case counts follow closed forms in p and m.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

PRIME = (1 << 61) - 1  # Mersenne prime

# Species rank and argument shape, as in the documented label grammar.
RANK = {"M": 0, "F": 1, "P": 2, "Fa": 3, "G": 4, "W": 5, "V": 6, "R": 7}
COORD_SPECIES = ("F", "V")
ORBIFOLD_SPECIES = ("W", "V", "R")

_TERM = re.compile(r"^(?:(\d+)\*)?([A-Za-z]+)\(([^()]*)\)$")


# --- labels and expressions ------------------------------------------------


def atom(species, *args):
    """A label as a hashable tuple: (species, r, s) or (species, q)."""
    if species in COORD_SPECIES:
        return (species, Fraction(args[0]))
    return (species, int(args[0]), int(args[1]))


def label(a) -> str:
    if a[0] in COORD_SPECIES:
        return f"{a[0]}({a[1]})"
    return f"{a[0]}({a[1]},{a[2]})"


def sort_key(a):
    return (RANK[a[0]],) + tuple(Fraction(v) for v in a[1:])


def parse_expr(text: str) -> list:
    """Parse printed canonical form into [(atom, mult)] in printed order."""
    text = text.strip()
    if text == "0":
        return []
    out = []
    for part in text.split(" + "):
        m = _TERM.match(part.strip())
        if not m or m.group(2) not in RANK:
            raise ValueError(f"unparsable term {part!r}")
        mult, species, args = m.group(1), m.group(2), m.group(3).split(",")
        out.append((atom(species, *args), int(mult) if mult else 1))
    return out


def render_expr(terms) -> str:
    if not terms:
        return "0"
    return " + ".join(label(a) if n == 1 else f"{n}*{label(a)}" for a, n in terms)


def canonical(terms) -> list:
    """Merge repeated atoms and sort into the printed order."""
    acc: dict = {}
    for a, n in terms:
        acc[a] = acc.get(a, 0) + n
    return sorted(((a, n) for a, n in acc.items() if n), key=lambda t: sort_key(t[0]))


def expr_from_json(items) -> list:
    out = []
    for it in items:
        if it["species"] in COORD_SPECIES:
            a = atom(it["species"], Fraction(it["q"]))
        else:
            a = atom(it["species"], it["r"], it["s"])
        out.append((a, it["mult"]))
    return out


def check_canonical(terms, p: int, m: int | None = None) -> list:
    problems = []
    keys = [sort_key(a) for a, _ in terms]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append("terms are not sorted and merged")
    for a, n in terms:
        if n < 1:
            problems.append(f"nonpositive multiplicity at {label(a)}")
        if a[0] in COORD_SPECIES:
            if a[1].denominator == 1:
                problems.append(f"integral typical coordinate {label(a)}")
            if a[0] == "V" and not 0 <= a[1] < 2 * p * m:
                problems.append(f"V coordinate not reduced: {label(a)}")
        else:
            top = p - 1 if a[0] in ("P", "Fa", "R") else p
            if not 1 <= a[2] <= top:
                problems.append(f"s out of range in {label(a)}")
            if a[0] in ("W", "R") and not 0 <= a[1] < 2 * m:
                problems.append(f"r not reduced mod 2m in {label(a)}")
    return problems


# --- Grothendieck classes ----------------------------------------------------


def alpha(p: int, r: int, s: int) -> int:
    return p * (r - 1) - (s - 1)


def simple_factors(p: int, a) -> list:
    """Composition factors [(simple atom, mult)] of one label."""
    sp = a[0]
    if sp in ("M", "F", "W", "V"):
        return [(a, 1)]
    r, s = a[1], a[2]
    if sp in ("P", "R"):
        if s == p:
            return [(("W" if sp == "R" else "M", r, s), 1)]
        low = "W" if sp == "R" else "M"
        return [((low, r, s), 2), ((low, r - 1, p - s), 1), ((low, r + 1, p - s), 1)]
    if sp == "Fa":
        return [(("M", r, s), 1), (("M", r + 1, p - s), 1)]
    return verma_factors(p, r, s)


def verma_factors(p: int, r: int, s: int) -> list:
    """Factors of the generalized Verma quotient, as documented: top M(r,s);
    socle M(r+1,p-s) for r > 1, M(0,p-s) + M(2,p-s) for r = 1, M(r-1,p-s)
    for r < 1; simple when s = p."""
    top = [(("M", r, s), 1)]
    if s == p:
        return top
    if r > 1:
        return top + [(("M", r + 1, p - s), 1)]
    if r < 1:
        return top + [(("M", r - 1, p - s), 1)]
    return top + [(("M", 0, p - s), 1), (("M", 2, p - s), 1)]


def blocks(p: int, terms) -> list:
    """Laurent image as blocks (coef, exponent, length): coef x^e [length]_{x^2}."""
    out = []
    for a, n in terms:
        for f, k in simple_factors(p, a):
            if f[0] in COORD_SPECIES:
                out.append((n * k, f[1], p))
            else:
                out.append((n * k, Fraction(alpha(p, f[1], f[2])), f[2]))
    return out


class LaurentPoint:
    """Evaluation of Laurent images at x^(1/den) = z modulo PRIME."""

    def __init__(self, z: int, den: int):
        self.z, self.den = z, den
        self.w = pow(z, 2 * den, PRIME)
        if self.w == 1:
            raise ValueError("degenerate evaluation point")
        self.inv_w1 = pow(self.w - 1, -1, PRIME)

    def value(self, blks, invert: bool = False) -> int:
        total = 0
        for coef, e, length in blks:
            k = e * self.den
            if k.denominator != 1:
                raise ValueError(f"exponent {e} outside the common denominator {self.den}")
            k = int(k)
            geo = (pow(self.w, length, PRIME) - 1) * self.inv_w1
            if invert:
                # [n]_{x^-2} = x^(-2(n-1)) [n]_{x^2}
                k = -k - 2 * (length - 1) * self.den
            total += coef * pow(self.z, k, PRIME) * geo
        return total % PRIME


def common_den(*exprs) -> int:
    den = 1
    for terms in exprs:
        for a, _ in terms:
            if a[0] in COORD_SPECIES:
                den = lcm(den, a[1].denominator)
    return den


def laurent_point(rng, *exprs) -> LaurentPoint:
    den = common_den(*exprs)
    while True:
        try:
            return LaurentPoint(rng.randrange(2, PRIME - 1), den)
        except ValueError:
            continue


def is_projective(p: int, a) -> bool:
    return a[0] in ("P", "R", "F", "V") or (a[0] in ("M", "W") and a[2] == p)


def check_fusion(p: int, x, y, out, rng) -> list:
    """Laurent homomorphism, projective closure and canonical form."""
    problems = check_canonical(out, p)
    pt = laurent_point(rng, x, y, out)
    lhs = pt.value(blocks(p, x)) * pt.value(blocks(p, y)) % PRIME
    if lhs != pt.value(blocks(p, out)):
        problems.append("Laurent image of the product is not the product of the images")
    if any(all(is_projective(p, a) for a, _ in e) for e in (x, y) if e):
        bad = [label(a) for a, _ in out if not is_projective(p, a)]
        if bad:
            problems.append(f"product with a projective has non-projective summands {bad[:3]}")
    return problems


# --- orbifold classes: exact Laurent polynomials mod x^(2pm) - 1 -----------


def _orbifold_blocks(p: int, den: int, terms) -> list:
    return [(c, int(e * den), n) for c, e, n in blocks(p, terms)]


def orbifold_image(p: int, m: int, den: int, terms) -> dict:
    """Exact image, exponents scaled by ``den`` and reduced mod 2pm*den."""
    period = 2 * p * m * den
    poly: dict = {}
    for coef, e, length in _orbifold_blocks(p, den, terms):
        for i in range(length):
            k = (e + 2 * i * den) % period
            poly[k] = poly.get(k, 0) + coef
    return {k: v for k, v in poly.items() if v}


def orbifold_product(p: int, m: int, den: int, x, y) -> dict:
    """Image of a product, block by block: [a]_{x^2} [b]_{x^2} has the
    coefficient min(k+1, a, b, a+b-1-k) at x^(2k)."""
    period = 2 * p * m * den
    poly: dict = {}
    for c1, e1, a in _orbifold_blocks(p, den, x):
        for c2, e2, b in _orbifold_blocks(p, den, y):
            for k in range(a + b - 1):
                e = (e1 + e2 + 2 * k * den) % period
                poly[e] = poly.get(e, 0) + c1 * c2 * min(k + 1, a, b, a + b - 1 - k)
    return {k: v for k, v in poly.items() if v}


def reduce_orbifold(p: int, m: int, a):
    """Orbifold label of a singlet label (induction), or a reduced orbifold label."""
    sp = a[0]
    if sp in ("F", "V"):
        return ("V", a[1] % (2 * p * m))
    r, s = a[1] % (2 * m), a[2]
    if sp in ("P", "R") and s < p:
        return ("R", r, s)
    return ("W", r, s)


def check_orbifold_fusion(p: int, m: int, x, y, out) -> list:
    problems = check_canonical(out, p, m)
    den = common_den(x, y, out)
    if orbifold_product(p, m, den, x, y) != orbifold_image(p, m, den, out):
        problems.append("orbifold Laurent image of the product is not the product of the images")
    if any(all(is_projective(p, a) for a, _ in e) for e in (x, y) if e):
        bad = [label(a) for a, _ in out if not is_projective(p, a)]
        if bad:
            problems.append(f"product with a cover has non-projective summands {bad[:3]}")
    return problems


def induce_expected(p: int, m: int, x) -> list:
    return canonical([(reduce_orbifold(p, m, a), n) for a, n in x])


def simples_expected(p: int, m: int) -> list:
    out = [("W", r, s) for r in range(2 * m) for s in range(1, p + 1)]
    out += [("V", Fraction(j, m)) for j in range(2 * p * m * m) if j % m]
    return sorted(out, key=sort_key)


# --- weights, phases and structure --------------------------------------------


def h_rs(p: int, r: int, s: int) -> Fraction:
    return Fraction((p * r - s) ** 2 - (p - 1) ** 2, 4 * p)


def fock_weight(p: int, q: Fraction) -> Fraction:
    return (q * q + 2 * q * (p - 1)) / (4 * p)


def lowest_weight(p: int, a) -> Fraction:
    if a[0] in ("M", "W"):
        return h_rs(p, max(a[1], 2 - a[1]), a[2])
    if a[0] in ("F", "V"):
        return fock_weight(p, a[1])
    return min(lowest_weight(p, f) for f, _ in simple_factors(p, a))


def coord(p: int, a) -> Fraction:
    return a[1] if a[0] in COORD_SPECIES else Fraction(alpha(p, a[1], a[2]))


def phase_values(cmd: str, p: int, x) -> list:
    """Expected (label, value) rows of grade, twist and monodromy."""
    rows = []
    for a, _ in x:
        if cmd == "grade":
            v = coord(p, a) % 2
        elif cmd == "twist":
            v = lowest_weight(p, a) % 1
        else:
            v = (coord(p, a) / 2) % 1
        rows.append((label(a), v))
    return rows


def loewy_problems(p: int, a, layers) -> list:
    problems = []
    flat = [(f, 1) for layer in layers for f in layer]
    if any(f[0] not in ("M", "F") for f, _ in flat):
        problems.append("Loewy layers hold a non-simple label")
    want = {f: n for f, n in canonical(simple_factors(p, a))}
    if {f: n for f, n in canonical(flat)} != want:
        problems.append("Loewy layers are not the composition factors")
    sp = a[0]
    depth = {"M": 1, "F": 1, "Fa": 2, "P": 3, "G": 1 if sp == "G" and a[2] == p else 2}[sp]
    if len(layers) != depth:
        problems.append(f"{label(a)} should have {depth} Loewy layers, got {len(layers)}")
    elif sp in ("P", "G") and layers[0] != [("M", a[1], a[2])]:
        problems.append(f"top of {label(a)} is not M({a[1]},{a[2]})")
    elif sp == "P" and layers[-1] != layers[0]:
        problems.append(f"socle of {label(a)} differs from its top")
    for layer in layers:
        if [sort_key(f) for f in layer] != sorted(sort_key(f) for f in layer):
            problems.append("a Loewy layer is not sorted")
    return problems


# --- characters --------------------------------------------------------------


class Partitions:
    """Partition numbers p(0..n) by Euler's pentagonal recurrence."""

    def __init__(self):
        self.values = [1]

    def upto(self, n: int) -> list:
        vals = self.values
        for t in range(len(vals), n + 1):
            total, k = 0, 1
            while True:
                g = k * (3 * k - 1) // 2
                if g > t:
                    break
                sign = 1 if k & 1 else -1
                total += sign * vals[t - g]
                if g + k <= t:
                    total += sign * vals[t - g - k]
                k += 1
            vals.append(total)
        return vals


def partitions_by_parts(n: int) -> list:
    """p(0..n) by counting parts one size at a time: O(n^2), a cross-check
    of ``Partitions`` at small n."""
    vals = [1] + [0] * n
    for part in range(1, n + 1):
        for t in range(part, n + 1):
            vals[t] += vals[t - part]
    return vals


def _virasoro_terms(p: int, a, mult: int, limit):
    """Embedding-chain terms (h, gap, mult) of the simple label ``a``.

    A Fock module contributes its lowest weight with no subtraction; an
    atypical simple M(r,s) is the sum of Virasoro irreducibles along
    r0, r0+2, ... with r0 = max(r, 2-r), each with its singular vector
    r*s (r*p when s = p) levels up.  ``limit(h)`` says when to stop.
    """
    if a[0] in COORD_SPECIES:
        yield fock_weight(p, a[1]), None, mult
        return
    r, s = max(a[1], 2 - a[1]), a[2]
    while True:
        h = h_rs(p, r, s)
        if limit(h):
            return
        yield h, (r * p if s == p else r * s), mult
        r += 2


def character(p: int, terms, n: int, parts: Partitions) -> list:
    """[(h0, coeffs)] per weight coset, sorted by h0, exact to order n."""
    simples = [(f, k * mult) for a, mult in terms for f, k in simple_factors(p, a)]
    base: dict = {}
    for f, _ in simples:
        lw = lowest_weight(p, f)
        key = lw % 1
        base[key] = min(base.get(key, lw), lw)
    table = parts.upto(n)
    chains: dict = {}
    for f, mult in simples:
        b = base[lowest_weight(p, f) % 1]
        for h, gap, k in _virasoro_terms(p, f, mult, lambda h: h - b > n):
            key = (h % 1, int(h - b), gap)
            chains[key] = chains.get(key, 0) + k
    acc = {key: [0] * (n + 1) for key in base}
    for (key, off, gap), mult in chains.items():
        row = acc[key]
        for k in range(off, n + 1):
            j = k - off
            row[k] += mult * (table[j] - (table[j - gap] if gap is not None and j >= gap else 0))
    return sorted(((base[key], acc[key]) for key in base), key=lambda t: t[0])


def orbit_lifts(p: int, m: int, a, n: int) -> list:
    """Singlet lifts of an orbifold label whose lowest weight lies within n
    of the orbit minimum, found by walking out from the vertex of the
    (quadratic) weight until it leaves the window on both sides."""
    if a[0] == "V":
        def member(k):
            return ("F", a[1] + 2 * p * m * k)
    else:
        sp = "M" if a[0] == "W" else "P"

        def member(k):
            return (sp, a[1] + 2 * m * k, a[2])

    def lw(k):
        return lowest_weight(p, member(k))

    centre = min(range(-3, 4), key=lw)
    best = lw(centre)
    lifts = [member(centre)]
    for step in (1, -1):
        k = centre + step
        # Beyond the vertex the weight grows monotonically.
        while True:
            w = lw(k)
            if w < best:
                raise AssertionError("orbit weight is not minimal at the chosen vertex")
            if w > best + n:
                break
            lifts.append(member(k))
            k += step
    return lifts


def orbifold_character(p: int, m: int, terms, n: int, parts: Partitions) -> list:
    lifted = [(f, mult) for a, mult in terms for f in orbit_lifts(p, m, a, n)]
    return character(p, lifted, n, parts)


def render_character(series) -> str:
    return "\n".join(f"q^({h0}) * {list(c)}" for h0, c in series) or "0"


def character_from_json(obj) -> list:
    return [(Fraction(c["h0"]), list(c["coeffs"])) for c in obj["cosets"]]


def check_character(series, want) -> list:
    if len(series) != len(want):
        return [f"{len(series)} weight cosets, expected {len(want)}"]
    problems = []
    for (h0, coeffs), (h1, c1) in zip(series, want):
        if h0 != h1:
            problems.append(f"leading exponent {h0}, expected {h1}")
        elif list(coeffs) != c1:
            k = next((i for i, (u, v) in enumerate(zip(coeffs, c1)) if u != v), min(len(coeffs), len(c1)))
            problems.append(f"coefficient {k} of q^({h0}) differs")
    return problems


# --- check suites --------------------------------------------------------------

TYPICAL_COORDS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(5, 6))


def universe(p: int) -> list:
    """The documented test universe: M(r,s), -2 <= r <= 3; P(r,s), -1 <= r <= 2;
    five typical coordinates."""
    out = [("M", r, s) for r in range(-2, 4) for s in range(1, p + 1)]
    out += [("P", r, s) for r in range(-1, 3) for s in range(1, p)]
    out += [("F", q) for q in TYPICAL_COORDS]
    return out


def suite_cases(p: int, m: int | None, product_atoms: int) -> dict:
    """Closed-form case counts of every suite at p (orbifold at m, or m = 1, 2).

    ``product_atoms`` is the number of distinct summands over all ordered
    universe products, which the grading suite checks one by one.
    """
    n = 10 * p + 1
    out = {
        "associativity": n + n * n + n ** 3,
        "kring": n * n,
        "duality": 3 * (n + 4 * (p - 1)) + n * n,
        # products, balancing on simples, factors of P, Fa and G labels,
        # and 50 sample coordinates with the two summands of M(1,2) x F(q)
        "grading": product_atoms + (6 * p + 5) + 12 * (p - 1) + 8 * (p - 1)
        + (5 + 11 * (p - 1)) + 50 * 3,
        "characters": 36 * p - 19,
        "oracle": n * n + 20,
    }
    for mm in ([m] if m is not None else [1, 2]):
        local = n - sum(1 for q in TYPICAL_COORDS if (mm * q).denominator != 1)
        out[f"orbifold(m={mm})"] = 1 + local * local + 2 * mm * p + min(4 * p, 2 * p * mm * mm)
    return out


def parse_check_output(text: str, as_json: bool):
    """(ok, {suite: (cases, failures)}) from `check` output."""
    if as_json:
        obj = json.loads(text)
        return obj["ok"], {s["name"]: (s["cases"], len(s["failures"])) for s in obj["suites"]}
    lines = text.strip().splitlines()
    suites = {}
    for line in lines:
        m = re.match(r"^(\S+): (\d+) cases, (\d+) failures$", line)
        if m:
            suites[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    return bool(lines) and lines[-1] == "PASS", suites


def check_suite_output(text: str, as_json: bool, want: dict) -> list:
    try:
        ok, suites = parse_check_output(text, as_json)
    except (ValueError, KeyError) as exc:
        return [f"unparsable check output: {exc}"]
    problems = [] if ok else ["check did not report PASS"]
    if list(suites) != list(want):
        problems.append(f"suites {list(suites)}, expected {list(want)}")
    for name, cases in want.items():
        got = suites.get(name)
        if got is not None and got != (cases, 0):
            problems.append(f"{name}: {got[0]} cases and {got[1]} failures, expected {cases} and 0")
    return problems
