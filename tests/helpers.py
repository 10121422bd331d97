"""Shared test helpers."""

from singlet.characters import CharacterSum, QSeries, partition_numbers
from singlet.modules import FockTypical, MSimple, Proj, as_expr, k_class, lowest_weight, normalize_atom
from singlet.orbifold import VTypical, WSimple
from singlet.weights import h_rs


def orbit_lift(op, atom, n):
    """The singlet lift of an orbifold label n orbit steps from its canonical
    lift: W(r,s) -> M(r + 2mn, s), R(r,s) -> P(r + 2mn, s), V(q) -> F(q + 2pmn)."""
    if isinstance(atom, VTypical):
        return FockTypical(atom.q + n * op.q_modulus)
    species = MSimple if isinstance(atom, WSimple) else Proj
    return species(atom.r + n * op.r_modulus, atom.s)


def random_expr_text(rng, orbifold=False):
    """Random valid expression text at p = 2 (m = 2 for the orbifold family),
    with haphazard whitespace, explicit 1* multiplicities, and unsorted terms."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        mult = rng.choice(["", "1*", "2*", "3*", "12*"])
        if orbifold:
            kind = rng.choice(["W", "V", "R"])
            if kind == "V":
                atom = f"V({rng.choice([1, 3, 5, 7, -1, -3])}/2)"
            else:
                s = rng.randint(1, 1 if kind == "R" else 2)
                atom = f"{kind}({rng.randint(-6, 6)},{s})"
        else:
            kind = rng.choice(["M", "P", "F", "Fa", "G"])
            if kind == "F":
                den = rng.choice([2, 3, 4, 5])
                num = rng.choice([n for n in range(-12, 13) if n % den != 0])
                atom = f"F({num}/{den})"
            else:
                s = rng.randint(1, 1 if kind in ("P", "Fa") else 2)
                atom = f"{kind}({rng.randint(-9, 9)},{s})"
        pad = rng.choice(["", " ", "  "])
        terms.append(f"{pad}{mult}{atom}{pad}")
    return "+".join(terms)


def ch_expr_by_terms(params, x, n):
    """Oracle for ``characters.ch_expr``: every Fock factor and every
    embedding-chain term of every summand is summed into the coefficients
    on its own, term by term, with no numerator shared between them."""
    by_coset = {}
    for atom, mult in as_expr(x).terms():
        atom = normalize_atom(params, atom)
        lw = lowest_weight(params, atom)
        by_coset.setdefault(lw % 1, []).append((atom, mult, lw))
    out = {}
    for key, atoms in by_coset.items():
        base = min(lw for _, _, lw in atoms)
        acc = [0] * (n + 1)
        for atom, mult, _ in atoms:
            _add_atom_coeffs(params, atom, mult, base, acc)
        out[key] = QSeries(base, acc)
    return CharacterSum(out)


def _add_atom_coeffs(params, atom, mult, base, acc):
    """Add the graded dimensions of ``atom`` into acc[k] ~ weight base + k."""
    depth = len(acc) - 1
    p = params.p
    for factor, fmult in k_class(params, atom).terms():
        fmult *= mult
        if isinstance(factor, FockTypical):
            off = lowest_weight(params, factor) - base
            if off > depth:
                continue
            assert off.denominator == 1 and off >= 0
            off = int(off)
            part = partition_numbers(depth - off)
            for k in range(off, depth + 1):
                acc[k] += fmult * part[k - off]
        else:
            r0 = max(factor.r, 2 - factor.r)
            s = factor.s
            i = 0
            while True:
                r = r0 + 2 * i
                off = h_rs(params, r, s) - base
                if off > depth:
                    break
                assert off.denominator == 1 and off >= 0
                off = int(off)
                gap = r * p if s == p else r * s
                part = partition_numbers(depth - off)
                for k in range(off, depth + 1):
                    j = k - off
                    acc[k] += fmult * (part[j] - (part[j - gap] if j >= gap else 0))
                i += 1
