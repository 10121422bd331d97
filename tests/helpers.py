"""Shared test helpers."""

from singlet.modules import FockTypical, MSimple, Proj
from singlet.orbifold import VTypical, WSimple


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
