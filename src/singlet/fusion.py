"""Tensor products of module expressions.

One table, ``_CLOSED_FORMS``, gives every product of two labels: a
private rule per species pair, on two normalized labels in canonical order
(M <= F <= P).  :func:`fuse` is the one public way to take a product; it
validates and normalizes each label once, at its boundary, so the rules
check nothing.  Of several bad labels, every product reports the first of
``x`` in canonical order, else the first of ``y`` (``_operand``).
One exactness rule serves F x P and P x P: for a projective a (a typical
F(q) or a P), a x - is exact and lands in projectives, where every short
exact sequence splits, so a x P is the sum of a x f over the composition
factors f of P, each by the rule of M x a.  The typical rules (M x F,
and F x F) read alpha_{r,s} and its inverse from :mod:`modules`.
Tensoring is exact, so the Grothendieck-ring product (:func:`k_product`)
is the class of the fusion product of the classes.
Inverting the injective projective-to-K-class map by a top-down peel
(:func:`projective_decompose`) derives every product with a projective
operand a second way, and the ``kring`` suite compares the two.

:func:`fuse` works on int ids.  Each p has one table of interned labels
(``_Table``); a product row is cached once per unordered pair of ids as a
flat tuple of ids and multiplicities.  Products commute with the simple
current J = M(2,1): J^a X x J^b Y = J^(a+b) (X x Y), since every rule
depends on r only through r + r' - 1.  So a closed form runs once per
J-orbit of label pairs, on the first pair of it that the table meets, and
every later pair of that orbit pair reads the row of that first pair
through the cache and moves its ids by J^k (:func:`modules.orbit` names
the orbit of a label and its place in it).  Every row lives in the cache
of ``_fuse_atoms`` alone: a table's ``exemplars`` names the first pair of
each orbit pair, not its row, so ``_fuse_atoms.cache_clear()`` resets
every product; a library test checks that every rule commutes with J.
``_Table.product`` is the one loop that adds rows: it sums the
rows of every pair of terms into one ``{id: mult}`` dict, and reads the
product of two single labels straight from their row, in one call.
:func:`fuse` maps its operands to ids, calls it and reads the ids back as
labels.  ``product`` is symmetric in its operands, and the
``associativity`` suite relies on that: it calls it on the cached rows
themselves, compares the dicts of (x y) z and x (y z) once per y and
unordered pair {x, z}, and records the result for both orders.

:func:`chebyshev_fuse` is an independent derivation path used as an oracle:
it reduces every product to the degenerate-field recursion
``X x M(1,s+1) = (X x M(1,s)) x M(1,2) - X x M(1,s-1)`` together with
simple-current index shifts, starting from hand-written ``M(1,2) x -``
base products only.  M(1,2) x - commutes with J = M(2,1), so each ladder
runs on keys relative to its start label, standing for class(r + d, b),
or F(q + d) when b = 0; a key is the one int d * 2p + code(class, b),
for one of 2p codes.  A base row (``_m12_row``) depends only on the code,
so each of its terms moves a key by a fixed int: at most 2p rows per
call, made on first use and dropped with the call.  Labels are made only
for the answer, from the start label moved by :func:`modules.shift`.
Each pair is put in canonical order first: an M operand runs the
T-ladder on the other, a P operand the U-ladder on the other, and F x F,
which has no recursion, reads ``_CLOSED_FORMS`` as :func:`fuse` does, so
one ``setitem`` there plants a rule fault in both derivations.  The
oracle never reads the id tables or cached rows of :func:`fuse`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .errors import (
    DomainError,
    NotProjectiveClass,
    OracleSubtractionFailure,
    SingletError,
    UnsupportedSpecies,
)
from .modules import (
    FockTypical,
    ModuleExpr,
    MSimple,
    Proj,
    _layers,
    alpha,
    alpha_label,
    as_expr,
    as_label,
    k_class,
    label,
    normalize_atom,
    orbit,
    shift,
    sort_key,
)
from .weights import Params

__all__ = [
    "fuse",
    "k_product",
    "projective_decompose",
    "chebyshev_fuse",
]


def _ranges(p: int, s: int, s2: int) -> tuple:
    """The labels A(s,s2) = |s-s2|+1, ..., min(s+s2-1, 2p-1-s-s2) and
    B(s,s2) = 2p+1-s-s2, ..., p, stepping by 2 (empty when the bounds cross)."""
    a = range(abs(s - s2) + 1, min(s + s2 - 1, 2 * p - 1 - s - s2) + 1, 2)
    return a, range(2 * p + 1 - s - s2, p + 1, 2)


def _simple_simple(params: Params, a, b) -> ModuleExpr:
    """M(r,s) x M(r2,s2): M(R,l) for l in A(s,s2) and P(R,l) for l in
    B(s,s2), with R = r + r2 - 1."""
    rr = a.r + b.r - 1
    simple, projective = _ranges(params.p, a.s, b.s)
    return ModuleExpr.of(
        *(MSimple(rr, l) for l in simple),
        *(normalize_atom(params, Proj(rr, l)) for l in projective),
    )


def _simple_typical(params: Params, a, b) -> ModuleExpr:
    """M(r,s) x F(q): the s typical Fock modules F(q + alpha_{r,s} + 2l),
    0 <= l < s, stepping by the short root."""
    q = b.q + alpha(params.p, a.r, a.s)
    return ModuleExpr.of(*(FockTypical(q + 2 * l) for l in range(a.s)))


def _simple_proj(params: Params, a, b) -> ModuleExpr:
    """M(r2,s2) x P(r,s): P(R,l) for l in A(s,s2), 2 P(R,l) for l in
    B(s,s2), and P(R-1,l) + P(R+1,l) for l in B(p-s,s2); R = r + r2 - 1."""
    p = params.p
    rr = b.r + a.r - 1
    once, twice = _ranges(p, b.s, a.s)
    flanks = _ranges(p, p - b.s, a.s)[1]
    return ModuleExpr.of(
        *(normalize_atom(params, Proj(rr, l)) for l in chain(once, twice, twice)),
        *(normalize_atom(params, Proj(r0, l)) for l in flanks for r0 in (rr - 1, rr + 1)),
    )


def _typical_typical(params: Params, a, b) -> ModuleExpr:
    """F(q) x F(q2): off the integral coset, p Fock modules; on it, the
    unique nonnegative projective sum prescribed by the coset parameters."""
    p = params.p
    total = a.q + b.q
    if total.denominator != 1:
        return ModuleExpr.of(*(FockTypical(total + 2 * l) for l in range(p)))
    r, s = alpha_label(p, int(total) - (2 - 2 * p))
    return ModuleExpr.of(
        *(normalize_atom(params, Proj(r, s2)) for s2 in range(s, p + 1, 2)),
        *(normalize_atom(params, Proj(r - 1, s2)) for s2 in range(p + 2 - s, p + 1, 2)),
    )


def _exact_proj(params: Params, a, b) -> ModuleExpr:
    """F(q) x P and P x P: a is projective, so a x - is exact and lands in
    projectives, and a x b is the sum of a x f, by the M x type(a) rule,
    over the composition factors f of b."""
    rule = _CLOSED_FORMS[MSimple, type(a)]
    return ModuleExpr.combine((n, rule(params, f, a)) for f, n in k_class(params, b).items())


# The rule of each canonical species pair (MSimple <= FockTypical <= Proj),
# on two labels in that order; read by ``_fuse_atoms``, and for F x F by
# the oracle.  Every label a rule meets has passed ``_fusable``, so the
# rules check nothing.  ``_exact_proj`` serves both pairs with a projective
# second operand and a non-simple first one, F x P and P x P.
_CLOSED_FORMS = {
    (MSimple, MSimple): _simple_simple,
    (MSimple, FockTypical): _simple_typical,
    (MSimple, Proj): _simple_proj,
    (FockTypical, FockTypical): _typical_typical,
    (FockTypical, Proj): _exact_proj,
    (Proj, Proj): _exact_proj,
}


def k_product(params: Params, a, b) -> ModuleExpr:
    """Grothendieck-ring product of two expressions: the K-class of the
    fusion product of their K-classes.

    Tensoring is exact, so [X][Y] = [X x Y].  A K-class holds only simple
    labels, so this needs only the closed forms of simple pairs."""
    return k_class(params, fuse(params, k_class(params, a), k_class(params, b)))


def projective_decompose(params: Params, k) -> ModuleExpr:
    """Invert the K-class map on direct sums of indecomposable projectives.

    Typical and s = p labels are read off directly.  For s < p, the largest
    label of the class of P(r,s) in (r, s) order is M(r+1,p-s), and no other
    projective has that largest label.  So the remaining labels are peeled
    from the top down: the count c of the largest remaining label M(r,s)
    fixes c P(r-1,p-s), and c times its class is subtracted, read from
    ``modules._layers`` as ``k_class`` reads it (a ``k_class`` call per step
    doubled the peel's time).  A negative count raises NotProjectiveClass.
    """
    p = params.p
    out: dict = {}
    rest: dict = {}
    for atom, mult in as_expr(k).terms():
        atom = normalize_atom(params, atom)
        if isinstance(atom, FockTypical) or (isinstance(atom, MSimple) and atom.s == p):
            out[atom] = out.get(atom, 0) + mult
        elif isinstance(atom, MSimple):
            rest[atom.r, atom.s] = mult
        else:
            raise DomainError(f"K-class must contain only simple labels, got {label(atom)}")
    for r, s in sorted(rest, reverse=True):
        c = rest[r, s]
        if not c:
            continue
        cover = Proj(r - 1, p - s)
        out[cover] = c
        for f in chain.from_iterable(_layers(p, cover)):
            left = rest.get((f.r, f.s), 0) - c
            if left < 0:
                raise NotProjectiveClass("no nonnegative integer projective decomposition")
            rest[f.r, f.s] = left
    return ModuleExpr._trusted(out)


_FUSABLE = (MSimple, FockTypical, Proj)


def _fusable(params: Params, atom):
    """The normalized form of a fusable atom; raises on any other label."""
    atom = normalize_atom(params, atom)
    if not isinstance(atom, _FUSABLE):
        raise UnsupportedSpecies(f"fusion is not defined for {label(atom)}")
    return atom


def _operand(params: Params, x) -> ModuleExpr:
    """An operand of a product (an expression or a single label) with every
    label normalized and fusable; raises at its first bad label in canonical
    order.  Every product reads x before y, so of several bad labels it
    reports the first of x, else the first of y."""
    return as_expr(x).expand(lambda atom: (_fusable(params, atom),))


class _Table:
    """The interned fusable labels of one :class:`Params`.

    ``index`` maps every label seen, both as given and normalized, to the
    id of its normalized form; ``atoms`` maps an id back to that label, so
    equal labels are one object.  A label is validated once, on its first
    sighting; ``P(r,p)`` shares the id of ``M(r,p)``.  Tables are never
    shared between values of p: a label valid at one p may be invalid at
    another.

    ``place`` maps the :func:`modules.orbit` ``(key, d)`` of a label met
    by a moved row to its id, so a label J^k away from one met before is
    found from ints, with no label made; any other is made once, by
    :func:`modules.shift`.  ``exemplars`` maps a pair of orbit keys to the
    sum of the operands' d and the ids of the first pair met of that orbit
    pair: every other row of it is that pair's cached row moved by J^k
    (:meth:`moved`).  A table holds no row, only what the rules do not
    change: the labels, ``place``, and which pair came first.
    """

    __slots__ = ("params", "index", "atoms", "place", "exemplars")

    def __init__(self, params: Params):
        self.params = params
        self.index: dict = {}
        self.atoms: list = []
        self.place: dict = {}
        self.exemplars: dict = {}

    def intern(self, atom) -> int:
        """Id of an atom known to be normalized and fusable."""
        i = self.index.get(atom)
        if i is None:
            i = self.index[atom] = len(self.atoms)
            self.atoms.append(atom)
        return i

    def moved(self, row: tuple, k: int) -> tuple:
        """The flat row ``row`` with each label moved by J^k."""
        if not k:
            return row
        params, atoms, place = self.params, self.atoms, self.place
        out = []
        terms = iter(row)
        for i, mult in zip(terms, terms):
            key, d = orbit(params, atoms[i])
            j = place.get((key, d + k))
            if j is None:
                j = place[key, d + k] = self.intern(shift(params, atoms[i], k))
            out += (j, mult)
        return tuple(out)

    def ids(self, x) -> list:
        """The terms of ``x`` (an expression or a single label) as the flat
        list ``[id, mult, id, mult, ...]``, in dict order; raises at the
        first bad label."""
        index = self.index
        out = []
        for atom, mult in x.items() if isinstance(x, ModuleExpr) else ((as_label(x), 1),):
            i = index.get(atom)
            if i is None:
                i = index[atom] = self.intern(_fusable(self.params, atom))
            out += (i, mult)
        return out

    def row(self, i: int, j: int) -> tuple:
        """The cached product row of the labels with ids ``i`` and ``j``."""
        return _fuse_atoms(self, i, j) if i <= j else _fuse_atoms(self, j, i)

    def product(self, xs, ys) -> dict:
        """Product of two flat ``(id, mult, ...)`` sequences, as ``{id: mult}``.

        Every pair of terms is one cached row of :func:`_fuse_atoms`, and
        the rows are added into one dict.  Ids map one-to-one to normalized
        labels, so two such dicts are equal exactly when the expressions
        they stand for are.  The product of two single labels is their row
        itself, read into a dict in one call: a row holds each id once."""
        if len(xs) == 2 == len(ys) and xs[1] == 1 == ys[1]:
            row = iter(self.row(xs[0], ys[0]))
            return dict(zip(row, row))
        acc: dict = {}
        get = acc.get
        row_of = self.row
        x_terms = iter(xs)
        for i, ma in zip(x_terms, x_terms):
            y_terms = iter(ys)
            for j, mb in zip(y_terms, y_terms):
                row = iter(row_of(i, j))
                n = ma * mb
                for k, mult in zip(row, row):
                    acc[k] = get(k, 0) + n * mult
        return acc


_TABLES: dict = {}


def id_table(params: Params) -> _Table:
    """The id table of ``params``, made on first use.  Tables are keyed by
    the int p, which hashes faster than a Params: every fuse call looks one up."""
    t = _TABLES.get(params.p)
    if t is None:
        t = _TABLES[params.p] = _Table(params)
    return t


@lru_cache(maxsize=None)
def _fuse_atoms(t: _Table, i: int, j: int) -> tuple:
    """Product row of the labels with ids ``i <= j`` in table ``t``, as the
    flat tuple ``(id, mult, id, mult, ...)``; the cache keeps one row per
    unordered pair, and it is the only store of rows.  On a miss at a pair
    whose orbit pair has an exemplar on ``t`` other than itself, the row of
    the exemplar pair is read through the cache and moved by J^k, k the
    difference of the two d-sums.  Otherwise the two labels are put in
    canonical order (MSimple <= FockTypical <= Proj, then by
    :func:`sort_key`), the closed form of the pair is applied, the row's
    labels (already normalized by the rules) are interned, and the pair
    becomes the exemplar of its orbit pair.  So ``cache_clear()`` resets
    every row: a moved row is made again from its exemplar's, and that
    from the rules in force.  ``_TABLES.clear()`` only forgets interned
    labels; the old rows stay in the cache, unreachable, until
    ``cache_clear()``."""
    a, b = t.atoms[i], t.atoms[j]
    (ki, di), (kj, dj) = orbit(t.params, a), orbit(t.params, b)
    d0, i0, j0 = t.exemplars.get((ki, kj), (0, i, j))
    if (i0, j0) != (i, j):
        return t.moved(_fuse_atoms(t, i0, j0), di + dj - d0)
    if sort_key(b) < sort_key(a):
        a, b = b, a
    row = _CLOSED_FORMS[type(a), type(b)](t.params, a, b)
    intern = t.intern
    t.exemplars[ki, kj] = t.exemplars[kj, ki] = (di + dj, i, j)
    return tuple(chain.from_iterable((intern(atom), mult) for atom, mult in row.items()))


def fuse(params: Params, x, y) -> ModuleExpr:
    """Tensor product of two module expressions, bilinear over direct sums.

    Both operands are mapped to flat ``(id, mult, ...)`` terms through the
    id table of ``params``, multiplied by :meth:`_Table.product`, and the
    ids of the sum are read back as labels once.  Equal labels of
    different products are one object, so the sum and the comparison of
    products meet them by identity.  Errors are those of :func:`_operand`:
    the first bad label of ``x`` in canonical order, else the first of
    ``y``, a zero ``x`` included.
    """
    t = id_table(params)
    try:
        xs, ys = t.ids(x), t.ids(y)
    except SingletError:
        # Some label is bad: the operands, read in order, raise the one to report.
        _operand(params, x)
        _operand(params, y)
        raise
    atoms = t.atoms
    return ModuleExpr._trusted({atoms[k]: mult for k, mult in t.product(xs, ys).items()})


# --- independent recursion oracle ---------------------------------------


def _m12_row(p: int, cls, b: int) -> list:
    """Hand-written base product M(1,2) x cls(r,b), or M(1,2) x F(q) when
    b = 0, as ``(class, d, b2, mult)`` terms: mult copies of class(r + d, b2),
    or of F(q + d) when b2 = 0.  M(1,2) commutes with J, so the row is the
    same at every r (or q)."""
    if cls is FockTypical:
        return [(FockTypical, -1, 0, 1), (FockTypical, 1, 0, 1)]
    if cls is MSimple:
        if b == p:
            return [(Proj, 0, p - 1, 1)]
        return [(MSimple, 0, b2, 1) for b2 in (b - 1, b + 1) if 1 <= b2 <= p]
    # Proj(r, b), 1 <= b <= p-1; the b = p-1 product picks up the simple
    # projective twice, and "P(r,0)" stands for M(r-1,p) + M(r+1,p).
    if b == p - 1:
        return [(MSimple, 0, p, 2), *_proj_edge(p, p - 2)]
    return [*_proj_edge(p, b - 1), *_proj_edge(p, b + 1)]


def _proj_edge(p: int, k: int) -> list:
    if k == 0:
        return [(MSimple, -1, p, 1), (MSimple, 1, p, 1)]
    return [(Proj, 0, k, 1)]


def _code(p: int, cls, b: int) -> int:
    """The code in [0, 2p) of a ladder class and b: 0 for F, b for M(., b)
    and p + b for P(., b)."""
    return b if cls is MSimple else p + b if cls is Proj else 0


def _decode(p: int, code: int) -> tuple:
    """The class and b of a :func:`_code`."""
    if not code:
        return FockTypical, 0
    return (MSimple, code) if code <= p else (Proj, code - p)


def _at(p: int, start, key: int):
    """The label of a ladder key ``d * 2p + code(class, b)`` that starts at
    ``start``: class(r + d, b), or F(q + d) when b = 0."""
    d, code = divmod(key, 2 * p)
    cls, b = _decode(p, code)
    return cls(start.r + d, b) if b else FockTypical(start.q + d)


def _sub(p: int, start, acc: dict, rung: dict, n: int = 1) -> dict:
    """acc - n * rung, in place, on a ladder from ``start``; a count that
    would go negative raises OracleSubtractionFailure."""
    for key, mult in rung.items():
        left = acc.get(key, 0) - n * mult
        if left < 0:
            raise OracleSubtractionFailure(
                f"multiset subtraction went negative at {label(_at(p, start, key))}"
            )
        if left:
            acc[key] = left
        else:
            del acc[key]
    return acc


class _Ladder:
    """The recursion ladders of one :func:`chebyshev_fuse` call.  A rung is
    a ``{key: mult}`` dict on the int keys of :func:`_at`, and
    ``rows[code]`` is the base row of :func:`_m12_row` for that code, made
    on first use as ``(key step, mult)`` pairs: the base row of a key is
    the same at every d, so each of its terms moves the key by a fixed int."""

    __slots__ = ("params", "rows")

    def __init__(self, params: Params):
        self.params = params
        self.rows: list = [None] * (2 * params.p)

    def _steps(self, code: int) -> list:
        """The base row of ``code`` as ``(key step, mult)`` pairs."""
        p = self.params.p
        return [
            (d2 * 2 * p + _code(p, cls2, b2) - code, n)
            for cls2, d2, b2, n in _m12_row(p, *_decode(p, code))
        ]

    def m12(self, rung: dict) -> dict:
        """M(1,2) x rung."""
        acc: dict = {}
        get = acc.get
        rows = self.rows
        width = len(rows)
        for key, mult in rung.items():
            row = rows[key % width]
            if row is None:
                code = key % width
                row = rows[code] = self._steps(code)
            for step, n in row:
                k = key + step
                acc[k] = get(k, 0) + mult * n
        return acc

    def t_ladder(self, atom, s: int) -> dict:
        """atom x M(1,s), by the degenerate-field recursion."""
        p = self.params.p
        prev = {_code(p, type(atom), getattr(atom, "s", 0)): 1}
        if s == 1:
            return prev
        cur = self.m12(prev)
        for _ in range(s - 2):
            prev, cur = cur, _sub(p, atom, self.m12(cur), prev)
        return cur

    def u_ladder(self, atom, s: int) -> dict:
        """atom x P(1,s) for 1 <= s <= p-1, descending from atom x M(1,p):
        the first step down subtracts 2 atom x M(1,p), every later one the
        rung above."""
        above = self.t_ladder(atom, self.params.p)
        cur, n = self.m12(above), 2  # atom x P(1,p-1)
        for _ in range(self.params.p - 1 - s):
            above, cur, n = cur, _sub(self.params.p, atom, self.m12(cur), above, n), 1
        return cur

    def pair(self, a, b) -> ModuleExpr:
        """a x b for two normalized fusable labels, put in canonical order
        (M <= F <= P, then by :func:`sort_key`) first, as in :func:`_fuse_atoms`."""
        if sort_key(b) < sort_key(a):
            a, b = b, a
        if isinstance(a, MSimple):
            start, rung, k = b, self.t_ladder(b, a.s), a.r - 1
        elif isinstance(b, Proj):
            start, rung, k = a, self.u_ladder(a, b.s), b.r - 1
        else:
            return _CLOSED_FORMS[FockTypical, FockTypical](self.params, a, b)
        # The ladders ran at r = 1; J^k moves the start, and so the result,
        # to the operand's r.
        start = shift(self.params, start, k)
        p = self.params.p
        return ModuleExpr._trusted({_at(p, start, key): mult for key, mult in rung.items()})


def chebyshev_fuse(params: Params, x, y) -> ModuleExpr:
    """Recursion-oracle tensor product; must agree with :func:`fuse`."""
    xs, ys = _operand(params, x).terms(), _operand(params, y).terms()
    ladder = _Ladder(params)
    return ModuleExpr.combine((ma * mb, ladder.pair(a, b)) for a, ma in xs for b, mb in ys)
