"""Finite forest algebras as explicit tables.

A forest algebra here is a pair of finite monoids: a horizontal monoid H
(written additively, identity printed ``0``) acted on by a vertical monoid V
(written multiplicatively, identity printed ``1``).  Throughout the package H
is required to be idempotent and commutative, which forces a unique absorbing
element, printed ``inf``.  V is required to contain, for every g in H, an
insertion element acting as h -> g + h; this keeps images of contexts inside
V and makes syntactic quotients work.

Tables are plain nested tuples of element indices.  Structural problems
(ragged tables, out-of-range entries) raise StructuralError at construction;
algebraic law violations are reported by check_axioms() instead.

Besides the tables, the module builds generated algebras (H and the rows
of V's generators; ForestAlgebra closes V the first time V or the action
is read, and nothing else in the package closes it), the two
building-block algebras, and the horizontal collapse of a reachability
ideal from which reach builds quotients as generated algebras.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .errors import IdealViolation, StructuralError
from .joint import closure

DEFAULT_MAX_VERTICAL = 200_000


def _check_table(table, rows, cols, size, what):
    """Raise StructuralError unless ``table`` has ``rows`` rows of ``cols``
    int entries in range(size).

    A well-formed table passes three C-level passes: the row lengths, the
    sum of the entries, and the set of their values.  A sum of ints is an
    int; a float or another kind of number among them makes it another
    type, and None or a string raises TypeError.  Any other table is
    walked entry by entry for the error message; like the sum, the walk
    accepts bools and other int subclasses.
    """
    try:
        ints = (len(table) == rows and set(map(len, table)) <= {cols}
                and type(sum(chain.from_iterable(table))) is int)
    except TypeError:
        ints = False
    if ints:
        values = set().union(*table)
        if not values or (min(values) >= 0 and max(values) < size):
            return
    if len(table) != rows:
        raise StructuralError("%s: expected %d rows, got %d" % (what, rows, len(table)))
    for i, row in enumerate(table):
        if len(row) != cols:
            raise StructuralError("%s: row %d is ragged" % (what, i))
        for x in row:
            if not isinstance(x, int) or not (0 <= x < size):
                raise StructuralError("%s: entry %r out of range" % (what, x))


def _after(row):
    """The map r -> (r[row[0]], r[row[1]], ...): a row r after ``row``."""
    if len(row) == 1:
        return lambda r: (r[row[0]],)
    return itemgetter(*row)


class FiniteMonoid:
    """A finite monoid given by its multiplication table.

    The table may be supplied row by row through ``row_fn``; rows are then
    materialized on first use.  Generated vertical monoids can be large, and
    the decision procedures touch only a few products, so this keeps them
    cheap while the ``op`` property still yields the full table when a file
    is printed or the laws are checked.
    """

    __slots__ = ("size", "identity", "names", "_rows", "_row_fn")

    def __init__(self, op, identity, names=None, row_fn=None, size=None):
        if op is not None:
            rows = [tuple(row) for row in op]
            size = len(rows)
            _check_table(rows, size, size, size, "monoid table")
        else:
            if row_fn is None or size is None:
                raise StructuralError("need either a table or row_fn with size")
            rows = [None] * size
        if not isinstance(identity, int) or not (0 <= identity < size):
            raise StructuralError("identity index %r out of range" % (identity,))
        if names is None:
            names = tuple("e%d" % i for i in range(size))
        names = tuple(names)
        if len(names) != size or len(set(names)) != size:
            raise StructuralError("need %d distinct element names" % size)
        self.size = size
        self.identity = identity
        self.names = names
        self._rows = rows
        self._row_fn = row_fn

    def row(self, i):
        r = self._rows[i]
        if r is None:
            r = tuple(self._row_fn(i))
            _check_table((r,), 1, self.size, self.size, "lazy monoid row %d" % i)
            self._rows[i] = r
        return r

    @property
    def op(self):
        return tuple(self.row(i) for i in range(self.size))

    def mul(self, i, j):
        return self.row(i)[j]

    def check(self):
        """Return law violations (associativity, identity) as Violation list."""
        out = []
        op = self.op
        n = self.size
        e = self.identity
        for i in range(n):
            if op[e][i] != i or op[i][e] != i:
                out.append(Violation("identity", (self.names[e], self.names[i]),
                                     "identity is not neutral"))
        # (xy)z = x(yz) for every z says that row xy is row x after row y
        after = [_after(row) for row in op]
        for i, row_i in enumerate(op):
            for j in range(n):
                row_ij = op[row_i[j]]
                composed = after[j](row_i)
                if row_ij == composed:
                    continue
                for k in range(n):
                    if row_ij[k] != composed[k]:
                        out.append(Violation(
                            "associativity",
                            (self.names[i], self.names[j], self.names[k]),
                            "(xy)z != x(yz)"))
                        if len(out) > 20:
                            return out
        return out


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple
    detail: str = ""

    def __str__(self):
        msg = "%s violated at %s" % (self.law, "/".join(str(w) for w in self.witness))
        if self.detail:
            msg += ": " + self.detail
        return msg


class ForestAlgebra:
    """H, V and the action of V on H, all as explicit tables.

    ``generators`` holds the action rows of vertical elements that generate
    V, and they are V's first elements, named ``generator_names``: all of
    ``action`` and ``V.names`` for an algebra given by its tables.  An
    algebra made by generated_algebra() holds only H and its generators,
    and closes V and ``action`` when either is first read.
    """

    generated = False

    def __init__(self, H, V, action, faithful=False):
        if not isinstance(H, FiniteMonoid) or not isinstance(V, FiniteMonoid):
            raise StructuralError("H and V must be FiniteMonoid instances")
        action = tuple(tuple(row) for row in action)
        _check_table(action, V.size, H.size, H.size, "action table")
        self.H = H
        self.V = V
        self.action = action
        self.generators = action
        self.generator_names = V.names
        self.faithful = faithful

    @cached_property
    def V(self):
        """A generated algebra's V: its generators closed under composition,
        so the action rows are the elements and identical ones are merged.
        Element i past the generators is named ``v<i>``, renamed by
        _fresh().  Sets ``action`` too; raises SizeLimitError past
        DEFAULT_MAX_VERTICAL elements.
        """
        index = closure(self.generators, self.generators,
                        lambda ra, rb: _after(rb)(ra),
                        None, DEFAULT_MAX_VERTICAL, "vertical closure")
        rows = self.action = tuple(index)
        used = set(self.generator_names)
        names = self.generator_names + tuple(
            _fresh("v%d" % i, i, used) for i in range(len(self.generators), len(rows)))

        def vrow(a):
            return tuple(index[_after(rb)(rows[a])] for rb in rows)

        return FiniteMonoid(None, 0, names, row_fn=vrow, size=len(rows))

    @cached_property
    def action(self):
        self.V  # closing V sets the action
        return self.action

    # -- basic operations ---------------------------------------------------

    @property
    def zero(self):
        return self.H.identity

    @property
    def one(self):
        return self.V.identity

    def plus(self, h, g):
        return self.H.mul(h, g)

    def times(self, v, w):
        return self.V.mul(v, w)

    def act(self, v, h):
        return self.vrow(v)[h]

    def vrow(self, v):
        """V's element v as an action row; a generator's never closes V."""
        return self.generators[v] if v < len(self.generators) else self.action[v]

    def hname(self, h):
        return self.H.names[h]

    def vname(self, v):
        return self.V.names[v]

    def absorbing(self):
        """Sum of all of H; the unique absorbing element when H is valid."""
        h = self.zero
        for g in range(self.H.size):
            h = self.plus(h, g)
        return h

    def summary(self):
        return "|H|=%d |V|=%d" % (self.H.size, self.V.size)

    # -- law checking -------------------------------------------------------

    def check_axioms(self):
        """Report every violated law; the empty list means the algebra is valid.

        Checked: both monoid structures, commutativity and idempotence of H,
        the monoid-action laws, insertion closure, and (when the faithful
        flag is set) faithfulness of the action.

        A generated algebra's V is the closure of its generators, which
        include every insertion, under composition of maps H -> H, so only
        H's laws can fail there and V is never built.  Otherwise V's own
        laws are checked only when the action does not settle them: if 1
        acts as the identity, vw acts as v after w and distinct elements
        act distinctly, then v -> row_v is an injective monoid map into
        the maps H -> H, and associativity and identity follow.
        """
        out = [Violation("H-" + violation.law, violation.witness, violation.detail)
               for violation in self.H.check()]
        hn = self.H.names
        plus = self.H.op
        n = self.H.size
        horizontal = []
        for h in range(n):
            for g in range(n):
                if plus[h][g] != plus[g][h]:
                    horizontal.append(Violation("H-commutativity", (hn[h], hn[g]),
                                                "h+g != g+h"))
            if plus[h][h] != h:
                horizontal.append(Violation("H-idempotence", (hn[h],), "h+h != h"))
        if self.generated:
            return out + horizontal
        V, action = self.V, self.action
        vn = V.names
        one = V.identity
        acting = []
        for h in range(n):
            if action[one][h] != h:
                acting.append(Violation("action-identity", (vn[one], hn[h]), "1.h != h"))
        after = [_after(row) for row in action]
        for v, row_v in enumerate(action):
            times_v = V.row(v)
            for w, row_w in enumerate(action):
                row_vw = action[times_v[w]]
                if row_vw != after[w](row_v):
                    h = next(h for h in range(n) if row_vw[h] != row_v[row_w[h]])
                    acting.append(Violation("action-composition", (vn[v], vn[w], hn[h]),
                                            "(vw).h != v.(w.h)"))
        first = {}  # action row -> least vertical element acting so
        for v, row in enumerate(action):
            first.setdefault(row, v)
        if acting or len(first) < V.size:
            out += [Violation("V-" + violation.law, violation.witness, violation.detail)
                    for violation in V.check()]
        out += horizontal + acting
        for g in range(n):
            if plus[g] not in first:
                out.append(Violation("insertion-closure", (hn[g],),
                                     "no vertical element acts as h -> %s+h" % hn[g]))
        if self.faithful:
            for v, row in enumerate(action):
                if first[row] != v:
                    out.append(Violation("faithfulness", (vn[first[row]], vn[v]),
                                         "distinct elements act identically"))
        return out


def check_axioms(alg):
    return alg.check_axioms()


# ---------------------------------------------------------------------------
# Construction from a horizontal monoid and generating vertical actions

def _canonical_names(plus_table, identity, given=None):
    """Names with the identity printed 0 and the absorbing element inf."""
    n = len(plus_table)
    absorbing = identity
    for g in range(n):
        absorbing = plus_table[absorbing][g]
    names = list(given) if given is not None else [None] * n
    names[identity] = "0"
    if absorbing != identity:
        names[absorbing] = "inf"
    used = {names[identity], names[absorbing]}
    fresh = 1
    for i in range(n):
        if names[i] is None or (names[i] in used and i not in (identity, absorbing)):
            while "h%d" % fresh in used:
                fresh += 1
            names[i] = "h%d" % fresh
        used.add(names[i])
    return tuple(names)


def horizontal_monoid(plus_table, identity, names=None):
    return FiniteMonoid(plus_table, identity, _canonical_names(plus_table, identity, names))


def _fresh(name, i, used):
    """Name V's element i ``name``, or ``v<i>`` and then ``_``s if taken."""
    if name in used:
        name = "v%d" % i
        while name in used:
            name += "_"
    used.add(name)
    return name


def generated_algebra(hmonoid, generators):
    """The algebra generated by ``generators`` (names to action rows on H)
    and the insertions, holding only H and V's first elements until V or
    the action table is read.  Those are the identity, the distinct
    generator rows in sorted-name order, then the insertions not among
    them, named as in V.  Returns (ForestAlgebra, genmap) where genmap
    sends each generator name to its vertical index.
    """
    n = hmonoid.size
    rows = [tuple(range(n))]
    index = {rows[0]: 0}
    names = ["1"]
    used = {"1"}
    genmap = {}

    def intern(row, name):
        if row not in index:
            index[row] = len(rows)
            names.append(_fresh(name, len(rows), used))
            rows.append(row)
        return index[row]

    for name in sorted(generators, key=str):
        row = tuple(generators[name])
        _check_table((row,), 1, n, n, "generator %r action row" % (name,))
        genmap[name] = intern(row, str(name))
    for g, row in enumerate(hmonoid.op):
        intern(row, "ins_%s" % hmonoid.names[g])
    alg = ForestAlgebra.__new__(ForestAlgebra)
    alg.H, alg.generators, alg.faithful = hmonoid, tuple(rows), True
    alg.generator_names = tuple(names)
    alg.generated = True
    return alg, genmap


def close_vertical(hmonoid, generators, warn_on_merge=True):
    """generated_algebra(), warning unless ``warn_on_merge`` is false when
    generators with identical action are merged.  Returns (ForestAlgebra,
    genmap).
    """
    alg, genmap = generated_algebra(hmonoid, generators)
    if warn_on_merge:
        owner = {0: None}  # vertical index -> the first name sent to it
        merged = {str(name) for name in genmap  # in sorted-name order
                  if owner.setdefault(genmap[name], name) != name}
        if merged:
            warnings.warn("merged vertical generators with duplicate actions: %s"
                          % ", ".join(sorted(merged)))
    return alg, genmap


# ---------------------------------------------------------------------------
# The two building-block algebras

def u1():
    """The smallest nontrivial algebra: H = {0, inf}, V = {1, cinf}."""
    H = FiniteMonoid(((0, 1), (1, 1)), 0, ("0", "inf"))
    V = FiniteMonoid(((0, 1), (1, 1)), 0, ("1", "cinf"))
    action = ((0, 1), (1, 1))
    return ForestAlgebra(H, V, action, faithful=True)


def u2():
    """H = {0, inf} with both constant maps in V = {1, cinf, c0}."""
    H = FiniteMonoid(((0, 1), (1, 1)), 0, ("0", "inf"))
    V = FiniteMonoid(((0, 1, 2), (1, 1, 1), (2, 2, 2)), 0, ("1", "cinf", "c0"))
    action = ((0, 1), (1, 1), (0, 0))
    return ForestAlgebra(H, V, action, faithful=True)


# ---------------------------------------------------------------------------
# Quotients by reachability ideals

def quotient_by_ideal(alg, ideal):
    """Collapse a reachability ideal to one absorbing element, on H alone.

    ``ideal`` is a set of horizontal indices closed under the action of
    every vertical element.  It is tested against V's generators, which
    include the identity, the letters and every insertion, so closure
    under them is closure under V.  Returns (reps, hmap): ``hmap`` sends
    each element of H to its quotient element and ``reps[i]`` is an
    element sent to i.  The kept elements come first, in order; the
    collapsed ideal, if any, is the last, represented by its least member.
    reach.quotient_hom builds the quotient algebra from these.  Raises
    IdealViolation if the set is not an ideal.
    """
    ideal = frozenset(ideal)
    for h in sorted(ideal):
        for v, row in enumerate(alg.generators):
            if row[h] not in ideal:
                raise IdealViolation(alg.hname(h), alg.generator_names[v],
                                     alg.hname(row[h]))
    n = alg.H.size
    if alg.zero in ideal:
        ideal = frozenset(range(n))  # 0 reachable from all: collapse all
    keep = [h for h in range(n) if h not in ideal]
    hmap = [len(keep)] * n
    for i, h in enumerate(keep):
        hmap[h] = i
    return keep + sorted(ideal)[:1], tuple(hmap)
