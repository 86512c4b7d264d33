"""Shared fixtures, random-instance generators and slow reference
algorithms for the test suite."""

import heapq
import itertools
import random
from dataclasses import dataclass

from forestalg.algebra import (DEFAULT_MAX_VERTICAL, FiniteMonoid,
                               ForestAlgebra, Violation, _canonical_names,
                               close_vertical, generated_algebra,
                               horizontal_monoid)
from forestalg.defk import KdefEvaluator
from forestalg.errors import (IdealViolation, ParseError, SizeLimitError,
                              StructuralError)
from forestalg.hom import Homomorphism, Recognizer
from forestalg.joint import TensorEvaluator, closure, determines, image
from forestalg.oracle import DEFAULT_MAX_PAIRS
from forestalg.reach import class_tag_names, reachability
from forestalg import logic, terms


def four_element_algebra():
    """The chain algebra 0 -a-> h1 -b-> h2 with absorbing inf, accept {inf}.

    Trivial reachability classes but fails the absorption identity:
    b.h1 + h1 = inf while b.h1 = h2.  Letter transitions: a sends 0 to h1
    and fixes h1; b sends everything below inf to h2.
    """
    plus = [
        [0, 1, 2, 3],
        [1, 1, 3, 3],
        [2, 3, 2, 3],
        [3, 3, 3, 3],
    ]
    H = horizontal_monoid(plus, 0, ["0", "h1", "h2", "inf"])
    gens = {
        "a": (1, 1, 2, 3),
        "b": (2, 2, 2, 3),
    }
    alg, genmap = close_vertical(H, gens, warn_on_merge=False)
    hom = Homomorphism(("a", "b"), alg, {"a": genmap["a"], "b": genmap["b"]})
    return Recognizer(hom, frozenset({3}))


def example_formula():
    """EX(a & !EF b) & EX(b | EF b), whose closure under EF defines the
    language recognized by four_element_algebra()."""
    return logic.parse_formula("EX(a & !EF b) & EX(b | EF b)")


def example_language_recognizer():
    psi = example_formula()
    return logic.to_recognizer(logic.Or(psi, logic.EF(psi)), ("a", "b"))


def u2_example_recognizer():
    """a acts as identity, b as constant 0, c as constant inf, onto u2."""
    from forestalg.algebra import u2

    alg = u2()
    assign = {"a": alg.V.names.index("1"),
              "b": alg.V.names.index("c0"),
              "c": alg.V.names.index("cinf")}
    hom = Homomorphism(("a", "b", "c"), alg, assign)
    return Recognizer(hom, frozenset({alg.H.names.index("inf")}))


def ex_power_recognizer(n, letters=("a", "b")):
    """The recognizer of EX^n applied to the first letter."""
    return logic.to_recognizer(logic.parse_formula("EX " * n + letters[0]),
                               letters)


def xor_u2_hom(n):
    """The syntactic hom of EX^n a xor the language of u2_example_recognizer,
    on {a, b, c}, the decide-deep bench's boolean-closure shape.  At n = 3
    and 4 all of H is one reachability class, of 16 and 32 members."""
    from forestalg.hom import syntactic

    letters = ("a", "b", "c")
    power = syntactic(ex_power_recognizer(n, letters))[0]
    u2_rec = u2_example_recognizer()
    A, B = power.hom.target, u2_rec.hom.target
    nb = B.H.size
    pairs = [(i, j) for i in range(A.H.size) for j in range(nb)]
    plus = [[A.plus(i, k) * nb + B.plus(j, l) for (k, l) in pairs]
            for (i, j) in pairs]
    H = horizontal_monoid(plus, A.zero * nb + B.zero)
    gens = {a: tuple(power.hom.row(a)[i] * nb + u2_rec.hom.row(a)[j]
                     for (i, j) in pairs) for a in letters}
    alg, genmap = close_vertical(H, gens, warn_on_merge=False)
    hom = Homomorphism(letters, alg, {a: genmap[a] for a in letters})
    accept = frozenset(i * nb + j for (i, j) in pairs
                       if (i in power.accept) != (j in u2_rec.accept))
    return syntactic(Recognizer(hom, accept))[0].hom


# u1 with an accepting set, as printed by io.print_algebra(u1())
U1_ACCEPTING = ("H: 0 inf\nplus:\n0 inf\ninf inf\nV: 1 cinf\ncompose:\n1 cinf\n"
                "cinf cinf\nact:\n0 inf\ninf inf\naccept: inf\n")

# Files whose tables, letters, letter rows or sections are malformed, by
# what is wrong.
BAD_LETTER_FILES = {
    "algebra: empty H": U1_ACCEPTING.replace("H: 0 inf", "H:"),
    "algebra: empty V": U1_ACCEPTING.replace("V: 1 cinf", "V:"),
    "algebra: duplicate V names": U1_ACCEPTING.replace("V: 1 cinf", "V: 1 1"),
    "algebra: unknown V element": U1_ACCEPTING.replace("cinf cinf\nact:",
                                                       "cinf zz\nact:"),
    "algebra: letters entry without =": U1_ACCEPTING + "letters: a\n",
    "algebra: no V element 1": U1_ACCEPTING.replace("1", "one"),
    "duplicate letter": U1_ACCEPTING + "letters: a=cinf a=1\n",
    "empty letter": U1_ACCEPTING + "letters: =cinf\n",
    "letter ending in a colon": U1_ACCEPTING + "letters: a:=cinf\n",
    "second letters section": U1_ACCEPTING + "letters: a=cinf\nletters: b=1\n",
    "row: duplicate letter": "H: 0 inf\nplus:\n0 inf\ninf inf\n"
                             "letter: a\ninf inf\nletter: a\n0 inf\naccept: inf\n",
    "row: empty letter": "H: 0 inf\nplus:\n0 inf\ninf inf\nletter:\naccept: inf\n",
    "row: ragged, short": "H: 0 inf\nplus:\n0 inf\ninf inf\nletter: a\ninf\naccept:\n",
    "row: ragged, long": "H: 0 inf\nplus:\n0 inf\ninf inf\nletter: a\ninf inf 0\n"
                         "accept:\n",
    "row: unknown H name": "H: 0 inf\nplus:\n0 inf\ninf inf\nletter: a\ninf zz\n"
                           "accept:\n",
    "row: letters section": "H: 0 inf\nplus:\n0 inf\ninf inf\nletters: a=1\naccept:\n",
    "row: no 0": "H: z inf\nplus:\nz inf\ninf inf\nletter: a\ninf inf\naccept:\n",
    "row: no accept": "H: 0 inf\nplus:\n0 inf\ninf inf\nletter: a\ninf inf\n",
    "row: letter after accept": "H: 0 inf\nplus:\n0 inf\ninf inf\naccept:\n"
                                "letter: a\ninf inf\n",
}

ROW_FILE = "H: 0 inf\nplus:\n0 inf\ninf inf\nletter: a\ninf inf\naccept: inf\n"


def _u1(old, new):
    return U1_ACCEPTING.replace(old, new, 1)


# Files with content before H:, a table an entry short or long, a token
# ending in ":" inside a table or a row (it opens a section wherever it
# stands), or a section doubled or out of place; each with its error.
BAD_SECTION_FILES = {
    "content before H:": (ParseError, "x\n" + U1_ACCEPTING),
    "plus: one short": (ParseError, _u1("inf inf\nV:", "inf\nV:")),
    "plus: one long": (ParseError, _u1("inf inf\nV:", "inf inf inf\nV:")),
    "compose: one short": (ParseError, _u1("cinf cinf\nact:", "cinf\nact:")),
    "compose: one long": (ParseError, _u1("cinf cinf\nact:", "cinf cinf 1\nact:")),
    "act: one short": (ParseError, _u1("inf inf\naccept:", "inf\naccept:")),
    "act: one long": (ParseError, _u1("inf inf\naccept:", "inf inf 0\naccept:")),
    "row: plus: one short": (ParseError, ROW_FILE.replace("inf inf\nletter:",
                                                          "inf\nletter:")),
    "row: plus: one long": (ParseError, ROW_FILE.replace("inf inf\nletter:",
                                                         "inf inf 0\nletter:")),
    "colon in plus:": (ParseError, _u1("0 inf\ninf inf", "0 x:\ninf inf")),
    "colon in compose:": (ParseError, _u1("cinf cinf\nact:", "cinf x:\nact:")),
    "colon in act:": (ParseError, _u1("inf inf\naccept:", "inf x:\naccept:")),
    "colon in a letter row": (StructuralError, ROW_FILE.replace(
        "letter: a\ninf inf", "letter: a\ninf x:")),
    "accept: twice": (ParseError, U1_ACCEPTING + "accept: 0\n"),
    "letters: twice": (ParseError, U1_ACCEPTING + "letters: a=1\nletters: b=1\n"),
    "letter: after accept:": (ParseError, ROW_FILE + "letter: b\n0 inf\n"),
    "V: after letter:": (ParseError, ROW_FILE.replace(
        "accept:", "V: 1\ncompose:\n1\nact:\n0 inf\naccept:")),
}


def simk_tset(forest, k):
    """Recursive class of a forest: nested sets of (letter, child class).

    Independent of defk's truncation-based key; the two must classify
    identically.
    """
    if k <= 0:
        return None
    return frozenset((label, simk_tset(children, k - 1))
                     for label, children in forest)


# ---------------------------------------------------------------------------
# Products (only the tests combine algebras componentwise)

def direct_product(a, b, max_vertical=DEFAULT_MAX_VERTICAL):
    """Componentwise product.  Element (i, j) of its H is i * |H of b| + j,
    and likewise in V."""
    nv = a.V.size * b.V.size
    if nv > max_vertical:
        raise SizeLimitError("direct product vertical monoid", max_vertical)
    nh = a.H.size * b.H.size

    def hpair(i, j):
        return i * b.H.size + j

    def vpair(i, j):
        return i * b.V.size + j

    plus = [[0] * nh for _ in range(nh)]
    hnames = [None] * nh
    for i in range(a.H.size):
        for j in range(b.H.size):
            hnames[hpair(i, j)] = "(%s,%s)" % (a.hname(i), b.hname(j))
            for k in range(a.H.size):
                for l in range(b.H.size):
                    plus[hpair(i, j)][hpair(k, l)] = hpair(a.plus(i, k), b.plus(j, l))
    times = [[0] * nv for _ in range(nv)]
    vnames = [None] * nv
    action = [[0] * nh for _ in range(nv)]
    for i in range(a.V.size):
        for j in range(b.V.size):
            v = vpair(i, j)
            vnames[v] = "(%s,%s)" % (a.vname(i), b.vname(j))
            for k in range(a.V.size):
                for l in range(b.V.size):
                    times[v][vpair(k, l)] = vpair(a.times(i, k), b.times(j, l))
            for k in range(a.H.size):
                for l in range(b.H.size):
                    action[v][hpair(k, l)] = hpair(a.act(i, k), b.act(j, l))
    zero = hpair(a.zero, b.zero)
    H = FiniteMonoid(plus, zero, _canonical_names(plus, zero, hnames))
    V = FiniteMonoid(times, vpair(a.one, b.one), vnames)
    return ForestAlgebra(H, V, action, faithful=a.faithful and b.faithful)


# ---------------------------------------------------------------------------
# Random instances

# every lattice of at most four elements, as union-closed bit masks from 0:
# the one-element, two-element and three-element chains, the four-element
# chain and the diamond
LATTICES = ((0,), (0, 1), (0, 1, 3), (0, 1, 3, 7), (0, 1, 2, 3))


def mask_semilattice(masks):
    """The union semilattice on a union-closed family of bit masks, 0 first."""
    return horizontal_monoid([[masks.index(x | y) for y in masks]
                              for x in masks], 0)


def random_semilattice(rng, max_h=5):
    """A union-closed family of bit masks containing the empty set."""
    while True:
        atoms = rng.randint(1, 3)
        gens = [rng.randrange(1 << atoms) for _ in range(rng.randint(1, 4))]
        elems = {0}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in elems:
                continue
            elems.add(x)
            frontier.extend(x | y for y in list(elems))
        if len(elems) <= max_h:
            return mask_semilattice(sorted(elems))


def random_hom(rng, max_h=5, max_letters=3, max_vertical=150):
    """Insertion-closed algebra with arbitrary letter actions, onto its image."""
    from forestalg.hom import image_restrict

    while True:
        H = random_semilattice(rng, max_h)
        n = H.size
        nletters = rng.randint(1, max_letters)
        letters = tuple("abc"[:nletters])
        gens = {a: tuple(rng.randrange(n) for _ in range(n)) for a in letters}
        alg, genmap = generated_algebra(H, gens)
        try:  # reject a V past max_vertical without closing all of it
            closure(alg.generators, alg.generators,
                    lambda ra, rb: tuple(ra[x] for x in rb), None,
                    max_vertical)
        except SizeLimitError:
            continue
        hom = Homomorphism(letters, alg, {a: genmap[a] for a in letters})
        return image_restrict(hom)


def random_recognizer(rng, **kwargs):
    hom = random_hom(rng, **kwargs)
    n = hom.target.H.size
    accept = frozenset(h for h in range(n) if rng.random() < 0.4)
    return Recognizer(hom, accept)


def random_big_recognizer(rng, atoms=6, nletters=4):
    """|H| = 2^atoms union semilattice with letters h -> g | (h & m)."""
    n = 1 << atoms
    plus = [[i | j for j in range(n)] for i in range(n)]
    H = horizontal_monoid(plus, 0)
    letters = tuple(chr(ord("a") + i) for i in range(nletters))
    gens = {}
    for a in letters:
        g = rng.randrange(n)
        m = rng.randrange(n)
        gens[a] = tuple(g | (h & m) for h in range(n))
    alg, genmap = close_vertical(H, gens, warn_on_merge=False)
    hom = Homomorphism(letters, alg, {a: genmap[a] for a in letters})
    accept = frozenset(h for h in range(n) if rng.random() < 0.3)
    return Recognizer(hom, accept)


def random_formula(rng, alphabet, depth):
    """A random forest formula with modal nesting bounded by depth."""
    def tree_formula(d):
        roll = rng.random()
        if roll < 0.3:
            return logic.Letter(rng.choice(alphabet))
        return forest_formula(d)

    def forest_formula(d):
        roll = rng.random()
        if d <= 0 or roll < 0.15:
            return logic.TrueF()
        if roll < 0.35:
            return logic.Not(forest_formula(d - 1))
        if roll < 0.55:
            return logic.And(forest_formula(d - 1), forest_formula(d - 1))
        if roll < 0.7:
            return logic.Or(forest_formula(d - 1), forest_formula(d - 1))
        if roll < 0.85:
            return logic.EF(tree_formula(d - 1))
        return logic.EX(tree_formula(d - 1))

    return forest_formula(depth)


def census_formulas(max_nodes, modalities, letters=("a", "b")):
    """Every forest formula of at most max_nodes nodes built from T, the
    letters, !, &, | and the given modal constructors (logic.EF, logic.EX),
    deduplicated by printed form, by node count and then in build order."""
    by_size = [None, [logic.TrueF()] + [logic.Letter(a) for a in letters]]
    for n in range(2, max_nodes + 1):
        built = [op(phi) for op in (logic.Not,) + tuple(modalities)
                 for phi in by_size[n - 1]]
        built += [op(left, right) for i in range(1, n - 1)
                  for left in by_size[i] for right in by_size[n - 1 - i]
                  for op in (logic.And, logic.Or)]
        by_size.append(list({logic.print_formula(phi): phi
                             for phi in built}.values()))
    return [phi for level in by_size[1:] for phi in level
            if logic.role(phi) == logic.FOREST]


def census_table_homs(max_nodes, modalities, letters=("a", "b")):
    """The syntactic homs of the census formulas, one per distinct table
    (sum table, letter rows, accepting set), in census order."""
    from forestalg.hom import syntactic

    tables = {}
    for phi in census_formulas(max_nodes, modalities, letters):
        syn = syntactic(logic.to_recognizer(phi, letters))[0]
        tables.setdefault((syn.hom.target.H.op, tuple(map(syn.hom.row, letters)),
                           syn.accept), syn.hom)
    return list(tables.values())


def random_cascade(rng, **kwargs):
    """A two-stage cascade: a random hom, then a random second target whose
    letters read the first stage's value."""
    from forestalg.decompose import OTHER_STAGE, Cascade, Stage

    first = random_hom(rng, **kwargs)
    second = random_hom(rng, **kwargs).target
    casc = Cascade(first.alphabet)
    casc.append(Stage(OTHER_STAGE, first.target, 0,
                      {(a,): first.letter(a) for a in casc.alphabet}))
    casc.append(Stage(OTHER_STAGE, second, 1,
                      {(a, h): rng.randrange(second.V.size)
                       for a in casc.alphabet
                       for h in range(first.target.H.size)}))
    return casc


def random_tagged_hom(rng, alpha):
    """A random homomorphism over alpha's letter/value pairs, on a generated
    algebra; random rows need not reach all of H, so it is built by hand."""
    H = random_semilattice(rng, 4)
    n = H.size
    letters = [(a, alpha.target.hname(h)) for a in alpha.alphabet
               for h in range(alpha.target.H.size)]
    rows = {b: tuple(rng.randrange(n) for _ in range(n)) for b in letters}
    alg, genmap = generated_algebra(H, rows)
    return Homomorphism(letters, alg, genmap)


class TupleCascade:
    """The stages of a cascade, evaluated on tuple states with one element
    index per stage: a sum is a table lookup per stage, and a letter step
    looks each stage up under (letter,) + the state's first prefix_len
    values.  The reference that Cascade's bit-field protocol is checked
    against."""

    def __init__(self, casc):
        self.alphabet = casc.alphabet
        self.max_size = casc.max_size
        self.stages = list(casc.stages)
        self._sums = [st.target.H.op for st in self.stages]
        self._rows = [(st.prefix_len, {key: st.target.vrow(v)
                                       for key, v in st.letters.items()})
                      for st in self.stages]

    def zero_state(self):
        return tuple(st.target.zero for st in self.stages)

    def plus_state(self, x, y):
        return tuple([t[a][b] for t, a, b in zip(self._sums, x, y)])

    def letter_action(self, a, state):
        return tuple([rows[(a,) + state[:n]][h]
                      for (n, rows), h in zip(self._rows, state)])

    def reachable_states(self):
        return sorted(image(self, self.alphabet, self.max_size,
                            "cascade states"))

    def joint_image(self, hom):
        return image(TensorEvaluator(self, hom, lambda a, x: a), self.alphabet,
                     self.max_size * hom.target.H.size, "cascade joint image")

    def factors(self, hom):
        witness = determines(self.joint_image(hom))[1]
        return witness is None, witness

    def factor_map(self, hom):
        return determines(self.joint_image(hom))[0]


def permuted_copy(rec, perm):
    """The same recognizer with horizontal element h renamed perm[h]."""
    alg = rec.hom.target
    n = alg.H.size
    inv = [0] * n
    for h, p in enumerate(perm):
        inv[p] = h
    plus = [[perm[alg.plus(inv[i], inv[j])] for j in range(n)] for i in range(n)]
    H = horizontal_monoid(plus, perm[alg.zero])
    gens = {a: tuple(perm[alg.act(rec.hom.letter(a), inv[i])] for i in range(n))
            for a in rec.hom.alphabet}
    copy, genmap = close_vertical(H, gens, warn_on_merge=False)
    hom = Homomorphism(rec.hom.alphabet, copy,
                       {a: genmap[a] for a in rec.hom.alphabet})
    return Recognizer(hom, frozenset(perm[h] for h in rec.accept))


# ---------------------------------------------------------------------------
# Reference algorithms

def reference_closure(zero, alphabet, act, plus):
    """Least set containing zero closed under act(a, x) and plus(x, y), by
    rounds: each round applies every step that involves an element found in
    the round before."""
    seen = {zero}
    new = {zero}
    while new:
        found = {act(a, x) for x in new for a in alphabet}
        found |= {plus(x, y) for x in new for y in seen}
        found |= {plus(y, x) for x in new for y in seen}
        new = found - seen
        seen |= new
    return seen


def all_partners_closure(starts, alphabet, act, plus, cap=None, what="closure"):
    """The reference for joint.closure's sums: each element sums with every
    element held when its sums start, so both orders of each pair are
    formed.  Steps, discovery order and cap are joint.closure's."""
    limit = float("inf") if cap is None else cap
    index = {}
    order = []

    def add(y):
        if len(order) >= limit:
            raise SizeLimitError(what, cap)
        index[y] = len(order)
        order.append(y)

    for x in starts:
        if x not in index:
            add(x)
    at = 0
    while at < len(order):
        x = order[at]
        at += 1
        for a in alphabet:
            y = act(a, x)
            if y not in index:
                add(y)
        if plus is not None:
            for z in itertools.islice(order, len(order)):
                y = plus(x, z)
                if y not in index:
                    add(y)
    return index


def reference_check_table(table, rows, cols, size, what):
    """The reference for algebra._check_table: every entry is tested one
    at a time, in row order, and the first fault names the error."""
    if len(table) != rows:
        raise StructuralError("%s: expected %d rows, got %d" % (what, rows, len(table)))
    for i, row in enumerate(table):
        if len(row) != cols:
            raise StructuralError("%s: row %d is ragged" % (what, i))
        for x in row:
            if not isinstance(x, int) or not (0 <= x < size):
                raise StructuralError("%s: entry %r out of range" % (what, x))


def printed_recognizer(rec):
    """A recognizer in the printed algebra form, letters and accepting set
    included."""
    from forestalg.io import print_algebra

    return print_algebra(rec.hom.target, letters=dict(rec.hom.assign),
                         accept=rec.accept)


def reference_syntactic(rec):
    """The syntactic recognizer by V-signatures: h and g are identified when
    v.h and v.g agree on acceptance for every v of the image's vertical
    monoid, which is closed in full.  Classes are numbered by least member."""
    from forestalg.hom import restrict_recognizer

    rec = restrict_recognizer(rec)
    alg = rec.hom.target
    sigs = {}
    for h in range(alg.H.size):
        sig = tuple(alg.act(v, h) in rec.accept for v in range(alg.V.size))
        sigs.setdefault(sig, []).append(h)
    classes = sorted(sigs.values(), key=min)
    hmap = {h: i for i, cls in enumerate(classes) for h in cls}
    reps = [min(cls) for cls in classes]
    plus = [[hmap[alg.plus(r, s)] for s in reps] for r in reps]
    H = horizontal_monoid(plus, hmap[alg.zero], [alg.hname(r) for r in reps])
    letters = rec.hom.alphabet
    gens = {terms.print_label(a): tuple(hmap[alg.act(rec.hom.letter(a), r)]
                                        for r in reps) for a in letters}
    syn, genmap = close_vertical(H, gens, warn_on_merge=False)
    hom = Homomorphism(letters, syn,
                       {a: genmap[terms.print_label(a)] for a in letters})
    return Recognizer(hom, frozenset(hmap[h] for h in rec.accept))


def brute_isomorphism(rec1, rec2):
    """The first horizontal bijection, in permutation order, respecting 0,
    +, letter actions and acceptance, or None.  Factorial; |H| <= 7."""
    a1, a2 = rec1.hom.target, rec2.hom.target
    if a1.H.size != a2.H.size:
        return None
    if set(rec1.hom.alphabet) != set(rec2.hom.alphabet):
        return None
    n = a1.H.size
    letters = sorted(set(rec1.hom.alphabet), key=terms.label_key)
    rows1 = {a: a1.action[rec1.hom.letter(a)] for a in letters}
    rows2 = {a: a2.action[rec2.hom.letter(a)] for a in letters}
    for perm in itertools.permutations(range(n)):
        if perm[a1.zero] != a2.zero:
            continue
        if {perm[h] for h in rec1.accept} != set(rec2.accept):
            continue
        ok = all(perm[a1.plus(h, g)] == a2.plus(perm[h], perm[g])
                 for h in range(n) for g in range(n))
        if not ok:
            continue
        ok = all(perm[rows1[a][h]] == rows2[a][perm[h]]
                 for a in letters for h in range(n))
        if ok:
            return perm
    return None


def reference_reachability(alg):
    """(classes, class order, minimal class, subminimal classes) by one step
    over every element of V, which is transitive because V is closed under
    composition.  order[ci][cj]: class ci is reachable from class cj."""
    n = alg.H.size
    reach = [set() for _ in range(n)]
    for row in alg.action:
        for h in range(n):
            reach[h].add(row[h])
    classes = []
    for h in range(n):
        if not any(h in members for members in classes):
            classes.append(tuple(g for g in range(n)
                                 if g in reach[h] and h in reach[g]))
    m = len(classes)
    order = [[classes[ci][0] in reach[classes[cj][0]] for cj in range(m)]
             for ci in range(m)]
    low = next(c for c in range(m) if alg.absorbing() in classes[c])
    subminimal = tuple(
        c for c in range(m)
        if c != low and order[low][c]
        and not any(c2 not in (low, c) and order[low][c2] and order[c2][c]
                    for c2 in range(m)))
    return classes, order, low, subminimal


def reference_vertical_names(hmonoid, generators, size):
    """The names of a closed V's ``size`` elements, renamed after the
    closure: "1", the generators with distinct rows in sorted-name order,
    ``ins_<g>`` for the insertions not among them, then ``v<i>``; a name
    already seen becomes ``v<i>``, then gains ``_`` until new."""
    raw, rows = ["1"], {tuple(range(hmonoid.size))}
    named = [(str(name), tuple(generators[name]))
             for name in sorted(generators, key=str)]
    named += [("ins_" + hmonoid.names[g], row)
              for g, row in enumerate(hmonoid.op)]
    for name, row in named:
        if row not in rows:
            rows.add(row)
            raw.append(name)
    raw += ["v%d" % i for i in range(len(raw), size)]
    seen, names = set(), []
    for i, name in enumerate(raw):
        if name in seen:
            name = "v%d" % i
            while name in seen:
                name += "_"
        seen.add(name)
        names.append(name)
    return names


def reference_vertical_closure(hmonoid, generators):
    """V of the algebra generated by ``generators`` (names to action rows)
    and the insertions, by a plain breadth-first search: its action rows,
    names and multiplication table.  V starts with the identity, then the
    distinct rows of the generators in sorted-name order and of the
    insertions; each element in turn is composed on the left with each of
    those, and new rows are appended."""
    n = hmonoid.size
    starts = [tuple(range(n))]
    for row in ([tuple(generators[name]) for name in sorted(generators, key=str)]
                + list(hmonoid.op)):
        if row not in starts:
            starts.append(row)
    rows, index = list(starts), {row: i for i, row in enumerate(starts)}
    for row in rows:
        for g in starts:
            after = tuple(g[h] for h in row)
            if after not in index:
                index[after] = len(rows)
                rows.append(after)
    op = tuple(tuple(index[tuple(a[h] for h in b)] for b in rows) for a in rows)
    names = reference_vertical_names(hmonoid, generators, len(rows))
    return tuple(rows), tuple(names), op


def reference_ef_violation(alg):
    """The first (v, h) over all of V, in index order, with v.h + h != v.h,
    or None."""
    for v in range(alg.V.size):
        for h in range(alg.H.size):
            vh = alg.act(v, h)
            if alg.plus(vh, h) != vh:
                return v, h
    return None


def reference_monoid_check(monoid):
    """Identity and associativity violations by the triple loop over the
    table, at most 21 of them, in (x, y, z) order."""
    out = []
    op = monoid.op
    n = monoid.size
    e = monoid.identity
    names = monoid.names
    for i in range(n):
        if op[e][i] != i or op[i][e] != i:
            out.append(Violation("identity", (names[e], names[i]),
                                 "identity is not neutral"))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if op[op[i][j]][k] != op[i][op[j][k]]:
                    out.append(Violation("associativity",
                                         (names[i], names[j], names[k]),
                                         "(xy)z != x(yz)"))
                    if len(out) > 20:
                        return out
    return out


def reference_check_axioms(alg):
    """Every law of the algebra by a full scan over its tables, V's
    associativity included, in the order check_axioms reports them.
    Reads V, so it closes the vertical monoid of a generated algebra."""
    out = []
    for violation in reference_monoid_check(alg.H):
        out.append(Violation("H-" + violation.law, violation.witness, violation.detail))
    for violation in reference_monoid_check(alg.V):
        out.append(Violation("V-" + violation.law, violation.witness, violation.detail))
    hn, vn = alg.H.names, alg.V.names
    plus = alg.H.op
    n = alg.H.size
    for h in range(n):
        for g in range(n):
            if plus[h][g] != plus[g][h]:
                out.append(Violation("H-commutativity", (hn[h], hn[g]),
                                     "h+g != g+h"))
        if plus[h][h] != h:
            out.append(Violation("H-idempotence", (hn[h],), "h+h != h"))
    V, action = alg.V, alg.action
    one = V.identity
    for h in range(n):
        if action[one][h] != h:
            out.append(Violation("action-identity", (vn[one], hn[h]), "1.h != h"))
    for v in range(V.size):
        for w in range(V.size):
            for h in range(n):
                if action[V.mul(v, w)][h] != action[v][action[w][h]]:
                    out.append(Violation("action-composition", (vn[v], vn[w], hn[h]),
                                         "(vw).h != v.(w.h)"))
                    break
    for g in range(n):
        if not any(action[v] == plus[g] for v in range(V.size)):
            out.append(Violation("insertion-closure", (hn[g],),
                                 "no vertical element acts as h -> %s+h" % hn[g]))
    if alg.faithful:
        for v in range(V.size):
            least = next(w for w in range(V.size) if action[w] == action[v])
            if least != v:
                out.append(Violation("faithfulness", (vn[least], vn[v]),
                                     "distinct elements act identically"))
    return out


# ---------------------------------------------------------------------------
# Morphisms and the quotient by an ideal over all of V

@dataclass(frozen=True)
class AlgebraMorphism:
    source: ForestAlgebra
    target: ForestAlgebra
    hmap: tuple
    vmap: tuple

    def validate(self):
        """Return law violations of morphism-ness (empty list if valid)."""
        out = []
        src, tgt = self.source, self.target
        hm, vm = self.hmap, self.vmap
        if len(hm) != src.H.size or len(vm) != src.V.size:
            raise StructuralError("morphism maps have wrong length")
        if hm[src.zero] != tgt.zero:
            out.append(Violation("morphism-zero", ()))
        if vm[src.one] != tgt.one:
            out.append(Violation("morphism-one", ()))
        for h in range(src.H.size):
            for g in range(src.H.size):
                if hm[src.plus(h, g)] != tgt.plus(hm[h], hm[g]):
                    out.append(Violation("morphism-plus",
                                         (src.hname(h), src.hname(g))))
        for v in range(src.V.size):
            for w in range(src.V.size):
                if vm[src.times(v, w)] != tgt.times(vm[v], vm[w]):
                    out.append(Violation("morphism-times",
                                         (src.vname(v), src.vname(w))))
            for h in range(src.H.size):
                if hm[src.act(v, h)] != tgt.act(vm[v], hm[h]):
                    out.append(Violation("morphism-action",
                                         (src.vname(v), src.hname(h))))
        return out

    def is_surjective(self):
        return (len(set(self.hmap)) == self.target.H.size
                and len(set(self.vmap)) == self.target.V.size)


def reference_quotient_by_ideal(alg, ideal):
    """Collapse a reachability ideal to the absorbing element, over all of V.

    Tests the ideal against every vertical element, builds one action row
    per element and the |V'|^2 times table of the quotient.  Returns
    (quotient algebra, projection morphism); raises IdealViolation if the
    set is not an ideal.
    """
    ideal = frozenset(ideal)
    for h in ideal:
        for v in range(alg.V.size):
            img = alg.act(v, h)
            if img not in ideal:
                raise IdealViolation(alg.hname(h), alg.vname(v), alg.hname(img))

    if alg.zero in ideal:
        ideal = frozenset(range(alg.H.size))  # 0 reachable from all: collapse all

    n = alg.H.size
    keep = [h for h in range(n) if h not in ideal]
    if ideal:
        new_names = [alg.hname(h) for h in keep] + ["inf"]
        sink = len(keep)
    else:
        new_names = [alg.hname(h) for h in keep]
        sink = None
    hmap = [0] * n
    for i, h in enumerate(keep):
        hmap[h] = i
    for h in ideal:
        hmap[h] = sink
    m = len(keep) + (1 if ideal else 0)

    def rep(i):
        # some original element mapping to quotient index i
        if sink is not None and i == sink:
            return next(iter(sorted(ideal)))
        return keep[i]

    plus = [[hmap[alg.plus(rep(i), rep(j))] for j in range(m)] for i in range(m)]
    # well-definedness of + and the action follows from the ideal property
    vrows = {}
    vmap = [0] * alg.V.size
    vnames = []
    vreps = []
    for v in range(alg.V.size):
        row = tuple(hmap[alg.act(v, rep(i))] for i in range(m))
        if row not in vrows:
            vrows[row] = len(vreps)
            vreps.append(v)
            vnames.append(alg.vname(v))
        vmap[v] = vrows[row]
    times = [[vrows[tuple(hmap[alg.act(alg.times(vreps[a], vreps[b]), rep(i))]
                          for i in range(m))]
              for b in range(len(vreps))] for a in range(len(vreps))]
    action = sorted(vrows, key=vrows.get)
    zero = hmap[alg.zero]
    seen = set()
    for i, name in enumerate(vnames):
        if name in seen:
            vnames[i] = "v%d" % i
        seen.add(vnames[i])
    H = FiniteMonoid(plus, zero, _canonical_names(plus, zero, new_names))
    V = FiniteMonoid(times, vmap[alg.one], vnames)
    q = ForestAlgebra(H, V, action, faithful=True)
    proj = AlgebraMorphism(alg, q, tuple(hmap), tuple(vmap))
    return q, proj


def reference_definiteness_degree(alpha):
    """defk.definiteness_degree by the full chain: every product is
    composed with, and tested against, every element of the guarded
    semigroup S."""
    from forestalg.defk import guarded_semigroup
    from forestalg.hom import image_restrict

    hom = image_restrict(alpha)
    if hom.target.H.size == 1:
        return 0
    S = guarded_semigroup(hom)
    products = set(S)
    for k in range(1, len(S) + 2):
        if all(tuple(p[x] for x in s) == p for p in products for s in S):
            return k
        nxt = {tuple(p[x] for x in s) for p in products for s in S}
        if nxt == products:
            return None
        products = nxt
    return None


def reference_quotient(hom, reps, rep):
    """hom.quotient by one Python call per table entry: generated()
    tabulates the representatives through ``rep``, which sends each element
    of the image to its class's representative."""
    from forestalg.hom import generated

    alg = hom.target
    op = alg.H.op
    rows = {a: hom.row(a) for a in hom.alphabet}
    return generated(hom.alphabet, reps, lambda a, h: rep[rows[a][h]],
                     lambda h, g: rep[op[h][g]], rep[alg.zero],
                     [alg.hname(h) for h in reps])


def reference_definiteness_levels(alpha):
    """defk.definiteness_degree by forward pair levels.

    Level 0 holds the ordered pairs of distinct values of the image, and
    level k the distinct pairs (c + a.h, c + a.g) for (h, g) in level k-1:
    the pairs that some product of k guarded generators keeps apart.  The
    degree is the first empty level, 0 on a one-element image.  The levels
    descend, so a level that keeps its size repeats for ever: None.  Every
    level is symmetric, so each letter pair (x, y) is summed only when
    x < y, and the transposes are added after.  Level 0 is never listed:
    its letter pairs are the pairs x < y within each letter row's values.
    """
    from forestalg.hom import image_restrict

    hom = image_restrict(alpha)
    op = hom.target.H.op
    n = len(op)
    rows = {hom.row(a) for a in hom.alphabet}
    pairs = {p for row in rows for p in itertools.combinations(sorted(set(row)), 2)}
    size, k = n * (n - 1), 0
    while size:
        k += 1
        level = set()
        for x, y in pairs:
            if x < y:
                level.update(zip(op[x], op[y]))
        level.update([(y, x) for x, y in level])
        level.difference_update(zip(range(n), range(n)))
        if len(level) == size:
            return None
        size = len(level)
        pairs = {(row[h], row[g]) for row in rows for h, g in level}
    return k


def reference_idempotent_criterion(alpha):
    """Every idempotent e of the guarded semigroup S has e.s = e for all s
    in S, tested against all of S."""
    from forestalg.defk import guarded_semigroup
    from forestalg.hom import image_restrict

    S = guarded_semigroup(image_restrict(alpha))
    return all(tuple(e[x] for x in e) != e
               or all(tuple(e[x] for x in s) == e for s in S) for e in S)


def closed_by_certificate(alg, members, images):
    """The three conditions under which nonconfusion skips saturating a
    level's letter images, recomputed on sets over all of H: (i) the class
    C is closed under +, (ii) the images with the diagonal of C are an
    equivalence, (iii) each block's members that a common summand keeps in
    C stay in one block."""
    plus, C = alg.plus, set(members)
    if any(plus(h, g) not in C for h in C for g in C):
        return False
    related = {h: {h} for h in C}
    for h, g in images:
        related[h].add(g)
    block = {h: frozenset(related[h]) for h in C}
    if any(block[h] != block[g] for h, g in images):
        return False
    return all(len({block[plus(h, c)] for h in K if plus(h, c) in C}) <= 1
               for K in set(block.values()) for c in range(alg.H.size))


def reference_nonconfusion(alpha, rs=None, skip_closed=False):
    """decide.nonconfusion with every sum looked up through alg.plus and the
    previous level sorted once per letter; same visit order, same report.
    With ``skip_closed`` a level whose letter images pass
    closed_by_certificate is those images, unsaturated, as its proof in
    decide._certified allows: the pair sums of a large level then cost no
    time."""
    from forestalg.decide import ClassTrace, NonconfusionReport

    alg = alpha.target
    if rs is None:
        rs = reachability(alg)
    letters = [(a, alpha.row(a))
               for a in sorted(set(alpha.alphabet), key=terms.label_key)]
    n = alg.H.size
    traces = {}
    for ci, members in enumerate(rs.classes):
        base = frozenset((h, g) for h in members for g in members if h != g)
        levels = [base]
        derivations = [{}]
        if not base:
            traces[ci] = ClassTrace(ci, members, levels, derivations, "empty", 0)
            continue
        j = 0
        while True:
            j += 1
            assert j <= n * n + 1
            prev = levels[-1]
            cur = {}
            queue = []
            for a, row in letters:
                for (h, g) in sorted(prev):
                    p = (row[h], row[g])
                    if p in base and p not in cur:
                        cur[p] = ("letter", a, (h, g))
                        queue.append(p)
            at = 0
            if skip_closed and closed_by_certificate(alg, members, queue):
                at = len(queue)
            while at < len(queue):
                h, g = queue[at]
                at += 1
                for c in range(n):
                    q = (alg.plus(h, c), alg.plus(g, c))
                    if q in base and q not in cur:
                        cur[q] = ("const", c, (h, g))
                        queue.append(q)
                for (h2, g2) in list(cur):
                    q = (alg.plus(h, h2), alg.plus(g, g2))
                    if q in base and q not in cur:
                        cur[q] = ("pair", (h, g), (h2, g2))
                        queue.append(q)
            level = frozenset(cur)
            assert level <= prev
            levels.append(level)
            derivations.append(cur)
            if not level or level == prev:
                break
        verdict = "confused" if level else "empty"
        traces[ci] = ClassTrace(ci, members, levels, derivations, verdict, j)
    ok = all(t.verdict == "empty" for t in traces.values())
    parameter = max((t.k for t in traces.values()), default=0)
    return NonconfusionReport(ok, parameter, traces)


def reference_realize(hom):
    """hom.realize without its numbered trees: every candidate is
    normalized, counted and printed anew, and every one is
    pushed."""
    alg = hom.target
    letters = sorted(set(hom.alphabet), key=terms.label_key)
    done = {}
    heap = [(0, "0", alg.zero, ())]
    while heap:
        size, text, h, forest = heapq.heappop(heap)
        if h in done:
            continue
        done[h] = forest
        for a in letters:
            val = hom.row(a)[h]
            if val not in done:
                f = (terms.tree(a, forest),)
                heapq.heappush(heap, (size + 1, terms.print_forest(f), val, f))
        for g, gf in done.items():
            val = alg.plus(h, g)
            if val not in done:
                f = terms.ic_normalize(forest + gf)
                heapq.heappush(heap, (terms.node_count(f), terms.print_forest(f),
                                      val, f))
    return done


def differential_homs():
    """Seeded homomorphisms on which the deciders' fast paths are compared
    with the references above: 300 random recognizers' homs, 3 big ones,
    the syntactic homs of 40 random depth-3 formulas over {a, b}, EX^n a
    for n = 1..5, and alpha1 on {a, b}."""
    from forestalg.defk import alpha1
    from forestalg.hom import syntactic

    rng = random.Random(2024)
    homs = [random_recognizer(rng).hom for _ in range(300)]
    homs += [random_big_recognizer(rng).hom
             for _ in range(3)]
    formulas = [random_formula(rng, ("a", "b"), 3) for _ in range(40)]
    formulas += [logic.parse_formula("EX " * n + "a") for n in range(1, 6)]
    for phi in formulas:
        homs.append(syntactic(logic.to_recognizer(phi, ("a", "b")))[0].hom)
    homs.append(alpha1(("a", "b")))
    return homs


def reference_quotient_view(casc, qhom):
    """The view of the EF+EX depth-k group as decompose once built it: a
    letter with the strict quotient's value of the children, read off the
    cascade's factor map, named by the quotient's names with its absorbing
    element anonymous as inf."""
    rho = casc.factor_map(qhom)
    qalg = qhom.target
    qinf = qalg.absorbing()
    n = len(casc.stages)

    def view(a, state):
        hq = rho[tuple(state[:n])]
        return (a, "inf" if hq == qinf else qalg.hname(hq))

    return view


def reference_relabeled(forest, hom, tag_names=None):
    """hom.relabeled by one bottom-up walk that returns each subforest's
    value with its relabeling, linear in the nodes."""
    alg = hom.target
    if tag_names is None:
        tag_names = alg.H.names

    def go(f):
        out = []
        val = alg.zero
        for label, children in f:
            nc, cv = go(children)
            out.append(((label, tag_names[cv]), nc))
            val = alg.plus(val, hom.row(label)[cv])
        return tuple(out), val

    return go(forest)[0]


def reference_alarm_fires(casc, alpha):
    """The EF+EX alarm stage's letters by the depth-k key resolution, as
    {(letter,) + state: fires} over the cascade's reachable states.

    A node's children value is resolved per root tree of their tagged
    depth-k key: above the peeled subminimal class by the strict quotient,
    inside it by the unique class value that forests with that key reach
    (nonconfusion), absorbing otherwise.  The stage fires when the sum of
    the resolved values, or the letter applied to it, is absorbing.
    """
    from forestalg.decide import nonconfusion
    from forestalg.oracle import key_value_sets
    from forestalg.reach import quotient_hom

    alg = alpha.target
    inf = alg.absorbing()
    rs = reachability(alg)
    cj = rs.subminimal[0]
    k = max(1, nonconfusion(alpha, rs).traces[cj].k)
    qhom, (reps, _) = quotient_hom(alpha, cj, "strict", rs)
    qalg = qhom.target
    qinf = qalg.absorbing()
    members = set(rs.classes[cj])
    tags = reference_class_tag_map(casc, reference_quotient_view(casc, qhom), k)
    tree_keys = sorted({(root_tree,) for key in tags.values()
                        for root_tree in key},
                       key=lambda key: terms.tree_key(("r", key)))
    tree_values = key_value_sets(alpha, cj, k, tree_keys, rs)
    qname_index = {qalg.hname(h): h for h in range(qalg.H.size)}
    qname_index["inf"] = qinf

    def resolve_component(root_tree):
        b, tagname = root_tree[0]
        q1 = qhom.row(b)[qname_index[tagname]]
        if q1 != qinf:
            return reps[q1]
        candidates = sorted(tree_values[(root_tree,)] & members)
        assert len(candidates) <= 1, "ambiguous class value"
        return candidates[0] if candidates else inf

    fires = {}
    for s in casc.reachable_states():
        total = alg.zero
        for root_tree in tags[s]:
            total = alg.plus(total, resolve_component(root_tree))
        for a in casc.alphabet:
            fires[(a,) + s] = total == inf or alpha.row(a)[total] == inf
    return fires


def reference_decompose_ef(alpha, max_size=None):
    """decompose_ef by its own EF recursion (Bojanczyk-Straubing-Walukiewicz):
    a two-element image is one u1 stage that reads no coordinates; several
    subminimal classes split into weak quotients; otherwise the single
    subminimal element h* is peeled by its strict quotient plus one u1
    stage.  That stage reads h*'s action where the quotient collapses, so
    on states that only absorbing forests reach it may differ from the
    alarm stage of the shared recursion.  Checks the EF identities and
    that the result factors alpha."""
    from forestalg.algebra import u1
    from forestalg.decide import is_ef_algebra
    from forestalg.decompose import (DEFAULT_MAX_SIZE, U1_STAGE, Cascade,
                                     Stage, _append_u1_stage)
    from forestalg.hom import image_restrict
    from forestalg.reach import quotient_hom

    def rec(casc, alpha):
        alg = alpha.target
        if alg.H.size == 1:
            return
        inf = alg.absorbing()
        if alg.H.size == 2:
            target = u1()
            cinf = target.V.names.index("cinf")
            casc.append(Stage(U1_STAGE, target, 0, {
                (a,): cinf if alpha.row(a)[alg.zero] == inf else target.one
                for a in casc.alphabet}))
            return
        rs = reachability(alg)
        if len(rs.subminimal) > 1:
            for cj in rs.subminimal:
                rec(casc, quotient_hom(alpha, cj, "weak", rs)[0])
            return
        cj = rs.subminimal[0]
        assert len(rs.classes[cj]) == 1, "EF identities force trivial classes"
        hstar = rs.classes[cj][0]
        qhom, (reps, _) = quotient_hom(alpha, cj, "strict", rs)
        rec(casc, qhom)
        rho = casc.factor_map(qhom)
        qinf = qhom.target.absorbing()
        _append_u1_stage(casc, lambda a, s: alpha.row(a)[
            reps[rho[s]] if rho[s] != qinf else hstar] == inf)

    alpha = image_restrict(alpha)
    assert is_ef_algebra(alpha.target)[0], "not an EF algebra"
    casc = Cascade(alpha.alphabet, max_size or DEFAULT_MAX_SIZE)
    rec(casc, alpha)
    assert casc.factors(alpha)[0], "reference EF cascade fails to factor"
    return casc


# ---------------------------------------------------------------------------
# Depth-k key closures

@dataclass
class TaggedClassClosure:
    class_index: int
    k: int
    pairs: frozenset       # (horizontal index, canonical key)
    tag_names: tuple       # horizontal index -> tag label used in keys

    def values_by_key(self):
        out = {}
        for h, key in self.pairs:
            out.setdefault(key, set()).add(h)
        return out


def tagged_class_closure(alpha, ci, k, rs=None, max_pairs=DEFAULT_MAX_PAIRS):
    """Exact set {(alpha(s), depth-k class of s relabeled through the strict
    quotient at the class) : s any forest}.

    A letter step tags the new root with the quotient value of the old
    forest, so elements of the class itself are tagged with the collapsed
    element and stay anonymous.  Exponential in k; desk scale only.
    """
    alg = alpha.target
    if rs is None:
        rs = reachability(alg)
    tag_names = class_tag_names(alpha, ci, rs)
    tensor = TensorEvaluator(alpha, KdefEvaluator(k),
                             lambda a, h: (a, tag_names[h]))
    pairs = image(tensor, sorted(set(alpha.alphabet), key=terms.label_key),
                  max_pairs, "tagged class closure")
    return TaggedClassClosure(ci, k, frozenset(pairs), tag_names)


def reference_class_tag_map(casc, view, k):
    """Map each reachable cascade state to the canonical depth-k key of the
    viewed relabeling, by closing the tensor of the cascade with a
    KdefEvaluator.  Functional once the cascade holds a depth-k group for
    the view; the decompositions read the same keys off that group's
    stages instead."""
    if k <= 0:
        return {s: () for s in casc.reachable_states()}
    decode = casc.decode    # the view reads tuple states, the cascade steps ints
    tagged = image(TensorEvaluator(casc, KdefEvaluator(k),
                                   lambda a, x: view(a, decode(x))),
                   casc.alphabet, casc.max_size, "depth-%d tag closure" % k)
    mapping = determines(tagged)[0]
    assert mapping is not None, "cascade prefix does not determine the class tag"
    return {decode(s): key for s, key in mapping.items()}
