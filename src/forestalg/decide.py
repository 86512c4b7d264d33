"""Definability deciders and confusion certificates.

The EF test is an identity check on the syntactic algebra, the EX test is
the definiteness degree, and the combined test runs, per reachability
class, a descending fixpoint over pairs of distinct class members: a level
starts from letter images of the previous level and saturates under adding
a common summand or summing two pairs, always filtered back into the base
set.  Saturation is skipped when the letter images already form, with the
diagonal, an equivalence that adding a common summand respects.  Such a
level is held as the blocks of that equivalence, and the next level's
letter images are read off the blocks' images, in |A| x m steps for a
class of m members; its derivations are found when read.  The class is
clean when some level empties; confusion is certified by unwinding the
recorded derivations into an explicit forest pair.
"""

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain

from . import terms
from .defk import definiteness_degree, simk_key
from .errors import InternalError
from .hom import (Recognizer, constant_letter_realizers, realize, relabeled,
                  syntactic)
from .reach import class_tag_names, reachability


# ---------------------------------------------------------------------------
# EF identities

@dataclass(frozen=True)
class EFViolation:
    kind: str          # "absorption": v.h + h != v.h, where g = v.h
    v: int
    h: int
    g: int
    text: str

    def __str__(self):
        return self.text


def is_ef_algebra(alg):
    """Check the absorption identity v.h + h = v.h on the generators of V.

    Maps with f(h) + h = f(h) are closed under composition, and the
    generators are V's first elements, so the first violation over the
    generators is the first over all of V; ``generator_names`` names it
    without building V.  Commutativity of H is a law of every valid
    algebra, reported by check_axioms().
    """
    for v, row in enumerate(alg.generators):
        for h, vh in enumerate(row):
            if alg.plus(vh, h) != vh:
                return False, EFViolation(
                    "absorption", v, h, vh,
                    "%s.%s + %s = %s != %s = %s.%s"
                    % (alg.generator_names[v], alg.hname(h), alg.hname(h),
                       alg.hname(alg.plus(vh, h)), alg.hname(vh),
                       alg.generator_names[v], alg.hname(h)))
    return True, None


# ---------------------------------------------------------------------------
# Nonconfusion fixpoint

@dataclass
class ClassTrace:
    class_index: int
    members: tuple
    levels: list                 # levels[j] = the Set of pairs at level j:
                                 # Blocks when it is an equivalence on the
                                 # class, else a frozenset
    derivations: list            # derivations[j][pair] = derivation record,
                                 # a Mapping; level 0 has none, its pairs are
                                 # base values
    verdict: str                 # "empty" or "confused"
    k: int                       # first empty level, or the stable level

    @property
    def confused(self):
        return self.verdict == "confused"


@dataclass
class NonconfusionReport:
    nonconfusing: bool
    parameter: int               # works for every level >= this
    traces: dict = field(repr=False)

    def confused_classes(self):
        return sorted(ci for ci, t in self.traces.items() if t.confused)


class Blocks(Set):
    """A pair level that is an equivalence on its class: the distinct pairs
    of members in one block.  ``ids[i]`` is the block of the class's i-th
    member, and ids[m] = -1 stands for every value outside the m members;
    ``blocks[b]`` lists block b's member positions.  Both run in increasing
    order, so iteration is sorted, as sorted() of a frozenset level is."""

    def __init__(self, members, ids, blocks):
        self.members, self.ids, self.blocks = members, ids, blocks

    @classmethod
    def _from_iterable(cls, pairs):
        return frozenset(pairs)

    def __len__(self):
        return sum(len(K) * (len(K) - 1) for K in self.blocks)

    def __iter__(self):
        members, blocks = self.members, self.blocks
        for i, h in enumerate(members):
            for j in blocks[self.ids[i]]:
                if j != i:
                    yield h, members[j]

    def __contains__(self, pair):
        i, j = map(self._position, pair)
        return i != j and self.ids[i] == self.ids[j]

    def _position(self, h):
        i = bisect_left(self.members, h)
        return i if self.members[i:i + 1] == (h,) else len(self.members)


class _LetterRecords(Mapping):
    """The records of a Blocks level stepped from a Blocks level, all
    letter steps: a pair's record is ("letter", a, parent) for the first
    letter a that sends some pair of the previous level to it, and the
    least such parent.  A lookup searches for it; iteration and items()
    build the fixpoint's records, in its order, once."""

    def __init__(self, level, prev, letters, loc):
        self.level, self.prev, self.letters, self.loc = level, prev, letters, loc

    def __getitem__(self, pair):
        if pair not in self.level:
            raise KeyError(pair)
        x, y = pair
        members, ids, blocks = self.prev.members, self.prev.ids, self.prev.blocks
        for a, row in self.letters:
            for i, h in enumerate(members):
                if row[h] == x:
                    for j in blocks[ids[i]]:
                        if j != i and row[members[j]] == y:
                            return "letter", a, (h, members[j])
        raise InternalError("pair %r has no letter parent" % (pair,))

    def __len__(self):
        return len(self.level)

    def __iter__(self):
        return iter(self._records)

    def items(self):
        return self._records.items()

    @cached_property
    def _records(self):
        return _letter_records(self.letters, sorted(self.prev), self.loc,
                               len(self.prev.members))[0]


def _letter_records(letters, prev_pairs, loc, m):
    """The letter step: each image of a previous pair under a letter that is
    in base and new to the level, mapped to ("letter", a, parent) for its
    first derivation, letters in order, then prev_pairs in order.  loc
    numbers the class's m members 0..m-1 and sends every other value to m.
    Also returns fresh: fresh[loc[x] * (m + 1) + loc[y]] is 1 while (x, y)
    is in base and not in the level."""
    width = m + 1
    fresh = bytearray(b"\x01" * m + b"\x00") * m + bytearray(width)
    fresh[::width + 1] = bytes(width)
    cur = {}
    for a, row in letters:
        for parent in prev_pairs:
            q = (row[parent[0]], row[parent[1]])
            code = loc[q[0]] * width + loc[q[1]]
            if fresh[code]:
                fresh[code] = 0
                cur[q] = ("letter", a, parent)
    return cur, fresh


def join_irreducibles(op, zero):
    """H's join-irreducibles, the c != 0 that are no sum of two elements
    below c, in increasing order.  Every element of H is a sum of them.
    a + b = c holds for a = c, b <= c and for b = c, a <= c, so for 2|{b :
    b <= c}| - 1 pairs, and for more exactly when c is such a sum."""
    sums = Counter(chain.from_iterable(op))
    return [c for c, row in enumerate(op)
            if c != zero and sums[c] == 2 * row.count(c) - 1]


def _certified(rows, columns):
    """A certificate that a level's letter images need no saturation, and
    the blocks they then form.

    The images S are distinct pairs of one class C of m members, and C is
    closed under + (the caller checks that once per class).  rows[i] holds
    bit i and bit j for each (i, j) in S, by position in C; col in
    columns() lists each member's sum with one join-irreducible c of H, by
    position, m outside C.  With D the diagonal of C, a certificate means:
    (ii) S u D is an equivalence on C.  It is one iff rows[i] == rows[j]
    for every (i, j) in S, that is iff the distinct rows are disjoint: as
    each holds its own i, they cover the m members, so iff their sizes sum
    to m.
    (iii) For each block K of it and each c in H, the members of K + c
    that lie in C fall in one block.  The join-irreducibles suffice: every
    c is a sum of them, and as C is convex in the reachability order, k +
    c1 outside C puts k + c1 + c2 outside C, so the members of K that c1 +
    c2 keeps in C go by c1 into one block and from there by c2 into one.
    Then no sum is fresh.  A constant sum (h + c, g + c) in base lies in S
    by (iii).  Take x = (h, g) and y = (h2, g2) in S with x + y in base.
    g + h2 is in C, since C is closed under +, so by (iii) x + (h2, h2) =
    (h + h2, g + h2) and y + (g, g) = (g + h2, g + g2) lie in S u D, and by
    (ii) so does (h + h2, g + g2), which is distinct, so in S.
    Returns (ids, blocks) as Blocks holds them, or None, which proves
    nothing: the caller then saturates.  columns() is called only when
    there are blocks of several members besides other blocks.
    """
    m = len(rows)
    groups = {}
    for i, r in enumerate(rows):
        groups.setdefault(r, []).append(i)
    if sum(r.bit_count() for r in groups) != m:
        return None
    blocks = list(groups.values())
    ids = [0] * m + [-1]
    for b, K in enumerate(blocks):
        for i in K:
            ids[i] = b
    if 1 < len(blocks) < m:
        big = [K for K in blocks if len(K) > 1]
        for col in columns():
            for K in big:
                hit = {ids[col[i]] for i in K}
                hit.discard(-1)
                if len(hit) > 1:
                    return None
    return ids, blocks


def _saturate(queue, cur, fresh, op, hi, lo):
    """Close the level in cur under adding a common summand and summing two
    pairs, within base.  queue lists cur's pairs in order and both grow;
    fresh is as _letter_records returns it, and hi[h] and lo[g] are h's and
    g's sum rows as codes, so the code of (h + c, g + c) is hi[h][c] +
    lo[g][c].

    Each pair sums only with queue[at + 1:start], the pairs waiting behind
    it when its turn came; its other sums queue nothing.  By h + h = h its
    sum with a pair it queued is that pair.  By induction, if i's turn
    ended before `at` = m + (c, c) or m + l was queued (i < m < l), i + m
    was queued, diagonal or outside the class, which sums never reenter,
    so i + `at` is outside base or a sum that an ended turn already formed.
    """
    n = len(op)
    at = 0
    while at < len(queue):
        p = queue[at]
        h, g = p
        sum_h, sum_g = op[h], op[g]
        hi_h, lo_g = hi[h], lo[g]
        start = len(queue)
        for c in range(n):
            code = hi_h[c] + lo_g[c]
            if fresh[code]:
                fresh[code] = 0
                q = (sum_h[c], sum_g[c])
                cur[q] = ("const", c, p)
                queue.append(q)
        for p2 in queue[at + 1:start]:
            h2, g2 = p2
            code = hi_h[h2] + lo_g[g2]
            if fresh[code]:
                fresh[code] = 0
                q = (sum_h[h2], sum_g[g2])
                cur[q] = ("pair", p, p2)
                queue.append(q)
        at += 1


def _once(make):
    """A function that returns make(), calling it on its first call only."""
    held = []

    def get():
        if not held:
            held.append(make())
        return held[0]
    return get


def _class_trace(ci, members, letters, op, joins):
    """The pair fixpoint on one reachability class; ``joins()`` gives H's
    join-irreducibles.

    A level stepped from a Blocks level whose letter images pass
    _certified is Blocks too, and is found from the blocks' images alone:
    the images of the pairs of a block K under a letter are the distinct
    pairs of a(K) that lie in the class.  Otherwise the previous level's
    pairs are stepped one by one and the images saturated."""
    n, m = len(op), len(members)
    levels = [Blocks(members, [0] * m + [-1], [list(range(m))])]
    derivations = [{}]
    if m == 1:
        return ClassTrace(ci, members, levels, derivations, "empty", 0)
    loc = [m] * n
    for i, h in enumerate(members):
        loc[h] = i
    # The class is convex in the reachability order, and h, g <= h + g <=
    # the sum of all members, so it is closed under + iff it holds that sum.
    plus_closed = loc[reduce(lambda s, h: op[s][h], members)] < m
    images = [[loc[row[h]] for h in members] for _, row in letters]

    columns = _once(lambda: [[loc[op[c][h]] for h in members]
                             for c in joins()])
    code_rows = _once(lambda: (
        {h: [loc[x] * (m + 1) for x in op[h]] for h in members},
        {h: [loc[x] for x in op[h]] for h in members}))

    j = 0
    while True:
        j += 1
        if j > n ** 2 + 1:
            raise InternalError("pair fixpoint exceeded |H|^2 iterations")
        prev = levels[-1]
        blocked = isinstance(prev, Blocks)
        cert = None
        if blocked and plus_closed:
            rows = [1 << i for i in range(m)]
            for image in images:
                for K in prev.blocks:
                    hit = {image[i] for i in K}
                    hit.discard(m)
                    if len(hit) > 1:
                        bits = sum(1 << x for x in hit)
                        for x in hit:
                            rows[x] |= bits
            cert = _certified(rows, columns)
            if cert:
                level = Blocks(members, *cert)
                records = _LetterRecords(level, prev, letters, loc)
        if cert is None:
            records, fresh = _letter_records(letters, sorted(prev), loc, m)
            queue = list(records)
            if plus_closed and not blocked:
                rows = [1 << i for i in range(m)]
                for h, g in queue:
                    rows[loc[h]] |= 1 << loc[g]
                cert = _certified(rows, columns)
            if cert:
                level = Blocks(members, *cert)
            else:
                _saturate(queue, records, fresh, op, *code_rows())
                level = frozenset(records)
        if blocked and cert:
            # refinement: each new block meets one old block (ids[m] = -1
            # in both); then equal block counts mean equal levels
            descends = len(set(zip(level.ids, prev.ids))) == len(level.blocks) + 1
            stable = len(level.blocks) == len(prev.blocks)
        else:
            descends, stable = level <= prev, level == prev
        if not descends:
            raise InternalError("pair levels are not descending")
        levels.append(level)
        derivations.append(records)
        if not level:
            return ClassTrace(ci, members, levels, derivations, "empty", j)
        if stable:
            return ClassTrace(ci, members, levels, derivations, "confused", j)


def nonconfusion(alpha, rs=None):
    """Run the per-class pair fixpoint; exact decision of nonconfusion.

    Levels shrink monotonically, so each class stabilizes within |H|^2
    outer iterations (asserted).  Every surviving pair carries the
    derivation that produced it, for witness extraction.  H must be
    commutative and idempotent and V must hold the insertions, as
    check_axioms() enforces: each pair is summed only with the pairs
    queued behind it when its turn comes, and a level whose letter images
    pass _certified is not saturated at all but held as Blocks, whose
    records are built when read; the records are the same either way.
    The fixpoint runs on all of H, so the verdict is alpha's only when
    alpha is onto its target: otherwise run it on image_restrict(alpha),
    which returns alpha itself, at no cost, when alpha is marked onto.
    """
    alg = alpha.target
    if rs is None:
        rs = reachability(alg)
    letters = [(a, alpha.row(a))
               for a in sorted(set(alpha.alphabet), key=terms.label_key)]
    op = alg.H.op
    joins = _once(lambda: join_irreducibles(op, alg.zero))
    traces = {ci: _class_trace(ci, members, letters, op, joins)
              for ci, members in enumerate(rs.classes)}
    ok = all(t.verdict == "empty" for t in traces.values())
    parameter = max((t.k for t in traces.values()), default=0)
    return NonconfusionReport(ok, parameter, traces)


# ---------------------------------------------------------------------------
# Witness extraction

def confusion_witness(alpha, trace, pair, k=None, rs=None, realizers=None):
    """Forests (s, t) with the pair's two values and k-equivalent taggings.

    Unwinds the recorded derivation: letter steps prepend the letter to the
    parent witnesses, a common summand is realized once and added to both
    sides, and pair sums concatenate the two witness pairs.  Base values at
    positive k prefer single-letter witnesses whose root has constant
    action, so the value is manifest; at k = 0 the minimal realizers are
    used.  All three claims are re-verified before returning.  Raises
    ValueError when alpha is not onto its target, as some base value may
    then have no witness.  ``realizers`` is the pair (realize(alpha),
    constant_letter_realizers(alpha)), computed here when None; a caller
    asking for several witnesses of one hom passes it, as it passes ``rs``.
    """
    if k is None:
        k = trace.k
    if pair not in trace.levels[0]:
        raise ValueError("pair %r is not a distinct same-class pair" % (pair,))
    last = len(trace.levels) - 1
    if pair not in trace.levels[min(k, last)] or (
            k > last and trace.verdict != "confused"):
        raise ValueError("pair %r does not survive to level %d" % (pair, k))
    if realizers is None:
        realizers = realize(alpha), constant_letter_realizers(alpha)
    minimal, constants = realizers
    missing = [h for h in range(alpha.target.H.size) if h not in minimal]
    if missing:
        raise ValueError("alpha is not onto its target: no forest takes %s"
                         % alpha.target.hname(missing[0]))
    base = {**minimal, **constants} if k > 0 else minimal

    def extract(p, level):
        if level <= 0:
            return base[p[0]], base[p[1]]
        d = trace.derivations[min(level, len(trace.levels) - 1)].get(p)
        if d is None:
            raise InternalError("pair %r missing at level %d" % (p, level))
        if d[0] == "letter":
            a, parent = d[1], d[2]
            s, t = extract(parent, level - 1)
            return (terms.tree(a, s),), (terms.tree(a, t),)
        if d[0] == "const":
            c, parent = d[1], d[2]
            s, t = extract(parent, level)
            u = minimal[c]
            return s + u, t + u
        if d[0] == "pair":
            s1, t1 = extract(d[1], level)
            s2, t2 = extract(d[2], level)
            return s1 + s2, t1 + t2
        raise InternalError("unknown derivation %r" % (d,))

    s, t = extract(pair, k)
    if alpha.eval(s) != pair[0] or alpha.eval(t) != pair[1]:
        raise InternalError("witness values do not match the pair")
    tags = class_tag_names(alpha, trace.class_index, rs)
    if simk_key(relabeled(s, alpha, tags), k) != simk_key(relabeled(t, alpha, tags), k):
        raise InternalError("witness taggings are not %d-equivalent" % k)
    return s, t, k


# ---------------------------------------------------------------------------
# The three deciders

@dataclass
class Decision:
    fragment: str
    definable: bool
    syntactic: Recognizer
    certificate: object = None
    detail: str = ""
    nonconfusion: NonconfusionReport = None     # the efex pair fixpoint


def decide(rec, fragment):
    """Is the recognized language definable in the given fragment?

    ef: the syntactic algebra satisfies the two EF identities.
    ex: the syntactic morphism is k-definite for some k.
    efex: the syntactic morphism is nonconfusing.
    Negative answers carry a certificate: the violated identity, the
    degree None, or an explicit confusion witness.
    """
    if fragment not in ("ef", "ex", "efex"):
        raise ValueError("fragment must be ef, ex or efex")
    syn, _ = syntactic(rec)
    mu = syn.hom
    if fragment == "ef":
        ok, violation = is_ef_algebra(mu.target)
        return Decision("ef", ok, syn, violation,
                        "" if ok else str(violation))
    if fragment == "ex":
        degree = definiteness_degree(mu)
        ok = degree is not None
        detail = "definiteness degree %s" % ("none" if degree is None else degree)
        return Decision("ex", ok, syn, degree, detail)
    rs = reachability(mu.target)
    report = nonconfusion(mu, rs)
    if report.nonconfusing:
        return Decision("efex", True, syn, None,
                        "nonconfusing with parameter %d" % report.parameter,
                        report)
    ci = report.confused_classes()[0]
    trace = report.traces[ci]
    pair = min(trace.levels[-1])
    s, t, k = confusion_witness(mu, trace, pair, rs=rs)
    detail = ("confused pair (%s, %s) at level %d: %s vs %s"
              % (mu.target.hname(pair[0]), mu.target.hname(pair[1]), k,
                 terms.print_forest(s), terms.print_forest(t)))
    return Decision("efex", False, syn, (s, t, k, ci), detail, report)
