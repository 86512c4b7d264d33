"""Definability deciders and confusion certificates.

The EF test is an identity check on the syntactic algebra, the EX test is
the definiteness degree, and the combined test runs, per reachability
class, a descending fixpoint over pairs of distinct class members: a level
starts from letter images of the previous level and saturates under adding
a common summand or summing two pairs, always filtered back into the base
set.  Saturation is skipped when the letter images already form, with the
diagonal, an equivalence that adding a common summand respects.  The class
is clean when some level empties; confusion is certified by unwinding the
recorded derivations into an explicit forest pair.
"""

from dataclasses import dataclass, field

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
    levels: list                 # levels[j] = frozenset of pairs at level j
    derivations: list            # derivations[j][pair] = derivation record;
                                 # level 0 has none, its pairs are base values
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


def _closed_images(pairs, members, loc, lo):
    """A certificate that a level's letter images need no saturation.

    pairs is S, the distinct pairs of one class C that the letter step
    queued; C is closed under + (the caller checks that once per class);
    loc numbers C's members 0..m-1 and sends every other value to m, and
    lo[h][c] = loc[h + c].  With D the diagonal of C, True means:
    (ii) S u D is an equivalence on C.  With row[i] = {i} u {j : (i, j) in
    S}, it is one iff row[i] == row[j] for every (i, j) in S, that is iff
    the distinct rows are disjoint: as each holds its own i, they cover
    the m members, so iff their sizes sum to m.
    (iii) For each block K of it and each c in H, the members of K + c
    that lie in C fall in one block.
    Then no sum is fresh.  A constant sum (h + c, g + c) in base lies in S
    by (iii).  Take x = (h, g) and y = (h2, g2) in S with x + y in base.
    g + h2 is in C, since C is closed under +, so by (iii) x + (h2, h2) =
    (h + h2, g + h2) and y + (g, g) = (g + h2, g + g2) lie in S u D, and by
    (ii) so does (h + h2, g + g2), which is distinct, so in S.  False
    proves nothing: the caller then saturates.
    """
    m = len(members)
    row = [1 << i for i in range(m)]
    for h, g in pairs:
        row[loc[h]] |= 1 << loc[g]
    blocks = {}
    for h, r in zip(members, row):
        blocks.setdefault(r, []).append(h)
    if sum(r.bit_count() for r in blocks) != m:
        return False
    block = row + [0]            # block[loc[x]] is x's block, 0 outside C
    for ks in blocks.values():
        if len(ks) > 1:
            for col in zip(*[lo[k] for k in ks]):     # col[i] = loc[ks[i] + c]
                ids = set(map(block.__getitem__, col))
                ids.discard(0)
                if len(ids) > 1:
                    return False
    return True


def nonconfusion(alpha, rs=None):
    """Run the per-class pair fixpoint; exact decision of nonconfusion.

    Levels shrink monotonically, so each class stabilizes within |H|^2
    outer iterations (asserted).  Every surviving pair carries the
    derivation that produced it, for witness extraction.  H must be
    commutative and idempotent, as check_axioms() enforces: each pair is
    summed only with the pairs queued behind it when its turn comes, and
    a level whose letter images pass _closed_images is not saturated at
    all; the records are the same either way.
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
    n = len(op)
    traces = {}
    for ci, members in enumerate(rs.classes):
        base = frozenset((h, g) for h in members for g in members if h != g)
        levels = [base]
        derivations = [{}]
        if not base:
            traces[ci] = ClassTrace(ci, members, levels, derivations, "empty", 0)
            continue
        # Pairs are tested by integer code: loc numbers the members 0..m-1
        # and sends every other value to m, and (x, y) has the code
        # loc[x] * width + loc[y].  fresh[code] is 1 while the pair is in
        # base and not yet in the level.  hi[h] and lo[g] are h's and g's
        # sum rows run through loc, so the code of (h + c, g + c) is
        # hi[h][c] + lo[g][c].
        m = len(members)
        width = m + 1
        loc = [m] * n
        for i, h in enumerate(members):
            loc[h] = i
        base_fresh = bytearray(width * width)
        for h, g in base:
            base_fresh[loc[h] * width + loc[g]] = 1
        hi = {h: [loc[x] * width for x in op[h]] for h in members}
        lo = {h: [loc[x] for x in op[h]] for h in members}
        plus_closed = all(lo[h][g] < m for h in members for g in members)
        j = 0
        while True:
            j += 1
            if j > n ** 2 + 1:
                raise InternalError("pair fixpoint exceeded |H|^2 iterations")
            prev = levels[-1]
            prev_pairs = sorted(prev)
            fresh = bytearray(base_fresh)
            cur = {}
            queue = []
            for a, row in letters:
                for parent in prev_pairs:
                    q = (row[parent[0]], row[parent[1]])
                    code = loc[q[0]] * width + loc[q[1]]
                    if fresh[code]:
                        fresh[code] = 0
                        cur[q] = ("letter", a, parent)
                        queue.append(q)
            # Letter images that _closed_images certifies closed would
            # queue nothing: start the saturation past them.
            at = 0
            if plus_closed and _closed_images(queue, members, loc, lo):
                at = len(queue)
            # Each pair sums only with queue[at + 1:start], the pairs waiting
            # behind it when its turn came; its other sums queue nothing.  By
            # h + h = h its sum with a pair it queued is that pair.  By
            # induction, if i's turn ended before `at` = m + (c, c) or m + l
            # was queued (i < m < l), i + m was queued, diagonal or outside
            # the class, which sums never reenter, so i + `at` is outside base
            # or a sum that an ended turn already formed.
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
            level = frozenset(cur)
            if not level <= prev:
                raise InternalError("pair levels are not descending")
            levels.append(level)
            derivations.append(cur)
            if not level:
                verdict = "empty"
                break
            if level == prev:
                verdict = "confused"
                break
        traces[ci] = ClassTrace(ci, members, levels, derivations, verdict, j)
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
    pair = sorted(trace.levels[-1])[0]
    s, t, k = confusion_witness(mu, trace, pair, rs=rs)
    detail = ("confused pair (%s, %s) at level %d: %s vs %s"
              % (mu.target.hname(pair[0]), mu.target.hname(pair[1]), k,
                 terms.print_forest(s), terms.print_forest(t)))
    return Decision("efex", False, syn, (s, t, k, ci), detail, report)
