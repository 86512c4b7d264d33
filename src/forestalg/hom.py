"""Homomorphisms out of the free forest algebra.

A homomorphism assigns to each letter a generator of the target's V and is
an evaluator (see joint) that acts by those letter rows.  This module
provides evaluation of forests and contexts, the exact reachable-pair
closure used for factoring tests, image restriction, syntactic quotients
of recognizers, and witness-term realization.

tabulated() builds every algebra the package computes, from a sum table and
letter rows (io loads recognizer files through the same
algebra.generated_algebra).  V is closed only when first read.
generated() tabulates a state list closed under the letter steps and the
sum.  quotient() reads every quotient, syntactic, by an ideal or onto an
image, off the rows of the hom's tables at its classes' representatives.
Image restriction and the syntactic quotient (partition refinement on H
under letters and tree-value insertions) never build a vertical monoid.

A homomorphism's ``onto`` mark records that every element of its target
is the value of some forest.  tabulated() sets it, as its tables are an
image's; a quotient keeps it when its representatives are values, so every
syntactic quotient has it, and a quotient of all of a non-onto H does not.
Homomorphisms built by hand or loaded from files never have it.  On a
marked homomorphism image restriction and the syntactic quotient take all
of H as the image instead of computing it.
"""

import heapq
from dataclasses import dataclass, field

from . import terms
from .algebra import ForestAlgebra, _after, generated_algebra, horizontal_monoid
from .errors import AlphabetMismatchError, StructuralError, UnknownLetterError
from .joint import DEFAULT_MAX_JOINT, determines, evaluate, image, joint_image


@dataclass
class Homomorphism:
    alphabet: tuple
    target: ForestAlgebra
    assign: dict = field(repr=False)
    onto: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        missing = [a for a in self.alphabet if a not in self.assign]
        if missing:
            raise UnknownLetterError("letters without assignment: %r" % (missing,))
        for a, v in self.assign.items():
            if not isinstance(v, int) or not (
                    0 <= v < len(self.target.generators) or 0 <= v < self.target.V.size):
                raise StructuralError("letter %r assigned %r, outside V" % (a, v))

    def letter(self, a):
        try:
            return self.assign[a]
        except KeyError:
            raise UnknownLetterError("letter %r not in alphabet" % (a,)) from None

    def row(self, a):
        """The action row of a letter on H."""
        return self.target.vrow(self.letter(a))

    def zero_state(self):
        return self.target.zero

    def plus_state(self, x, y):
        return self.target.H.row(x)[y]

    def letter_action(self, a, x):
        return self.row(a)[x]

    eval = evaluate     # value of a forest in the target's horizontal monoid

    def eval_context(self, ctx):
        """Action of a context as a function row on H: entry h is the value
        of the context with a forest of value h in its hole."""
        if not terms.count_holes(ctx):
            raise ValueError("not a context: no hole")
        alg = self.target

        def value(forest, h):
            total = alg.zero
            for label, children in forest:
                x = h if label == terms.HOLE else self.row(label)[value(children, h)]
                total = alg.plus(total, x)
            return total

        return tuple(value(ctx, h) for h in range(alg.H.size))

    def context_element(self, ctx):
        """Vertical element with the context's action, when one exists."""
        row = self.eval_context(ctx)
        for v in range(self.target.V.size):
            if self.target.action[v] == row:
                return v
        return None

    def eval_name(self, forest):
        return self.target.hname(self.eval(forest))


@dataclass
class Recognizer:
    hom: Homomorphism
    accept: frozenset

    def __post_init__(self):
        self.accept = frozenset(self.accept)
        n = self.hom.target.H.size
        if any(not (0 <= h < n) for h in self.accept):
            raise ValueError("accepting set out of range")

    def accepts(self, forest):
        return self.hom.eval(forest) in self.accept


def relabeled(forest, hom, tag_names=None):
    """Tag every node with the hom's value of its forest of strict descendants.

    Labels in the result are pairs (letter, element name); ``tag_names``
    overrides the printed name per element, e.g. to anonymize a collapsed
    ideal.  Each node's forest is evaluated anew, so the cost is the node
    count times the depth; the package relabels only witness forests, to
    verify them.
    """
    if tag_names is None:
        tag_names = hom.target.H.names
    return terms.relabel(forest, lambda children: tag_names[hom.eval(children)])


# ---------------------------------------------------------------------------
# Exact closures

def reachable_pairs(alpha, beta):
    """Exact set {(alpha(s), beta(s)) : s a forest} via the worklist closure.

    Every forest is generated from 0 by letters and +, so the least set
    containing (0,0) closed under both is exactly the joint image.  It
    holds at most DEFAULT_MAX_JOINT pairs, or SizeLimitError is raised.
    """
    if set(alpha.alphabet) != set(beta.alphabet):
        raise AlphabetMismatchError("homomorphisms must share an alphabet")
    return set(joint_image(alpha, beta, alpha.alphabet, DEFAULT_MAX_JOINT))


def factors_through(beta, alpha):
    """Does alpha(s) = alpha(s') force beta(s) = beta(s')?  Exact, no sampling.

    Returns (True, None) or (False, (h, g1, g2)) where h is the least
    alpha-value reached with two distinct beta-values, g1 < g2 the least two.
    """
    witness = determines(reachable_pairs(alpha, beta))[1]
    return witness is None, witness


# ---------------------------------------------------------------------------
# Generated algebras, image restriction and the syntactic quotient

def generated(alphabet, states, act, plus, zero, names=None):
    """The homomorphism onto the algebra generated by the letter steps.

    ``states`` is an image, as joint.image and joint.closure leave it: it
    holds ``zero``, is closed under ``act(a, x)`` for every letter a and
    under ``plus(x, y)``, and each state is reached from ``zero`` by those
    steps.  Element i is ``states[i]``, named ``names[i]``; tabulated()
    builds the result.
    """
    pos = {x: i for i, x in enumerate(states)}
    return tabulated(alphabet, [[pos[plus(x, y)] for y in states] for x in states],
                     pos[zero], [[pos[act(a, x)] for x in states] for a in alphabet],
                     names)


def tabulated(alphabet, table, zero, rows, names=None):
    """The homomorphism onto the algebra with sum table ``table`` and
    identity ``zero`` in which ``alphabet[i]`` acts by ``rows[i]``, marked
    onto: the tables are an image's.  Elements are named ``names`` as
    horizontal_monoid canonicalizes them; V is closed on its first read."""
    H = horizontal_monoid(table, zero, names)
    labels = [terms.print_label(a) for a in alphabet]
    alg, genmap = generated_algebra(H, dict(zip(labels, rows)))
    hom = Homomorphism(alphabet, alg, {a: genmap[n] for a, n in zip(alphabet, labels)})
    hom.onto = True
    return hom


def quotient(hom, reps, cls):
    """The homomorphism onto the quotient of hom's image whose element i is
    the class of ``reps[i]``; ``cls`` sends each element of the image to
    its class's index, and classes keep their representatives' names.
    Each row of the tables is one lookup of a row of hom's tables at the
    representatives.  The result is marked onto, which is true when every
    representative is a value of hom; a caller that quotients all of a
    non-onto H clears the mark."""
    alg = hom.target
    pick = _after(reps)     # a row's entries at the representatives
    return tabulated(hom.alphabet,
                     [tuple(map(cls.__getitem__, pick(alg.H.row(r)))) for r in reps],
                     cls[alg.zero],
                     [tuple(map(cls.__getitem__, pick(hom.row(a)))) for a in hom.alphabet],
                     [alg.hname(h) for h in reps])


def _carrier(hom):
    """The values of hom in increasing order: all of H when it is onto."""
    if hom.onto:
        return range(hom.target.H.size)
    return sorted(image(hom, hom.alphabet))


def _restrict(hom):
    """Restriction onto the generated subalgebra; returns (hom, carrier).

    ``carrier`` lists the reachable horizontal indices in increasing order,
    the order of the restricted algebra's elements.  An onto hom is its
    own restriction.
    """
    carrier = _carrier(hom)
    if hom.onto:
        return hom, carrier
    return quotient(hom, carrier, {h: i for i, h in enumerate(carrier)}), carrier


def image_restrict(hom):
    """The same letter assignment, viewed onto the subalgebra it generates."""
    return _restrict(hom)[0]


def restrict_recognizer(rec):
    hom, carrier = _restrict(rec.hom)
    accept = frozenset(i for i, h in enumerate(carrier) if h in rec.accept)
    return Recognizer(hom, accept)


def syntactic(rec):
    """Minimal recognizer of the same language, with the horizontal projection.

    Two reachable elements are identified when no vertical element separates
    them with respect to the accepting set.  The image's V is generated by
    the letters and the insertions, and every insertion is a composite of
    insertions of tree values (letter-step results), so this is the
    coarsest partition that refines accept/reject and that every letter
    and tree-value insertion maps into itself (Moore's refinement, on H
    alone, |A| + T + 1 steps per element for T tree values).  Classes are
    numbered by their least member, which represents the class; only the
    representatives are tabulated.  Any recognizer of the language factors
    onto the result.

    The reachable elements are all of H on a hom marked onto, and
    joint.image's otherwise; the quotient is marked onto either way.
    Returns (recognizer, projection): the projection is a dict from each
    reachable element of the input to its class.
    """
    hom, alg = rec.hom, rec.hom.target
    carrier = _carrier(hom)
    # The steps of carrier[i] are its images under every letter, inserting
    # 0 and inserting each tree value; signature[i] reads their blocks off
    # block_of.  Every element of the image is a sum of tree values, whose
    # insertion is the composite of theirs, so these insertions give the
    # same partition as all of them.  Inserting 0 is the identity, so each
    # new block refines the old one.
    pick = _after(carrier)      # a row's entries at the carrier
    rows = [hom.row(a) for a in hom.alphabet]
    trees = set().union(*map(pick, rows))
    rows += [alg.H.row(g) for g in sorted(trees | {alg.zero})]
    signature = [_after(steps) for steps in zip(*map(pick, rows))]
    block, count = [h in rec.accept for h in carrier], 0
    block_of = [None] * alg.H.size    # the block of each reachable element
    while len(set(block)) > count:
        count = len(set(block))
        for h, b in zip(carrier, block):
            block_of[h] = b
        sigs = {}  # blocks numbered by first, hence least, member
        block = [sigs.setdefault(sig(block_of), len(sigs)) for sig in signature]
    proj = dict(zip(carrier, block))
    qhom = quotient(hom, [carrier[block.index(c)] for c in range(count)], proj)
    accept = {c for c, h in zip(block, carrier) if h in rec.accept}
    return Recognizer(qhom, accept), proj


# ---------------------------------------------------------------------------
# Witness realization

def realize(hom):
    """Minimal witness forest for every value in the image.

    A Dijkstra-style search over candidate forests in normal form
    (terms.ic_normalize), ordered by (node count, printed form, value), so
    the result is deterministic and certificates are readable.  A value is
    fixed by the first of its candidates to leave the heap.  Fixing h with
    forest f yields, for each letter a, the candidate a(f) of value
    row(a)[h], and for each fixed g, h included, the normal form of f plus
    g's forest, of value h + g.  Returns the dict from each value to its
    forest, in the order the values were fixed.

    Each pushed letter candidate is one tree, numbered when it is pushed,
    with its tree_key, text, size and tree kept under that id; a fixed
    value's forest is the tuple of its trees' ids sorted by key.  A normal
    forest is its trees sorted by tree_key without repeats, and a tree is
    pushed at most once, so the normal form of a sum is the sorted union of
    the two id tuples (as in defk.key_sum), its size and text joined from
    the ids.  No candidate is normalized, counted or printed.

    best[v] is the least (size, text) pushed for a value v, and only a
    candidate below it is pushed.  A value is fixed by the least candidate
    pushed before its first pop, which every skipped candidate exceeds, so
    the forests and their order are those of pushing every candidate.  A
    sum holds all of f's trees, so it is never below f's (size, text), and
    the union is skipped when best[h + g] is already at most that.
    """
    alg = hom.target
    op = alg.H.op
    letters = [(terms.label_key(a), terms.print_label(a), a, hom.row(a))
               for a in sorted(set(hom.alphabet), key=terms.label_key)]
    keys, texts, sizes, trees = [], [], [], []  # indexed by tree id
    done, ids = {}, {}
    best = {alg.zero: (0, "0")}
    heap = [(0, "0", alg.zero, ())]
    while heap:
        size, text, h, forest = heapq.heappop(heap)
        if h in done:
            continue
        done[h] = tuple(map(trees.__getitem__, forest))
        ids[h] = forest
        below = tuple(map(keys.__getitem__, forest))
        for key, name, a, row in letters:
            val = row[h]
            if val in done:
                continue
            cand = (size + 1, name + "(" + text + ")" if forest else name)
            if val not in best or cand < best[val]:
                best[val] = cand
                heapq.heappush(heap, (*cand, val, (len(trees),)))
                keys.append((key, below))
                texts.append(cand[1])
                sizes.append(cand[0])
                trees.append((a, done[h]))
        least = (size, text)
        sums = op[h]
        for g, other in ids.items():
            val = sums[g]
            if val in done or (val in best and best[val] <= least):
                continue
            union = tuple(sorted(set(forest).union(other), key=keys.__getitem__))
            cand = (sum(map(sizes.__getitem__, union)),
                    "+".join(map(texts.__getitem__, union)) or "0")
            if val not in best or cand < best[val]:
                best[val] = cand
                heapq.heappush(heap, (*cand, val, union))
    return done


def constant_letter_realizers(hom):
    """Single-node witnesses through letters whose action is constant.

    Used for confusion certificates: a root letter with constant action pins
    the value regardless of what hangs below it.
    """
    out = {}
    for a in sorted(set(hom.alphabet), key=terms.label_key):
        vals = set(hom.row(a))
        if len(vals) == 1:
            h = next(iter(vals))
            if h not in out:
                out[h] = (terms.tree(a),)
    return out


# ---------------------------------------------------------------------------
# Isomorphism of recognizers

def recognizers_isomorphic(rec1, rec2):
    """A horizontal bijection respecting 0, +, letter actions and acceptance.

    Returns the mapping as a tuple, or None.  Both recognizers should be
    image restricted.  Any isomorphism then sends alpha1(s) to alpha2(s), so
    one exists exactly when the reachable pairs are the graph of a bijection
    that maps accept onto accept; the vertical monoids correspond
    automatically because they are generated by letters and insertions.
    """
    alpha, a2 = rec1.hom, rec2.hom
    n = alpha.target.H.size
    if n != a2.target.H.size or set(alpha.alphabet) != set(a2.alphabet):
        return None
    forward = determines(reachable_pairs(alpha, a2))[0]
    if forward is None or len(forward) != n or len(set(forward.values())) != n:
        return None
    perm = tuple(forward[h] for h in range(n))
    if {perm[h] for h in rec1.accept} != set(rec2.accept):
        return None
    return perm
