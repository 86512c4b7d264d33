"""Homomorphisms out of the free forest algebra.

A homomorphism is fixed by assigning a vertical element to each letter.
This module provides evaluation of forests and contexts, the exact
reachable-pair closure used for factoring tests, image restriction,
syntactic quotients of recognizers, and witness-term realization.
"""

import heapq
from dataclasses import dataclass, field

from . import terms
from .algebra import (AlgebraMorphism, ForestAlgebra, close_vertical,
                      horizontal_monoid)
from .errors import AlphabetMismatchError, UnknownLetterError
from .joint import HomEvaluator, closure, determines, joint_image


@dataclass
class Homomorphism:
    alphabet: tuple
    target: ForestAlgebra
    assign: dict = field(repr=False)

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        missing = [a for a in self.alphabet if a not in self.assign]
        if missing:
            raise UnknownLetterError("letters without assignment: %r" % (missing,))

    def letter(self, a):
        try:
            return self.assign[a]
        except KeyError:
            raise UnknownLetterError("letter %r not in alphabet" % (a,)) from None

    def eval(self, forest):
        """Value of a forest in the target's horizontal monoid."""
        alg = self.target
        h = alg.zero
        for label, children in forest:
            h = alg.plus(h, alg.act(self.letter(label), self.eval(children)))
        return h

    def eval_context(self, ctx):
        """Action of a context as a function row on H."""
        alg = self.target
        row = tuple(range(alg.H.size))
        pre = alg.zero
        post = alg.zero
        seen_hole = False
        for label, children in ctx:
            if label == terms.HOLE:
                seen_hole = True
                continue
            if terms.count_holes(children):
                inner = self.eval_context(children)
                v = self.letter(label)
                row = tuple(alg.act(v, x) for x in inner)
                seen_hole = True
            else:
                val = alg.act(self.letter(label), self.eval(children))
                if seen_hole:
                    post = alg.plus(post, val)
                else:
                    pre = alg.plus(pre, val)
        if not seen_hole:
            raise ValueError("not a context: no hole")
        total = alg.plus(pre, post)
        return tuple(alg.plus(total, x) for x in row)

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
    ideal.
    """
    alg = hom.target
    if tag_names is None:
        tag_names = alg.H.names

    def go(f):
        out = []
        val = alg.zero
        for label, children in f:
            nc, cv = go(children)
            out.append(((label, tag_names[cv]), nc))
            val = alg.plus(val, alg.act(hom.letter(label), cv))
        return tuple(out), val

    return go(forest)[0]


# ---------------------------------------------------------------------------
# Exact closures

def _reachable_values(hom):
    alg = hom.target
    letters = [alg.action[hom.letter(a)] for a in hom.alphabet]
    return closure((alg.zero,), letters, lambda row, h: row[h], alg.plus)


def reachable_pairs(alpha, beta):
    """Exact set {(alpha(s), beta(s)) : s a forest} via the worklist closure.

    Every forest is generated from 0 by letters and +, so the least set
    containing (0,0) closed under both is exactly the joint image.
    """
    if tuple(alpha.alphabet) != tuple(beta.alphabet):
        raise AlphabetMismatchError("homomorphisms must share an alphabet")
    return set(joint_image(HomEvaluator(alpha), HomEvaluator(beta),
                           alpha.alphabet, None))


def factors_through(beta, alpha):
    """Does alpha(s) = alpha(s') force beta(s) = beta(s')?  Exact, no sampling.

    Returns (True, None) or (False, (h, g1, g2)) where h is the least
    alpha-value reached with two distinct beta-values, g1 < g2 the least two.
    """
    witness = determines(reachable_pairs(alpha, beta))[1]
    return witness is None, witness


# ---------------------------------------------------------------------------
# Image restriction

def _restrict(hom):
    """Restriction onto the generated subalgebra; returns (hom, carrier).

    ``carrier`` lists the original horizontal indices in the order used by
    the restricted algebra.
    """
    alg = hom.target
    carrier = sorted(_reachable_values(hom))
    pos = {h: i for i, h in enumerate(carrier)}
    plus = [[pos[alg.plus(h, g)] for g in carrier] for h in carrier]
    names = [alg.hname(h) for h in carrier]
    H = horizontal_monoid(plus, pos[alg.zero], names)
    gens = {}
    for a in sorted(set(hom.alphabet), key=terms.label_key):
        row = alg.action[hom.letter(a)]
        gens[terms.print_label(a)] = tuple(pos[row[h]] for h in carrier)
    sub, genmap = close_vertical(H, gens, add_insertions=True, faithful=True,
                                 warn_on_merge=False)
    assign = {a: genmap[terms.print_label(a)] for a in hom.alphabet}
    return Homomorphism(hom.alphabet, sub, assign), carrier


def image_restrict(hom):
    """The same letter assignment, viewed onto the subalgebra it generates."""
    return _restrict(hom)[0]


def restrict_recognizer(rec):
    hom, carrier = _restrict(rec.hom)
    accept = frozenset(i for i, h in enumerate(carrier) if h in rec.accept)
    return Recognizer(hom, accept)


# ---------------------------------------------------------------------------
# Syntactic quotient

def syntactic(rec):
    """Minimal recognizer of the same language, with the projection morphism.

    Two elements are identified when no vertical element separates them with
    respect to the accepting set; since the vertical monoid is insertion
    closed this is a congruence.  Any recognizer of the language factors
    onto the result.
    """
    rec = restrict_recognizer(rec)
    alg = rec.hom.target
    X = rec.accept
    n = alg.H.size
    sigs = {}
    for h in range(n):
        sig = tuple(alg.act(v, h) in X for v in range(alg.V.size))
        sigs.setdefault(sig, []).append(h)
    classes = sorted(sigs.values(), key=min)
    hmap = [0] * n
    for i, cls in enumerate(classes):
        for h in cls:
            hmap[h] = i
    reps = [min(cls) for cls in classes]
    m = len(classes)
    plus = [[hmap[alg.plus(reps[i], reps[j])] for j in range(m)] for i in range(m)]
    names = [alg.hname(reps[i]) for i in range(m)]
    H = horizontal_monoid(plus, hmap[alg.zero], names)
    gens = {}
    for a in sorted(set(rec.hom.alphabet), key=terms.label_key):
        row = alg.action[rec.hom.letter(a)]
        gens[terms.print_label(a)] = tuple(hmap[row[reps[i]]] for i in range(m))
    syn, genmap = close_vertical(H, gens, add_insertions=True, faithful=True,
                                 warn_on_merge=False)
    assign = {a: genmap[terms.print_label(a)] for a in rec.hom.alphabet}
    syn_hom = Homomorphism(rec.hom.alphabet, syn, assign)
    syn_rec = Recognizer(syn_hom, frozenset(hmap[h] for h in X))

    row_index = {syn.action[v]: v for v in range(syn.V.size)}
    vmap = []
    for v in range(alg.V.size):
        induced = tuple(hmap[alg.act(v, reps[i])] for i in range(m))
        vmap.append(row_index[induced])
    proj = AlgebraMorphism(alg, syn, tuple(hmap), tuple(vmap))
    return syn_rec, proj


# ---------------------------------------------------------------------------
# Witness realization

def realize(hom):
    """Minimal witness forest for every value in the image.

    Smallest node count first, ties broken by printed form, so the result is
    deterministic and certificates are readable.
    """
    alg = hom.target
    done = {}
    heap = [(0, "0", alg.zero, ())]
    while heap:
        size, text, h, forest = heapq.heappop(heap)
        if h in done:
            continue
        done[h] = forest
        for a in sorted(set(hom.alphabet), key=terms.label_key):
            val = alg.act(hom.letter(a), h)
            if val not in done:
                f = (terms.tree(a, forest),)
                heapq.heappush(heap, (size + 1, terms.print_forest(f), val, f))
        for g, gf in list(done.items()):
            val = alg.plus(h, g)
            if val not in done:
                f = terms.ic_normalize(forest + gf)
                heapq.heappush(heap, (terms.node_count(f), terms.print_forest(f),
                                      val, f))
    return done


def constant_letter_realizers(hom):
    """Single-node witnesses through letters whose action is constant.

    Used for confusion certificates: a root letter with constant action pins
    the value regardless of what hangs below it.
    """
    alg = hom.target
    out = {}
    for a in sorted(set(hom.alphabet), key=terms.label_key):
        row = alg.action[hom.letter(a)]
        vals = set(row)
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
    beta = Homomorphism(alpha.alphabet, a2.target, a2.assign)
    forward = determines(reachable_pairs(alpha, beta))[0]
    if forward is None or len(forward) != n or len(set(forward.values())) != n:
        return None
    perm = tuple(forward[h] for h in range(n))
    if {perm[h] for h in rec1.accept} != set(rec2.accept):
        return None
    return perm
