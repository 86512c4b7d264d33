"""Depth-k equivalence of forests and definiteness of homomorphisms.

Two forests are k-equivalent when their top k levels agree up to the
idempotent-and-commutative rewriting; the canonical key is the normal form
of the depth-k truncation.  The tests cross-check it against an
independent recursive characterization by nested sets of (letter, class)
pairs.

A homomorphism is k-definite when the image of p.s does not depend on s for
any context p with its hole at depth at least k.  This is decided on the
semigroup S of guarded-context actions, generated by the guarded generators
G, the maps h -> g + letter.h.  Products of k elements of S are the words
of length at least k over G, so S^(k+1) = S^k.G, and a map absorbs all of
S on the right exactly when it absorbs all of G.
"""

from dataclasses import dataclass

from . import terms
from .algebra import DEFAULT_MAX_VERTICAL, _after
from .hom import generated, image_restrict
from .joint import closure, image

DEFAULT_MAX_CLASSES = 4096


@dataclass(frozen=True)
class SimkKey:
    k: int
    key: tuple

    def __str__(self):
        return "~%d:%s" % (self.k, terms.print_forest(self.key))


def simk_key(forest, k):
    return SimkKey(k, terms.ic_normalize(terms.truncate(forest, k)))


def simk_equiv(s, t, k):
    return simk_key(s, k) == simk_key(t, k)


# ---------------------------------------------------------------------------
# Free k-definite algebra

def key_sum(c1, c2, order=terms.tree_key):
    """Canonical key of the sum of two canonical keys.

    A canonical key is a tuple of distinct canonical trees sorted by
    terms.tree_key, so the key of the sum is their sorted union: exactly
    ic_normalize(c1 + c2), with no tree normalized again.  ``order`` is
    terms.tree_key or a memo of it.
    """
    if not c1 or c1 == c2:
        return c2
    if not c2:
        return c1
    return tuple(sorted(set(c1).union(c2), key=order))


def key_letter(label, c, k):
    if k <= 0:
        return ()
    return terms.ic_normalize((terms.tree(label, terms.truncate(c, k - 1)),))


class _TreeKeys(dict):
    """terms.tree_key memoized per tree."""

    def __missing__(self, t):
        key = self[t] = terms.tree_key(t)
        return key


class KdefEvaluator:
    """Evaluates forests to their canonical depth-k keys, without building
    the quotient algebra; accepts any letters.

    States are canonical keys (nested tuples, as simk_key returns).  Sums
    merge two keys by key_sum, ordered by a per-tree memo of tree_key, and
    each key_letter result is memoized per (letter, key).  Both memos live
    on the instance and are freed with it.
    """

    def __init__(self, k):
        self.k = k
        self._order = _TreeKeys().__getitem__
        self._letters = {}

    def zero_state(self):
        return ()

    def plus_state(self, x, y):
        return key_sum(x, y, self._order)

    def letter_action(self, a, x):
        got = self._letters.get((a, x))
        if got is None:
            got = self._letters[(a, x)] = key_letter(a, x, self.k)
        return got


def free_kdefinite(alphabet, k, max_classes=DEFAULT_MAX_CLASSES):
    """The quotient by depth-k equivalence, with the canonical homomorphism.

    Horizontal elements are the canonical keys; every key is reachable from
    the empty forest by letters and sums, so a worklist closure enumerates
    exactly the classes.  The sum table is |H|^2 and the vertical monoid is
    closed when first read (printing, law checks), so this is desk scale
    only; factoring tests at larger sizes go through KdefEvaluator instead.
    """
    alphabet = tuple(sorted(set(alphabet), key=terms.label_key))
    ev = KdefEvaluator(k)
    keys = tuple(image(ev, alphabet, max_classes, "depth-%d classes" % k))
    hom = generated(alphabet, keys, ev.letter_action, ev.plus_state, ())
    hom.keys = keys
    return hom.target, hom


def alpha1(alphabet):
    """The canonical 1-definite homomorphism; values are root-label sets."""
    return free_kdefinite(alphabet, 1)[1]


# ---------------------------------------------------------------------------
# Guarded-context semigroup and definiteness degree

def _guarded_generators(hom):
    """The rows h -> g + a.h of the depth-1 guarded contexts, sorted."""
    op = hom.target.H.op
    return sorted({r for a in set(hom.alphabet) for r in map(_after(hom.row(a)), op)})


def guarded_semigroup(hom):
    """Closure of the guarded depth-1 actions h -> g + letter.h.

    Every guarded context factors into depth-1 pieces t + a[] + t', whose
    action is exactly such a generator, so the closure is the full image of
    the guarded contexts.  Rows act on the image algebra, so the result is
    faithful by construction.  It lies inside V, so V's cap bounds it.
    """
    gens = _guarded_generators(hom)
    return sorted(closure(gens, [_after(g) for g in gens], lambda by_g, r: by_g(r),
                          None, DEFAULT_MAX_VERTICAL, "guarded semigroup"))


def definiteness_degree(alpha):
    """Least k such that alpha is k-definite, or None.

    Follows the descending chain S^k of products of k elements of the
    guarded semigroup S.  S^k is the set of words of length at least k over
    the guarded generators G, so S^(k+1) = S^k.G, and p.s = p for all s in
    S exactly when p.g = p for all g in G: each step composes with G only.
    The chain stabilizes within |S| steps, and the degree exists exactly
    when the stable set absorbs right multiplication.
    """
    hom = image_restrict(alpha)
    if hom.target.H.size == 1:
        return 0
    S = guarded_semigroup(hom)
    right = [_after(g) for g in _guarded_generators(hom)]
    products = S
    for k in range(1, len(S) + 2):
        nxt, absorbs = set(), True
        for by_g in right:
            composed = list(map(by_g, products))
            absorbs = absorbs and composed == products
            nxt.update(composed)
        if absorbs:
            return k
        if len(nxt) == len(products):    # nxt lies inside products
            return None
        products = list(nxt)
    return None


def ex_definable_by_idempotents(alpha):
    """Finite-semigroup shortcut for "k-definite for some k".

    The criterion is that every idempotent absorbs on the right: e.s = e
    for all s in the guarded semigroup S.  As S is generated by the guarded
    generators G, that holds exactly when e.g = e for all g in G.
    """
    hom = image_restrict(alpha)
    right = [_after(g) for g in _guarded_generators(hom)]
    return all(_after(e)(e) != e or all(by_g(e) == e for by_g in right)
               for e in guarded_semigroup(hom))


def definiteness_oracle(alpha, k, depth_bound=3, fill_depth=2, fill_width=2):
    """Exhaustive bounded check that contexts of depth >= k hide their argument.

    Enumerates contexts with hole depth between k and depth_bound, sibling
    material along the spine drawn from the depth-1 canonical forests and
    hole arguments from all canonical forests within the fill bounds, and
    compares alpha(p.s) against alpha(p.0) for every such s.  Desk scale
    only; agrees with definiteness_degree on the tested range.
    """
    from .oracle import enumerate_forests

    alphabet = tuple(sorted(set(alpha.alphabet), key=terms.label_key))
    args = list(enumerate_forests(alphabet, fill_depth, fill_width))
    spine = list(enumerate_forests(alphabet, 1, fill_width))
    hole = (terms.tree(terms.HOLE),)

    def contexts(d):
        if d == 0:
            for f in spine:
                yield hole + f
            return
        for a in alphabet:
            for c in contexts(d - 1):
                for f in spine:
                    yield (terms.tree(a, c),) + f

    for d in range(k, depth_bound + 1):
        for p in contexts(d):
            base = alpha.eval(terms.apply(p, ()))
            for s in args:
                if alpha.eval(terms.apply(p, s)) != base:
                    return False
    return True
