"""The exact closures and the evaluators they run over.

Every forest is built from the empty forest by letters and sums, so the set
of values of all forests under anything that evaluates compositionally is
the least set containing 0 that is closed under the letter steps and +.
image() computes that set for an evaluator, summing each value only with
tree values; it gives the images and joint images of homomorphisms and the
cascade states.  closure() is the general worklist, which sums each
unordered pair once when given a commutative sum and numbers its elements
in discovery order: recognizer masks, depth-k classes, vertical monoids
(closed under composition with their generators) and the oracle's sum
closures.
determines() turns a relation into a function or the least conflict,
which is what every factoring check asks.

An evaluator exposes zero_state(), plus_state(x, y) and letter_action(a, x).
Homomorphisms (by their letter rows) and cascades implement the protocol,
depth-k keys get a small evaluator, and tensoring is an evaluator
combinator.  None of this materializes a vertical monoid, which is what
makes mutual-factoring checks cheap even when the corresponding algebras
would be enormous.
"""

import itertools
from bisect import bisect_right

from .errors import SizeLimitError

DEFAULT_MAX_JOINT = 500_000


def closure(starts, alphabet, act, plus, cap=None, what="closure"):
    """Least set containing ``starts`` closed under the steps, in discovery order.

    The steps are ``act(a, x)`` for every a in ``alphabet`` and, unless
    ``plus`` is None, ``plus(x, y)`` for every y discovered so far.  The
    worklist is first in, first out; each element runs its letter steps in
    alphabet order, then its sums in discovery order.  Returns a dict from
    element to discovery index.  Raises SizeLimitError(what, cap) on the
    first new element once ``cap`` elements are held.

    ``plus`` must be commutative: each unordered pair is then summed once.
    An element skips the earlier partners whose sums started after it was
    held, since each of them already formed the same sum with it; every
    skipped sum is held, so the discovery order and the point where
    SizeLimitError is raised are those of summing every pair.
    """
    limit = float("inf") if cap is None else cap
    index = {}
    order = []
    held = []   # held[i]: the number held when order[i]'s sums started

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
        for a in alphabet:
            y = act(a, x)
            if y not in index:
                add(y)
        if plus is not None:
            top = len(order)
            held.append(top)
            lo = bisect_right(held, at, 0, at)
            for z in itertools.chain(order[:lo], order[at:top]):
                y = plus(x, z)
                if y not in index:
                    add(y)
        at += 1
    return index


def determines(pairs):
    """Is the relation ``pairs`` the graph of a function?  Exact.

    Returns (mapping, None) when every x has one y, and otherwise
    (None, (x, y1, y2)) for the least conflicting x and its two least y.
    """
    mapping = {}
    clash = set()
    for x, y in pairs:
        if mapping.setdefault(x, y) != y:
            clash.add(x)
    if not clash:
        return mapping, None
    x = min(clash)
    y1, y2 = sorted({y for (u, y) in pairs if u == x})[:2]
    return None, (x, y1, y2)


class TensorEvaluator:
    """The pairing (first value, second value of the relabeled forest).

    ``view(a, x1)`` produces the letter handed to the second evaluator at a
    node labeled a whose descendants have first value x1; the default tags
    with the first target's element name, matching relabeled().
    """

    def __init__(self, first, second, view=None):
        if view is None:
            alg = first.target
            view = lambda a, x1: (a, alg.hname(x1))
        self.first = first
        self.second = second
        self.view = view

    def zero_state(self):
        return (self.first.zero_state(), self.second.zero_state())

    def plus_state(self, x, y):
        return (self.first.plus_state(x[0], y[0]),
                self.second.plus_state(x[1], y[1]))

    def letter_action(self, a, x):
        return (self.first.letter_action(a, x[0]),
                self.second.letter_action(self.view(a, x[0]), x[1]))


def evaluate(ev, forest):
    """Value of a forest under an evaluator."""
    state = ev.zero_state()
    for label, children in forest:
        state = ev.plus_state(state, ev.letter_action(label, evaluate(ev, children)))
    return state


def image(ev, alphabet, cap=None, what="closure"):
    """Exact set of values of all forests under an evaluator, as a list.

    The evaluator's sum must be associative and commutative with the zero
    state as its identity, as it is throughout this package.  Each value x
    runs its letter steps, then is summed only with the tree values (results
    of letter steps) found so far, yet the set is closed under + t for every
    tree value t, by induction on the order in which tree values are found:
    if t came later, x is 0 or a sum of tree values found before t, and
    adding those to t one at a time stays in the set.  So the set is closed
    under +, as every value is a sum of tree values.  Raises
    SizeLimitError(what, cap) on the first new value once ``cap`` values
    are held, so exactly when the set has more than ``cap`` values.
    """
    limit = float("inf") if cap is None else cap
    act, plus = ev.letter_action, ev.plus_state
    is_tree = {}    # held value -> whether it is a tree value
    order, trees = [], []

    def add(y):
        if len(order) >= limit:
            raise SizeLimitError(what, cap)
        is_tree[y] = False
        order.append(y)

    add(ev.zero_state())
    for x in order:
        for a in alphabet:
            t = act(a, x)
            if not is_tree.get(t):
                if t not in is_tree:
                    add(t)
                is_tree[t] = True
                trees.append(t)
        for t in trees:
            y = plus(x, t)
            if y not in is_tree:
                add(y)
    return order


def joint_image(e1, e2, alphabet, max_pairs=DEFAULT_MAX_JOINT):
    """Exact set {(value of s under e1, value under e2) : s any forest},
    listed as image() leaves it; both sums must commute, as image() asks."""
    return image(TensorEvaluator(e1, e2, lambda a, x1: a), alphabet,
                 max_pairs, "joint image")


def mutually_determine(e1, e2, alphabet, max_pairs=DEFAULT_MAX_JOINT):
    pairs = list(joint_image(e1, e2, alphabet, max_pairs))
    return (determines(pairs)[1] is None
            and determines([(y, x) for (x, y) in pairs])[1] is None)
