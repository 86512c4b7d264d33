"""Independent exact computations used to cross-check the main algorithms.

brute_confused_pairs avoids depth-k keys entirely.  All forests in one
class split into groups by root kind (tagged letter plus child class), and
within a kind the achievable values are the nonempty sum closure of one
letter-image set; classes therefore matter only through their value sets,
which live in the powerset of H.  Recursing on value sets gives the exact
confused-pair relation in polynomial time, independently of the pair
fixpoint it validates.  key_value_sets runs the same recursion for given
concrete keys.

The value sets are exact closures computed by joint.closure, over sets of
values and over pairs of values, starting from images that joint.image
computes.
"""

from . import terms
from .joint import closure, image
from .reach import class_tag_names, reachability

DEFAULT_MAX_PAIRS = 200_000


# ---------------------------------------------------------------------------
# Value-set recursion

def _plus_closure(alg, values):
    """Nonempty-sum closure of a set of horizontal elements."""
    return frozenset(closure(values, (), None, alg.plus))


def _pointwise_sum(alg, ws1, ws2):
    return frozenset(alg.plus(x, y) for x in ws1 for y in ws2)


def _kind_contributions(alpha, tag_names, class_value_sets):
    """For each realizable root kind, the value set of a nonempty group of
    its copies: the sum closure of {letter applied to a matching child}."""
    alg = alpha.target
    out = set()
    for w in class_value_sets:
        by_tag = {}
        for h in w:
            by_tag.setdefault(tag_names[h], set()).add(h)
        for a in set(alpha.alphabet):
            row = alpha.row(a)
            for tag, members in by_tag.items():
                out.add(_plus_closure(alg, {row[h] for h in members}))
    return out


def _class_value_sets(alpha, tag_names, k, cap):
    """Value sets of the realizable depth-k classes of tagged relabelings.

    Level 0 has a single class holding the whole image; a level j+1 class
    is a set of kinds and its value set the pointwise sum of one nonempty
    contribution per kind.  Only the collection of distinct value sets is
    kept, which is sound: equal value sets admit the same realizations.
    At most ``cap`` value sets are held per level.
    """
    alg = alpha.target
    sets = {frozenset(image(alpha, alpha.alphabet))}
    for _ in range(k):
        kinds = _kind_contributions(alpha, tag_names, sets)
        closed = closure(kinds, kinds, lambda w2, w: _pointwise_sum(alg, w, w2),
                         None, cap, "confused-pair value sets")
        sets = set(closed) | {frozenset({alg.zero})}
    return sets


def brute_confused_pairs(alpha, ci, k, rs=None, max_pairs=DEFAULT_MAX_PAIRS):
    """Exact distinct same-class value pairs realized by depth-k equivalent
    tagged forests, by the value-set recursion.

    ``max_pairs`` caps both the value sets held per level and the pairs.
    """
    alg = alpha.target
    if rs is None:
        rs = reachability(alg)
    members = set(rs.classes[ci])
    tag_names = class_tag_names(alpha, ci, rs)
    if k <= 0:
        reached = members.intersection(image(alpha, alpha.alphabet))
        return {(h, g) for h in reached for g in reached if h != g}
    level_sets = _class_value_sets(alpha, tag_names, k - 1, max_pairs)
    kinds = _kind_contributions(alpha, tag_names, level_sets)
    pairs = closure({(x, y) for w in kinds for x in w for y in w}, (), None,
                    lambda p, q: (alg.plus(p[0], q[0]), alg.plus(p[1], q[1])),
                    max_pairs, "confused-pair closure")
    return {(h, g) for (h, g) in pairs
            if h != g and h in members and g in members}


def key_value_sets(alpha, ci, k, keys, rs=None):
    """Exact value sets {alpha(s) : tagged class of s is the key}, for the
    given concrete keys, by the same group decomposition.

    The keys must be canonical (as simk_key and the depth-k closures
    return them); they are not normalized again.
    """
    alg = alpha.target
    if rs is None:
        rs = reachability(alg)
    tag_names = class_tag_names(alpha, ci, rs)
    reached = frozenset(image(alpha, alpha.alphabet))
    cache = {}

    def values(key, j):
        if j <= 0:
            return reached
        if key == ():
            return frozenset({alg.zero})
        got = cache.get((key, j))
        if got is not None:
            return got
        total = None
        for (label, child_key) in key:
            a, tag = label
            row = alpha.row(a)
            child = values(child_key, j - 1)
            contribution = _plus_closure(
                alg, {row[h] for h in child if tag_names[h] == tag})
            if total is None:
                total = contribution
            else:
                total = _pointwise_sum(alg, total, contribution)
            if not total:
                break
        total = frozenset(total or ())
        cache[(key, j)] = total
        return total

    return {key: values(key, k) for key in keys}


# ---------------------------------------------------------------------------
# Forest enumeration and sampling

def enumerate_forests(alphabet, max_depth, max_width):
    """All canonical forests within the bounds, in a fixed order.

    Canonical means sibling lists are strictly increasing, so each
    idempotent-and-commutative class appears exactly once.
    """
    alphabet = tuple(sorted(set(alphabet), key=terms.label_key))

    def forests(depth):
        if depth <= 0:
            return [()]
        trees = [terms.tree(a, f) for a in alphabet for f in forests(depth - 1)]
        trees.sort(key=terms.tree_key)
        out = [()]
        for t in trees:
            out = out + [f + (t,) for f in out if len(f) < max_width]
        return out

    return iter(forests(max_depth))


def random_forest(rng, alphabet, max_depth, max_width):
    """An arbitrary ordered forest; duplicates and any sibling order allowed."""
    alphabet = tuple(alphabet)
    if max_depth <= 0:
        return ()
    width = rng.randint(0, max_width)
    return tuple(
        terms.tree(rng.choice(alphabet),
                   random_forest(rng, alphabet, max_depth - 1, max_width))
        for _ in range(width)
    )
