"""Reachability preorder, classes, ideals and the associated quotients.

h is reachable from g when some vertical element maps g to h: the
transitive closure of one step under V's generators, which include the
identity and all insertions, so h+g is always reachable from h.  The
classes of mutual reachability carry a partial order whose unique minimum
is the class of the absorbing element.
"""

from dataclasses import dataclass

from .algebra import quotient_by_ideal
from .errors import ForestAlgError
from .hom import Homomorphism


@dataclass
class ReachabilityStructure:
    alg: object
    classes: tuple          # tuple of tuples of horizontal indices
    class_of: tuple         # horizontal index -> class index
    min_class: int
    subminimal: tuple       # class indices covering the minimum

    def leq(self, ci, cj):
        """Class ci reachable from (below or equal to) class cj."""
        return self._leq[ci][cj]

    def lt(self, ci, cj):
        return ci != cj and self._leq[ci][cj]

    def members(self, ci):
        return self.classes[ci]

    def class_names(self, ci):
        return [self.alg.hname(h) for h in self.classes[ci]]


def reachability(alg):
    """Classes are the strongly connected components of reachability, the
    one step under the generators closed by Warshall's algorithm on bit sets."""
    n = alg.H.size
    reach = [1 << h for h in range(n)]  # bit x of reach[y]: x reachable from y
    for row in alg.generators:
        for h in range(n):
            reach[h] |= 1 << row[h]
    for k in range(n):
        bit, via = 1 << k, reach[k]
        for y in range(n):
            if reach[y] & bit:
                reach[y] |= via

    class_of = [None] * n
    classes = []
    for h in range(n):
        if class_of[h] is not None:
            continue
        members = tuple(g for g in range(n)
                        if reach[h] >> g & 1 and reach[g] >> h & 1)
        idx = len(classes)
        classes.append(members)
        for g in members:
            class_of[g] = idx
    m = len(classes)
    leq = [[reach[classes[cj][0]] >> classes[ci][0] & 1 == 1 for cj in range(m)]
           for ci in range(m)]
    # leq[ci][cj]: ci <= cj, i.e. ci's members reachable from cj's

    absorbing = alg.absorbing()
    min_class = class_of[absorbing]
    for c in range(m):
        if not leq[min_class][c]:
            raise ForestAlgError(
                "insertion-closure violated: the absorbing element %s is not "
                "reachable from %s" % (alg.hname(absorbing),
                                       alg.hname(classes[c][0])))
    subminimal = tuple(
        c for c in range(m)
        if c != min_class and leq[min_class][c]
        and not any(c2 != min_class and c2 != c and leq[min_class][c2] and leq[c2][c]
                    for c2 in range(m))
    )
    rs = ReachabilityStructure(alg, tuple(classes), tuple(class_of),
                               min_class, subminimal)
    rs._leq = leq
    return rs


def ideal_below(rs, ci):
    """I_Gamma: everything not strictly above the class."""
    return frozenset(h for h in range(rs.alg.H.size)
                     if not rs.lt(ci, rs.class_of[h]))


def ideal_not_above(rs, ci):
    """The weak variant: everything not above-or-equal."""
    return frozenset(h for h in range(rs.alg.H.size)
                     if not rs.leq(ci, rs.class_of[h]))


def quotient_hom(alpha, ci, mode="strict", rs=None):
    """Compose alpha with the quotient collapsing I_Gamma (strict) or the
    not-above ideal (weak).  Returns (hom, projection morphism)."""
    if rs is None:
        rs = reachability(alpha.target)
    if mode == "strict":
        ideal = ideal_below(rs, ci)
    elif mode == "weak":
        ideal = ideal_not_above(rs, ci)
    else:
        raise ValueError("mode must be strict or weak")
    q, proj = quotient_by_ideal(alpha.target, ideal)
    assign = {a: proj.vmap[alpha.letter(a)] for a in alpha.alphabet}
    return Homomorphism(alpha.alphabet, q, assign), proj


def class_tag_names(alpha, ci, rs=None):
    """Tag for each horizontal element under the strict quotient at a class.

    Elements inside the collapsed ideal are tagged ``inf`` (anonymous),
    everything else by its name, which survives the quotient unchanged.
    Shared by relabeling, the oracles and the decompositions so their keys
    compare equal.
    """
    if rs is None:
        rs = reachability(alpha.target)
    ideal = ideal_below(rs, ci)
    return tuple("inf" if h in ideal else alpha.target.hname(h)
                 for h in range(alpha.target.H.size))


def subminimal_factorization(alpha, rs=None):
    """One weak quotient per subminimal class; the minimum-collapsing quotient
    factors through their direct product."""
    if rs is None:
        rs = reachability(alpha.target)
    return [quotient_hom(alpha, c, "weak", rs)[0] for c in rs.subminimal]


def dot_export(rs):
    """Covering relation of the class order as a DOT digraph."""
    lines = ["digraph reachability {"]
    m = len(rs.classes)
    for c in range(m):
        label = "{" + ",".join(rs.class_names(c)) + "}"
        lines.append('  c%d [label="%s"];' % (c, label))
    for upper in range(m):
        for lower in range(m):
            if not rs.lt(lower, upper):
                continue
            covered = not any(
                rs.lt(lower, mid) and rs.lt(mid, upper) for mid in range(m))
            if covered:
                lines.append("  c%d -> c%d;" % (upper, lower))
    lines.append("}")
    return "\n".join(lines) + "\n"
