"""Reachability preorder, classes, ideals and the associated quotients.

h is reachable from g when some vertical element maps g to h: the
transitive closure of one step under V's generators, which include the
identity and all insertions, so h+g is always reachable from h.  The
classes of mutual reachability carry a partial order whose unique minimum
is the class of the absorbing element.

The quotient collapsing an ideal is built by hom.quotient, like the
syntactic quotient: a generated algebra on the collapsed sum table and
letter rows, with no vertical monoid built.
"""

from dataclasses import dataclass, field

from .algebra import quotient_by_ideal
from .errors import ForestAlgError
from .hom import quotient


@dataclass
class ReachabilityStructure:
    alg: object
    classes: tuple          # tuple of tuples of horizontal indices
    class_of: tuple         # horizontal index -> class index
    min_class: int
    subminimal: tuple       # class indices covering the minimum
    rows: tuple = field(repr=False)  # bit g of rows[h]: g reachable from h

    def leq(self, ci, cj):
        """Class ci reachable from (below or equal to) class cj."""
        return self.rows[self.classes[cj][0]] >> self.classes[ci][0] & 1 == 1

    def lt(self, ci, cj):
        return ci != cj and self.leq(ci, cj)

    def class_names(self, ci):
        return [self.alg.hname(h) for h in self.classes[ci]]


def reachability(alg):
    """Classes are the strongly connected components of reachability, the
    one step under the generators closed by Warshall's algorithm on bit
    sets.  These rows are the class order: a representative's row holds
    the members of every class at or below its own, so a class is
    subminimal when that row holds only its own members and the minimum's."""
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
    classes, own = [], []   # own[c]: the bits of class c's members
    for h in range(n):
        if class_of[h] is None:
            members = tuple(g for g in range(n)
                            if reach[h] >> g & 1 and reach[g] >> h & 1)
            own.append(sum(1 << g for g in members))
            for g in members:
                class_of[g] = len(classes)
            classes.append(members)

    absorbing = alg.absorbing()
    min_class = class_of[absorbing]
    for members in classes:
        if not reach[members[0]] >> absorbing & 1:
            raise ForestAlgError(
                "insertion-closure violated: the absorbing element %s is not "
                "reachable from %s" % (alg.hname(absorbing),
                                       alg.hname(members[0])))
    low = own[min_class]
    subminimal = tuple(c for c, members in enumerate(classes)
                       if c != min_class and reach[members[0]] == own[c] | low)
    return ReachabilityStructure(alg, tuple(classes), tuple(class_of),
                                 min_class, subminimal, tuple(reach))


def ideal_below(rs, ci):
    """I_Gamma: everything not strictly above the class, which is the
    not-above ideal plus the class."""
    return ideal_not_above(rs, ci) | set(rs.classes[ci])


def ideal_not_above(rs, ci):
    """The weak variant: everything not above-or-equal."""
    rep = rs.classes[ci][0]
    return frozenset(h for h in range(rs.alg.H.size)
                     if not rs.rows[h] >> rep & 1)


def quotient_hom(alpha, ci, mode="strict", rs=None):
    """Compose alpha with the quotient collapsing I_Gamma (strict) or the
    not-above ideal (weak).

    The quotient is generated by alpha's letter rows on the collapsed sum
    table; kept elements keep their names, the collapsed ideal is ``inf``.
    The quotient spans all of alpha's H, so it is onto when alpha is, and
    is not marked onto otherwise.  Returns (hom, (reps, hmap)), the pair as
    quotient_by_ideal gives it.
    """
    if rs is None:
        rs = reachability(alpha.target)
    if mode == "strict":
        ideal = ideal_below(rs, ci)
    elif mode == "weak":
        ideal = ideal_not_above(rs, ci)
    else:
        raise ValueError("mode must be strict or weak")
    reps, hmap = quotient_by_ideal(alpha.target, ideal)
    hom = quotient(alpha, reps, hmap)
    hom.onto = alpha.onto
    return hom, (reps, hmap)


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
