"""Temporal formulas over forests and their compilation to recognizers.

Tree formulas and forest formulas are built by mutual recursion: T is a
forest formula, each letter is a tree formula, every forest formula is also
a tree formula, both levels are closed under boolean connectives, and EF/EX
applied to a tree formula yield a forest formula.  A bare letter cannot be
interpreted in a forest, so using a tree-only formula at forest level is a
role error.

Satisfaction is one relation on trees: a tree a.s satisfies the atom a, EF
phi when some node of s roots a tree satisfying phi, and EX phi when some
root of s does.  A forest s is read as the unlabeled tree with children s;
a forest formula has no letter outside EF/EX, so it never reads the label.
"""

from dataclasses import dataclass
from operator import or_

from . import terms
from .errors import ParseError, RoleError
from .hom import Recognizer, generated
from .joint import closure


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class Letter:
    name: str


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class EF:
    sub: object


@dataclass(frozen=True)
class EX:
    sub: object


FOREST, TREE = "forest", "tree"


def _parts(phi):
    """The immediate subformulas of phi."""
    if isinstance(phi, (TrueF, Letter)):
        return ()
    if isinstance(phi, (Not, EF, EX)):
        return (phi.sub,)
    if isinstance(phi, (And, Or)):
        return (phi.left, phi.right)
    raise TypeError("not a formula: %r" % (phi,))


def _subformulas(phi):
    """phi and every subformula of it, in pre-order."""
    stack = [phi]
    while stack:
        psi = stack.pop()
        yield psi
        stack.extend(reversed(_parts(psi)))


def role(phi):
    """FOREST formulas can be read at either level; TREE ones only in trees.
    TREE means a letter, or a formula other than EF/EX with a TREE part;
    every part is checked."""
    tree_part = TREE in [role(psi) for psi in _parts(phi)]
    if isinstance(phi, Letter) or tree_part and not isinstance(phi, (EF, EX)):
        return TREE
    return FOREST


def formula_letters(phi):
    return {psi.name for psi in _subformulas(phi) if isinstance(psi, Letter)}


# ---------------------------------------------------------------------------
# Parsing and printing

def _parse_or(sc):
    left = _parse_and(sc)
    while sc.try_take("|"):
        left = Or(left, _parse_and(sc))
    return left


def _parse_and(sc):
    left = _parse_unary(sc)
    while sc.try_take("&"):
        left = And(left, _parse_unary(sc))
    return left


def _parse_unary(sc):
    if sc.try_take("!"):
        return Not(_parse_unary(sc))
    if sc.peek() is not None and sc.peek().isalpha():
        word = sc.letter()
        if word == "EF":
            return EF(_parse_unary(sc))
        if word == "EX":
            return EX(_parse_unary(sc))
        if word == "T":
            return TrueF()
        if word == "F":
            return Not(TrueF())
        return Letter(word)
    if sc.try_take("("):
        phi = _parse_or(sc)
        sc.expect(")")
        return phi
    raise ParseError("expected a formula", sc.pos)


def parse_formula(text, require=None):
    sc = terms._Scanner(text)
    phi = _parse_or(sc)
    if not sc.done():
        raise ParseError("trailing input", sc.pos)
    if require == FOREST and role(phi) != FOREST:
        raise RoleError("tree-only formula used at forest level: %s"
                        % print_formula(phi))
    return phi


def print_formula(phi, prec=0):
    # precedence: | = 0, & = 1, unary = 2
    if isinstance(phi, TrueF):
        return "T"
    if isinstance(phi, Letter):
        return phi.name
    if isinstance(phi, Not):
        return "!" + print_formula(phi.sub, 2)
    if isinstance(phi, (EF, EX)):
        op = "EF" if isinstance(phi, EF) else "EX"
        sub = phi.sub
        if isinstance(sub, (TrueF, Letter)):
            return "%s %s" % (op, print_formula(sub, 2))
        return "%s(%s)" % (op, print_formula(sub, 0))
    if isinstance(phi, And):
        s = "%s & %s" % (print_formula(phi.left, 1), print_formula(phi.right, 2))
        return "(" + s + ")" if prec > 1 else s
    if isinstance(phi, Or):
        s = "%s | %s" % (print_formula(phi.left, 0), print_formula(phi.right, 1))
        return "(" + s + ")" if prec > 0 else s
    raise TypeError("not a formula: %r" % (phi,))


# ---------------------------------------------------------------------------
# Satisfaction

def _any_node(forest, pred):
    for t in forest:
        if pred(t) or _any_node(t[1], pred):
            return True
    return False


def models(forest, phi):
    """Forest satisfaction: the unlabeled tree with children forest
    satisfies phi, which must be a forest formula."""
    if role(phi) != FOREST:
        raise RoleError("cannot interpret %s in a forest" % print_formula(phi))
    return models_tree((None, forest), phi)


def models_tree(t, phi):
    """Tree satisfaction, the one reference relation; any formula is
    allowed.  EF ranges over every node below the root, EX over the root's
    children."""
    label, children = t
    if isinstance(phi, Letter):
        return label == phi.name
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, Not):
        return not models_tree(t, phi.sub)
    if isinstance(phi, And):
        return models_tree(t, phi.left) and models_tree(t, phi.right)
    if isinstance(phi, Or):
        return models_tree(t, phi.left) or models_tree(t, phi.right)
    if isinstance(phi, EF):
        return _any_node(children, lambda u: models_tree(u, phi.sub))
    if isinstance(phi, EX):
        return any(models_tree(u, phi.sub) for u in children)
    raise TypeError("not a formula: %r" % (phi,))


# ---------------------------------------------------------------------------
# Compilation to a recognizer

def _compile(psi, a, bit):
    """Satisfaction of psi at a node labeled a (None for a forest), as a
    predicate on the mask of the node's children, or as True or False when
    no mask changes it.  ``bit`` gives each modal subformula's bit in the
    mask; a forest formula has no bare letter."""
    if isinstance(psi, Letter):
        return a == psi.name
    if isinstance(psi, TrueF):
        return True
    if isinstance(psi, (EF, EX)):
        b = bit[psi]
        return lambda mask: mask & b != 0
    if isinstance(psi, Not):
        sub = _compile(psi.sub, a, bit)
        return (not sub) if isinstance(sub, bool) else lambda mask: not sub(mask)
    left, right = (_compile(part, a, bit) for part in _parts(psi))
    decides = isinstance(psi, Or)   # the value of one part that fixes the whole
    for part, other in ((left, right), (right, left)):
        if isinstance(part, bool):
            return decides if part == decides else other
    if decides:
        return lambda mask: left(mask) or right(mask)
    return lambda mask: left(mask) and right(mask)


def to_recognizer(phi, alphabet):
    """Compile a forest formula into a recognizer of its language.

    States are the reachable truth assignments to the modal subformulas;
    the empty forest satisfies none, concatenation is disjunction on each
    modal component, and a letter updates EF by "here or below" and EX by
    "here".  The horizontal monoid is therefore idempotent and commutative
    by construction.  Each modal body is compiled once per letter into a
    predicate on the children's mask, its letter tests already decided.
    The closure of the masks evaluates each letter step once and records
    it; the tabulation reads the recorded steps.
    """
    if role(phi) != FOREST:
        raise RoleError("cannot compile a tree-only formula: %s"
                        % print_formula(phi))
    alphabet = tuple(sorted(set(alphabet)))
    missing = formula_letters(phi) - set(alphabet)
    if missing:
        raise RoleError("formula letters %s not in the alphabet" % sorted(missing))
    modals = sorted(dict.fromkeys(psi for psi in _subformulas(phi)
                                  if isinstance(psi, (EF, EX))),
                    key=print_formula)
    bit = {m: 1 << i for i, m in enumerate(modals)}
    # an EF component stays true once true ("or below"); per letter, the
    # bits whose body holds whatever the mask, and the bodies that read it
    kept = sum(bit[m] for m in modals if isinstance(m, EF))
    fixed, tests = {}, {}
    for a in alphabet:
        bodies = [(bit[m], _compile(m.sub, a, bit)) for m in modals]
        fixed[a] = sum(b for b, body in bodies if body is True)
        tests[a] = [(b, body) for b, body in bodies if not isinstance(body, bool)]
    steps = {}

    def letter_step(a, mask):
        out = (mask & kept) | fixed[a]
        for b, body in tests[a]:
            if body(mask):
                out |= b
        steps[a, mask] = out
        return out

    masks = list(closure((0,), alphabet, letter_step, or_))
    holds = _compile(phi, None, bit)
    accept = frozenset(i for i, x in enumerate(masks)
                       if (holds if isinstance(holds, bool) else holds(x)))
    return Recognizer(generated(alphabet, masks, lambda a, x: steps[a, x],
                                or_, 0), accept)
