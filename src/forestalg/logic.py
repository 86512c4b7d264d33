"""Temporal formulas over forests and their compilation to recognizers.

Tree formulas and forest formulas are built by mutual recursion: T is a
forest formula, each letter is a tree formula, every forest formula is also
a tree formula, both levels are closed under boolean connectives, and EF/EX
applied to a tree formula yield a forest formula.  A bare letter cannot be
interpreted in a forest, so using a tree-only formula at forest level is a
role error.

Satisfaction: a tree a.s satisfies the atom a; it satisfies a forest formula
exactly when s does; EF looks at the tree rooted at any node, EX only at
root nodes.
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


def role(phi):
    """FOREST formulas can be read at either level; TREE ones only in trees."""
    if isinstance(phi, TrueF):
        return FOREST
    if isinstance(phi, Letter):
        return TREE
    if isinstance(phi, Not):
        return role(phi.sub)
    if isinstance(phi, (And, Or)):
        if role(phi.left) == FOREST and role(phi.right) == FOREST:
            return FOREST
        return TREE
    if isinstance(phi, (EF, EX)):
        role(phi.sub)
        return FOREST
    raise TypeError("not a formula: %r" % (phi,))


def formula_letters(phi):
    if isinstance(phi, Letter):
        return {phi.name}
    if isinstance(phi, Not):
        return formula_letters(phi.sub)
    if isinstance(phi, (And, Or)):
        return formula_letters(phi.left) | formula_letters(phi.right)
    if isinstance(phi, (EF, EX)):
        return formula_letters(phi.sub)
    return set()


# ---------------------------------------------------------------------------
# Parsing and printing

_KEYWORDS = {"T", "F", "EF", "EX"}


class _FScanner(terms._Scanner):
    def ident(self):
        return self.letter()


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
    save = sc.pos
    if sc.peek() is not None and sc.peek().isalpha():
        word = sc.ident()
        if word == "EF":
            return EF(_parse_unary(sc))
        if word == "EX":
            return EX(_parse_unary(sc))
        if word == "T":
            return TrueF()
        if word == "F":
            return Not(TrueF())
        return Letter(word)
    sc.pos = save
    if sc.try_take("("):
        phi = _parse_or(sc)
        sc.expect(")")
        return phi
    raise ParseError("expected a formula", sc.pos)


def parse_formula(text, require=None):
    sc = _FScanner(text)
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
    """Forest satisfaction; phi must be a forest formula."""
    if role(phi) != FOREST:
        raise RoleError("cannot interpret %s in a forest" % print_formula(phi))
    return _forest_models(forest, phi)


def _forest_models(forest, phi):
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, Not):
        return not _forest_models(forest, phi.sub)
    if isinstance(phi, And):
        return _forest_models(forest, phi.left) and _forest_models(forest, phi.right)
    if isinstance(phi, Or):
        return _forest_models(forest, phi.left) or _forest_models(forest, phi.right)
    if isinstance(phi, EF):
        return _any_node(forest, lambda t: models_tree(t, phi.sub))
    if isinstance(phi, EX):
        return any(models_tree(t, phi.sub) for t in forest)
    raise RoleError("cannot interpret %s in a forest" % print_formula(phi))


def models_tree(t, phi):
    """Tree satisfaction; any formula is allowed."""
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
    if isinstance(phi, (EF, EX)):
        return _forest_models(children, phi)
    raise TypeError("not a formula: %r" % (phi,))


# ---------------------------------------------------------------------------
# Compilation to a recognizer

def _modal_subformulas(phi, out):
    if isinstance(phi, (EF, EX)):
        if phi not in out:
            out.append(phi)
        _modal_subformulas(phi.sub, out)
    elif isinstance(phi, Not):
        _modal_subformulas(phi.sub, out)
    elif isinstance(phi, (And, Or)):
        _modal_subformulas(phi.left, out)
        _modal_subformulas(phi.right, out)


def to_recognizer(phi, alphabet):
    """Compile a forest formula into a recognizer of its language.

    States are the reachable truth assignments to the modal subformulas;
    the empty forest satisfies none, concatenation is disjunction on each
    modal component, and a letter updates EF by "here or below" and EX by
    "here".  The horizontal monoid is therefore idempotent and commutative
    by construction.
    """
    if role(phi) != FOREST:
        raise RoleError("cannot compile a tree-only formula: %s"
                        % print_formula(phi))
    alphabet = tuple(sorted(set(alphabet)))
    missing = formula_letters(phi) - set(alphabet)
    if missing:
        raise RoleError("formula letters %s not in the alphabet" % sorted(missing))
    modals = []
    _modal_subformulas(phi, modals)
    modals.sort(key=print_formula)
    midx = {m: i for i, m in enumerate(modals)}

    def sat(a, mask, psi):
        # satisfaction of the tree a.s given the mask of s, or of a forest
        # with mask when a is None; a forest formula has no bare letter
        if isinstance(psi, Letter):
            return a == psi.name
        if isinstance(psi, TrueF):
            return True
        if isinstance(psi, Not):
            return not sat(a, mask, psi.sub)
        if isinstance(psi, And):
            return sat(a, mask, psi.left) and sat(a, mask, psi.right)
        if isinstance(psi, Or):
            return sat(a, mask, psi.left) or sat(a, mask, psi.right)
        return bool(mask >> midx[psi] & 1)

    def letter_step(a, mask):
        out = 0
        for i, m in enumerate(modals):
            here = sat(a, mask, m.sub)
            if isinstance(m, EF):
                bit = here or bool(mask >> i & 1)
            else:
                bit = here
            if bit:
                out |= 1 << i
        return out

    masks = list(closure((0,), alphabet, letter_step, or_))
    accept = frozenset(i for i, x in enumerate(masks) if sat(None, x, phi))
    return Recognizer(generated(alphabet, masks, letter_step, or_, 0), accept)
