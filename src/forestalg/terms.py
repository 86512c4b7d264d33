"""Free forest-algebra terms: forests, trees and one-hole contexts.

A tree is a pair ``(label, children)`` where ``children`` is a forest; a
forest is a tuple of trees.  The empty tuple is the empty forest, written
``0``.  Labels are either plain letters (strings) or pairs of labels, which
arise from relabeling over product alphabets and print as ``(a,h)``.

Grammar::

    Forest  := "0" | Tree ("+" Tree)*
    Tree    := Label [ "(" Forest ")" ]
    Label   := letter | "(" Label "," Label ")"
    letter  := [A-Za-z][A-Za-z0-9_]*

A context is a forest containing exactly one hole leaf, written ``[]``.
The depth of a context is the depth of its hole; a hole at a root has
depth 0.  Forests are stored ordered; commutativity and idempotence are
applied only by ic_normalize or by evaluation into an algebra.
"""

import re

from .errors import ParseError

HOLE = "[]"

_LETTER_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def tree(label, children=()):
    return (label, tuple(children))


def node_count(forest):
    return sum(1 + node_count(children) for _, children in forest)


def forest_depth(forest):
    if not forest:
        return 0
    return 1 + max(forest_depth(children) for _, children in forest)


# ---------------------------------------------------------------------------
# Printing

def print_label(label):
    if isinstance(label, tuple):
        return "(%s,%s)" % (print_label(label[0]), print_label(label[1]))
    return label


def _print_tree(t):
    label, children = t
    if children:
        return print_label(label) + "(" + print_forest(children) + ")"
    return print_label(label)


def print_forest(forest):
    if not forest:
        return "0"
    return "+".join(_print_tree(t) for t in forest)


def print_context(ctx):
    return print_forest(ctx)


# ---------------------------------------------------------------------------
# Parsing

class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError("expected %r" % ch, self.pos)
        self.pos += 1

    def try_take(self, s):
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def letter(self):
        self.skip_ws()
        m = _LETTER_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a letter", self.pos)
        self.pos = m.end()
        return m.group(0)

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_label(sc):
    if sc.peek() == "(":
        sc.expect("(")
        left = _parse_label(sc)
        sc.expect(",")
        right = _parse_label(sc)
        sc.expect(")")
        return (left, right)
    return sc.letter()


def _parse_tree(sc, allow_hole):
    if allow_hole and sc.try_take(HOLE):
        if sc.peek() == "(":
            raise ParseError("a hole cannot have children", sc.pos)
        return (HOLE, ())
    label = _parse_label(sc)
    children = ()
    if sc.peek() == "(":
        sc.expect("(")
        children = _parse_forest(sc, allow_hole)
        sc.expect(")")
    return (label, children)


def _parse_forest(sc, allow_hole):
    if sc.try_take("0"):
        return ()
    trees = [_parse_tree(sc, allow_hole)]
    while sc.try_take("+"):
        trees.append(_parse_tree(sc, allow_hole))
    return tuple(trees)


def parse_forest(text):
    sc = _Scanner(text)
    forest = _parse_forest(sc, allow_hole=False)
    if not sc.done():
        raise ParseError("trailing input", sc.pos)
    return forest


def count_holes(forest):
    n = 0
    for label, children in forest:
        if label == HOLE:
            n += 1
        n += count_holes(children)
    return n


def parse_context(text):
    sc = _Scanner(text)
    ctx = _parse_forest(sc, allow_hole=True)
    if not sc.done():
        raise ParseError("trailing input", sc.pos)
    holes = count_holes(ctx)
    if holes != 1:
        raise ParseError("a context needs exactly one hole, found %d" % holes)
    return ctx


# ---------------------------------------------------------------------------
# Canonicalization

def label_key(label):
    if isinstance(label, tuple):
        return (1, tuple(label_key(x) for x in label))
    return (0, label)


def tree_key(t):
    label, children = t
    return (label_key(label), tuple(tree_key(c) for c in children))


def ic_normalize(forest):
    """Canonical form under sibling interchange and duplicate removal.

    Two forests have equal normal forms exactly when one can be rewritten
    into the other by reordering adjacent subtrees or collapsing/duplicating
    identical adjacent subtrees.
    """
    trees = [(t[0], ic_normalize(t[1])) for t in forest]
    trees.sort(key=tree_key)
    out = []
    for t in trees:
        if not out or out[-1] != t:
            out.append(t)
    return tuple(out)


def truncate(forest, k):
    """Drop every node at depth k or more; truncate(s, 0) is the empty forest."""
    if k <= 0:
        return ()
    return tuple((label, truncate(children, k - 1)) for label, children in forest)


def relabel(forest, tag):
    """Replace each label a by the pair (a, tag(children)).

    ``tag`` receives the forest of strict descendants of the node and
    returns the second label component.
    """
    return tuple(
        ((label, tag(children)), relabel(children, tag)) for label, children in forest
    )


# ---------------------------------------------------------------------------
# Contexts

def hole_depth(ctx):
    for label, children in ctx:
        if label == HOLE:
            return 0
        d = hole_depth(children)
        if d is not None:
            return d + 1
    return None


def depth(ctx):
    d = hole_depth(ctx)
    if d is None:
        raise ValueError("not a context: no hole")
    return d


def _splice(ctx, replacement):
    out = []
    for t in ctx:
        label, children = t
        if label == HOLE:
            out.extend(replacement)
        else:
            out.append((label, _splice(children, replacement)))
    return tuple(out)


def apply(ctx, forest):
    """Substitute a forest for the hole."""
    return _splice(ctx, forest)


def compose(outer, inner):
    """Nest ``inner`` inside ``outer``'s hole; depths add."""
    return _splice(outer, inner)


def is_guarded(ctx):
    return depth(ctx) >= 1
