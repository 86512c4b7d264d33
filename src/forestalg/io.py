"""Line-oriented text format for algebras and recognizers.

Both forms open with H and its sum table; ``#`` starts a comment anywhere.
An algebra is written with all of its tables::

    H: <names>
    plus:
    <|H| rows of |H| names>
    V: <names>
    compose:
    <|V| rows of |V| names>      # row v, column w holds v*w (apply w first)
    act:
    <|V| rows of |H| names>
    accept: <names>              # optional
    letters: a=<vname> b=<vname> # optional

A recognizer is written by its generators, with no vertical monoid::

    H: <names>
    plus:
    <|H| rows of |H| names>
    letter: a                    # one section per letter
    <|H| names>                  # the letter's action on H
    accept: <names>              # required, and last

Its V is the closure of the letter rows and the insertions h -> g + h
under composition.  Loading such a file builds a generated algebra, which
closes V only when V is read (printing the algebra form, ``eval
--context``), and its law check reads H alone.  print_recognizer writes
this form, and the ``compile`` and ``syntactic`` commands use it;
print_algebra writes the first.

Printing then parsing is the identity on algebras and on recognizers;
parsing then printing is bit-exact on canonically printed files.
"""

from . import terms
from .algebra import FiniteMonoid, ForestAlgebra, generated_algebra
from .errors import ParseError, StructuralError


def _tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for tok in line.split():
            tokens.append((tok, lineno))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self, what="token"):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of file, expected %s" % what)
        tok, _ = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next(tok)
        if got != tok:
            raise ParseError("expected %r, got %r" % (tok, got))

    def names_until_keyword(self):
        out = []
        while self.peek() is not None and not self.peek().endswith(":"):
            out.append(self.next())
        return out


def _letter(name, seen):
    """A letter name read from a file: non-empty, new, and writable back."""
    if not name or name.endswith(":"):
        raise ParseError("bad letter name %r" % name)
    if name in seen:
        raise ParseError("duplicate letter %r" % name)
    return name


def parse_algebra(text):
    """Parse either form; returns (algebra, letters or None, accept or None).

    A recognizer file gives a generated algebra, and ``letters`` sends each
    letter to the vertical index of its generator.
    """
    ts = _TokenStream(_tokenize(text))
    ts.expect("H:")
    hnames = ts.names_until_keyword()
    if not hnames:
        raise ParseError("empty H section")
    hindex = {n: i for i, n in enumerate(hnames)}
    if len(hindex) != len(hnames):
        raise StructuralError("duplicate H names")

    def hname(tok):
        if tok not in hindex:
            raise ParseError("unknown H element %r" % tok)
        return hindex[tok]

    ts.expect("plus:")
    plus = [[hname(ts.next("plus entry")) for _ in hnames] for _ in hnames]
    if ts.peek() == "V:":
        return _parse_tables(ts, hnames, hname, plus)

    rows = {}
    while ts.peek() == "letter:":
        ts.next()
        items = ts.names_until_keyword()
        if not items:
            raise ParseError("letter: section without a letter")
        a = _letter(items[0], rows)
        if len(items) != len(hnames) + 1:
            raise StructuralError("letter %s: expected %d entries, got %d"
                                  % (a, len(hnames), len(items) - 1))
        rows[a] = tuple(hname(t) for t in items[1:])
    # accept: ends a recognizer file, so a file cut at a section is refused
    if ts.peek() != "accept:":
        raise ParseError("expected 'V:', 'letter:' or 'accept:', got %s"
                         % ("end of file" if ts.peek() is None else repr(ts.peek())))
    ts.next()
    accept = frozenset(hname(t) for t in ts.names_until_keyword())
    if ts.peek() is not None:
        raise ParseError("unexpected section %r after accept:" % ts.peek())
    if "0" not in hindex:
        raise StructuralError("the horizontal identity must be named 0")
    H = FiniteMonoid(plus, hindex["0"], hnames)
    alg, letters = generated_algebra(H, rows)
    return alg, letters, accept


def _parse_tables(ts, hnames, hname, plus):
    """The algebra form from ``V:`` on."""
    ts.expect("V:")
    vnames = ts.names_until_keyword()
    if not vnames:
        raise ParseError("empty V section")
    vindex = {n: i for i, n in enumerate(vnames)}
    if len(vindex) != len(vnames):
        raise StructuralError("duplicate V names")

    def vname(tok):
        if tok not in vindex:
            raise ParseError("unknown V element %r" % tok)
        return vindex[tok]

    ts.expect("compose:")
    compose = [[vname(ts.next("compose entry")) for _ in vnames] for _ in vnames]
    ts.expect("act:")
    act = [[hname(ts.next("act entry")) for _ in hnames] for _ in vnames]

    accept = None
    letters = None
    while ts.peek() is not None:
        section = ts.next()
        if section == "accept:" and accept is None:
            accept = frozenset(hname(t) for t in ts.names_until_keyword())
        elif section == "letters:" and letters is None:
            letters = {}
            for item in ts.names_until_keyword():
                if "=" not in item:
                    raise ParseError("letters entries look like a=vname, got %r" % item)
                a, v = item.split("=", 1)
                letters[_letter(a, letters)] = vname(v)
        else:
            raise ParseError("unexpected section %r" % section)

    if "0" not in hnames:
        raise StructuralError("the horizontal identity must be named 0")
    if "1" not in vindex:
        raise StructuralError("the vertical identity must be named 1")
    H = FiniteMonoid(plus, hnames.index("0"), hnames)
    V = FiniteMonoid(compose, vindex["1"], vnames)
    alg = ForestAlgebra(H, V, act, faithful=False)
    return alg, letters, accept


def _horizontal_lines(alg):
    hn = alg.H.names
    return (["H: " + " ".join(hn), "plus:"]
            + [" ".join(hn[x] for x in row) for row in alg.H.op])


def print_algebra(alg, letters=None, accept=None):
    """The algebra form, with V's table; builds V of a generated algebra."""
    lines = _horizontal_lines(alg)
    hn, vn = alg.H.names, alg.V.names
    lines.append("V: " + " ".join(vn))
    lines.append("compose:")
    for row in alg.V.op:
        lines.append(" ".join(vn[x] for x in row))
    lines.append("act:")
    for row in alg.action:
        lines.append(" ".join(hn[x] for x in row))
    if accept is not None:
        lines.append("accept:" + "".join(" " + hn[x] for x in sorted(accept)))
    if letters is not None:
        lines.append("letters: " + " ".join(
            "%s=%s" % (a, vn[v]) for a, v in sorted(letters.items())))
    return "\n".join(lines) + "\n"


def print_recognizer(rec):
    """The recognizer form: H, its sum table, each letter's row and the
    accepting set.  V is neither built nor written."""
    hom = rec.hom
    hn = hom.target.H.names
    lines = _horizontal_lines(hom.target)
    for a in sorted(hom.alphabet, key=terms.label_key):
        label = terms.print_label(a)
        if (not label or label.endswith(":")
                or any(c.isspace() or c == "#" for c in label)):
            raise StructuralError("letter %r cannot be written" % (label,))
        lines += ["letter: " + label, " ".join(hn[x] for x in hom.row(a))]
    lines.append("accept:" + "".join(" " + hn[x] for x in sorted(rec.accept)))
    return "\n".join(lines) + "\n"


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())
