"""Line-oriented text format for algebras and recognizers.

Sections, in canonical order (``#`` starts a comment anywhere)::

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

Printing then parsing is the identity on algebras; parsing then printing is
bit-exact on canonically printed files.
"""

from .algebra import FiniteMonoid, ForestAlgebra
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


_SECTION_ORDER = ("H:", "plus:", "V:", "compose:", "act:", "accept:", "letters:")


def parse_algebra(text):
    """Parse the text format; returns (algebra, letters or None, accept or None)."""
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
        if section == "accept:":
            accept = frozenset(hname(t) for t in ts.names_until_keyword())
        elif section == "letters:":
            letters = {}
            for item in ts.names_until_keyword():
                if "=" not in item:
                    raise ParseError("letters entries look like a=vname, got %r" % item)
                a, v = item.split("=", 1)
                letters[a] = vname(v)
        else:
            raise ParseError("unknown section %r" % section)

    if "0" not in hindex:
        raise StructuralError("the horizontal identity must be named 0")
    if "1" not in vindex:
        raise StructuralError("the vertical identity must be named 1")
    H = FiniteMonoid(plus, hindex["0"], hnames)
    V = FiniteMonoid(compose, vindex["1"], vnames)
    alg = ForestAlgebra(H, V, act, faithful=False)
    return alg, letters, accept


def print_algebra(alg, letters=None, accept=None):
    lines = []
    hn, vn = alg.H.names, alg.V.names
    lines.append("H: " + " ".join(hn))
    lines.append("plus:")
    for row in alg.H.op:
        lines.append(" ".join(hn[x] for x in row))
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


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())

