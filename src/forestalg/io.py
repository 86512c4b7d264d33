"""The text format of algebras and recognizers.

A file is a sequence of sections.  A token ending in ``:`` opens one, and
the tokens up to the next such token are its contents, whatever the line
breaks; so no element or letter name can end in ``:``, and nothing may
come before the first section.  ``#`` starts a comment anywhere.

Both forms open with H and its sum table.  An algebra is written with all
of its tables::

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


def _sections(text):
    """The file as a list of (keyword, tokens), one per section, in order."""
    sections = []
    for line in text.splitlines():
        for tok in line.split("#", 1)[0].split():
            if tok.endswith(":"):
                sections.append((tok, []))
            elif sections:
                sections[-1][1].append(tok)
            else:
                raise ParseError("expected 'H:', got %r" % tok)
    return sections


def _expect(sections, keyword):
    """Take the next section, which must be ``keyword``; returns its tokens."""
    if not sections:
        raise ParseError("unexpected end of file, expected %s" % keyword)
    got, tokens = sections.pop(0)
    if got != keyword:
        raise ParseError("expected %r, got %r" % (keyword, got))
    return tokens


def _names(tokens, what):
    """The element names of an ``H:`` or ``V:`` section, and the lookup
    from a name to its index."""
    if not tokens:
        raise ParseError("empty %s section" % what)
    index = {n: i for i, n in enumerate(tokens)}
    if len(index) != len(tokens):
        raise StructuralError("duplicate %s names" % what)

    def lookup(name):
        try:
            return index[name]
        except KeyError:
            raise ParseError("unknown %s element %r" % (what, name)) from None
    return tokens, lookup


def _table(tokens, rows, cols, lookup, what):
    """A table section: one row per name in ``rows``, each with one entry
    per name in ``cols``, looked up by ``lookup``."""
    n = len(cols)
    if len(tokens) != len(rows) * n:
        raise ParseError("%s: expected %d entries, got %d"
                         % (what, len(rows) * n, len(tokens)))
    entries = list(map(lookup, tokens))
    return [entries[i:i + n] for i in range(0, len(entries), n)]


def _identity(names, name, what):
    """The index of an identity, which the file must name ``name``."""
    if name not in names:
        raise StructuralError("the %s identity must be named %s" % (what, name))
    return names.index(name)


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
    sections = _sections(text)
    hnames, hname = _names(_expect(sections, "H:"), "H")
    plus = _table(_expect(sections, "plus:"), hnames, hnames, hname, "plus")
    tables = bool(sections) and sections[0][0] == "V:"
    if tables:
        vnames, vname = _names(_expect(sections, "V:"), "V")
        compose = _table(_expect(sections, "compose:"), vnames, vnames, vname,
                         "compose")
        act = _table(_expect(sections, "act:"), vnames, hnames, hname, "act")
    # the tables are followed by accept: and letters:, each at most once;
    # H alone by letter: sections and then accept:, which ends the file
    accept = letters = None
    rows = {}
    for keyword, tokens in sections:
        if keyword == "accept:" and accept is None:
            accept = frozenset(map(hname, tokens))
        elif keyword == "letters:" and tables and letters is None:
            letters = {}
            for item in tokens:
                if "=" not in item:
                    raise ParseError("letters entries look like a=vname, got %r" % item)
                a, v = item.split("=", 1)
                letters[_letter(a, letters)] = vname(v)
        elif keyword == "letter:" and not tables and accept is None:
            if not tokens:
                raise ParseError("letter: section without a letter")
            a = _letter(tokens[0], rows)
            if len(tokens) != len(hnames) + 1:
                raise StructuralError("letter %s: expected %d entries, got %d"
                                      % (a, len(hnames), len(tokens) - 1))
            rows[a] = tuple(map(hname, tokens[1:]))
        else:
            raise ParseError("unexpected section %r" % keyword)
    if not tables and accept is None:  # so a file cut at a section is refused
        raise ParseError("a recognizer file must end with an accept: section")
    H = FiniteMonoid(plus, _identity(hnames, "0", "horizontal"), hnames)
    if not tables:
        return (*generated_algebra(H, rows), accept)
    V = FiniteMonoid(compose, _identity(vnames, "1", "vertical"), vnames)
    return ForestAlgebra(H, V, act, faithful=False), letters, accept


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
