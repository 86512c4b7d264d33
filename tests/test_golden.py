"""Byte-for-byte pins of CLI reports and printed algebras.

Element names and H/V indices follow the discovery order of the exact
closures, so a change to that order, or to any report, shows up here.
When an output is meant to change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py --write`` and review the diff.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile

import pytest

from forestalg import algebra, cli
from forestalg import io as fio
from forestalg import logic, terms
from forestalg.decompose import decompose_ef, decompose_efex, wreath_compose
from forestalg.defk import free_kdefinite
from forestalg.errors import ForestAlgError
from forestalg.hom import (Homomorphism, Recognizer, recognizers_isomorphic,
                           restrict_recognizer, syntactic)
from forestalg.reach import quotient_hom, reachability

from helpers import random_formula, random_recognizer, random_semilattice

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(os.path.dirname(HERE), "fixtures")
FIXTURE_NAMES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".fa"))

REPORTS = (
    ("check",),
    ("reach",),
    ("definiteness",),
    ("decide", "--logic", "ef", "--certificate"),
    ("decide", "--logic", "ex", "--certificate"),
    ("decide", "--logic", "efex", "--certificate"),
    ("witness",),
    ("decompose", "--logic", "ef"),
    ("decompose", "--logic", "efex"),
)

COMPILED = {
    "compile_cycle3.fa": ("EF(a0 & EX a1) | EF(a1 & EX a2) | EF(a2 & EX a0)",
                          "a0,a1,a2"),
    "compile_ex_ex_a.fa": ("EX(EX a)", "a,b"),
}

CYCLE2 = ("EF(a & EX b) | EF(b & EX a)", "a,b")

# golden file name -> (formula, alphabet, extra decompose options); the
# first two print every stage letter, the last is the default-cap refusal.
DECOMPOSED = {
    "decompose_cycle2_65536.txt": CYCLE2 + (("--letters", "--max-size", "65536"),),
    "decompose_ex_ex_a.txt": ("EX(EX a)", "a,b", ("--letters",)),
    "decompose_cycle2_refusal.json": CYCLE2 + ((),),
}


# A recognizer whose letter names clash with the names V gives its own
# elements: the letter 1 (V's identity is 1) breaks the EF identity, the
# letter ins_h1 is not the insertion of h1, and v7 is an automatic name.
NAME_CLASH = """\
H: 0 h1 h2 inf
plus:
0 h1 h2 inf
h1 h1 inf inf
h2 inf h2 inf
inf inf inf inf
letter: 1
h2 h2 h2 inf
letter: ins_h1
h1 h1 h2 inf
letter: v7
h1 h2 h1 inf
accept: inf
"""

NAME_CLASH_COMMANDS = (
    ("decide", "--logic", "ef", "--certificate", "--json", "name_clash.fa"),
    ("decompose", "--logic", "ef", "--json", "name_clash.fa"),
    ("eval", "--context", "--json", "name_clash.fa", "v7([])"),
    ("eval", "--context", "--json", "name_clash.fa", "ins_h1([]+v7)"),
)


def _run(argv):
    return _run_both(argv)[:2]


def _run_both(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fixture_reports(name):
    """{command line: {"exit": code, "stdout": text}} for one fixture."""
    path = os.path.join(FIXTURES, name)
    out = {}
    for cmd in REPORTS:
        code, text = _run(cmd + ("--json", path))
        out[" ".join(cmd + ("--json", name))] = {"exit": code, "stdout": text}
    return out


def formula_reports():
    """{command line: {"exit": code, "stdout": text}} for ``decide
    --formula`` under every logic, on each compiled formula."""
    out = {}
    for formula, alphabet in COMPILED.values():
        for logic_name in ("ef", "ex", "efex"):
            cmd = ("decide", "--logic", logic_name, "--certificate", "--json",
                   "--formula", formula, "--alphabet", alphabet)
            code, text = _run(cmd)
            out[" ".join(cmd)] = {"exit": code, "stdout": text}
    return out


def name_clash_reports(directory):
    """{command line: {"exit": code, "stdout": text}} on NAME_CLASH, written
    to ``directory``."""
    path = os.path.join(directory, "name_clash.fa")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(NAME_CLASH)
    out = {}
    for cmd in NAME_CLASH_COMMANDS:
        code, text = _run([path if arg == "name_clash.fa" else arg
                           for arg in cmd])
        out[" ".join(cmd)] = {"exit": code, "stdout": text}
    return out


def printed_outputs():
    """{golden file name: text} for the compiled and printed algebras."""
    out = {}
    for fname, (formula, alphabet) in COMPILED.items():
        code, text = _run(("compile", formula, "--alphabet", alphabet))
        assert code == 0
        out[fname] = text
    alg, hom = free_kdefinite(("a", "b", "c"), 1)
    out["free_kdefinite_abc_1.fa"] = fio.print_algebra(
        alg, letters=dict(hom.assign))
    return out


def syntactic_outputs():
    """{golden file name: text} for the syntactic recognizers of every
    fixture with a letters: section and of the compiled formulas."""
    out = {}
    for name in FIXTURE_NAMES:
        path = os.path.join(FIXTURES, name)
        if fio.load_algebra(path)[1] is None:
            continue
        code, text = _run(("syntactic", path))
        assert code == 0
        out["syntactic_" + name] = text
    for fname, (formula, alphabet) in COMPILED.items():
        syn = syntactic(logic.to_recognizer(logic.parse_formula(formula),
                                            alphabet.split(",")))[0]
        out["syntactic_" + fname[len("compile_"):]] = fio.print_algebra(
            syn.hom.target, letters=dict(syn.hom.assign), accept=syn.accept)
    return out


def decomposed_outputs():
    """{golden file name: text} for ``decompose --logic efex --formula``:
    the printed cascades, and the exit code and error of the refusal."""
    out = {}
    for fname, (formula, alphabet, options) in DECOMPOSED.items():
        code, text, err = _run_both(
            ("decompose", "--logic", "efex", "--formula", formula,
             "--alphabet", alphabet) + options)
        if fname.endswith(".json"):
            text = _dump_reports({"exit": code, "stdout": text, "stderr": err})
        else:
            assert (code, err) == (0, ""), fname
        out[fname] = text
    return out


def _clash_recognizer(rng):
    """A recognizer on the subsets of three atoms whose H names clash with
    the canonical ones (0, inf, h<i>) and with V's (1).  Half the time the
    names are kept as given, as a loaded file keeps them, so inf may name
    a non-absorbing element.  The letters map into the subsets of a mask,
    so the image misses the absorbing element unless the mask is full."""
    n = 8
    plus = [[i | j for j in range(n)] for i in range(n)]
    names = ["0"] + rng.sample(("inf", "1", "h1", "h2", "h3", "x", "y", "0"), 7)
    if rng.random() < 0.5 and "0" not in names[1:]:
        H = algebra.FiniteMonoid(plus, 0, names)
    else:
        H = algebra.horizontal_monoid(plus, 0, names)
    mask = rng.choice((3, 5, 6, 7))
    inside = [h for h in range(n) if h & mask == h]
    letters = ("a", "b", "c")[:rng.randint(1, 3)]
    rows = {a: tuple(rng.choice(inside) for _ in range(n)) for a in letters}
    alg, genmap = algebra.generated_algebra(H, rows)
    hom = Homomorphism(letters, alg, genmap)
    return Recognizer(hom, frozenset(h for h in range(n) if rng.random() < 0.4))


def _tagged_hom(rng, alpha):
    """A random homomorphism over alpha's letter/element-name pairs."""
    H = random_semilattice(rng, 4)
    letters = [(a, alpha.target.hname(h)) for a in alpha.alphabet
               for h in range(alpha.target.H.size)]
    rows = {terms.print_label(b): tuple(rng.randrange(H.size)
                                        for _ in range(H.size))
            for b in letters}
    alg, genmap = algebra.generated_algebra(H, rows)
    return Homomorphism(letters, alg,
                        {b: genmap[terms.print_label(b)] for b in letters})


def _printed(hom):
    return fio.print_recognizer(Recognizer(hom, frozenset()))


def generated_outputs():
    """{golden file name: text} for the algebras that restriction, the
    syntactic quotient, the ideal quotients and wreath composition build
    on seeded recognizers with clashing names."""
    rng = random.Random(2024)
    lines = []
    for i in range(60):
        rec = _clash_recognizer(rng)
        lines.append("== recognizer %d\n%s" % (i, fio.print_recognizer(rec)))
        restricted = restrict_recognizer(rec)
        lines.append("restricted:\n" + fio.print_recognizer(restricted))
        syn, projection = syntactic(rec)
        lines.append("syntactic:\n%sprojection: %s\n" % (
            fio.print_recognizer(syn), sorted(projection.items())))
        for which, alpha in (("target", rec.hom), ("image", restricted.hom)):
            rs = reachability(alpha.target)
            for ci in range(len(rs.classes)):
                for mode in ("strict", "weak"):
                    qhom, (reps, hmap) = quotient_hom(alpha, ci, mode, rs)
                    lines.append("%s quotient %d %s: reps %s hmap %s\n%s" % (
                        which, ci, mode, reps, list(hmap), _printed(qhom)))
        beta = _tagged_hom(rng, restricted.hom)
        lines.append("wreath:\n" + _printed(wreath_compose(restricted.hom, beta)))
    return {"generated_clash.txt": "".join(lines)}


# Formulas over {a, b} (or {a, b, c}) from the bench's families.
CASCADE_FORMULAS = (
    "EF(a & EX b) | EF(b & EX a)",
    "EX(a & EF b) | EX(b & EF a)",
    "(EX a | EF(b & EX a)) & (EX b | EF(a & EX b))",
    "EF(a & EF(b))",
    "EF a & EF b & EF c",
    "EX(EX a)",
    "EX(EX(EX a))",
)


def _cascade_text(mu):
    """describe() and every stage's letters under both decompositions and
    both caps, or the refusal."""
    lines = []
    for fn in (decompose_ef, decompose_efex):
        for cap in (4096, 65536):
            lines.append("-- %s cap %d" % (fn.__name__, cap))
            try:
                casc = fn(mu, cap)
            except ForestAlgError as exc:
                lines.append("refused: %s: %s" % (type(exc).__name__, exc))
                continue
            lines.append(casc.describe())
            keys = None
            for i, st in enumerate(casc.stages):
                if sorted(st.letters, key=repr) != keys:
                    keys = sorted(st.letters, key=repr)
                    lines.append("  keys from stage %d: %s" % (i, " ".join(
                        "%s;%s" % (key[0], ",".join(map(str, key[1:])))
                        for key in keys)))
                lines.append("  stage %d: %s" % (i, " ".join(
                    st.target.vname(st.letters[key]) for key in keys)))
    return "\n".join(lines) + "\n"


def cascade_outputs():
    """{golden file name: text} for the cascades of the formula families,
    seeded random formulas and seeded random recognizers."""
    rng = random.Random(77)
    chunks = []
    for text in CASCADE_FORMULAS:
        rec = logic.to_recognizer(logic.parse_formula(text),
                                  ("a", "b", "c") if " c" in text else ("a", "b"))
        chunks.append("== %s\n%s" % (text, _cascade_text(syntactic(rec)[0].hom)))
    for i in range(60):
        phi = random_formula(rng, ("a", "b"), rng.randint(3, 6))
        rec = logic.to_recognizer(phi, ("a", "b"))
        chunks.append("== formula %d\n%s" % (i, _cascade_text(syntactic(rec)[0].hom)))
    for i in range(40):
        rec = random_recognizer(rng, max_h=8)
        chunks.append("== recognizer %d\n%s" % (i, _cascade_text(syntactic(rec)[0].hom)))
    return {"cascade_shapes.txt": "".join(chunks)}


def _report_path(name):
    return os.path.join(GOLDEN, "reports_%s.json" % name[:-len(".fa")])


FORMULA_REPORTS = os.path.join(GOLDEN, "reports_formulas.json")
NAME_CLASH_REPORTS = os.path.join(GOLDEN, "reports_name_clash.json")


def _read(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _dump_reports(reports):
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reports_match_golden(name):
    assert _dump_reports(fixture_reports(name)) == _read(_report_path(name))


def test_formula_reports_match_golden():
    assert _dump_reports(formula_reports()) == _read(FORMULA_REPORTS)


def test_name_clash_reports_match_golden(tmp_path):
    assert (_dump_reports(name_clash_reports(str(tmp_path)))
            == _read(NAME_CLASH_REPORTS))


def test_printed_algebras_match_golden():
    for fname, text in printed_outputs().items():
        assert text == _read(os.path.join(GOLDEN, fname)), fname


def test_syntactic_algebras_match_golden():
    for fname, text in syntactic_outputs().items():
        assert text == _read(os.path.join(GOLDEN, fname)), fname


def test_decomposed_cascades_match_golden():
    for fname, text in decomposed_outputs().items():
        assert text == _read(os.path.join(GOLDEN, fname)), fname


def test_generated_algebras_match_golden():
    for fname, text in generated_outputs().items():
        assert text == _read(os.path.join(GOLDEN, fname)), fname


def test_cascade_shapes_match_golden():
    for fname, text in cascade_outputs().items():
        assert text == _read(os.path.join(GOLDEN, fname)), fname


# The files that compile and syntactic write in the recognizer form.
RECAPTURED = tuple(sorted(COMPILED)) + tuple(
    "syntactic_" + name for name in ("chain4.fa", "u1_efa.fa", "u2_abc.fa"))


def _recaptured_recognizers():
    """{golden file name: the recognizer the CLI writes there}."""
    out = {}
    for fname, (formula, alphabet) in COMPILED.items():
        out[fname] = logic.to_recognizer(logic.parse_formula(formula),
                                         tuple(sorted(alphabet.split(","))))
    for fname in RECAPTURED[len(COMPILED):]:
        out[fname] = syntactic(_load(os.path.join(
            FIXTURES, fname[len("syntactic_"):])))[0]
    return out


def _load(path):
    alg, letters, accept = fio.load_algebra(path)
    return Recognizer(Homomorphism(tuple(sorted(letters)), alg, letters), accept)


def _algebra_form(rec):
    return fio.print_algebra(rec.hom.target, letters=dict(rec.hom.assign),
                             accept=rec.accept)


def test_recaptured_files_hold_the_algebra_form(tmp_path):
    """Each recognizer-form golden file loads to a recognizer isomorphic to
    the algebra-form file the CLI used to write, and its V, once built,
    prints as exactly that file."""
    for fname, rec in _recaptured_recognizers().items():
        old = tmp_path / fname
        old.write_text(_algebra_form(rec))
        new = _load(os.path.join(GOLDEN, fname))
        assert recognizers_isomorphic(_load(str(old)), new) is not None, fname
        assert _algebra_form(new) == _read(str(old)), fname


def test_reports_identical_on_both_forms(tmp_path):
    """Every report on a compiled formula's file is the same in either form."""
    recognizers = _recaptured_recognizers()
    for fname, (_, alphabet) in COMPILED.items():
        rec = recognizers[fname]
        paths = (tmp_path / ("tables_" + fname), tmp_path / ("rows_" + fname))
        paths[0].write_text(_algebra_form(rec))
        paths[1].write_text(fio.print_recognizer(rec))
        for cmd in REPORTS:
            tables, rows = (_run(cmd + ("--json", str(p))) for p in paths)
            assert tables == rows, (fname, cmd)
        context = alphabet.split(",")[0] + "([])"
        tables, rows = (_run(("eval", "--context", "--json", str(p), context))
                        for p in paths)
        assert tables == rows and tables[0] == 0, fname


def test_recognizer_files_never_build_V(vertical_closures):
    for fname in COMPILED:
        path = os.path.join(GOLDEN, fname)
        assert _run(("check", path))[0] == 0
        for logic_name in ("ex", "efex"):
            _run(("decide", "--logic", logic_name, "--certificate", path))
    assert vertical_closures == []


def _write():
    os.makedirs(GOLDEN, exist_ok=True)
    files = {_report_path(n): _dump_reports(fixture_reports(n))
             for n in FIXTURE_NAMES}
    files[FORMULA_REPORTS] = _dump_reports(formula_reports())
    with tempfile.TemporaryDirectory() as directory:
        files[NAME_CLASH_REPORTS] = _dump_reports(name_clash_reports(directory))
    for outputs in (printed_outputs(), syntactic_outputs(),
                    decomposed_outputs(), generated_outputs(),
                    cascade_outputs()):
        files.update({os.path.join(GOLDEN, f): t for f, t in outputs.items()})
    for path, text in files.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
