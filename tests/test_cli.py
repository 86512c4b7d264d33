import importlib
import json
import os
import random

import pytest

from forestalg import cli, hom
from forestalg.cli import main

from helpers import BAD_LETTER_FILES, BAD_SECTION_FILES

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid(capsys):
    code, out, _ = run(capsys, "check", fx("chain4.fa"))
    assert code == 0
    assert "ok" in out


def test_check_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.fa"
    text = open(fx("u1.fa")).read().replace("act:\n0 inf\ninf inf",
                                            "act:\n0 inf\n0 inf")
    bad.write_text(text)
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "insertion-closure" in out or "action" in out


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", fx("chain4.fa"), "a+b")
    assert code == 0
    assert "value: inf" in out
    code, out, _ = run(capsys, "eval", fx("chain4.fa"), "b(a)")
    assert code == 1
    assert "value: h2" in out


def test_eval_context(capsys):
    code, out, _ = run(capsys, "eval", fx("chain4.fa"), "a([])", "--context")
    assert code == 0
    assert "action:" in out


def test_models(capsys):
    code, _, _ = run(capsys, "models", "a+b(b)", "EX a")
    assert code == 0
    code, _, _ = run(capsys, "models", "b", "EX a")
    assert code == 1


def test_models_role_error(capsys):
    code, _, err = run(capsys, "models", "a", "a | b")
    assert code == 2
    assert "error" in err


def test_compile_and_syntactic(tmp_path, capsys):
    out_file = tmp_path / "psi.fa"
    code, _, _ = run(capsys, "compile",
                     "EX(a & !EF b) & EX(b | EF b) | EF(EX(a & !EF b) & EX(b | EF b))",
                     "--alphabet", "a,b", "-o", str(out_file))
    assert code == 0
    syn_file = tmp_path / "syn.fa"
    code, _, _ = run(capsys, "syntactic", str(out_file), "-o", str(syn_file))
    assert code == 0
    code, out, _ = run(capsys, "decide", str(syn_file), "--logic", "efex")
    assert code == 0


def test_written_files_close_V_only_to_print_it(tmp_path, capsys,
                                                vertical_closures):
    """compile -o --json reports |V|; syntactic -o reports it in text only."""
    calls = vertical_closures
    psi, syn = str(tmp_path / "psi.fa"), str(tmp_path / "syn.fa")
    code, out, _ = run(capsys, "compile", "EF(a & EX b)", "--alphabet", "a,b",
                       "-o", psi, "--json")
    assert (code, len(calls)) == (0, 1) and json.loads(out)["vertical"] > 1
    calls.clear()
    code, out, _ = run(capsys, "syntactic", psi, "-o", syn, "--json")
    assert (code, calls) == (0, []) and "vertical" not in json.loads(out)
    code, out, _ = run(capsys, "syntactic", psi, "-o", syn)
    assert (code, len(calls)) == (0, 1) and "|V|=" in out


def test_compile_output_past_the_vertical_cap_exits_3(tmp_path, capsys,
                                                      monkeypatch):
    """The -o summary reads |V|; past the cap the command exits 3 before
    it opens the file, so no file is left behind."""
    from forestalg import algebra

    monkeypatch.setattr(algebra, "DEFAULT_MAX_VERTICAL", 3)
    psi, syn = tmp_path / "psi.fa", tmp_path / "syn.fa"
    refused = (3, "", "error: size limit exceeded: vertical closure (cap 3)\n")
    for extra in ((), ("--json",)):
        assert run(capsys, "compile", "EF(a & EX b)", "--alphabet", "a,b",
                   "-o", str(psi), *extra) == refused, extra
        assert not psi.exists(), extra
    code, out, _ = run(capsys, "compile", "EF(a & EX b)", "--alphabet", "a,b")
    assert code == 0
    psi.write_text(out)
    assert run(capsys, "syntactic", str(psi), "-o", str(syn)) == refused
    assert not syn.exists()


def test_reach_dot(capsys):
    code, out, _ = run(capsys, "reach", fx("chain4.fa"), "--dot")
    assert code == 0
    assert out.count("->") == 3
    code, out, _ = run(capsys, "reach", fx("chain4.fa"))
    assert "minimal" in out


def test_simk(capsys):
    code, _, _ = run(capsys, "simk", "--k", "1", "a(b)+a(b+b)", "a(c)")
    assert code == 0
    code, _, _ = run(capsys, "simk", "--k", "2", "a(b)", "a(c)")
    assert code == 1


def test_definiteness(capsys):
    code, out, _ = run(capsys, "definiteness", fx("u1_efa.fa"))
    assert code == 1
    assert "none" in out


def test_decide_exit_codes(capsys):
    code, out, _ = run(capsys, "decide", "--logic", "efex", fx("chain4.fa"))
    assert code == 0
    code, out, _ = run(capsys, "decide", "--logic", "ef", fx("chain4.fa"))
    assert code == 1
    code, out, _ = run(capsys, "decide", "--logic", "efex", fx("u2_abc.fa"),
                       "--certificate")
    assert code == 1
    assert "a(b)" in out and "a(c)" in out


def test_decide_formula_input(capsys):
    code, _, _ = run(capsys, "decide", "--logic", "ef",
                     "--formula", "EF a", "--alphabet", "a,b")
    assert code == 0
    code, _, _ = run(capsys, "decide", "--logic", "ex",
                     "--formula", "EF a", "--alphabet", "a,b")
    assert code == 1


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", fx("u2_abc.fa"))
    assert code == 1
    assert "a(b) / a(c)" in out
    code, out, _ = run(capsys, "witness", fx("chain4.fa"))
    assert code == 0


# |H| 4 with two confused classes; syntactic() keeps it as it is
TWO_CONFUSED = """H: 0 h1 h2 inf
plus:
0 h1 h2 inf
h1 h1 inf inf
h2 inf h2 inf
inf inf inf inf
letter: a
h1 h2 inf inf
letter: b
h1 0 inf h2
accept: h2
"""


def test_witness_realizes_each_hom_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(h):
        calls.append(h)
        return hom.realize(h)

    monkeypatch.setattr(cli, "realize", counted)
    monkeypatch.setattr(importlib.import_module("forestalg.decide"),
                        "realize", counted)
    path = tmp_path / "two.fa"
    path.write_text(TWO_CONFUSED)
    code, out, _ = run(capsys, "witness", str(path))
    assert code == 1
    assert out == ("class 0: b(a) / b at depth 1\n"
                   "class 1: b(a(a(a))) / b(a(a)) at depth 1\n")
    assert len(calls) == 1


def test_decompose_cli(capsys):
    code, out, _ = run(capsys, "decompose", "--logic", "efex", fx("chain4.fa"))
    assert code == 0
    assert "stages" in out
    code, out, _ = run(capsys, "decompose", "--logic", "ef", fx("chain4.fa"))
    assert code == 1
    code, out, _ = run(capsys, "decompose", "--logic", "ef", fx("u1_efa.fa"))
    assert code == 0


def test_decompose_size_limit(capsys):
    code, _, err = run(capsys, "decompose", "--logic", "efex", fx("chain4.fa"),
                       "--max-size", "2")
    assert code == 3
    assert "size limit" in err


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", fx("u2_abc.fa"), "--max-k", "2")
    assert code == 0
    assert "agreement: true" in out


def test_json_reports_deterministic(capsys):
    code, out1, _ = run(capsys, "decide", "--logic", "efex", fx("u2_abc.fa"),
                        "--certificate", "--json")
    code, out2, _ = run(capsys, "decide", "--logic", "efex", fx("u2_abc.fa"),
                        "--certificate", "--json")
    assert out1 == out2
    report = json.loads(out1)
    assert report["schema"] == 1
    assert report["witness"] == {"s": "a(b)", "t": "a(c)", "k": 1}


def test_input_error_exit_code(capsys, tmp_path):
    missing = tmp_path / "nope.fa"
    code, _, err = run(capsys, "check", str(missing))
    assert code == 2
    garbage = tmp_path / "garbage.fa"
    garbage.write_text("H: onlyone\n")
    code, _, err = run(capsys, "check", str(garbage))
    assert code == 2


def test_main_builds_one_parser(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        code, out, _ = run(capsys, "models", "a(b)", "EX a")
        assert code == 0 and out == "satisfied: true\n"
    assert cli.build_parser.cache_info().misses == 1
    code, out, err = run(capsys, "simk", "--k", "-1", "a", "a")
    assert code == 2 and out == "" and err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["decide", fx("u1.fa"), "--logic", "fo"])
    assert exc.value.code == 2
    assert cli.build_parser.cache_info().misses == 1


NO_INSERTIONS = "H: 0 inf\nplus:\n0 inf\ninf inf\nV: 1\ncompose:\n1\nact:\n0 inf\n"


def test_reach_law_violation_is_input_error(tmp_path, capsys):
    code, out, _ = run(capsys, "reach", fx("u1.fa"))
    assert code == 0 and "minimal" in out
    bad = tmp_path / "noins.fa"
    bad.write_text(NO_INSERTIONS)
    code, out, err = run(capsys, "reach", str(bad))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: insertion-closure violated")


def test_deep_input_is_input_error(capsys):
    deep = "a(" * 2000 + ")" * 2000
    code, out, err = run(capsys, "eval", fx("u1_efa.fa"), deep)
    assert code == 2 and out == ""
    assert err == "error: input nested too deeply\n"


def test_negative_depth_is_input_error(capsys):
    for argv in (("simk", "--k", "-1", "a", "b"),
                 ("oracle-check", fx("u2_abc.fa"), "--max-k", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: a depth cannot be negative, got -1\n"


def test_size_cap_below_one_is_input_error(capsys):
    for cap in ("-5", "0"):
        code, out, err = run(capsys, "decompose", "--logic", "efex",
                             fx("chain4.fa"), "--max-size", cap)
        assert code == 2 and out == ""
        assert err == "error: a size cap must be at least 1, got %s\n" % cap


def test_reach_validates_like_every_command(tmp_path, capsys):
    bad = tmp_path / "u1_z2.fa"  # cinf.cinf = 1, while cinf.(cinf.0) = inf
    bad.write_text(open(fx("u1.fa")).read().replace("cinf cinf\nact:",
                                                    "cinf 1\nact:"))
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1 and out.startswith("action-composition violated at cinf/cinf/0")
    for argv in (("reach", str(bad)), ("reach", str(bad), "--dot"),
                 ("reach", str(bad), "--json")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("error: %s: invalid algebra: action-composition violated "
                       "at cinf/cinf/0: (vw).h != v.(w.h)\n" % bad)


def _refused_as_input(capsys, path, files):
    for case, text in sorted(files.items()):
        path.write_text(text)
        for argv in (("decide", "--logic", "ef", str(path)),
                     ("decompose", "--logic", "ef", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), case
            assert err.startswith("error: ") and err.count("\n") == 1, case


def test_bad_letter_names_are_input_errors(tmp_path, capsys):
    _refused_as_input(capsys, tmp_path / "bad.fa", BAD_LETTER_FILES)


def test_bad_sections_are_input_errors(tmp_path, capsys):
    _refused_as_input(capsys, tmp_path / "bad.fa",
                      {case: text for case, (_, text) in BAD_SECTION_FILES.items()})


def test_decide_timings_add_only_seconds(capsys):
    argv = ("decide", "--logic", "efex", fx("u2_abc.fa"), "--certificate",
            "--json")
    code, out, _ = run(capsys, *argv)
    timed_code, timed_out, _ = run(capsys, *argv, "--timings")
    timed = json.loads(timed_out)
    seconds = timed.pop("seconds")
    assert timed_code == code and timed == json.loads(out)
    assert isinstance(seconds, (int, float)) and seconds >= 0


def test_missing_decide_input_and_empty_alphabet_are_input_errors(capsys):
    for argv in (("decide", "--logic", "ef", "--formula", "EF a"),
                 ("decide", "--logic", "ef"),
                 ("compile", "EF a", "--alphabet", ",")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


# Every subcommand that reads a file, with the file's place marked.
FILE_COMMANDS = (
    ("check", "{}"), ("eval", "{}", "a+b(a)"), ("eval", "{}", "a([])", "--context"),
    ("syntactic", "{}"), ("reach", "{}"), ("reach", "{}", "--dot"),
    ("definiteness", "{}"), ("decide", "--logic", "ef", "{}"),
    ("decide", "--logic", "ex", "{}"), ("decide", "--logic", "efex", "{}", "--certificate"),
    ("witness", "{}"), ("decompose", "--logic", "ef", "{}"),
    ("decompose", "--logic", "efex", "{}", "--json"), ("oracle-check", "{}"),
)


def _file_forms():
    """The explicit and the recognizer form of every fixture with letters."""
    from forestalg import io
    from forestalg.hom import Homomorphism, Recognizer

    forms = []
    for name in ("chain4.fa", "u1_efa.fa", "u2_abc.fa"):
        text = open(fx(name)).read()
        alg, letters, accept = io.parse_algebra(text)
        hom = Homomorphism(tuple(sorted(letters)), alg, letters)
        forms += [text, io.print_recognizer(Recognizer(hom, accept))]
    return forms


MUTATIONS = ("truncate", "unknown", "duplicate", "no-zero", "drop-row",
             "extra-row", "huge")


def _mutate(rng, text, kind):
    """One structural defect: a table cut short, an unknown name, a
    duplicate name or letter, no element 0, a row too many or too few, or
    a huge declared H.  Table rows are the lines without a colon."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if ":" not in line]
    i = rng.choice(rows)
    toks = lines[i].split()
    if kind == "truncate":
        lines = lines[:i] + [" ".join(toks[:rng.randrange(len(toks))])]
    elif kind == "unknown":
        toks[rng.randrange(len(toks))] = "zz"
        lines[i] = " ".join(toks)
    elif kind == "duplicate":
        choices = [j for j, line in enumerate(lines)
                   if line.startswith(("H:", "V:", "letters:", "letter:"))]
        j = rng.choice(choices)
        if lines[j].startswith("letter:"):
            lines[j:j] = lines[j:j + 2]
        elif lines[j].startswith("letters:"):
            lines[j] += " " + lines[j].split()[1]
        else:
            head, *names = lines[j].split()
            names[-1] = names[0]
            lines[j] = " ".join([head] + names)
    elif kind == "no-zero":
        lines = [" ".join("zero" if t == "0" else t for t in line.split())
                 for line in lines]
    elif kind == "drop-row":
        del lines[i]
    elif kind == "extra-row":
        lines.insert(i, lines[i])
    else:
        lines[0] += "".join(" x%d" % k for k in range(10_000))
    return "\n".join(lines) + "\n"


def test_malformed_file_sweep(tmp_path, capsys):
    rng = random.Random(6)
    path = tmp_path / "mutant.fa"
    for base in _file_forms():
        for kind in MUTATIONS:
            text = _mutate(rng, base, kind)
            path.write_text(text)
            for cmd in FILE_COMMANDS:
                argv = [str(path) if a == "{}" else a for a in cmd]
                code, out, err = run(capsys, *argv)
                assert code in (2, 3), (argv, text[:300])
                assert "Traceback" not in err and err.count("\n") == 1, argv
