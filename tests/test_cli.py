import json
import os

from forestalg.cli import main

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
