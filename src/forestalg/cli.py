"""Command-line interface.

Exit codes: 0 success / positive decision, 1 negative decision, 2 input
error, 3 size limit.  ``--json`` emits machine-readable reports with a
``schema: 1`` field; reports for identical inputs are byte identical.
"""

import argparse
import functools
import json
import sys

from . import defk, io, logic, oracle, reach, terms
from .decide import confusion_witness, decide, nonconfusion
from .decompose import DEFAULT_MAX_SIZE, decompose_ef, decompose_efex
from .errors import (ForestAlgError, NotEFAlgebra, NotNonconfusing,
                     SizeLimitError)
from .hom import (Homomorphism, Recognizer, constant_letter_realizers,
                  realize, syntactic)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_SIZE = 3


def _require_laws(path, alg):
    problems = alg.check_axioms()
    if problems:
        raise ForestAlgError("%s: invalid algebra: %s" % (path, problems[0]))


def _load_recognizer(path):
    alg, letters, accept = io.load_algebra(path)
    if letters is None:
        raise ForestAlgError("%s: missing letters: section" % path)
    _require_laws(path, alg)
    hom = Homomorphism(tuple(sorted(letters)), alg, dict(letters))
    return Recognizer(hom, accept if accept is not None else frozenset())


def _emit(args, report, text_lines):
    if getattr(args, "json", False):
        report = {"schema": 1, **report}
        print(json.dumps(report, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_check(args):
    alg, letters, accept = io.load_algebra(args.file)
    problems = alg.check_axioms()
    report = {"command": "check", "valid": not problems,
              "violations": [str(p) for p in problems]}
    _emit(args, report, [str(p) for p in problems] or ["ok: all laws hold"])
    return EXIT_TRUE if not problems else EXIT_FALSE


def _cmd_eval(args):
    rec = _load_recognizer(args.file)
    if args.context:
        ctx = terms.parse_context(args.term)
        row = rec.hom.eval_context(ctx)
        names = [rec.hom.target.hname(h) for h in row]
        v = rec.hom.context_element(ctx)
        vname = rec.hom.target.vname(v) if v is not None else None
        report = {"command": "eval", "action": names, "vertical": vname}
        _emit(args, report, ["action: [%s]" % ", ".join(names),
                             "vertical: %s" % vname])
        return EXIT_TRUE
    forest = terms.parse_forest(args.term)
    h = rec.hom.eval(forest)
    accepted = h in rec.accept
    report = {"command": "eval", "value": rec.hom.target.hname(h),
              "accepted": accepted}
    _emit(args, report, ["value: %s" % rec.hom.target.hname(h),
                         "accepted: %s" % str(accepted).lower()])
    return EXIT_TRUE if accepted else EXIT_FALSE


def _cmd_models(args):
    forest = terms.parse_forest(args.forest)
    phi = logic.parse_formula(args.formula, require=logic.FOREST)
    sat = logic.models(forest, phi)
    report = {"command": "models", "satisfied": sat}
    _emit(args, report, ["satisfied: %s" % str(sat).lower()])
    return EXIT_TRUE if sat else EXIT_FALSE


def depth(text):
    """A depth argument.  ForestAlgError passes through argparse to main()."""
    k = int(text)
    if k < 0:
        raise ForestAlgError("a depth cannot be negative, got %d" % k)
    return k


def size_cap(text):
    """A size cap argument, at least 1; passes through argparse like depth."""
    n = int(text)
    if n < 1:
        raise ForestAlgError("a size cap must be at least 1, got %d" % n)
    return n


def _parse_alphabet(text):
    letters = tuple(sorted({a.strip() for a in text.split(",") if a.strip()}))
    if not letters:
        raise ForestAlgError("empty alphabet")
    return letters


def _write_recognizer(args, rec, command, vertical):
    """Print ``rec`` in the recognizer form, or write it to ``-o`` and
    report.  |V| is read only to be reported (in ``--json`` when
    ``vertical``, and in the text line), and the report is made before the
    file is opened, so a V past its cap leaves no file behind."""
    text = io.print_recognizer(rec)
    if not args.output:
        sys.stdout.write(text)
        return EXIT_TRUE
    target = rec.hom.target
    report = {"command": command, "output": args.output,
              "horizontal": target.H.size}
    if vertical:
        report["vertical"] = target.V.size
    lines = [] if args.json else [
        "wrote %s (%s)" % (args.output, target.summary())]
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    _emit(args, report, lines)
    return EXIT_TRUE


def _cmd_compile(args):
    phi = logic.parse_formula(args.formula, require=logic.FOREST)
    alphabet = _parse_alphabet(args.alphabet)
    rec = logic.to_recognizer(phi, alphabet)
    return _write_recognizer(args, rec, "compile", vertical=True)


def _cmd_syntactic(args):
    rec = _load_recognizer(args.file)
    syn, _ = syntactic(rec)
    return _write_recognizer(args, syn, "syntactic", vertical=False)


def _cmd_reach(args):
    alg, letters, accept = io.load_algebra(args.file)
    rs = reach.reachability(alg)  # reports a missing insertion itself
    _require_laws(args.file, alg)
    if args.dot:
        sys.stdout.write(reach.dot_export(rs))
        return EXIT_TRUE
    lines = []
    for ci, members in enumerate(rs.classes):
        flags = []
        if ci == rs.min_class:
            flags.append("minimal")
        if ci in rs.subminimal:
            flags.append("subminimal")
        suffix = (" (%s)" % ", ".join(flags)) if flags else ""
        lines.append("class %d: {%s}%s" % (ci, ",".join(rs.class_names(ci)), suffix))
    report = {"command": "reach",
              "classes": [list(rs.class_names(c)) for c in range(len(rs.classes))],
              "minimal": rs.min_class, "subminimal": list(rs.subminimal)}
    _emit(args, report, lines)
    return EXIT_TRUE


def _cmd_simk(args):
    s = terms.parse_forest(args.s)
    t = terms.parse_forest(args.t)
    eq = defk.simk_equiv(s, t, args.k)
    report = {"command": "simk", "k": args.k, "equivalent": eq}
    _emit(args, report, ["equivalent at depth %d: %s" % (args.k, str(eq).lower())])
    return EXIT_TRUE if eq else EXIT_FALSE


def _cmd_definiteness(args):
    decision = decide(_load_recognizer(args.file), "ex")
    degree = "none" if decision.certificate is None else decision.certificate
    report = {"command": "definiteness", "degree": degree}
    _emit(args, report, ["definiteness degree: %s" % degree])
    return EXIT_TRUE if decision.definable else EXIT_FALSE


def _decide_input(args):
    if args.formula:
        if not args.alphabet:
            raise ForestAlgError("--formula needs --alphabet")
        phi = logic.parse_formula(args.formula, require=logic.FOREST)
        return logic.to_recognizer(phi, _parse_alphabet(args.alphabet))
    if not args.file:
        raise ForestAlgError("need a recognizer file or --formula")
    return _load_recognizer(args.file)


def _cmd_decide(args):
    import time

    t0 = time.monotonic()
    rec = _decide_input(args)
    decision = decide(rec, args.logic)
    elapsed = time.monotonic() - t0
    report = {"command": "decide", "logic": args.logic,
              "definable": decision.definable, "detail": decision.detail,
              "syntactic_horizontal": decision.syntactic.hom.target.H.size}
    if args.logic == "efex":
        report["trace_sizes"] = {
            str(ci): [len(level) for level in trace.levels]
            for ci, trace in sorted(decision.nonconfusion.traces.items())}
    if args.timings:
        report["seconds"] = round(elapsed, 3)
    lines = ["%s-definable: %s" % (args.logic, str(decision.definable).lower())]
    if decision.detail:
        lines.append(decision.detail)
    if args.certificate and not decision.definable:
        if args.logic == "efex" and decision.certificate:
            s, t, k, ci = decision.certificate
            report["witness"] = {"s": terms.print_forest(s),
                                 "t": terms.print_forest(t), "k": k}
            lines.append("witness: %s / %s at depth %d"
                         % (terms.print_forest(s), terms.print_forest(t), k))
        elif decision.certificate is not None:
            report["certificate"] = str(decision.certificate)
    _emit(args, report, lines)
    return EXIT_TRUE if decision.definable else EXIT_FALSE


def _nonconfusion_of_file(path):
    """The syntactic hom of a recognizer file, its reachability structure
    and its nonconfusion report."""
    mu = syntactic(_load_recognizer(path))[0].hom
    rs = reach.reachability(mu.target)
    return mu, rs, nonconfusion(mu, rs)


def _cmd_witness(args):
    mu, rs, report_nc = _nonconfusion_of_file(args.file)
    lines = []
    witnesses = []
    confused = report_nc.confused_classes()
    realizers = (realize(mu), constant_letter_realizers(mu)) if confused else None
    for ci in confused:
        trace = report_nc.traces[ci]
        pair = sorted(trace.levels[-1])[0]
        s, t, k = confusion_witness(mu, trace, pair, rs=rs, realizers=realizers)
        witnesses.append({"class": ci, "s": terms.print_forest(s),
                          "t": terms.print_forest(t), "k": k})
        lines.append("class %d: %s / %s at depth %d"
                     % (ci, terms.print_forest(s), terms.print_forest(t), k))
    report = {"command": "witness", "nonconfusing": report_nc.nonconfusing,
              "witnesses": witnesses}
    if report_nc.nonconfusing:
        lines = ["nonconfusing: true (parameter %d)" % report_nc.parameter]
    _emit(args, report, lines)
    return EXIT_TRUE if report_nc.nonconfusing else EXIT_FALSE


def _cmd_decompose(args):
    rec = _decide_input(args)
    syn, _ = syntactic(rec)
    mu = syn.hom
    try:
        if args.logic == "ef":
            casc = decompose_ef(mu, args.max_size)
        else:
            casc = decompose_efex(mu, args.max_size)
    except (NotEFAlgebra, NotNonconfusing) as exc:
        _emit(args, {"command": "decompose", "logic": args.logic,
                     "decomposable": False, "reason": str(exc)},
              ["not decomposable: %s" % exc])
        return EXIT_FALSE
    lines = [casc.describe()]
    if args.letters:
        for i, st in enumerate(casc.stages):
            for key in sorted(st.letters):
                label = terms.print_label(key[0])
                prefix = ",".join(str(x) for x in key[1:])
                lines.append("  stage %d: (%s;%s) -> %s"
                             % (i, label, prefix, st.target.vname(st.letters[key])))
    report = {"command": "decompose", "logic": args.logic, "decomposable": True,
              "stages": [{"kind": st.kind, "target": st.target.summary()}
                         for st in casc.stages]}
    _emit(args, report, lines)
    return EXIT_TRUE


def _cmd_oracle_check(args):
    mu, rs, report_nc = _nonconfusion_of_file(args.file)
    mismatches = []
    for ci, trace in report_nc.traces.items():
        for k in range(0, args.max_k + 1):
            level = trace.levels[min(k, len(trace.levels) - 1)]
            brute = oracle.brute_confused_pairs(mu, ci, k, rs)
            if set(level) != brute:
                mismatches.append({"class": ci, "k": k})
    report = {"command": "oracle-check", "agree": not mismatches,
              "mismatches": mismatches}
    _emit(args, report,
          ["oracle agreement: %s" % str(not mismatches).lower()]
          + ["mismatch at class %(class)d, k=%(k)d" % m for m in mismatches])
    return EXIT_TRUE if not mismatches else EXIT_FALSE


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs more than most commands on a small
    file."""
    p = argparse.ArgumentParser(
        prog="forestalg",
        description="Forest-algebra toolkit: evaluation, temporal-logic "
                    "definability decisions, and wreath decompositions.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true", help="JSON report")
        return sp

    sp = add("check", _cmd_check, help="check the laws of an algebra file")
    sp.add_argument("file")

    sp = add("eval", _cmd_eval, help="evaluate a forest or context")
    sp.add_argument("file")
    sp.add_argument("term")
    sp.add_argument("--context", action="store_true")

    sp = add("models", _cmd_models, help="does a forest satisfy a formula")
    sp.add_argument("forest")
    sp.add_argument("formula")

    sp = add("compile", _cmd_compile, help="compile a formula to a recognizer")
    sp.add_argument("formula")
    sp.add_argument("--alphabet", required=True, help="comma separated letters")
    sp.add_argument("-o", "--output")

    sp = add("syntactic", _cmd_syntactic, help="minimal recognizer of the language")
    sp.add_argument("file")
    sp.add_argument("-o", "--output")

    sp = add("reach", _cmd_reach, help="reachability classes and order")
    sp.add_argument("file")
    sp.add_argument("--dot", action="store_true")

    sp = add("simk", _cmd_simk, help="depth-k equivalence of two forests")
    sp.add_argument("--k", type=depth, required=True)
    sp.add_argument("s")
    sp.add_argument("t")

    sp = add("definiteness", _cmd_definiteness,
             help="definiteness degree of the syntactic morphism")
    sp.add_argument("file")

    sp = add("decide", _cmd_decide, help="decide definability of the language")
    sp.add_argument("file", nargs="?")
    sp.add_argument("--logic", choices=("ef", "ex", "efex"), required=True)
    sp.add_argument("--formula")
    sp.add_argument("--alphabet")
    sp.add_argument("--certificate", action="store_true")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock seconds (breaks byte determinism)")

    sp = add("witness", _cmd_witness, help="confusion witnesses per class")
    sp.add_argument("file")

    sp = add("decompose", _cmd_decompose, help="wreath decomposition as a cascade")
    sp.add_argument("file", nargs="?")
    sp.add_argument("--logic", choices=("ef", "efex"), required=True)
    sp.add_argument("--formula")
    sp.add_argument("--alphabet")
    sp.add_argument("--max-size", type=size_cap, default=DEFAULT_MAX_SIZE)
    sp.add_argument("--letters", action="store_true",
                    help="print full stage letter assignments")

    sp = add("oracle-check", _cmd_oracle_check,
             help="compare the pair fixpoint against the exact closure")
    sp.add_argument("file")
    sp.add_argument("--max-k", type=depth, default=2)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SizeLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SIZE
    except (ForestAlgError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
