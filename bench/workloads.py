"""The four benchmark workloads: seeded instances and their expected outcomes.

Each workload is a list of operations.  An operation is one verdict: a timed
call into forestalg and an untimed check of what it returned.  Expected
outcomes never come from the decider under test:

* formula syntax: every formula is EF+EX-definable, an EX-only formula is
  EX-definable and an EF-only formula EF-definable;
* negative EF and EX verdicts on formulas are confirmed once by explicit
  forests evaluated with ``logic.models`` (the formula semantics): a pair
  p.(v.h) / p.(v.h + h) that the formula separates refutes the EF identity
  v.h + h = v.h, and pairs that agree to depth k but are separated refute
  k-definiteness for every k up to ``EX_WITNESS_DEPTH``;
* boolean closure: EX^n a xor the u2_abc language is undefinable in all
  three logics, because EX^n a is EX-definable and u2_abc is not
  EF+EX-definable (README);
* fixtures: hand-written answers with a one-line reason;
* random recognizers: ``oracle.brute_confused_pairs`` level by level, the
  idempotent criterion for EX-definability, and ``definiteness_oracle`` on
  the claimed degree, all run once outside the timed region.

Witness pairs (different values, equal depth-k keys) and cascades (checked
against the homomorphism on seeded random forests) are re-verified.

The seed renames letters, rotates the formula operands and draws the
random recognizers and sample forests.  It never changes an instance's size
or the order of the instances, so the cost of a pass barely depends on it.
"""

import contextlib
import io as stdio
import json
import os
import random
import string

CAP_S = 30.0          # per-instance time cap; a timeout is a failure
KNOWN_CAP_S = 5.0     # cap of the decompositions known to be refused
EX_WITNESS_DEPTH = 6
RANDOM_RECOGNIZERS = 32
FOREST_SAMPLES = 120
LOGICS = ("ef", "ex", "efex")


class Wrong(Exception):
    """An output that disagrees with its independent expectation."""


class CliFailure(Exception):
    """The command line exited with an error code (2 input, 3 size limit)."""

    def __init__(self, code, stderr):
        self.code = code
        super().__init__("exit code %d: %s" % (code, stderr.strip()))


class Op:
    """One verdict: ``call`` is timed, ``check`` gets its result untimed.

    ``check`` raises Wrong or returns a dict of counts.  ``known_refusal``
    names the SizeLimitError phase forestalg 0.1.0 hits on this instance.
    """

    def __init__(self, ident, call, check, cap_s=CAP_S, known_refusal=None):
        self.ident = ident
        self.call = call
        self.check = check
        self.cap_s = cap_s
        self.known_refusal = known_refusal


class Workload:
    def __init__(self, ops, gate=None, workdir=None):
        self.ops = ops
        self.gate = gate          # once-only expectation checks, untimed
        self.workdir = workdir    # files written by the operations


def expect(cond, message):
    if not cond:
        raise Wrong(message)


# ---------------------------------------------------------------------------
# Formula families.  L is the list of (seed-chosen) letter names.

def cycle(L):
    n = len(L)
    return " | ".join("EF(%s & EX %s)" % (L[i], L[(i + 1) % n]) for i in range(n))


def ex_ef(L):
    n = len(L)
    return " | ".join("EX(%s & EF %s)" % (L[i], L[(i + 1) % n]) for i in range(n))


def mixed(L):
    n = len(L)
    return " & ".join("(EX %s | EF(%s & EX %s))" % (L[i], L[(i + 1) % n], L[i])
                      for i in range(n))


def ef_chain(L):
    text = L[-1]
    for a in reversed(L[:-1]):
        text = "%s & EF(%s)" % (a, text)
    return "EF(%s)" % text


def ef_conj(L):
    return " & ".join("EF %s" % a for a in L)


def ex_power(n, a):
    return "EX(" * n + a + ")" * n


def chain(label, k, inner):
    """The tree label(label(...(inner))) with k copies of label."""
    return (label + "(") * k + inner + ")" * k


# Expected verdicts with the source of each.  "witness" verdicts are
# confirmed by explicit forests in the gate; the rest follow from syntax.
EXPECTED = {
    "cycle": {"ef": False, "ex": False, "efex": True},
    "ex_ef": {"ef": False, "ex": False, "efex": True},
    "mixed": {"ef": False, "ex": False, "efex": True},
    "ef_chain": {"ef": True, "ex": False, "efex": True},
    "ex_power": {"ef": False, "ex": True, "efex": True},
}


def ef_refutation(family, L, n):
    """(p, v, h) in printed syntax: the formula holds on exactly one of
    p.(v.h) and p.(v.h + h), so the EF identity v.h + h = v.h fails."""
    if family == "cycle":       # L0 gets an L1 root child only in the second
        return "%s([])" % L[0], "%s([])" % L[2], L[1]
    if family == "ex_ef":       # root L2 lacks an L3 below; root L0 has L1
        return "[]", "%s([])" % L[2], "%s(%s)" % (L[0], L[1])
    if family == "mixed":       # only the second has the root L0
        return "%s + %s + []" % (L[1], L[2]), "%s([])" % L[2], L[0]
    if family == "ex_power":    # L0 at depth n instead of n - 1
        return chain(L[1], n - 1, "[]"), "%s([])" % L[1], L[0]
    return None


def ex_refutation(family, L, k):
    """(s, t): equal to depth k, separated by the formula."""
    if family == "cycle":       # a deep L0(L1) against a deep L0(L0)
        return (chain(L[0], k, "%s(%s)" % (L[0], L[1])),
                chain(L[0], k, "%s(%s)" % (L[0], L[0])))
    if family == "ex_ef":       # root L0 with a deep L1 or without one
        return ("%s(%s)" % (L[0], chain(L[0], k, L[1])),
                "%s(%s)" % (L[0], chain(L[0], k, L[0])))
    if family == "mixed":       # the first conjunct met only deep down
        top = "%s + %s + " % (L[1], L[2])
        return (top + chain(L[2], k, "%s(%s)" % (L[1], L[0])),
                top + chain(L[2], k, "%s(%s)" % (L[1], L[1])))
    if family == "ef_chain":    # the whole chain deep down, or no L0 at all
        return (chain(L[-1], k, chain_of(L)), chain(L[-1], k, L[-1]))
    return None


def chain_of(L):
    text = L[-1]
    for a in reversed(L[:-1]):
        text = "%s(%s)" % (a, text)
    return text


def check_formula_refutations(lib, family, L, n, text):
    """Confirm the negative EF/EX expectations of a formula family."""
    terms, logic, defk = lib.terms, lib.logic, lib.defk
    phi = logic.parse_formula(text, require=logic.FOREST)
    if not EXPECTED[family]["ef"]:
        p, v, h = ef_refutation(family, L, n)
        p, v, h = terms.parse_context(p), terms.parse_context(v), terms.parse_forest(h)
        vh = terms.apply(v, h)
        x, y = terms.apply(p, vh), terms.apply(p, vh + h)
        expect(logic.models(x, phi) != logic.models(y, phi),
               "%s: EF refutation does not separate %s / %s"
               % (text, terms.print_forest(x), terms.print_forest(y)))
    if not EXPECTED[family]["ex"]:
        for k in range(1, EX_WITNESS_DEPTH + 1):
            s, t = (terms.parse_forest(f) for f in ex_refutation(family, L, k))
            expect(defk.simk_key(s, k) == defk.simk_key(t, k),
                   "%s: EX refutation pair differs at depth %d" % (text, k))
            expect(logic.models(s, phi) != logic.models(t, phi),
                   "%s: EX refutation pair not separated at depth %d" % (text, k))


# ---------------------------------------------------------------------------
# Shared checks

def check_witness(lib, mu, s, t, k, rec=None):
    """Different values, one reachability class, equal tagged depth-k keys."""
    hs, ht = mu.eval(s), mu.eval(t)
    expect(hs != ht, "witness values coincide")
    rs = lib.reach.reachability(mu.target)
    ci = rs.class_of[hs]
    expect(rs.class_of[ht] == ci, "witness values lie in different classes")
    tags = lib.reach.class_tag_names(mu, ci, rs)
    key = lib.defk.simk_key
    expect(key(lib.hom.relabeled(s, mu, tags), k)
           == key(lib.hom.relabeled(t, mu, tags), k),
           "witness taggings differ at depth %d" % k)
    if rec is not None:
        expect(rec.hom.eval(s) != rec.hom.eval(t),
               "witness values coincide in the input recognizer")


def check_decision(lib, rec, fragment, expected):
    def check(decision):
        expect(decision.definable == expected,
               "%s verdict %s, expected %s" % (fragment, decision.definable, expected))
        if fragment == "efex" and not decision.definable:
            s, t, k, _ = decision.certificate
            check_witness(lib, decision.syntactic.hom, s, t, k, rec)
        return {}
    return check


def sample_forests(lib, rng, alphabet):
    forests = list(lib.oracle.enumerate_forests(alphabet, 2, 2))
    forests += [lib.oracle.random_forest(rng, alphabet, 4, 3)
                for _ in range(FOREST_SAMPLES)]
    return forests


def letters(rng, n):
    return sorted(rng.sample(string.ascii_lowercase, n))


# ---------------------------------------------------------------------------
# compile-decide: formula -> to_recognizer -> decide, the `decide --formula`
# path.  The vertical closure dominates.

# Cycle n=4 (about 7 s per verdict) is left out to fit the run length.
COMPILE_DECIDE = (("cycle", 3), ("ex_ef", 4), ("ex_ef", 5), ("mixed", 3),
                  ("ef_chain", 5), ("ef_chain", 6))
FAMILIES = {"cycle": cycle, "ex_ef": ex_ef, "mixed": mixed, "ef_chain": ef_chain}

# ROADMAP Baseline sizes: (|H|, |V|, syntactic |H|).
BASELINE_SIZES = {("cycle", 3): (57, 183, 9)}


def rotated(rng, L):
    r = rng.randrange(len(L))
    return L[r:] + L[:r]


def build_compile_decide(lib, rng, root):
    ops, refutations = [], []
    for family, n in COMPILE_DECIDE:
        L = rotated(rng, letters(rng, n))
        text = FAMILIES[family](L)
        alphabet = tuple(sorted(L))
        refutations.append((family, L, n, text))
        for fragment in LOGICS:
            def call(text=text, alphabet=alphabet, fragment=fragment):
                phi = lib.logic.parse_formula(text, require=lib.logic.FOREST)
                rec = lib.logic.to_recognizer(phi, alphabet)
                return rec, lib.decide.decide(rec, fragment)

            def check(result, family=family, n=n, fragment=fragment):
                rec, decision = result
                check_decision(lib, rec, fragment,
                               EXPECTED[family][fragment])(decision)
                sizes = BASELINE_SIZES.get((family, n))
                if sizes is not None:
                    got = (rec.hom.target.H.size, rec.hom.target.V.size,
                           decision.syntactic.hom.target.H.size)
                    expect(got == sizes, "%s n=%d sizes %s, Baseline %s"
                           % (family, n, got, sizes))
                return {}
            ops.append(Op("%s%d/%s" % (family, n, fragment), call, check))

    def gate():
        for family, L, n, text in refutations:
            check_formula_refutations(lib, family, L, n, text)
    return Workload(ops, gate)


# ---------------------------------------------------------------------------
# decide-deep: decide on recognizers whose cost is the pair fixpoint, the
# guarded-semigroup chain and witness unwinding.

# EX^6 a0 (5 s a pass) is left out to fit the run length.
EX_POWERS = (5,)
XOR_POWERS = (4, 5)


def u2_recognizer(lib, names):
    """The u2_abc language: names[0] acts as 1, names[1] as c0, names[2] as cinf."""
    alg = lib.algebra.u2()
    vn = alg.V.names
    assign = {names[0]: vn.index("1"), names[1]: vn.index("c0"),
              names[2]: vn.index("cinf")}
    hom = lib.hom.Homomorphism(tuple(sorted(names)), alg, assign)
    return lib.hom.Recognizer(hom, frozenset({alg.H.names.index("inf")}))


def xor_recognizer(lib, r1, r2, alphabet):
    """Direct product of two recognizers, accepting the symmetric difference."""
    A, B = r1.hom.target, r2.hom.target
    nb = B.H.size
    pairs = [(i, j) for i in range(A.H.size) for j in range(nb)]
    plus = [[A.plus(i, k) * nb + B.plus(j, l) for (k, l) in pairs]
            for (i, j) in pairs]
    H = lib.algebra.horizontal_monoid(plus, A.zero * nb + B.zero)
    gens = {a: tuple(A.act(r1.hom.letter(a), i) * nb + B.act(r2.hom.letter(a), j)
                     for (i, j) in pairs) for a in alphabet}
    alg, genmap = lib.algebra.close_vertical(H, gens, warn_on_merge=False)
    hom = lib.hom.Homomorphism(alphabet, alg, {a: genmap[a] for a in alphabet})
    accept = frozenset(i * nb + j for (i, j) in pairs
                       if (i in r1.accept) != (j in r2.accept))
    return lib.hom.Recognizer(hom, accept)


def random_big_recognizer(lib, rng, alphabet, atoms=6):
    """|H| = 2^atoms union semilattice with letters h -> g | (h & m)."""
    n = 1 << atoms
    H = lib.algebra.horizontal_monoid([[i | j for j in range(n)] for i in range(n)], 0)
    gens = {}
    for a in alphabet:
        g, m = rng.randrange(n), rng.randrange(n)
        gens[a] = tuple(g | (h & m) for h in range(n))
    alg, genmap = lib.algebra.close_vertical(H, gens, warn_on_merge=False)
    hom = lib.hom.Homomorphism(alphabet, alg, {a: genmap[a] for a in alphabet})
    return lib.hom.Recognizer(hom, frozenset(h for h in range(n) if rng.random() < 0.3))


def random_expectations(lib, rec):
    """EX and EF+EX verdicts of a recognizer from the independent oracles."""
    mu = lib.hom.syntactic(rec)[0].hom
    rs = lib.reach.reachability(mu.target)
    report = lib.decide.nonconfusion(mu, rs)
    clean = True
    for ci, trace in report.traces.items():
        last = len(trace.levels) - 1
        for k in range(last + 2):
            brute = lib.oracle.brute_confused_pairs(mu, ci, k, rs)
            expect(brute == set(trace.levels[min(k, last)]),
                   "pair fixpoint differs from the oracle at class %d, k=%d" % (ci, k))
            if not brute:
                break
        else:
            clean = False
    ex_ok = lib.defk.ex_definable_by_idempotents(mu)
    degree = lib.defk.definiteness_degree(mu)
    expect((degree is not None) == ex_ok,
           "definiteness degree %s contradicts the idempotent criterion" % degree)
    if degree is not None and degree <= 3:
        expect(lib.defk.definiteness_oracle(mu, degree, depth_bound=degree,
                                            fill_depth=1, fill_width=1),
               "definiteness oracle refutes degree %d" % degree)
    return {"ex": ex_ok, "efex": clean}


def build_decide_deep(lib, rng, root):
    instances = []       # (ident, recognizer, {fragment: expected or None})
    refutations = []
    for n in EX_POWERS:
        L = letters(rng, 2)
        text = ex_power(n, L[0])
        rec = lib.logic.to_recognizer(lib.logic.parse_formula(text), tuple(L))
        instances.append(("ex_power%d" % n, rec, dict(EXPECTED["ex_power"])))
        refutations.append(("ex_power", L, n, text))
    for n in XOR_POWERS:
        L = letters(rng, 3)
        power = lib.logic.to_recognizer(
            lib.logic.parse_formula(ex_power(n, L[0])), tuple(L))
        power = lib.hom.syntactic(power)[0]
        rec = xor_recognizer(lib, power, u2_recognizer(lib, L), tuple(L))
        instances.append(("xor_u2_%d" % n, rec, dict.fromkeys(LOGICS, False)))
    randoms = []
    for i in range(RANDOM_RECOGNIZERS):
        rec = random_big_recognizer(lib, rng, tuple(letters(rng, 4)))
        expected = {"ef": None, "ex": None, "efex": None}
        instances.append(("random%02d" % i, rec, expected))
        randoms.append((rec, expected))

    ops = []
    for ident, rec, expected in instances:
        for fragment in LOGICS:
            def call(rec=rec, fragment=fragment):
                return lib.decide.decide(rec, fragment)

            def check(decision, rec=rec, fragment=fragment, expected=expected):
                want = expected[fragment]
                if want is None:          # no oracle: the verdict must repeat
                    expected[fragment] = want = decision.definable
                return check_decision(lib, rec, fragment, want)(decision)
            ops.append(Op("%s/%s" % (ident, fragment), call, check))

    def gate():
        for family, L, n, text in refutations:
            check_formula_refutations(lib, family, L, n, text)
        for rec, expected in randoms:
            expected.update(random_expectations(lib, rec))
    return Workload(ops, gate)


# ---------------------------------------------------------------------------
# file-roundtrip: the command line on files, in process.  Loading a file
# checks the laws, which dominates.

# Cycle n=3 and EX^5 a0 (about 10 s a pass together) are left out to fit
# the run length.
ROUNDTRIP = (("ex_ef", 4), ("ef_chain", 5))

# Fixture answers, each with its reason.
FIXTURES = {
    "chain4": ({"ef": False, "ex": False, "efex": True},
               "README: fails the EF identities, defined by EF+EX; an all-a "
               "chain hides the pattern below any depth"),
    "u1_efa": ({"ef": True, "ex": False, "efex": True},
               "the language is EF a: some node is labeled a, at any depth"),
    "u2_abc": ({"ef": False, "ex": False, "efex": False},
               "README: a(...(b)) and a(...(c)) agree to every depth"),
}


def run_cli(lib, argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    if code in (2, 3):
        raise CliFailure(code, err.getvalue())
    text = out.getvalue().strip()
    report = json.loads(text.splitlines()[-1]) if text else None
    return code, report


def build_file_roundtrip(lib, rng, root):
    workdir = os.path.join(root, ".bench_out", "roundtrip-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    ops, refutations, mus = [], [], {}

    def cli_op(ident, argv, check):
        ops.append(Op(ident, lambda: run_cli(lib, argv), check))

    def decided(name, fragment, expected, reason="formula syntax or refutation"):
        def check(result):
            code, report = result
            expect(report["definable"] == expected and code == (0 if expected else 1),
                   "%s %s verdict %s (exit %d), expected %s: %s"
                   % (name, fragment, report["definable"], code, expected, reason))
            w = report.get("witness")
            if w is not None:
                check_witness(lib, mus[name], lib.terms.parse_forest(w["s"]),
                              lib.terms.parse_forest(w["t"]), w["k"])
            expect(fragment != "efex" or expected or w is not None,
                   "%s: negative EF+EX verdict without a witness" % name)
            return {}
        return check

    def written(path):
        def check(result):
            code, report = result
            expect(code == 0 and os.path.isfile(path), "%s not written" % path)
            return {"artifact_bytes": os.path.getsize(path)}
        return check

    def valid(result):
        code, report = result
        expect(code == 0 and report["valid"], "compiled file fails its laws")
        return {}

    for family, n in ROUNDTRIP:
        L = rotated(rng, letters(rng, n))
        text = FAMILIES[family](L)
        name = "%s%d" % (family, n)
        refutations.append((family, L, n, text))
        path = os.path.join(workdir, name + ".fa")
        small = os.path.join(workdir, name + ".min.fa")
        cli_op(name + "/compile", ("compile", text, "--alphabet", ",".join(L),
                                   "-o", path, "--json"), written(path))
        cli_op(name + "/check", ("check", path, "--json"), valid)
        for fragment in LOGICS:
            cli_op("%s/decide-%s" % (name, fragment),
                   ("decide", "--logic", fragment, "--json", "--certificate", path),
                   decided(name, fragment, EXPECTED[family][fragment]))
        cli_op(name + "/syntactic", ("syntactic", path, "-o", small, "--json"),
               written(small))
        cli_op(name + "/decide-min", ("decide", "--logic", "efex", "--json", small),
               decided(name, "efex", EXPECTED[family]["efex"]))

    for name, (answers, reason) in FIXTURES.items():
        path = os.path.join(root, "fixtures", name + ".fa")
        for fragment in LOGICS:
            cli_op("%s/decide-%s" % (name, fragment),
                   ("decide", "--logic", fragment, "--json", "--certificate", path),
                   decided(name, fragment, answers[fragment], reason))

        def witnessed(result, name=name, answers=answers):
            code, report = result
            expect(report["nonconfusing"] == answers["efex"],
                   "%s witness verdict %s" % (name, report["nonconfusing"]))
            expect(answers["efex"] or report["witnesses"],
                   "%s: no witness for a confusing fixture" % name)
            for w in report["witnesses"]:
                check_witness(lib, mus[name], lib.terms.parse_forest(w["s"]),
                              lib.terms.parse_forest(w["t"]), w["k"])
            return {}
        cli_op(name + "/witness", ("witness", "--json", path), witnessed)

    def gate():
        for family, L, n, text in refutations:
            check_formula_refutations(lib, family, L, n, text)
            rec = lib.logic.to_recognizer(lib.logic.parse_formula(text),
                                          tuple(sorted(L)))
            mus["%s%d" % (family, n)] = lib.hom.syntactic(rec)[0].hom
        for name in FIXTURES:
            alg, assign, accept = lib.io.load_algebra(
                os.path.join(root, "fixtures", name + ".fa"))
            hom = lib.hom.Homomorphism(tuple(sorted(assign)), alg, assign)
            rec = lib.hom.Recognizer(hom, accept)
            mus[name] = lib.hom.syntactic(rec)[0].hom
    return Workload(ops, gate, workdir)


# ---------------------------------------------------------------------------
# cascades: decompositions and a depth-k closure.  Cascade state closures,
# factoring checks and depth-k keys dominate.

def check_cascade(lib, rng, mu, kinds=None):
    """The cascade determines mu on sampled forests; returns its counts."""
    def check(casc):
        if kinds is not None:
            got = {st.kind for st in casc.stages}
            expect(got <= kinds, "unexpected stage kinds %s" % sorted(got))
        seen = {}
        for f in sample_forests(lib, rng, casc.alphabet):
            state, h = casc.eval(f), mu.eval(f)
            expect(seen.setdefault(state, h) == h,
                   "cascade state %r maps to two values" % (state,))
        return {"stages": len(casc), "states": len(casc.reachable_states())}
    return once(check, lambda casc: (len(casc), len(casc.reachable_states())))


def once(full, fingerprint):
    """Run the full check on the first result, then compare fingerprints."""
    first = {}

    def check(result):
        fp = fingerprint(result)
        if "fp" not in first:
            first["counts"] = full(result)
            first["fp"] = fp
        expect(fp == first["fp"], "result %r differs from the first pass %r"
               % (fp, first["fp"]))
        return first["counts"]
    return check


DEFAULT_CAP = 4096
# (logic, formula builder, letter count, size cap, Baseline (stages, states)).
CASCADES = (
    ("ef", ef_conj, 3, DEFAULT_CAP, None),
    ("ef", ef_conj, 4, DEFAULT_CAP, (64, None)),
    ("ef", ef_chain, 4, DEFAULT_CAP, None),
    ("efex", ef_conj, 2, DEFAULT_CAP, None),
    ("efex", lambda L: ex_power(2, L[0]), 2, DEFAULT_CAP, None),
    ("efex", cycle, 2, 65536, (25, 256)),
)
# forestalg 0.1.0 refuses these at the default cap, in REFUSAL_PHASE; they
# count in failed_share until a decomposition fits.
KNOWN_REFUSALS = (
    ("efex", cycle, 2),
    ("efex", ex_ef, 2),
    ("efex", ef_conj, 3),
)
REFUSAL_PHASE = "depth-1 definite level carrier"


def build_cascades(lib, rng, root):
    ops = []

    def syntactic_hom(builder, L):
        text = builder(L)
        rec = lib.logic.to_recognizer(lib.logic.parse_formula(text), tuple(L))
        return text, lib.hom.syntactic(rec)[0].hom

    def decompose_op(fragment, builder, n, cap, baseline, known):
        L = letters(rng, n)
        text, mu = syntactic_hom(builder, L)
        fn = "decompose_ef" if fragment == "ef" else "decompose_efex"
        full = check_cascade(lib, random.Random(rng.random()), mu,
                             {"u1"} if fragment == "ef" else None)

        def check(casc):
            counts = full(casc)
            if baseline is not None:
                got = (counts["stages"], counts["states"])
                want = tuple(g if w is None else w for g, w in zip(got, baseline))
                expect(got == want, "%s stages/states %s, Baseline %s"
                       % (text, got, baseline))
            return {} if known else {"cascade_" + k: v for k, v in counts.items()}
        ident = "%s/%s/cap%d" % (fn, text, cap)
        ops.append(Op(ident, lambda: getattr(lib.decompose, fn)(mu, cap), check,
                      KNOWN_CAP_S if known else CAP_S,
                      REFUSAL_PHASE if known else None))

    for fragment, builder, n, cap, baseline in CASCADES:
        decompose_op(fragment, builder, n, cap, baseline, False)
    for fragment, builder, n in KNOWN_REFUSALS:
        decompose_op(fragment, builder, n, DEFAULT_CAP, None, True)

    pair = tuple(letters(rng, 2))
    a1 = lib.defk.alpha1(pair)
    forest_rng = random.Random(rng.random())

    def mutual():
        defk, joint = lib.defk, lib.joint
        return joint.mutually_determine(
            defk.KdefEvaluator(2), joint.TensorEvaluator(a1, defk.KdefEvaluator(1)),
            pair)

    def check_mutual(result):
        # The depth-2 class of a forest is its set of root labels paired with
        # the depth-1 classes of their children, so the answer is True.
        expect(result is True, "depth-2 keys and alpha1 x depth-1 keys differ")
        defk, joint = lib.defk, lib.joint
        k2 = defk.KdefEvaluator(2)
        tensor = joint.TensorEvaluator(a1, defk.KdefEvaluator(1))
        forward, backward = {}, {}
        for f in sample_forests(lib, forest_rng, pair):
            x, y = joint.evaluate(k2, f), joint.evaluate(tensor, f)
            expect(x == defk.simk_key(f, 2).key, "depth-2 key of %r is wrong" % (f,))
            expect(forward.setdefault(x, y) == y and backward.setdefault(y, x) == x,
                   "sampled forests contradict mutual determination")
        return {}
    ops.append(Op("mutually_determine/k2~alpha1*k1", mutual,
                  once(check_mutual, lambda result: result)))
    return Workload(ops)


BUILDERS = {
    "compile-decide": build_compile_decide,
    "decide-deep": build_decide_deep,
    "file-roundtrip": build_file_roundtrip,
    "cascades": build_cascades,
}
