"""forestalg benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; forestalg is imported from src/.
The run sets up its workload several times (imports plus instance
generation) and reports the median as setup_s, checks the expected outcomes
that need an oracle once, then runs the instance list pass after pass for
--seconds.  Each verdict starts after the previous one returns.  The last
line of standard output is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  A wrong verdict, witness or
cascade makes the run exit 1 with "correct": false.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing            # noqa: E402  (bench-local modules)
import workloads as wl              # noqa: E402

WORKLOADS = tuple(wl.BUILDERS)
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_TOTAL_S = 3, 9, 1.0
RUN_DEADLINE_S = 120.0     # later verdicts are charged their cap as timeouts

# The host is shared: the speed of any Python loop drifts by 10-20% over
# minutes, which swamps a wall time compared across runs.  A fixed integer
# loop, independent of forestalg, is timed after every set-up and verdict;
# its median over the run measures the machine's speed, and setup_s and
# workload_cal_s are rescaled to the speed at which the loop takes
# REF_NOMINAL_S.  Over ten seeds this cut the quartile spread of the
# workload time from about 0.2 to 0.04-0.12.
REF_ITERATIONS = 60_000
REF_NOMINAL_S = 0.005

END_TO_END = (
    ("setup_s", "s"),
    ("workload_cal_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("algebra.close_vertical.self_s", "s"),
    ("algebra.close_vertical.calls", "count"),
    ("algebra.close_vertical.v_elems", "count"),
    ("algebra.check_axioms.self_s", "s"),
    ("algebra.check_axioms.v_cubed", "count"),
    ("algebra.quotient_by_ideal.self_s", "s"),
    ("reach.reachability.self_s", "s"),
    ("reach.reachability.calls", "count"),
    ("io.parse_algebra.self_s", "s"),
    ("io.print_algebra.self_s", "s"),
    ("io.bytes_written", "B"),
    ("logic.to_recognizer.self_s", "s"),
    ("logic.to_recognizer.h_states", "count"),
    ("hom.syntactic.self_s", "s"),
    ("hom.syntactic.h_kept_ratio", "ratio"),
    ("hom.image_restrict.self_s", "s"),
    ("hom.realize.self_s", "s"),
    ("hom.realize.calls", "count"),
    ("decide.nonconfusion.self_s", "s"),
    ("decide.nonconfusion.calls", "count"),
    ("decide.nonconfusion.levels", "count"),
    ("decide.nonconfusion.pairs", "count"),
    ("decide.is_ef_algebra.self_s", "s"),
    ("decide.confusion_witness.self_s", "s"),
    ("defk.definiteness_degree.self_s", "s"),
    ("defk.guarded_semigroup.self_s", "s"),
    ("defk.guarded_semigroup.size", "count"),
    ("defk.key_ops", "count"),
    ("terms.ic_normalize.calls", "count"),
    ("decompose.decompose_ef.self_s", "s"),
    ("decompose.decompose_efex.self_s", "s"),
    ("decompose.Cascade.reachable_states.self_s", "s"),
    ("decompose.Cascade.factors.self_s", "s"),
    ("decompose.cascade_stages", "count"),
    ("decompose.cascade_states", "count"),
    ("decompose.size_limit_refusals", "count"),
    ("oracle.key_value_sets.self_s", "s"),
    ("joint.joint_image.self_s", "s"),
    ("joint.joint_image.pairs", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class InstanceTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def reference_loop():
    start = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Set-up

class Lib:
    """The forestalg modules, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "forestalg" or m.startswith("forestalg.")]:
            del sys.modules[name]
        self.package = importlib.import_module("forestalg")
        for name in tracing.MODULES:
            setattr(self, name, importlib.import_module("forestalg." + name))


def set_up(workload, seed):
    """Import and build the workload repeatedly.

    Returns the last (lib, workload), the set-up times and the reference
    loop times taken between them.
    """
    times, refs = [], []
    while (len(times) < SETUP_MIN_REPS
           or (len(times) < SETUP_MAX_REPS and sum(times) < SETUP_MIN_TOTAL_S)):
        start = time.perf_counter()
        lib = Lib()
        built = wl.BUILDERS[workload](lib, random.Random(seed), ROOT)
        times.append(time.perf_counter() - start)
        refs.extend(reference_loop() for _ in range(5))
    return lib, built, times, refs


# ---------------------------------------------------------------------------
# The closed loop

class Pass:
    def __init__(self):
        self.charged = []        # seconds per op, the cap for a failure
        self.outcomes = []       # "ok", "refused" or "failed: <detail>"
        self.counts = {}         # summed counts returned by the checks
        self.ref = []            # reference_loop() seconds after each op
        self.wall = 0.0
        self.marks = None        # tracer positions at start and end


def run_pass(lib, ops, deadline, tracer=None):
    p = Pass()
    start = time.perf_counter()
    first_mark = tracer.mark() if tracer is not None else None
    for op in ops:
        outcome, result = "ok", None
        t0 = time.perf_counter()
        if t0 > deadline:
            outcome = "failed: timeout (run deadline)"
        else:
            if tracer is not None:
                tracer.instance = op.ident
            signal.setitimer(signal.ITIMER_REAL, op.cap_s)
            try:
                if tracer is None:
                    result = op.call()
                else:
                    with tracer.root("bench.verdict"):
                        result = op.call()
            except lib.errors.SizeLimitError as exc:
                outcome = ("refused" if exc.what == op.known_refusal
                           else "failed: SizeLimitError(%s)" % exc.what)
            except InstanceTimeout:
                outcome = "failed: timeout"
            except Exception as exc:           # recorded, never skipped
                outcome = "failed: %s: %s" % (type(exc).__name__, exc)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        p.ref.append(reference_loop())
        if outcome == "ok":
            for key, value in op.check(result).items():
                p.counts[key] = p.counts.get(key, 0) + value
            p.charged.append(elapsed)
        else:
            p.charged.append(op.cap_s)
        p.outcomes.append(outcome)
    p.wall = time.perf_counter() - start
    if tracer is not None:
        p.marks = (first_mark, tracer.mark())
    return p


def run_passes(lib, ops, seconds, start, tracer=None):
    """Passes until the next one would end after ``seconds`` from start."""
    passes = []
    deadline = start + RUN_DEADLINE_S
    while True:
        p = run_pass(lib, ops, deadline, tracer)
        passes.append(p)
        if time.perf_counter() - start + p.wall > seconds:
            return passes


def workload_seconds(passes, scale=1.0):
    """Sum over the instance list of each instance's median charged time.

    Measured times are multiplied by ``scale``; the caps charged to
    failures are not.
    """
    n = len(passes[0].charged)
    def charged(p, i):
        return p.charged[i] * scale if p.outcomes[i] == "ok" else p.charged[i]
    return sum(statistics.median(charged(p, i) for p in passes) for i in range(n))


def calibrated_seconds(passes):
    """workload_seconds at the speed where the reference loop takes
    REF_NOMINAL_S, judged by its median over these passes."""
    ref_s = statistics.median(t for p in passes for t in p.ref)
    return workload_seconds(passes, REF_NOMINAL_S / ref_s)


def repeated(name, values):
    """The value of a count that every pass must reproduce exactly."""
    if any(v != values[0] for v in values[1:]):
        raise wl.Wrong("%s differs between passes: %r" % (name, values))
    return values[0]


# ---------------------------------------------------------------------------
# Reports

def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def outcomes(ops, passes):
    """(attempted, refused, failed); prints each distinct failure once."""
    seen = set()
    for p in passes:
        for op, outcome in zip(ops, p.outcomes):
            if outcome != "ok" and (op.ident, outcome) not in seen:
                seen.add((op.ident, outcome))
                print("  %-8s %s (%s)" % (outcome.split(":")[0], op.ident,
                                          op.known_refusal if outcome == "refused"
                                          else outcome.partition(": ")[2]))
    every = [o for p in passes for o in p.outcomes]
    return (len(every), every.count("refused"),
            sum(o.startswith("failed") for o in every))


def end_to_end(args, ops, setup, passes):
    latencies = sorted(t for p in passes for t in p.charged)
    counts = {key: repeated(key, [p.counts.get(key) for p in passes])
              for key in passes[0].counts}
    attempted, refused, failed = outcomes(ops, passes)
    setup_times, setup_refs = setup
    metrics = {
        "setup_s": (statistics.median(setup_times) * REF_NOMINAL_S
                    / statistics.median(setup_refs)),
        "workload_cal_s": calibrated_seconds(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("workload %s  seed %d  %d passes of %d verdicts  (closed loop, 1 caller)"
          % (args.workload, args.seed, len(passes), len(ops)))
    print("  pass seconds (charged): %s"
          % " ".join("%.3f" % sum(p.charged) for p in passes))
    for name, unit in END_TO_END:
        print("  %-16s %12.6f %s" % (name, metrics[name], unit))
    # Only in this report: the uncalibrated wall time, and the figures
    # that are not defined on every workload or jump with the instance mix.
    print("  %-16s %12.6f s   (uncalibrated, %d set-ups)"
          % ("setup", statistics.median(setup_times), len(setup_times)))
    print("  %-16s %12.6f s   (uncalibrated; reference loop median %.6f s, n=%d)"
          % ("workload_s", workload_seconds(passes),
             statistics.median(t for p in passes for t in p.ref),
             sum(len(p.ref) for p in passes)))
    print("  %-16s %12.6f s   (n=%d)" % ("verdict_s.p50", statistics.median(latencies),
                                         len(latencies)))
    if len(latencies) >= 100:
        print("  %-16s %12.6f s   (n=%d)" % ("verdict_s.p90",
                                             statistics.quantiles(latencies, n=10)[-1],
                                             len(latencies)))
    print("  %-16s %12.6f      (%d failed + %d refused of %d attempted)"
          % ("failed_share", (failed + refused) / attempted, failed, refused,
             attempted))
    if "artifact_bytes" in counts:
        print("  %-16s %12.3f KB" % ("artifact_kb", counts["artifact_bytes"] / 1024.0))
    for key in ("cascade_stages", "cascade_states"):
        if key in counts:
            print("  %-16s %12d count" % (key, counts[key]))
    return attempted, failed, {name: {"value": metrics[name], "unit": unit}
                               for name, unit in END_TO_END}


def layer_values(tr, p):
    """Every PER_LAYER value of one traced pass, except the overhead."""
    (spans0, sizes0, counts0), (spans1, sizes1, counts1) = p.marks
    selfs = tr.self_times(spans0, spans1)
    sizes = tr.size_totals(sizes0, sizes1)
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[:-len(".self_s")], (0.0, 0))[0]
        elif name.endswith(".calls") and name[:-len(".calls")] in selfs:
            out[name] = selfs[name[:-len(".calls")]][1]
        else:
            out[name] = sizes.get(name, 0)
    for name in ("defk.key_ops", "terms.ic_normalize.calls"):
        out[name] = counts1.get(name, 0) - counts0.get(name, 0)
    out["io.bytes_written"] = sizes.get("io.print_algebra.bytes", 0)
    before = sizes.get("hom.syntactic.h_before", 0)
    out["hom.syntactic.h_kept_ratio"] = (
        sizes.get("hom.syntactic.h_after", 0) / before if before else 0.0)
    out["decompose.cascade_stages"] = p.counts.get("cascade_stages", 0)
    out["decompose.cascade_states"] = p.counts.get("cascade_states", 0)
    out["decompose.size_limit_refusals"] = p.outcomes.count("refused")
    out["bench.verdict.self_s"] = selfs.get("bench.verdict", (0.0, 0))[0]
    return out


def per_layer(args, ops, base, passes, tr):
    """Self times are the median over traced passes; counts must repeat."""
    per_pass = [layer_values(tr, p) for p in passes]
    values = {}
    for name, unit in PER_LAYER:
        column = [v[name] for v in per_pass]
        values[name] = (statistics.median(column) if unit == "s"
                        else repeated(name, column))
    values["trace.overhead_ratio"] = (calibrated_seconds(passes)
                                      / calibrated_seconds(base))

    print("workload %s  seed %d  %d traced passes after %d untraced"
          % (args.workload, args.seed, len(passes), len(base)))
    print("  tracing overhead: traced / untraced workload_cal_s = %.3f"
          % values["trace.overhead_ratio"])
    selfs = sorted(((v, n[:-len(".self_s")]) for n, v in values.items()
                    if n.endswith(".self_s")), reverse=True)
    other = statistics.median(v["bench.verdict.self_s"] for v in per_pass)
    total = sum(v for v, _ in selfs) + other
    print("  dominant layers (share of traced self time):")
    for v, n in selfs[:4] + [(other, "(not wrapped)")]:
        print("    %-44s %6.1f%%" % (n, 100.0 * v / total))
    for name, unit in PER_LAYER:
        print("  %-44s %14.6f %s" % (name, values[name], unit))
    attempted, _, failed = outcomes(ops, passes)
    return attempted, failed, {name: {"value": values[name], "unit": unit}
                               for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------

def run_one(args):
    lib, built, *setup = set_up(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if built.gate is not None:
            built.gate()
        # The instances stay alive for the whole run; keep the collector
        # from re-scanning them during every verdict.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        if not args.trace:
            passes = run_passes(lib, built.ops, args.seconds, start)
            result = end_to_end(args, built.ops, setup, passes)
        else:
            # Untraced passes for the first half, the overhead's baseline.
            base = run_passes(lib, built.ops, args.seconds / 2, start)
            tr = tracing.Tracer()
            tr.install(lib.package)
            passes = run_passes(lib, built.ops, args.seconds, start, tr)
            result = per_layer(args, built.ops, base, passes, tr)
            tr.dump(os.path.join(ROOT, ".bench_out", "trace-%s-seed%d.jsonl"
                                 % (args.workload, args.seed)))
    except wl.Wrong as exc:
        print("WRONG: %s" % exc)
        emit(False, 1, 0, {})
        return 1
    finally:
        if built.workdir is not None:
            shutil.rmtree(built.workdir, ignore_errors=True)
    emit(True, *result)
    return 0


def run_all(args):
    """Each workload in a fresh interpreter; a combined summary at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        code = code or proc.returncode
        combined["correct"] = combined["correct"] and result.get("correct", False)
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "forestalg", "__init__.py")):
        print("error: no forestalg sources under %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    # Fixed string hashing keeps set iteration, and so the counts, repeatable.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, SRC)
    sys.exit(main())
