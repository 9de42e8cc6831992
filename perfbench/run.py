"""Benchmark of the amalgam workbench: one workload per interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads are listed in workloads.WORKLOADS and explained in
BENCHMARK.json and perfbench/design.json.  Every op output is checked
against references.json; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 only when no op failed.

``--trace 0`` measures the end-to-end metrics.  The only wrappers it
installs time minimal_resolution and Resolution.validate (a few calls per
pass).  Set-up is timed in this process and in fresh interpreters, and
the median is reported.  After the first pass, passes repeat while the
next one is expected to end inside ``--seconds``; the metrics are medians
of the later passes.  The first pass is printed as first_pass_s but left
out of the result line.

``--trace 1`` runs untraced passes for ``--seconds``, then builds the
inputs again and runs one pass, each under its own tracing.Tracer.  It
prints the per-layer metrics of that pass, a few of the set-up (named
``setup.*``) and the tracing overhead (traced pass time / median untraced
pass time), and writes the spans to perfbench/out/.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
TIMED_NAMES = ("modules.minimal_resolution", "modules.validate")
# Layer metrics also reported for the traced set-up, where the resolve
# workloads build their amalgamations and run is_local.
SETUP_LAYER_METRICS = ("amalgam.build_calls", "amalgam.build_s",
                       "spectrum.is_local_calls", "spectrum.is_local_s",
                       "spectrum.self_s", "znlinalg.gf2_insert_calls",
                       "znlinalg.zn_insert_calls", "rings.elements_enumerated")


class Gate:
    """Correctness gate: every op output against the references and
    against the first output of the same op in this run."""

    def __init__(self, refs):
        self.refs = refs
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.changed = 0
        self.problems = []

    def check(self, op, out):
        self.attempted += 1
        bad = op.problems(out, self.refs)
        if self.first.setdefault(op.label, out) != out:
            self.changed += 1
            bad.append("output differs from this run's first pass")
        if bad:
            self.failed += 1
            self.problems.append((op.label, bad))


def run_pass(ops, gate, wrap=None):
    """Run the op list once; returns (seconds inside the ops, outputs)."""
    spent = 0.0
    outputs = []
    for op in ops:
        fn = op.run if wrap is None else wrap(op.run)
        start = time.perf_counter()
        out = fn()
        spent += time.perf_counter() - start
        outputs.append(out)
        gate.check(op, out)
    return spent, outputs


def child_setup_s(name, seed):
    """Set-up time measured in a fresh interpreter."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(repr(workloads.timed_setup(sys.argv[2], int(sys.argv[3]))))")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), name, str(seed)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, refs):
    """End-to-end metrics: {name: (value, unit, samples)}."""
    start = time.perf_counter()
    ops = workloads.setup(name, seed)
    setups = [time.perf_counter() - start]
    setups += [child_setup_s(name, seed) for _ in range(SETUP_SAMPLES - 1)]

    timer = tracing.Tracer()
    patches = tracing.install(timer, only=TIMED_NAMES)
    gate = Gate(refs)
    per_pass = []
    try:
        window = time.perf_counter()
        while True:
            before = [timer.total[n] for n in TIMED_NAMES]
            spent, _ = run_pass(ops, gate)
            after = [timer.total[n] for n in TIMED_NAMES]
            per_pass.append((spent, after[0] - before[0], after[1] - before[1]))
            later = [p[0] for p in per_pass[1:]]
            elapsed = time.perf_counter() - window
            if later and elapsed + statistics.median(later) > seconds:
                break
    finally:
        patches.restore()
    later = per_pass[1:]
    n = len(later)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "pass_s": (statistics.median(p[0] for p in later), "s", n),
        "resolve_s": (statistics.median(p[1] for p in later), "s", n),
        "validate_s": (statistics.median(p[2] for p in later), "s", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    # One sample per run: printed, but too noisy on a shared host to bound.
    info = {"first_pass_s": (per_pass[0][0], "s", 1)}
    return metrics, info, gate


def traced(name, seed, seconds, refs):
    """Per-layer metrics from one traced set-up and pass."""
    ops = workloads.setup(name, seed)
    gate = Gate(refs)
    untraced = []
    window = time.perf_counter()
    while not untraced or (time.perf_counter() - window
                           + statistics.median(untraced) <= seconds):
        untraced.append(run_pass(ops, gate)[0])
    base = statistics.median(untraced)

    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    patches = tracing.install(setup_tracer)
    try:
        ops = workloads.setup(name, seed)
    finally:
        patches.restore()
    patches = tracing.install(tracer)
    try:
        changed_before = gate.changed
        traced_s, outputs = run_pass(
            ops, gate, wrap=lambda fn: tracer.span(fn, "bench.op"))
    finally:
        patches.restore()

    metrics = {k: (v, unit, 1) for k, (v, unit) in tracing.layer_metrics(tracer).items()}
    in_setup = tracing.layer_metrics(setup_tracer)
    metrics.update({f"setup.{k}": (in_setup[k][0], in_setup[k][1], 1)
                    for k in SETUP_LAYER_METRICS})
    reports = [json.loads(o["stdout"]) for o in outputs if o.get("stdout")]
    records = [c for r in reports for c in r["checks"]]
    metrics.update({
        "checks.failed_records": (sum(c["status"] == "fail" for c in records), "count", 1),
        "checks.skipped_records": (sum(c["status"] == "skipped" for c in records), "count", 1),
        "cli.input_errors": (sum(o.get("exit") == 2 for o in outputs), "count", 1),
        "report.digest_changed": (gate.changed - changed_before, "count", 1),
        "trace_overhead": (traced_s / base, "ratio", len(untraced)),
    })
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "missing_hooks": tracer.missing,
                   "setup_spans": setup_tracer.span_records(),
                   "pass_spans": tracer.span_records()}, fh)
    if tracer.missing:
        print("hooks not installed: " + ", ".join(tracer.missing))
    return metrics, {}, gate


def report(name, seed, metrics, info, gate):
    """Print every metric with unit and sample count, then the result line
    (which carries only `metrics`)."""
    print(f"workload {name}  seed {seed}  ops attempted {gate.attempted}  "
          f"failed {gate.failed}")
    for key, (value, unit, samples) in {**metrics, **info}.items():
        print(f"  {key:<28} {value:>14.6g} {unit:<6} n={samples}")
    print(f"  {'fail_ratio':<28} {gate.failed / gate.attempted:>14.6g} "
          f"{'ratio':<6} base={gate.attempted} ops")
    for label, bad in gate.problems[:20]:
        print(f"  FAILED {label}: {'; '.join(bad)}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


def run_all(args):
    """Every workload in turn, each in its own interpreter."""
    status = 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--references", str(args.references)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
        status = status or proc.returncode or (results[name] is None)
    print(json.dumps({"workloads": results}))
    return int(status)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--references", type=Path, default=workloads.REFERENCES,
                    help="expected outputs (default: perfbench/references.json)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        refs = workloads.load_references(args.references)
        run = traced if args.trace else measure
        metrics, info, gate = run(args.workload, args.seed, args.seconds, refs)
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return report(args.workload, args.seed, metrics, info, gate)


if __name__ == "__main__":
    sys.exit(main())
