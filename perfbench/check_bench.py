"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/check_bench.py

It checks that
* the references hold on two seeds (0 and 1) for every workload;
* two traced runs at one seed give identical counts;
* the traced counts show the split each workload claims;
* the gate catches a corrupted Betti entry and a corrupted exit code;
* the printed metric names and units are those BENCHMARK.json declares;
* without the program's sources the command fails without a result.

The file name keeps pytest from collecting it.  Takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

COUNT_SUFFIXES = ("_calls", "_cells", "betti_total", "steps_block",
                  "steps_generic", "elements_enumerated")


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def check_traced_runs():
    """References on two seeds, identical counts at one seed, the split."""
    _, per_layer = declared()
    seed0 = {}
    for name in workloads.WORKLOADS:
        runs = []
        for seed in (0, 0, 1):
            code, result, proc = bench("--workload", name, "--seed", str(seed),
                                       "--seconds", "1", "--trace", "1")
            expect(code == 0 and result and result["correct"],
                   f"{name} seed {seed}: traced run failed\n{proc.stdout[-2000:]}"
                   f"{proc.stderr[-2000:]}")
            expect(units(result) == per_layer,
                   f"{name}: per-layer metrics differ from BENCHMARK.json")
            runs.append(result)
        expect(counts(runs[0]) == counts(runs[1]),
               f"{name}: counts differ between two runs at seed 0")
        seed0[name] = {k: v["value"] for k, v in runs[0]["metrics"].items()}
        print(f"ok   {name}: references hold on seeds 0 and 1, counts repeat")

    def inserts(name):
        m = seed0[name]
        return m["znlinalg.gf2_insert_calls"] + m["znlinalg.zn_insert_calls"]

    expect(seed0["resolve_gf2"]["znlinalg.zn_insert_calls"] == 0,
           "resolve_gf2 ran Z/N-engine inserts")
    expect(seed0["resolve_zn"]["znlinalg.gf2_insert_calls"] == 0,
           "resolve_zn ran GF(2)-engine inserts")
    expect(10 * inserts("resolve_block") <= inserts("resolve_gf2"),
           "resolve_block does not run 10x fewer inserts than resolve_gf2")
    expect(0 < seed0["resolve_gf2"]["modules.mingens_keep_ratio"] < 1,
           "seeded redundant generators were not rejected")
    print("ok   traced counts show the claimed engine split")


def check_gate_catches_corruption():
    refs = workloads.load_references()
    refs["corpus"]["duplication_z4.ring"]["betti"]["betti"]["betti_mj"][0] += 1
    refs["corpus"]["bad_syntax.ring"]["exit"] = 1
    OUT.mkdir(exist_ok=True)
    corrupt = OUT / "references-corrupt.json"
    corrupt.write_text(json.dumps(refs), encoding="utf-8")
    code, result, proc = bench("--workload", "corpus_check", "--seed", "0",
                               "--seconds", "1", "--trace", "0",
                               "--references", str(corrupt))
    expect(result is not None, f"no result line\n{proc.stderr[-2000:]}")
    expect(code != 0, "exit status is 0 although ops failed")
    expect(not result["correct"] and result["failed"] > 0,
           "fail_ratio is 0 with corrupted references")
    passes = result["attempted"] // len(workloads.CORPUS_FILES)
    expect(result["failed"] == 2 * passes,
           f"{result['failed']} failed ops, expected the 2 corrupted per pass")
    end_to_end, _ = declared()
    expect(units(result) == end_to_end,
           "end-to-end metrics differ from BENCHMARK.json")

    label = "dup_z4/mj"
    op = workloads.ResolveOp(label, None, None, None, 14, None)
    good = workloads.load_references()
    ref = good["resolve"][label]
    out = {"betti": list(ref["betti"]), "verdict": ref["verdict"], "issues": []}
    expect(op.problems(out, good) == [], "gate rejects a correct resolution")
    ref["betti"][3] += 1
    expect(op.problems(out, good), "gate accepts a wrong Betti entry")
    print("ok   gate catches a corrupted Betti entry and exit code")


def check_fails_without_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    code, result, _ = bench("--workload", "resolve_gf2", "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=bare,
                            script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    expect(code != 0 and result is None,
           "the command succeeded without the program's sources")
    print("ok   fails without the program's sources")


def main():
    failed = 0
    for check in (check_fails_without_program, check_gate_catches_corruption,
                  check_traced_runs):
        try:
            check()
        except CheckFailed as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
