#!/usr/bin/env python3
"""Repository benchmark: time to a verified program.

Builds perfbench/ (the Migrator libraries from src/ plus the benchmark program in
perfbench.cpp) and runs one workload:

    python3 perfbench/run.py --workload verify-heavy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload search-heavy --seed 1 --trace 1 --record

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See perfbench/README.md.

The exact counts and program hashes of every input are compared with
perfbench/expected.json; any drift makes the run incorrect. --record writes
this run's values there instead (for a change that means to alter them).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")

# The metric names and units are those BENCHMARK.json declares.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Per-input values that must repeat exactly across runs.
EXACT = ["prog_hash", "iters", "vcs", "sat_calls", "tester_seqs", "verify_seqs"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark program; returns its path or None."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def compare_exact(doc, expected):
    """Returns drift messages for inputs whose exact values differ."""
    want = expected.get(doc["workload"], {})
    drift = []
    for inp in doc["inputs"]:
        ref = want.get(inp["name"])
        if ref is None:
            drift.append(f"{inp['name']}: no expected values recorded")
            continue
        for key in EXACT:
            if key in inp and inp[key] != ref.get(key):
                drift.append(f"{inp['name']}: {key} {inp[key]} != expected {ref.get(key)}")
    return drift


def record(doc):
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)
    per_input = expected.setdefault(doc["workload"], {})
    for inp in doc["inputs"]:
        entry = per_input.setdefault(inp["name"], {})
        entry.update({k: inp[k] for k in EXACT if k in inp})
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"perfbench: recorded {doc['workload']} into {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    # Every option is explicit in perfbench.cpp; no process-wide switch leaks in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MIGRATOR_")}
    if args.self_test:
        return subprocess.run([exe, "--self-test"], env=env).returncode

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark program exceeded 175 s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: benchmark program exited with {proc.returncode}")
        return 1
    doc = json.loads(lines[-1])

    if args.record:
        record(doc)
        drift = []
    else:
        with open(EXPECTED) as f:
            drift = compare_exact(doc, json.load(f))
    for msg in drift:
        log("perfbench: DRIFT " + msg)

    values = doc["per_layer"] if args.trace else doc["end_to_end"]
    with open(BENCHMARK) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    names_in_order = ", ".join(i["name"] for i in doc["inputs"])
    print(f"perfbench {doc['workload']}  seed={doc['seed']}  jobs={doc['jobs']}  "
          f"passes={doc['passes']}  trace={args.trace}  inputs: {names_in_order}")
    for n, m in metrics.items():
        print(f"  {n:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':28s} {doc['end_to_end']['failed_frac']:.6g} "
          f"({doc['failed']} of {doc['attempted']} attempted)")
    for msg in doc["failures"] + drift:
        print("  FAIL " + msg)

    correct = not doc["failures"] and not drift
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
