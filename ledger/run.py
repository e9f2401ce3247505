#!/usr/bin/env python3
"""Run one ledger workload and report it as one JSON line.

    python3 ledger/run.py --workload fleet-delta --seed 42 --seconds 10 --trace 0

Run from the root of a source checkout.  Builds ledger/ledger.exe with dune
(the first build compiles the libraries it links), runs the workload in its
own process, relays its `name value unit` lines, and prints as the last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics BENCHMARK.json lists (--trace 0) or its
per-layer metrics (--trace 1).  Exits non-zero without that line when the
build or the run fails, and with it, exit code 1, when an output check
failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def dune():
    path = shutil.which("dune")
    return [path] if path else ["opam", "exec", "--", "dune"]


def fail(msg):
    print(f"ledger/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    build = subprocess.run(
        dune() + ["build", "--root", ROOT, "./ledger/ledger.exe"],
        cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    # the run writes its JSON here, beside BENCHMARK.json
    out = os.path.join(ROOT, f"BENCH_ledger_{args.workload}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(ROOT, "_build", "default", "ledger", "ledger.exe"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode not in (0, 1) or not os.path.exists(out):
        sys.stdout.write(run.stdout)
        fail(f"the run exited with code {run.returncode}")
    sys.stdout.write(run.stdout)

    with open(out) as f:
        result = json.load(f)
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        fail(f"the run did not report {', '.join(missing)}")
    print(json.dumps({
        "correct": result["correct"] and run.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: result["metrics"][m] for m in wanted},
    }))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
