#!/usr/bin/env python3
"""Run one workload of the serving benchmark and print its result line.

    python3 perfbench/run.py --workload <stream|bulk> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package
(perfbench/Cargo.toml, release profile, into $CARGO_TARGET_DIR or
perfbench/target) and runs the workload in a fresh process. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the `end_to_end` metrics of BENCHMARK.json with `--trace 0`, its
`per_layer` metrics with `--trace 1`.

With `--trace 1` the workload runs twice, each in a fresh process: untraced,
then traced. Per-layer metrics come from the traced run; the difference
between the two runs is reported as the tracing overhead.

Exit codes: 0 on a correct run, 1 when a correctness check failed (the
result line is still printed), 2 when the benchmark could not build or run
(nothing is printed).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Every run, both processes included, must end within this many seconds
# after the build. Each process gets `--seconds` plus this allowance for its
# set-up, warm-up, replays and probes (a few seconds on two CPUs).
RUN_BUDGET_S = 170.0
PROCESS_ALLOWANCE_S = 20.0


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release", "perfbench")


def run_workload(binary, args, trace, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} (trace {trace}) ran past its time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} (trace {trace}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tracing_overhead(untraced, traced):
    """Per-layer metrics: how much the traced run lost to its spans."""
    u, t = untraced["metrics"], traced["metrics"]
    return {
        "trace.overhead_p50_ms": {
            "value": t["p50_ms"]["value"] - u["p50_ms"]["value"], "unit": "ms"},
        "trace.overhead_throughput_frac": {
            "value": 1.0 - t["throughput_pps"]["value"] / u["throughput_pps"]["value"],
            "unit": "ratio"},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    processes = 2 if args.trace else 1
    budget = processes * (args.seconds + PROCESS_ALLOWANCE_S)
    if budget > RUN_BUDGET_S:
        most = int(RUN_BUDGET_S / processes - PROCESS_ALLOWANCE_S)
        fail(f"--seconds {args.seconds} does not fit the {RUN_BUDGET_S:.0f} s budget "
             f"with --trace {args.trace}; use at most {most}")

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    result = run_workload(binary, args, 0, deadline)
    if args.trace:
        untraced = result
        result = run_workload(binary, args, 1, deadline)
        result["metrics"].update(tracing_overhead(untraced, result))
        result["correct"] = result["correct"] and untraced["correct"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the run, got {got}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
