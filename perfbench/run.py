#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the perfbench binary from source (CMake, Release)
into .bench_build/ at the checkout root, runs it as one
single-threaded process, checks the per-cell output fingerprints against
perfbench/reference.json when it holds the (workload, seed) pair, and prints
as its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md for what each metric means.

--record-reference stores the run's fingerprints as the reference for its
(workload, seed) pair instead of checking them; use it only when a change
to simulated behaviour or numerics is intended.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("offline-ctdg", "offline-snapshot", "serve-gauntlet")
# A run must finish within 180 s of being started.
DEADLINE_S = 170.0


def build(deadline):
    """Configures and builds the perfbench binary; returns its path."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--parallel", "4"],
    ]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(BUILD, "perfbench")


def check_reference(args, fingerprints):
    """Returns (checked, mismatched cell labels); records when asked."""
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            reference = json.load(f)
    key = str(args.seed)
    if args.record_reference:
        reference.setdefault(args.workload, {})[key] = fingerprints
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0, []
    expected = reference.get(args.workload, {}).get(key)
    if expected is None:
        return 0, []
    cells = sorted(set(expected) | set(fingerprints))
    return len(cells), [c for c in cells if expected.get(c) != fingerprints.get(c)]


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    deadline = start + DEADLINE_S
    binary = build(deadline)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            ROOT, ".bench_build", f"spans-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    checked, mismatched = check_reference(args, result["fingerprints"])
    for cell in mismatched:
        print(f"  FAILED: {cell}: output differs from the recorded reference")
    print(f"reference cells checked: {checked}, mismatched: {len(mismatched)}")
    attempted = result["attempted"] + checked
    failed = result["failed"] + len(mismatched)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result[section].items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
