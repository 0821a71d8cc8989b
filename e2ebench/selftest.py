#!/usr/bin/env python3
"""Fast self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Builds the benchmark through run.py, runs every workload for three jobs and
checks that:
  - the result line names exactly the metrics BENCHMARK.json lists
    (end_to_end untraced, per_layer traced), each one finite;
  - no job failed and the run reports correct;
  - two traced runs with one seed print the same digest and the same counts,
    and an untraced run prints that digest too.
Exits non-zero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# Units of values that depend only on the seed, never on timing.
EXACT_UNITS = {"count", "cycles", "ratio", "nJ", "dB", "fraction"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--min-jobs", "3", "--setups", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    full = next(l for l in lines if l.startswith("RESULT "))
    return json.loads(full[len("RESULT "):]), json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for trace in (1, 1, 0):
            full, result = run(workload, trace)
            tag = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(set(result["metrics"]) == want[trace],
                  f"{tag}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ want[trace])}")
            for name, m in full["metrics"].items():
                check(isinstance(m["value"], (int, float)) and
                      math.isfinite(m["value"]), f"{tag}: {name} not finite")
            check(full["metrics"]["failed_frac"]["value"] == 0,
                  f"{tag}: failed_frac {full['metrics']['failed_frac']}")
            check(result["correct"] and result["failed"] == 0,
                  f"{tag}: correct={result['correct']} "
                  f"failed={result['failed']}")
            runs.append(full)
        a, b, c = runs
        check(a["digest"] == b["digest"] == c["digest"],
              f"{workload}: digests {a['digest']} {b['digest']} {c['digest']}")
        exact = {k: v["value"] for k, v in a["metrics"].items()
                 if v["unit"] in EXACT_UNITS}
        again = {k: b["metrics"][k]["value"] for k in exact}
        check(exact == again, f"{workload}: counts differ: {exact} vs {again}")
        print(f"ok {workload}: digest {a['digest']}, {len(exact)} exact values "
              f"repeat, {len(a['metrics'])} metrics finite")
    print("selftest passed")


if __name__ == "__main__":
    main()
