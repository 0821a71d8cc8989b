#!/usr/bin/env python3
"""Paper-table goldens for the bench binaries.

Check one run against its golden (the command of every `paper` ctest):

    paper_golden.py GOLDEN BENCH [ARGS...]

Rewrite every golden from the commands ctest runs, after a change that
moves a paper table on purpose:

    paper_golden.py --regenerate BUILD_DIR

Only stdout is compared, byte for byte, and a bench that exits nonzero
fails. Timings differ from run to run, so a section whose header reads
`=== <title> [timing] ===` keeps its header but drops its body: every
line up to the next `=== ` header or the end of the output. The header
still pins that the section ran, and its thread count.
"""
import difflib
import json
import os
import subprocess
import sys

TIMING_TAG = " [timing] ==="


def paper_lines(stdout):
    kept = []
    in_timing = False
    for line in stdout.splitlines(keepends=True):
        if line.startswith("=== "):
            in_timing = line.rstrip("\n").endswith(TIMING_TAG)
            kept.append(line)
        elif not in_timing:
            kept.append(line)
    return "".join(kept)


def run_bench(command, env=None):
    proc = subprocess.run(command, stdout=subprocess.PIPE, env=env)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout.decode())
        sys.exit(f"{' '.join(command)} exited with {proc.returncode}")
    return paper_lines(proc.stdout.decode())


def check(golden, command):
    got = run_bench(command)
    try:
        with open(golden, encoding="utf-8", newline="") as f:
            want = f.read()
    except FileNotFoundError:
        sys.exit(f"no golden {golden}; see --regenerate")
    if got == want:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        golden, "stdout"))
    return 1


def regenerate(build_dir):
    listing = subprocess.run(
        ["ctest", "-L", "paper", "--show-only=json-v1"], cwd=build_dir,
        stdout=subprocess.PIPE, check=True).stdout
    script = os.path.basename(__file__)
    for test in json.loads(listing)["tests"]:
        command = test["command"]
        at = next(i for i, arg in enumerate(command)
                  if os.path.basename(arg) == script)
        golden, bench = command[at + 1], command[at + 2:]
        env = dict(os.environ)
        for prop in test.get("properties", []):
            if prop["name"] == "ENVIRONMENT":
                env.update(kv.split("=", 1) for kv in prop["value"])
        with open(golden, "w", encoding="utf-8", newline="") as f:
            f.write(run_bench(bench, env))
        print("wrote", golden)
    return 0


def main(argv):
    if len(argv) == 3 and argv[1] == "--regenerate":
        return regenerate(argv[2])
    if len(argv) >= 3 and not argv[1].startswith("--"):
        return check(argv[1], argv[2:])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
