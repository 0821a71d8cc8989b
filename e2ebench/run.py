#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

    python3 e2ebench/run.py --workload inference --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds e2ebench/ (which
compiles the libraries from src/) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that variable is unset, then runs e2e_bench with
the given arguments. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Extra e2e_bench flags (--min-jobs,
--setups, ...) are passed through. Traced runs write their Chrome trace to
<build dir>/traces/<workload>-seed<seed>.json.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The first run of a checkout builds, and must end within 900 s overall.
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"e2ebench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; on timeout kills the whole group
    (make and compiler children included), waits for it, and raises."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build_dir():
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out_dir, "-j", jobs,
                "--target", "e2e_bench"]
    deadline = time.monotonic() + BUILD_TIMEOUT_S

    def step(cmd):
        remaining = deadline - time.monotonic()
        return run(cmd, remaining, stdout=sys.stderr) == 0

    try:
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            if not step(configure):
                fail("cmake configure failed")
        if not step(compile_):
            # A cache left by a checkout at another path cannot be reused.
            shutil.rmtree(out_dir, ignore_errors=True)
            if not (step(configure) and step(compile_)):
                fail("build failed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    return os.path.join(out_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["inference", "design_sweep", "dna_archival"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    cmd += extra
    try:
        sys.exit(run(cmd, RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()
