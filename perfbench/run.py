#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload pal_decode --seed 1 --seconds 20

Run from the repository root. The first call configures and builds the
libraries under src/ plus perfbench.cpp into the build directory
($CARGO_TARGET_DIR, else .bench_build); later calls only re-check the build.
The last line of stdout is the result object of the C++ benchmark binary;
the exit status is non-zero on a build failure or any failed operation.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("pal_decode", "pal_faulted", "session_churn", "design_flow")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


_child = None  # the subprocess currently running, stopped with us


def run_child(cmd, **kwargs):
    """Run `cmd` to completion; return (exit status, stdout or None)."""
    global _child
    with subprocess.Popen(cmd, text=True, **kwargs) as proc:
        _child = proc
        out, _ = proc.communicate()
    _child = None
    return proc.returncode, out


def stop(signum, _frame):
    if _child is not None:
        _child.terminate()
        _child.wait()
    sys.exit(128 + signum)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out_dir):
    """Configure (once) and build the benchmark binary; return its path."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    cache = os.path.join(cmake_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != BENCH_DIR:
            shutil.rmtree(cmake_dir)  # configured for another checkout
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            rc, _ = run_child(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed ({' '.join(cmd)}); log: {log_path}")
    return os.path.join(cmake_dir, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if readable."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"repository sources not found under {ROOT}/src")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ROOT, "--state-dir", out_dir]
    rc, stdout = run_child(cmd, stdout=subprocess.PIPE)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if rc != 0 or not lines:
        # A failed check still shows its result line, then exits non-zero.
        if lines:
            print(lines[-1])
        print(f"perfbench: benchmark binary exited with status {rc}",
              file=sys.stderr)
        sys.exit(1)

    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        fail("emitted metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
