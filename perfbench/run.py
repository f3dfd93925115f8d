#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload oneshot|socket|serve --seed N \
        --seconds S --trace 0|1 [--small]

Run it from the root of a checkout. The system under test is compiled from
src/ by perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR, or into
.bench_build when that is unset; build output goes to stderr. The benchmark
prints a header, sample counts and exact-count guards, and as the last line
of stdout one JSON object with the run's result. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot", "socket", "serve")
RUN_TIMEOUT_S = 170  # a run must end within 180 s; the build is not counted


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures and brings the benchmark binary up to date; returns its path."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        try:
            code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if code != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(bdir, "perfbench")


def git_sha():
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    fields = out.stdout.split()
    if out.returncode != 0 or len(fields) != 2:
        return "unknown"
    if os.path.realpath(fields[0]) != os.path.realpath(ROOT):
        return "unknown"
    return fields[1]


def main():
    parser = argparse.ArgumentParser(description="Build and run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"), "--git-sha", git_sha()]
    if args.small:
        cmd.append("--small")
    # Its own process group, so a stuck run is stopped with every rank
    # process it forked.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s; stopping it", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
