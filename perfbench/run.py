#!/usr/bin/env python3
"""Build the tabseg benchmark from source and run one workload (or all).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload corpus-csp --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 15

One workload runs in its own fresh process, so worker domains never mix
with fork() and the peak RSS is that workload's alone. The last line of
standard output is the workload's JSON result; the exit code is 0 only
when every correctness check passed. With --workload all, every workload
runs untraced then traced, and the exit code is non-zero if any run
failed.

The build goes to .bench_build/ (release profile), so it never disturbs
the development build in _build/.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["corpus-hmm", "corpus-csp", "daemon-zipf", "stream-large"]
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/tabseg_perf.exe"
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    # The benchmark links the repository's own libraries: without them
    # there is nothing to measure.
    for required in ("dune-project", os.path.join("lib", "core", "api.ml")):
        if not os.path.exists(os.path.join(root, required)):
            fail("not a tabseg source tree (missing %s)" % required)
    env = dict(os.environ, DUNE_CACHE="disabled")
    command = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", TARGET,
    ]
    try:
        done = subprocess.run(command, cwd=root, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
    except OSError as error:
        fail("cannot run dune: %s" % error)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(root, BUILD_DIR, "default", "perfbench",
                        "tabseg_perf.exe")


def stop_group(process):
    """Kill whatever is left of the run's process group, reap the run,
    and wait until the rest of the group is gone."""
    pgid = process.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(root, exe, workload, seed, seconds, trace):
    command = [exe, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    # A session of its own: on a timeout, or if the run dies leaving a
    # daemon or its workers behind, the whole group is killed.
    process = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        code = 124
    stop_group(process)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exe = build(root)
    if args.workload != "all":
        sys.stdout.flush()
        sys.exit(run_one(root, exe, args.workload, args.seed, args.seconds,
                         args.trace))
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            sys.stdout.flush()
            code = run_one(root, exe, workload, args.seed, args.seconds,
                           trace)
            worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
