#!/usr/bin/env python3
"""Build revkb and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to the checkout's own
_build directory (dune cache off, so nothing is written outside it).  The
last line of standard output is the benchmark's JSON result; see
perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
REVKB = os.path.join(ROOT, "_build", "default", "bin", "revkb.exe")
RUN_LIMIT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "bin/revkb.ml", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe", "./bin/revkb.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")


def pin(argv):
    """serve-hot's requests take tens of microseconds, so the hand-off
    between this client and the one-job daemon is a large share of each
    one: both are pinned to the highest-numbered CPU, so it never
    crosses CPUs and stays off CPU 0, which takes the most interrupts.
    Workloads whose requests are CPU-bound keep every CPU, so the
    scheduler can move them off a busy one."""
    if "serve-hot" in argv:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    build()
    pin(sys.argv)
    # The benchmark and every daemon it spawns share one process group,
    # so a run that overstays its limit is stopped whole.
    proc = subprocess.Popen([BENCH] + sys.argv[1:] + ["--revkb", REVKB],
                            cwd=ROOT, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_LIMIT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail("run exceeded %d s" % RUN_LIMIT_S)


if __name__ == "__main__":
    main()
