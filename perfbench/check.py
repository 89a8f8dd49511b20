#!/usr/bin/env python3
"""Checks on the benchmark itself.  Run from the root of a checkout.

    python3 perfbench/check.py repeat [--seconds S] [--seed N] [WORKLOAD...]
        Runs each workload twice with the same seed, untraced and traced,
        and fails unless both runs sent byte-identical request streams,
        got identical answers, and reported identical counts
        (revised_size_mean, serve.cache.hits, sem.env.builds, sat.solves
        and every other counter of the traced run).

    python3 perfbench/check.py spread [--seconds S] [--seeds K] [WORKLOAD...]
        Runs each workload untraced once per seed 1..K and prints, per
        end-to-end metric, the median and the spread (distance between
        the first and third quartile over the median) against the bound
        in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    """One run: its result object and its 'stream', 'answers' and
    'counts' lines."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d trace %d: exit %d" % (workload, seed, trace, out.returncode))
    result = json.loads(lines[-1])
    tags = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("stream", "answers", "counts"):
            tags[key] = rest
    return result, tags


def repeat(args, workloads):
    failures = []
    for w in workloads:
        for trace in (0, 1):
            (r1, t1), (r2, t2) = (run(w, args.seed, args.seconds, trace) for _ in range(2))
            for r in (r1, r2):
                if not r["correct"] or r["failed"]:
                    failures.append("%s trace %d: incorrect run" % (w, trace))
            for key in ("stream", "answers", "counts"):
                if t1.get(key) != t2.get(key):
                    failures.append("%s trace %d: %s differs: %s vs %s" % (w, trace, key, t1.get(key), t2.get(key)))
            if trace == 0:
                a = r1["metrics"]["revised_size_mean"]["value"]
                b = r2["metrics"]["revised_size_mean"]["value"]
                if a != b:
                    failures.append("%s: revised_size_mean %r vs %r" % (w, a, b))
            print("%s trace %d: stream %s answers %s" % (w, trace, t1.get("stream"), t1.get("answers")))
            if trace == 1:
                print("  counts " + t1.get("counts", ""))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


def spread(args, workloads):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    worst = 0
    for w in workloads:
        values = {}
        for seed in range(1, args.seeds + 1):
            r, _ = run(w, seed, args.seconds, 0)
            if not r["correct"]:
                sys.exit("%s seed %d: incorrect run" % (w, seed))
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d seeds)" % (w, args.seeds))
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            s = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s > bound / 3:
                flag = "  <-- above a third of the bound"
                worst = 1
            print("  %-20s median %12.6g  spread %6.3f  bound %s%s" % (name, med, s, bound, flag))
            print("    " + " ".join("%.4g" % v for v in vs))
    return worst


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("repeat", "spread"))
    p.add_argument("workloads", nargs="*")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_intermixed_args()
    s = spec()
    workloads = args.workloads or [w["name"] for w in s["workloads"]]
    if args.seconds is None:
        args.seconds = s["run_seconds"] if args.mode == "spread" else 3
    sys.exit((repeat if args.mode == "repeat" else spread)(args, workloads))


if __name__ == "__main__":
    main()
