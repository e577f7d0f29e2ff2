#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The benchmark is configured with CMake into .bench_build/perfbench under the
repository root and built from the sources in src/. Build output goes to
stderr; the benchmark's last stdout line is its JSON result. --smoke runs
every workload at tiny sizes and checks the result lines against
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["paper_batch", "dag_plan", "serve_mix", "shard_batch"]
GUARDED = ["scheduler.jobs_per_wf", "stream.jobs_reused_ratio",
           "service.plan_cache_hit_ratio", "cluster.remote_mb",
           "scheduler.locality_hit_ratio"]


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def run(workload, seed, seconds, trace, size="full", echo=True):
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--trace-file",
           os.path.join(trace_dir, "%s-seed%s.json" % (workload, seed))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(result, expected, what):
    """Problems with one result line against BENCHMARK.json's metrics."""
    if result is None:
        return [what + ": no result line"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(what + ": keys " + str(sorted(result)))
        return problems
    if result["correct"] is not True:
        problems.append(what + ": outputs not verified")
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append("%s: failed_ratio %d/%d" %
                        (what, result["failed"], result["attempted"]))
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        problems.append("%s: metrics %s, BENCHMARK.json has %s" %
                        (what, got, want))
    return problems


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    problems = [] if names == WORKLOADS else ["workloads " + str(names)]
    for workload in WORKLOADS:
        before = len(problems)
        results = {}
        for seed, trace in [(1, 0), (1, 1), (1, 1), (2, 0), (2, 1)]:
            what = "%s seed %d trace %d" % (workload, seed, trace)
            code, out = run(workload, seed, 1, trace, "tiny", echo=False)
            if code != 0:
                problems.append("%s: exit code %d" % (what, code))
                continue
            result = result_of(out)
            metrics = spec["per_layer"] if trace else spec["end_to_end"]
            found = check(result, metrics, what)
            problems += found
            if trace and not found:
                counts = {k: result["metrics"][k]["value"] for k in GUARDED}
                first = results.setdefault((seed, trace), counts)
                if first != counts:
                    problems.append("%s: counts %s, earlier run %s" %
                                    (what, counts, first))
        print("smoke %-12s %s" %
              (workload, "ok" if len(problems) == before else "FAIL"))
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.smoke:
        return smoke()
    code, _ = run(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
