"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 bench/steadiness.py --workload query_deep --runs 5 --first-seed 100

Runs are sequential, one process at a time, with the ``run_seconds`` of
BENCHMARK.json unless ``--seconds`` is given. A metric's spread is the
distance between its first and third quartile (``statistics.quantiles``
with n=4) as a share of its median. Each end-to-end metric except
``setup_s`` must spread less than its bound, and should spread less than
a third of it. With ``--against`` an earlier ``--out`` file, each
metric's median must also not be worse than the earlier median by more
than the bound; this holds for ``setup_s`` too. The exit code is 1 when a
bound is exceeded or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default all workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every run's metrics here as JSON")
    parser.add_argument("--against", help="an earlier --out file whose medians this set must hold")
    args = parser.parse_args()

    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    bad = False
    raw = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"][1:] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run([sys.executable] + cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print("%s seed %d: failed (exit %d)\n%s" % (workload, seed, done.returncode, done.stderr[-2000:]))
                bad = True
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        raw[workload] = values
        print("%-12s %-14s %14s %8s %6s  %-12s %s" % ("workload", "metric", "median", "spread", "bound", "verdict", "vs earlier"))
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif spread >= m["bound"]:
                verdict, bad = "OVER BOUND", True
            else:
                verdict = "steady" if spread < m["bound"] / 3 else "within bound"
            change = ""
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                # Share by which this median is worse than the earlier one.
                worse = (med - statistics.median(before)) / statistics.median(before)
                if m["better"] == "higher":
                    worse = -worse
                change = "%+.4f %s" % (worse, "OVER BOUND" if worse > m["bound"] else "ok")
                bad = bad or worse > m["bound"]
            print("%-12s %-14s %14.6g %8.4f %6.2f  %-12s %s" % (workload, m["name"], med, spread, m["bound"], verdict, change))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
