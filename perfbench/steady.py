#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--sets 1]
                                [--workloads tune,serve-hot]

Runs every workload --runs times through perfbench/run.py, with seeds
seed0, seed0+1, ..., and prints for each end-to-end metric the median and
the quartile spread (q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them.  A spread above the metric's
bound in BENCHMARK.json is flagged (setup_s is only reported: its bound
limits how far its median may move).  With --sets 2 the whole sweep runs
twice and a second median worse than the first by more than the bound is
flagged too.  Exits 1 when anything is flagged or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  {workload} seed {seed}: FAILED (exit {proc.returncode})")
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(first, second, better, bound):
    if better == "lower":
        return second > first * (1 + bound)
    return second < first * (1 - bound)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    flagged = False
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            runs = [run_once(workload, args.seed0 + i, args.seconds)
                    for i in range(args.runs)]
            if any(r is None for r in runs):
                flagged = True
                continue
            print(f"== {workload}, set {s + 1}: {args.runs} runs, seeds "
                  f"{args.seed0}..{args.seed0 + args.runs - 1}")
            set_medians = {}
            for m in bench["end_to_end"]:
                values = [r[m["name"]] for r in runs]
                med = statistics.median(values)
                sp = spread(values)
                set_medians[m["name"]] = med
                flag = ""
                if m["name"] != "setup_s" and sp > m["bound"]:
                    flag = "  SPREAD ABOVE BOUND"
                    flagged = True
                elif sp > m["bound"] / 3:
                    flag = "  (above a third of the bound)"
                print(f"  {m['name']:<12} median {med:>12.6g} {m['unit']:<4}"
                      f" spread {sp:6.3f}  bound {m['bound']}{flag}")
                if flag:
                    print("    values " + " ".join(f"{v:.4g}" for v in values))
            medians.append(set_medians)
        for s in range(1, len(medians)):
            for m in bench["end_to_end"]:
                a, b = medians[0][m["name"]], medians[s][m["name"]]
                if worse(a, b, m["better"], m["bound"]):
                    print(f"  {workload} {m['name']}: set {s + 1} median {b:.6g}"
                          f" worse than set 1 median {a:.6g} beyond the bound")
                    flagged = True
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
