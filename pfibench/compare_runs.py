#!/usr/bin/env python3
"""Compare two sets of pfi_bench runs, workload by workload.

    python3 pfibench/compare_runs.py --a A1.txt A2.txt ... --b B1.txt ...

Each file is the standard output of one timed run (run.py --trace 0). Set A
is the baseline (the parent commit), set B the candidate. Files of one
workload are paired in the order given, so interleave the runs and pass
them in run order. For every workload and end-to-end metric the table shows
each side's median and quartiles, how many pairs B wins (ties count for
neither), and a verdict:

  better      B wins at least 9 of 10 pairs and the medians differ by more
              than A's own interquartile distance
  worse       B's median is worse than A's by more than the metric's bound
  unchanged   within the bound, with both spreads inside it
  unresolved  a side's spread exceeds the bound, so the runs cannot tell

Bounds and directions come from BENCHMARK.json. Runs of the same workload
and seed must report the same result_digest; mismatches are listed.
Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_run(path):
    """(workload, seed, digest, {metric: value}) of one captured run."""
    workload = seed = digest = None
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    for line in lines:
        if line.startswith("# pfi_bench "):
            fields = dict(kv.split("=", 1) for kv in line.split()[2:]
                          if "=" in kv)
            workload, seed = fields.get("workload"), fields.get("seed")
        elif " result_digest " in line:
            digest = line.split()[-1]
    if workload is None or not lines:
        sys.exit(f"compare_runs: {path} is not pfi_bench output")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        print(f"warning: {path} reports correct=false", file=sys.stderr)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return workload, seed, digest, values


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    worse_by = sign * (am - bm) / abs(am) if am else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if (pairs and wins >= 0.9 * len(pairs) and abs(bm - am) > a3 - a1) \
            or all_better:
        word = "better"
    elif spread > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "unchanged"
    return (a1, am, a3), (b1, bm, b3), wins, len(pairs), worse_by, word


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", nargs="+", required=True, help="baseline runs")
    ap.add_argument("--b", nargs="+", required=True, help="candidate runs")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)

    runs = {"a": {}, "b": {}}
    digests = {}
    for side in ("a", "b"):
        for path in getattr(args, side):
            workload, seed, digest, values = parse_run(path)
            runs[side].setdefault(workload, []).append(values)
            digests.setdefault((workload, seed), set()).add(digest)

    print(f"{'workload':17} {'metric':13} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B wins':>7} {'worse by':>9}  verdict")
    for workload in sorted(set(runs["a"]) | set(runs["b"])):
        a_runs, b_runs = runs["a"].get(workload), runs["b"].get(workload)
        if not a_runs or not b_runs:
            print(f"{workload:17} only on one side")
            continue
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in a_runs]
            b = [r[m["name"]] for r in b_runs]
            qa, qb, wins, pairs, worse_by, word = verdict(
                a, b, m["better"], m["bound"])
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{workload:17} {m['name']:13} "
                  f"{fmt.format(qa[1], qa[0], qa[2]):>30} "
                  f"{fmt.format(qb[1], qb[0], qb[2]):>30} "
                  f"{wins:>3}/{pairs:<3} {100 * worse_by:>8.2f}%  {word}")
    split = sorted(f"{w} seed {s}" for (w, s), d in digests.items()
                   if len(d) > 1)
    print("result_digest: " + ("identical for every workload and seed"
                               if not split else
                               "DIFFERS for " + ", ".join(split)))


if __name__ == "__main__":
    main()
