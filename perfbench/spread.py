#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads grid_sorted,serve_mixed --seeds 1-10
    python3 perfbench/spread.py --seeds 1,1,1,1,1,1,1,1,1,1

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. Seeds are a range "a-b" or a comma list, which may repeat
a seed: ten different seeds give the input sensitivity plus the machine's
noise, ten runs of one seed give the noise alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(spec):
    if "-" in spec:
        a, b = spec.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("quartiles need at least two seeds")

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    for wl in args.workloads.split(","):
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   wl, "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            lines = r.stdout.splitlines()
            if not lines:
                sys.exit("spread: %s seed %d printed no result (exit %d)" %
                         (wl, seed, r.returncode))
            res = json.loads(lines[-1])
            if len(lines) > 1 and lines[-2].startswith('{"record"'):
                res.update(json.loads(lines[-2]))
            runs.setdefault(wl, []).append({"seed": seed, **res})
            vals = " ".join("%s=%.6g" % (k, v["value"])
                            for k, v in sorted(res["metrics"].items()))
            print("%-14s seed %-4d correct=%s failed=%d %s" % (
                wl, seed, res["correct"], res["failed"], vals), flush=True)
    print()
    for wl, rs in runs.items():
        for name in sorted(rs[0]["metrics"]):
            xs = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("%-14s %-13s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f%s" % (wl, name, med, q1, q3, spread,
                                     "" if bound is None else
                                     "  bound %.2f" % bound))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
