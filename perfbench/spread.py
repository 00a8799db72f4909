"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads pushforward chase --seeds 1-10 \
        --seconds 10 --out perfbench/results/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, and records
for every metric the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  With ``--trace`` it also
adds one traced run per workload at the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    record = {"seconds": args.seconds, "seeds": seeds, "python": platform.python_version(),
              "cpus": os.cpu_count(), "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, seed, args.seconds, 0) for seed in seeds]
        names = list(runs[0]["metrics"])
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "metrics": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names}}
        if args.trace:
            traced = bench(workload, seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={sum(entry['failed'])}")
        for name, s in entry["metrics"].items():
            print(f"  {name:18s} median {s['median']:12.6g}  spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
