"""Run every workload over seeds 0..9, untraced, and summarise each metric.

  python3 perfbench/sweep.py

Reads BENCHMARK.json at the root of the checkout for the command, workloads,
run length and bounds.  For each workload and end-to-end metric it prints
the median, the quartiles and their distance as a share of the median (the
spread); a spread above a third of the metric's bound is marked.  It also
pools the op times of all runs and prints their 50th and 90th percentiles
with the sample count.  The per-run records stay in perfbench/out/; the
summary goes to perfbench/out/sweep.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(10)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = runs[0]["metrics"]
        summary[workload] = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s["unit"] = names[name]["unit"]
            summary[workload][name] = s
            flag = ""
            if s["spread"] > bounds[name] / 3:
                flag = f"  spread above a third of the bound {bounds[name]}"
            print(f"  {name}: median {s['median']:.6g} {s['unit']} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f}{flag}")
        pooled = []
        for seed in SEEDS:
            path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json")
            with open(path, encoding="utf-8") as fh:
                pooled += [t for p in json.load(fh)["op_ref_seconds"] for t in p.values()]
        cuts = statistics.quantiles(pooled, n=10)
        summary[workload]["_pooled_ops"] = {"p50_s": cuts[4], "p90_s": cuts[8], "n": len(pooled)}
        print(f"  pooled op time: p50 {cuts[4]:.6g} s, p90 {cuts[8]:.6g} s over {len(pooled)} ops")
        summary[workload]["_correct"] = all(r["correct"] for r in runs)
        summary[workload]["_failed"] = sum(r["failed"] for r in runs)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
