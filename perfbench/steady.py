#!/usr/bin/env python3
"""Steadiness record: run the benchmark on several seeds per workload.

    python3 perfbench/steady.py [--runs 10] [--seed-base 100]
                                [--workloads a,b] [--out FILE]

Run from the repository root. Each run is the `command` of
BENCHMARK.json with `--workload W --seed S --seconds run_seconds
--trace 0`. For every metric (the gated end-to-end ones and each
workload's own named ones) it records the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and their distance as a
share of the median. A gated metric is steady when that share is below
a third of its bound; a named metric is kept when it is within a tenth.
The record is printed and, with `--out`, written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_runs(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    names = [w for w in args.workloads.split(",") if w] or list(whys)
    seconds = bench["run_seconds"]
    runs_file = os.path.join(".bench_out", "runs.jsonl")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    record = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    all_steady = True
    for name in names:
        values, seeds, threads = {}, [], None
        for i in range(args.runs):
            seed = args.seed_base + i
            before = len(load_runs(runs_file))
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                sys.exit(f"{name} seed {seed}: checks failed: {last}")
            new = load_runs(runs_file)[before:]
            detail = new[-1]["detail"] if new else {}
            threads = detail.get("threads", {}).get("value", threads)
            seeds.append(seed)
            for src, gated in ((last["metrics"], True), (detail, False)):
                for m, v in src.items():
                    if m in ("passes", "threads"):
                        continue
                    key = m if gated else "detail." + m
                    values.setdefault(key, (v["unit"], gated, []))[2].append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in last["metrics"].items()), flush=True)
        metrics = {}
        for key, (unit, gated, xs) in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med if med else 0.0
            entry = {"unit": unit, "median": med, "q1": q1, "q3": q3, "iqr_share": share}
            if gated:
                bound = bounds[key]
                entry["bound"] = bound
                entry["steady"] = share < bound / 3
                all_steady &= entry["steady"]
            else:
                entry["kept"] = share <= 0.1
            metrics[key] = entry
        record["workloads"][name] = {
            "why": whys[name],
            "loop": whys[name].split(":")[0],
            "threads": threads,
            "seeds": seeds,
            "metrics": metrics,
        }
        for key, e in metrics.items():
            flag = ("steady" if e.get("steady") else "SPREAD") if "bound" in e else (
                "kept" if e["kept"] else "dropped (spread > 0.1)")
            print(f"  {name:<16} {key:<34} median {e['median']:.6g} {e['unit']:<8} "
                  f"iqr/median {e['iqr_share']:.4f}  {flag}")
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print("all gated spreads below a third of their bounds" if all_steady
          else "SOME GATED SPREADS TOO WIDE")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
