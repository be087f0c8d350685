#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads cold,warm,nocache]
        [--seeds 1-10] [--trace 0] [--append-baseline --sha SHA]

Runs `perfbench/run.py` once per (workload, seed), from the repository
root, with the run length BENCHMARK.json fixes. For every end-to-end
metric it prints the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of
the median, beside the metric's bound. A benchmark is steady when
every spread except setup_s's stays well inside its bound.

--append-baseline appends one row per workload to
perfbench/baselines.jsonl: the git SHA measured, host facts and each
metric's median and spread. Rows are only ever appended, so the file
is the trajectory later changes are judged against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINES = os.path.join(HERE, "baselines.jsonl")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, lines[:-1]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append-baseline", action="store_true")
    parser.add_argument("--sha", default=None)
    args = parser.parse_args()
    if args.append_baseline and not args.sha:
        parser.error("--append-baseline needs --sha")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    seeds = parse_seeds(args.seeds)

    rows = []
    for workload in workloads:
        values = {d["name"]: [] for d in declared}
        summary = []
        for seed in seeds:
            start = time.monotonic()
            result, summary = run_once(workload, seed,
                                       spec["run_seconds"], args.trace)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.monotonic() - start:.0f} s "
                  + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()
                             if args.trace == 0), flush=True)
        metrics = {}
        for d in declared:
            vals = values[d["name"]]
            med, rel = spread(vals) if len(vals) >= 2 and statistics.median(
                vals) else (statistics.median(vals), 0.0)
            metrics[d["name"]] = {"median": med, "iqr_share": rel,
                                  "unit": d["unit"]}
            bound = d.get("bound")
            verdict = ""
            if bound is not None and d["name"] != "setup_s":
                verdict = "ok" if rel <= bound / 3 else (
                    "within bound" if rel <= bound else "TOO WIDE")
            print(f"  {workload:<8} {d['name']:<22} median {med:12.5g} "
                  f"{d['unit']:<6} spread {rel * 100:6.2f}%"
                  + (f"  bound {bound * 100:.0f}% {verdict}" if bound else ""))
        rows.append({"workload": workload, "metrics": metrics,
                     "summary": summary})

    if args.append_baseline:
        host = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()}
        for line in rows[0]["summary"]:
            if "--jobs" in line:
                host["jobs"] = int(line.split("--jobs ")[1].split()[0])
                host["simd"] = line.split("simd ")[1].split(",")[0]
        with open(BASELINES, "a") as f:
            for row in rows:
                f.write(json.dumps({
                    "sha": args.sha,
                    "date": time.strftime("%Y-%m-%d"),
                    "workload": row["workload"],
                    "seeds": seeds,
                    "run_seconds": spec["run_seconds"],
                    "trace": args.trace,
                    "host": host,
                    "metrics": row["metrics"],
                }, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
