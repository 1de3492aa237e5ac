"""Repeat the benchmark over seeds and summarise each metric's median and spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

Runs `perfbench/run.py` once per (workload, seed), one run at a time, from
the repository root, with the run length from BENCHMARK.json.  For every
end-to-end metric it reports the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound.  With --traced it also makes
that many --trace 1 runs per workload and keeps the median of each
per-layer metric, so a later change can diff its breakdown against this one.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return {"env": env, **json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--traced", type=int, default=0, help="--trace 1 runs per workload")
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"date": datetime.date.today().isoformat(), "seeds": seeds,
               "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"env": runs[0]["env"], "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {
                "median": statistics.median(values), "spread": spread(values),
                "bound": bound, "unit": runs[0]["metrics"][name]["unit"], "values": values,
            }
            print(f"{workload:12s} {name:14s} median {statistics.median(values):12.6g} "
                  f"spread {spread(values):6.3f} (bound {bound}, third {bound / 3:.3f})",
                  flush=True)
        if args.traced:
            traced = [run_once(workload, s, spec["run_seconds"], 1) for s in seeds[: args.traced]]
            entry["per_layer"] = {
                name: {"median": statistics.median(r["metrics"][name]["value"] for r in traced),
                       "unit": traced[0]["metrics"][name]["unit"]}
                for name in traced[0]["metrics"]
            }
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
