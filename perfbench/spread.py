#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/baseline.json

Runs are sequential, one process at a time, with the run length from
BENCHMARK.json and tracing off.  For every workload and end-to-end metric
it prints the median over seeds and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  ``--record`` writes the machine,
the revision and every run's result to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info = json.loads(lines[-2]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), info, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf"), median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--record", default=None, help="write results to this file")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    runs = []
    summary = {}
    for name in names:
        results = []
        for seed in args.seeds:
            result, info, elapsed = one_run(bench, name, seed)
            results.append(result)
            runs.append({"workload": name, "seed": seed, "process_s": elapsed,
                         "info": info, "result": result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"process {elapsed:.1f}s", flush=True)
        summary[name] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) < 2:
                print(f"  {m['name']:32s} {values[0]:12.6g} {m['unit']}")
                continue
            s, median = spread(values)
            bound = m["bound"]
            summary[name][m["name"]] = {"median": median, "spread": s,
                                        "bound": bound, "values": values}
            verdict = "ok" if s <= bound / 3 else "WIDE" if s <= bound else "OVER"
            print(f"  {m['name']:32s} median {median:12.6g} {m['unit']:6s} "
                  f"spread {s:7.4f}  bound {bound} {verdict}", flush=True)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({
                "machine": {"python": platform.python_version(),
                            "nproc": os.cpu_count(),
                            "platform": platform.platform()},
                "revision": run.revision(),
                "run_seconds": bench["run_seconds"],
                "seeds": args.seeds,
                "summary": summary,
                "runs": runs,
            }, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
