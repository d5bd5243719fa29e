#!/usr/bin/env python3
"""monotrick benchmark: verdict latency end to end, per-layer numbers traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sat-classes --seed 1 --seconds 42 --trace 0

One client in a closed loop: one process, one thread, each query issued
after the previous one returns.  A run plays seeded batches of queries
until its time is used (and at least MIN_QUERIES queries were issued),
setting the program up again at even intervals between queries; set-up
time is the median of those set-ups.  Every output goes through the
workload's known-answer gate.

Each query is preceded by a fixed reference computation that is not the
program's code, and every measured time is scaled to a nominal host speed
by the reference timings next to it (``Speed``).

With ``--trace 0`` the last line of standard output is the result with
the end-to-end metrics.  With ``--trace 1`` the run spends half its time
untraced and half replaying the same batches with per-layer wrappers
installed, and reports the per-layer metrics; the per-query trace of the
first traced batch is written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
MODULES = ("syntax", "semantics", "translations", "search", "experiments", "cli")
SETUP_REPEATS = 21
MIN_QUERIES = 100
FAILURES_SHOWN = 5
REF_WINDOW = 5
REF_SECONDS = 2e-3  # what the reference takes at the nominal speed

import formulas as fm  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# The reference: the benchmark's own Kripke evaluator (formulas.RefModel)
# on a fixed three-world model, modal and intuitionistic.  Its mix of
# recursion, tuple dispatch, dict and set lookups and generator
# expressions is the program's, so slow phases of the host slow it about
# as much; plain arithmetic or dict loops slowed less than the program did.
_REF_MODEL = {
    "equality": {"principle": "eq3", "classes": {}},
    "worlds": ["w0", "w1", "w2"],
    "access": [["w0", "w0"], ["w0", "w1"], ["w0", "w2"], ["w1", "w1"],
               ["w1", "w2"], ["w2", "w2"]],
    "domains": {"w0": ["a", "b"], "w1": ["a", "b", "c"], "w2": ["a", "b", "c"]},
    "valuation": {"w0": {"Q": [["a"]], "P": [["a", "b"]]},
                  "w1": {"Q": [["a"], ["c"]], "P": [["a", "b"], ["c", "a"]]},
                  "w2": {"Q": [["a"], ["b"], ["c"]],
                         "P": [["a", "b"], ["c", "a"], ["b", "b"]]}},
}
_REF_CASES = [
    (fm.RefModel({**_REF_MODEL, "mode": "modal"}),
     fm.parse("forall x exists y ([](Q(x) | ~P(x,y)) <-> <>(Q(y) & exists z P(y,z)))")),
    (fm.RefModel({**_REF_MODEL, "mode": "int"}),
     fm.parse("forall x exists y ((Q(x) | ~P(x,y)) <-> (Q(y) & exists z P(y,z)))")),
]


def reference_work() -> int:
    """Fixed work that shares no code with the program."""
    total = 0
    for _ in range(4):
        for model, formula in _REF_CASES:
            for w in model.worlds:
                total += model.holds(w, {}, formula)
    return total


class Speed:
    """The host's speed at the moment, from reference timings.

    On a shared host the same instructions take up to twice as long in
    slow phases that last from seconds to minutes, longer than one batch.
    The reference is timed before every query and set-up; a measured time
    is scaled by REF_SECONDS over the median of the last REF_WINDOW
    reference timings, so it reads as the time at the nominal speed.  The
    reference is the benchmark's own code, so a change to the program
    leaves it alone and shows in full.
    """

    def __init__(self):
        self.recent = deque(maxlen=REF_WINDOW)
        for _ in range(REF_WINDOW):
            self.sample()

    def sample(self):
        started = time.perf_counter()
        reference_work()
        self.recent.append(time.perf_counter() - started)

    def scale(self, seconds: float) -> float:
        return seconds * REF_SECONDS / statistics.median(self.recent)


def import_program() -> dict:
    """Import the package afresh, so each set-up pays for the import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "monotrick"]:
        del sys.modules[name]
    api = {"monotrick": importlib.import_module("monotrick")}
    for name in MODULES:
        api[name] = importlib.import_module(f"monotrick.{name}")
    return api


def set_up(workload_cls, seed: int, workdir: str):
    """Import, write input files, build pools and the first batch."""
    started = time.perf_counter()
    api = import_program()
    workload = workload_cls()
    workload.setup(api, seed, workdir)
    first = workload.batch(seed, 0)
    return time.perf_counter() - started, api, workload, first


class SetUps:
    """Set-ups spread evenly over a run, each between two queries.

    The host's speed drifts over tens of seconds; set-ups made back to
    back all land in one such phase, while spread ones sample the same
    phases the queries do.  Queries after a set-up use the fresh program.
    """

    def __init__(self, workload_cls, seed: int, workdir: str, seconds: float,
                 speed: Speed):
        self.args = (workload_cls, seed, workdir)
        self.speed = speed
        self.every = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.again()

    def again(self):
        self.speed.sample()
        seconds, self.api, self.workload, self.first = set_up(*self.args)
        self.times.append(self.speed.scale(seconds))
        self.last = time.perf_counter()

    def current(self):
        """The workload to use next, set up afresh when one is due."""
        if len(self.times) < SETUP_REPEATS and \
                time.perf_counter() - self.last >= self.every:
            self.again()
        return self.workload


class Batch:
    def __init__(self):
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at the nominal speed
        self.slots: list = []
        self.failures: list[str] = []
        self.search_queries = 0
        self.checks = 0
        self.layers = None       # tracer snapshot after the batch
        self.query_trace = None  # per-query layer deltas (first traced batch)


def play(workload, seed, first, budget, speed, tracer=None, max_batches=None,
         min_queries=1, setups=None) -> list:
    """Issue batches until the budget is spent and at least min_queries
    were issued; return one Batch each.  With ``setups``, set the program
    up again between queries whenever one is due."""
    started = time.perf_counter()
    batches: list[Batch] = []
    issued = 0
    while True:
        index = len(batches)
        queries = first if index == 0 else workload.batch(seed, index)
        batch = Batch()
        if tracer is not None:
            tracer.reset()
            if index == 0:
                batch.query_trace = []
        batch_started = time.perf_counter()
        for q in queries:
            speed.sample()
            before = tracer.snapshot() if batch.query_trace is not None else None
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out, err = workload.run(q), None
            except Exception as exc:  # a crash is a failed query, not a crashed run
                out, err = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            batch.wall_s += elapsed
            batch.latencies.append(elapsed)
            batch.scaled.append(speed.scale(elapsed))
            batch.slots.append(q.slot)
            if err is None:
                try:
                    err = workload.check(q, out)
                except Exception as exc:  # malformed output the gate could not read
                    err = f"gate could not read the output: {type(exc).__name__}: {exc}"
            if err is not None:
                batch.failures.append(f"{q.kind} {q.argv}: {err}")
            elif hasattr(workload, "checks"):
                batch.checks += workload.checks(out)
            batch.search_queries += q.kind in workload.search_kinds
            if before is not None:
                after = tracer.snapshot()
                batch.query_trace.append({
                    "query": len(batch.query_trace), "kind": q.kind,
                    "seconds": elapsed,
                    "layers": {name: [a - b for a, b in zip(after[name], before[name])]
                               for name in after if after[name] != before[name]}})
            if setups is not None:
                workload = setups.current()
        if tracer is not None:
            batch.layers = tracer.snapshot()
        batches.append(batch)
        issued += len(queries)
        last = time.perf_counter() - batch_started
        spent = time.perf_counter() - started
        if max_batches is not None and len(batches) >= max_batches:
            break
        if spent + last > budget and issued >= min_queries:
            break
    return batches


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def batch_wall_s(batches) -> float:
    """Time to answer one batch at the nominal speed.

    Every batch repeats the same slots (same shapes, other signs).  Within
    one run a query's latency still jitters by 10-20% faster than the
    reference can follow, so each slot's median over the batches is summed.
    """
    per_slot: dict = {}
    for b in batches:
        for slot, latency in zip(b.slots, b.scaled):
            per_slot.setdefault(slot, []).append(latency)
    return sum(statistics.median(v) for v in per_slot.values())


def end_to_end(batches, setup_s, peak_rss_mb):
    latencies = [x for b in batches for x in b.scaled]
    failed = sum(len(b.failures) for b in batches)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (batch_wall_s(batches), "s"),
        "verdict_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "verdict_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((len(latencies) - failed) / len(latencies), "ratio"),
    }


def per_layer(plain, traced, workload):
    """Per-layer metrics; counts come from the first traced batch, times are
    medians over the traced batches."""
    common = range(min(len(plain), len(traced)))
    first = traced[0].layers

    def count(name, field=0):
        return first[name][field]

    def self_s(name):
        return statistics.median(b.layers[name][3] for b in traced)

    def per_call(name, scale):
        return statistics.median(
            b.layers[name][3] / b.layers[name][0] * scale if b.layers[name][0] else 0.0
            for b in traced)

    def rate(values):
        return statistics.median(v / plain[i].wall_s for i, v in zip(common, values))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("syntax.parse", "syntax.free_variables", "translations.kripke_trick",
                 "translations.build_companion_model", "semantics.evaluate",
                 "semantics.valid_in_model", "semantics.validate_model",
                 "search.classical_evaluate", "cli.main"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["translations.companion_worlds"] = (
        count("translations.build_companion_model", 4), "count")
    m["semantics.evaluate.us_per_call"] = (per_call("semantics.evaluate", 1e6), "us")
    m["semantics.model_to_dict.self_s"] = (self_s("semantics.model_to_dict"), "s")
    m["search.frame_matches.calls"] = (count("search.frame_matches"), "count")
    for name in ("search.enumerate_frames", "search.enumerate_models"):
        m[f"{name}.yielded"] = (count(name, 1), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["search.frame_yield_ratio"] = (ratio(count("search.enumerate_frames", 1),
                                           count("search.frame_matches")), "ratio")
    m["search.models_per_s"] = (rate(traced[i].layers["search.enumerate_models"][1]
                                     for i in common), "1/s")
    m["search.models_per_verdict"] = (ratio(count("search.enumerate_models", 1),
                                            traced[0].search_queries), "count")
    for name in ("search.sat_bounded", "search.decide_valid_over_frame",
                 "search.eq_separation_search", "search.verdict_to_json",
                 "experiments.trick_experiment"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["experiments.enumerate_structures.yielded"] = (
        count("experiments.enumerate_structures", 1), "count")
    m["experiments.checks"] = (traced[0].checks, "count")
    m["experiments.checks_per_s"] = (rate(traced[i].checks for i in common), "1/s")
    m["cli.main.self_ms_per_call"] = (per_call("cli.main", 1e3), "ms")
    m["trace.overhead_ratio"] = (
        statistics.median(sum(traced[i].scaled) for i in common)
        / statistics.median(sum(plain[i].scaled) for i in common), "ratio")
    order = [k for prefix in workload.target_layers for k in m if k.startswith(prefix)]
    order += [k for k in m if k not in order]
    return {k: m[k] for k in dict.fromkeys(order)}


def revision() -> str:
    """The checkout's git revision, or "unknown" outside a repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "monotrick", "__init__.py")):
        print(f"error: no monotrick sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("MONOTRICK_MAX_STEPS", None)  # step caps change verdicts

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        speed = Speed()
        setups = SetUps(WORKLOADS[args.workload], args.seed, workdir, budget, speed)
        # Percentiles need MIN_QUERIES samples; the traced run reports none.
        plain = play(setups.workload, args.seed, setups.first, budget, speed,
                     min_queries=1 if args.trace else MIN_QUERIES, setups=setups)
        setup_s = statistics.median(setups.times)
        api, workload, first = setups.api, setups.workload, setups.first
        traced = []
        if args.trace:
            tracer = Tracer(api)
            tracer.install()
            try:
                traced = play(workload, args.seed, first, budget, speed, tracer,
                              max_batches=len(plain))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    batches = plain + traced
    failures = [f for b in batches for f in b.failures]
    attempted = sum(len(b.latencies) for b in batches)
    if args.trace:
        metrics = per_layer(plain, traced, workload)
        trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["calls", "yielded", "total_s", "self_s", "worlds"],
                       "queries": traced[0].query_trace}, fh)
    else:
        metrics = end_to_end(plain, setup_s, peak_rss_mb)
    for reason in failures[:FAILURES_SHOWN]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "revision": revision(), "workload": args.workload, "seed": args.seed,
        "batches": len(plain), "traced_batches": len(traced),
        "setups": len(setups.times),
        "verdict_samples": sum(len(b.latencies) for b in plain),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
