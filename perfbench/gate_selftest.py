#!/usr/bin/env python3
"""Show that the known-answer gate counts wrong answers as failures.

Run from the root of a checkout:

    python3 perfbench/gate_selftest.py

Each workload plays its first batch three times through the same loop
the benchmark uses: once as the program answered, once with outcomes
flipped, and once with witnesses corrupted.  The genuine pass must have
no failures; every tampered answer must be counted as one.  Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

FLIP = {"satisfiable": ("unsatisfiable_up_to_bound", 1),
        "unsatisfiable_up_to_bound": ("satisfiable", 0),
        "valid": ("countermodel", 1), "countermodel": ("valid", 0)}


def flip_outcome(q, out, donor):
    """A verdict with its outcome (and exit code) reversed."""
    code, text = out
    d = json.loads(text)
    if "outcome" in d:
        d["outcome"], code = FLIP[d["outcome"]]
    elif "agreement" in d:
        d["agreement"] -= 1
        d["disagreements"] = [{"formula": "tampered"}]
        code = 1
    else:
        d["eq2_not_eq1"] = "not found within bounds"
    return code, json.dumps(d)


def corrupt_witness(q, out, donor):
    """A witness that is malformed or belongs to another query."""
    if q.kind == "separate":
        return None
    d = json.loads(out[1])
    wit = d.get("witness")
    if wit is None:
        return None
    if donor is not None and q.kind == "pair":
        # The partner's witness satisfies the other half of the pair, so
        # here it re-evaluates to false.
        d["witness"] = donor
    else:
        wit["model"]["domains"][wit["world"]] = []
    return out[0], json.dumps(d)


class Tamper:
    """The workload, with each answer passed through ``tamper`` first."""

    def __init__(self, workload, tamper):
        self.workload, self.tamper = workload, tamper
        self.search_kinds = workload.search_kinds
        self.tampered = 0
        self.donors = {}

    def run(self, q):
        out = self.workload.run(q)
        donor = None
        if q.kind == "pair":
            psi = q.formula[1] if q.formula[0] == "not" else q.formula
            donor, self.donors[psi] = self.donors.get(psi), \
                json.loads(out[1]).get("witness")
        bad = self.tamper(q, out, donor)
        if bad is None:
            return out
        self.tampered += 1
        return bad

    def check(self, q, out):
        return self.workload.check(q, out)


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "monotrick", "__init__.py")):
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.WORKDIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return 0 if selftest(workdir) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selftest(workdir) -> bool:
    ok = True
    for name, cls in run.WORKLOADS.items():
        _, _, workload, first = run.set_up(cls, 1, workdir)
        for label, tamper in (("genuine", lambda q, out, donor: None),
                              ("flipped outcome", flip_outcome),
                              ("corrupted witness", corrupt_witness)):
            player = Tamper(workload, tamper)
            batches = run.play(player, 1, first, 0, run.Speed(), max_batches=1)
            failed = len(batches[0].failures)
            if label != "genuine" and player.tampered == 0:
                print(f"{name:20s} {label:18s} not applicable")
                continue
            good = failed == player.tampered
            ok &= good
            print(f"{name:20s} {label:18s} tampered {player.tampered:4d} "
                  f"counted {failed:4d} {'ok' if good else 'WRONG'}")
            for reason in batches[0].failures[:1]:
                print(f"    e.g. {reason[-110:]}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
