"""Record, or check against a record, the exit code and standard output of
every query in the first batch (batch 0) of each perfbench workload, seeds
1-3, with the experiment's ``wall_time`` blanked.

    PYTHONPATH=src python -m tests.batch_outputs --write DIR
    PYTHONPATH=src python -m tests.batch_outputs --check DIR

Run ``--write`` on the revision before a change and ``--check`` on the
change: a change that should not alter any output must reproduce every
record byte for byte.  ``--check`` exits 1 and names the differing
queries otherwise.  The queries come from ``perfbench/workloads.py``,
played through ``cli.main`` in process as the smoke test does.  This
module is not collected by pytest.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import re
import sys
import tempfile

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("syntax", "semantics", "translations", "search", "experiments",
           "cli")
WORKLOADS = ("sat-classes", "decide-frame", "trick-faithfulness")
SEEDS = (1, 2, 3)
WALL_TIME = re.compile(r'"wall_time": [-+0-9.eE]+')


def batch_outputs(name: str, seed: int) -> list:
    """[kind, argv, exit code, stdout] of each query of batch 0, in batch
    order; the work directory's path reads ``<workdir>``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    api = {module: importlib.import_module(f"monotrick.{module}")
           for module in MODULES}
    workload = workloads.WORKLOADS[name]()
    with tempfile.TemporaryDirectory() as workdir:
        workload.setup(api, seed, workdir)
        out = []
        for q in workload.batch(seed, 0):
            code, text = workload.run(q)
            text = WALL_TIME.sub('"wall_time": null', text)
            out.append([q.kind, [arg.replace(workdir, "<workdir>")
                                 for arg in q.argv or ()],
                        code, text.replace(workdir, "<workdir>")])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.batch_outputs", description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="DIR",
                        help="record the outputs in DIR")
    action.add_argument("--check", metavar="DIR",
                        help="compare the outputs with the record in DIR")
    args = parser.parse_args(argv)
    directory = pathlib.Path(args.write or args.check)
    if args.write:
        directory.mkdir(parents=True, exist_ok=True)
    differing = total = 0
    for name in WORKLOADS:
        for seed in SEEDS:
            path = directory / f"{name}-seed{seed}.json"
            outputs = batch_outputs(name, seed)
            total += len(outputs)
            if args.write:
                path.write_text(json.dumps(outputs, indent=1) + "\n",
                                encoding="utf-8")
                continue
            recorded = json.loads(path.read_text(encoding="utf-8"))
            if len(recorded) != len(outputs):
                print(f"{path.name}: {len(outputs)} queries, "
                      f"{len(recorded)} recorded")
                differing += 1
                continue
            for i, (got, want) in enumerate(zip(outputs, recorded)):
                if got != want:
                    print(f"{path.name}: query {i} ({' '.join(got[1])}) "
                          f"gives exit {got[2]}, recorded {want[2]}"
                          + ("" if got[3] == want[3] else "; stdout differs"))
                    differing += 1
    verb = "recorded" if args.write else "checked"
    print(f"{total} outputs {verb}; {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
