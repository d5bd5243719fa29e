"""Smoke test of the benchmark at its smallest size: the first batch of
seed 1 of each perfbench workload, played through ``cli.main`` in
process, must pass the benchmark's known-answer gate on every query."""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("syntax", "semantics", "translations", "search", "experiments",
           "cli")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ("sat-classes", "decide-frame",
                                  "trick-faithfulness"))
def test_first_batch_passes_the_gate(workloads, name, tmp_path):
    api = {module: importlib.import_module(f"monotrick.{module}")
           for module in MODULES}
    workload = workloads.WORKLOADS[name]()
    workload.setup(api, 1, str(tmp_path))
    queries = workload.batch(1, 0)
    assert queries
    failures = [f"{q.kind} {q.argv}: {err}" for q in queries
                if (err := workload.check(q, workload.run(q))) is not None]
    assert failures == []
