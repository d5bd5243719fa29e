"""Smoke test of the benchmark at its smallest size: the first batch of
seed 1 of each perfbench workload, played through ``cli.main`` in
process, must pass the benchmark's known-answer gate on every query and
check the pinned number of models."""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("syntax", "semantics", "translations", "search", "experiments",
           "cli")

# The models that sat and decide check (calls of search.first_point) in
# the first batch of seed 1.  A change that makes each model cheaper
# checks as many as before; the experiment searches no models.
MODELS_CHECKED = {"sat-classes": 3748, "decide-frame": 9719,
                  "trick-faithfulness": 0}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", tuple(MODELS_CHECKED))
def test_first_batch_passes_the_gate(workloads, name, tmp_path, monkeypatch):
    api = {module: importlib.import_module(f"monotrick.{module}")
           for module in MODULES}
    search = api["search"]
    checked = []

    def counting(m, compiled, value, worlds=None):
        checked.append(None)
        return first_point(m, compiled, value, worlds)
    first_point = search.first_point
    monkeypatch.setattr(search, "first_point", counting)
    workload = workloads.WORKLOADS[name]()
    workload.setup(api, 1, str(tmp_path))
    queries = workload.batch(1, 0)
    assert queries
    failures = [f"{q.kind} {q.argv}: {err}" for q in queries
                if (err := workload.check(q, workload.run(q))) is not None]
    assert failures == []
    assert len(checked) == MODELS_CHECKED[name]
