"""The benchmark's tracer looks each layer it wraps up by name, so a
function that is renamed or deleted shows only in a traced run.  Play the
first queries of each workload with the tracer installed: every name must
resolve, every query must pass the known-answer gate, and uninstalling
must put every wrapped attribute back."""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("syntax", "semantics", "translations", "search", "experiments",
           "cli")
QUERIES = 8


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("workloads"),
               importlib.import_module("tracing"))
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_queries_pass_the_gate_and_the_tracer_uninstalls(perfbench,
                                                                tmp_path):
    workloads, tracing = perfbench
    api = {module: importlib.import_module(f"monotrick.{module}")
           for module in MODULES}
    wrapped = {attr for _, _, attr, _, _ in tracing.TARGETS}
    bindings = {(name, attr): getattr(module, attr)
                for name, module in api.items() for attr in wrapped
                if hasattr(module, attr)}
    verdict = api["search"].Verdict
    to_json = vars(verdict)["to_json"]

    tracer = tracing.Tracer(api)
    tracer.install()
    failures, companion_calls = [], {}
    try:
        for name, make in workloads.WORKLOADS.items():
            workload = make()
            workdir = tmp_path / name
            workdir.mkdir()
            workload.setup(api, 1, str(workdir))
            tracer.reset()
            for q in workload.batch(1, 0)[:QUERIES]:
                tracer.active = True
                try:
                    out = workload.run(q)
                finally:
                    tracer.active = False
                err = workload.check(q, out)
                if err is not None:
                    failures.append(f"{name} {q.kind} {q.argv}: {err}")
            companion_calls[name] = \
                tracer.stats["translations.build_companion_model"].calls
    finally:
        tracer.uninstall()

    assert failures == []
    assert all(getattr(api[name], attr) is original
               for (name, attr), original in bindings.items())
    assert vars(verdict)["to_json"] is to_json
    assert companion_calls["trick-faithfulness"] > 0
