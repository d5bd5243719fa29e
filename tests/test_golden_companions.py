"""Golden companion models: the ``model_to_dict`` of the companion model
of every class representative that ``trick_experiment`` checks, which
must stay identical across refactors of the companion construction.

Cases: d2 at size 3 and nd1 at size 4 with the default naming scheme,
and d2 at size 2 and nd1 at size 3 with the scheme ``fresh_scheme``
gives a sentence over ``Q1`` (``Q1_1``, ``Q2_1``, ``Q_1``, ...).

The file ``tests/data/golden_companions.json`` was recorded from a
trusted revision with
``PYTHONPATH=src python -m tests.test_golden_companions --write``.
"""

import json
import sys
from itertools import product

import pytest

from monotrick import experiments, semantics
from monotrick.semantics import Frame, model_to_dict, validate_model
from monotrick.syntax import parse
from monotrick.translations import (
    NamingScheme, Variant, build_companion_model, fresh_scheme,
)
from tests.conftest import DATA, read_corpus

GOLDEN_COMPANIONS_PATH = DATA / "golden_companions.json"
Q1_SCHEME = fresh_scheme(parse("exists x exists y Q1(x,y)"))
CASES = {
    "d2-size3": (Variant.DIAMOND2, 3, NamingScheme()),
    "nd1-size4": (Variant.NEG_DIAMOND1, 4, NamingScheme()),
    "d2-size2-Q1_1": (Variant.DIAMOND2, 2, Q1_SCHEME),
    "nd1-size3-Q1_1": (Variant.NEG_DIAMOND1, 3, Q1_SCHEME),
}


def _representatives(variant, size):
    """The least-labelled member of each class, in the experiment's order."""
    symmetric = variant is Variant.NEG_DIAMOND1
    _, classes = experiments._classes(size, symmetric)
    return [experiments._structure(n, mask) for _, n, mask, _ in classes]


def _companions(key):
    variant, size, scheme = CASES[key]
    return [build_companion_model(s, variant, scheme)
            for s in _representatives(variant, size)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_COMPANIONS_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert Q1_SCHEME.q1 == "Q1_1"


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden_companions(golden, key):
    companions = _companions(key)
    assert len(companions) == len(golden[key])
    for (model, root), recorded in zip(companions, golden[key]):
        assert root == "root"
        assert validate_model(model) == []
        # Key order too: the CLI prints these dicts as they are.
        assert json.dumps(model_to_dict(model)) == json.dumps(recorded)


@pytest.mark.parametrize("key", ["d2-size3", "nd1-size4"])
def test_companion_frames_are_frames_of_all_pairs(key):
    """Each representative's companion frame compares, hashes and prints
    as the plain Frame of all pairs of its worlds, and has its
    successors."""
    for model, _ in _companions(key):
        frame = model.frame
        plain = Frame(frame.worlds, frozenset(product(frame.worlds, repeat=2)))
        assert frame == plain and plain == frame
        assert hash(frame) == hash(plain)
        assert repr(frame) == repr(plain)
        assert frame.succ == plain.succ


@pytest.mark.parametrize("corpus, key", [("classical_corpus.txt", "d2-size3"),
                                         ("graph_corpus.txt", "nd1-size4")])
def test_experiment_builds_no_edge_set_and_no_block_map(monkeypatch, golden,
                                                        corpus, key):
    """trick_experiment reads a companion's successors, domains and
    valuation only: over a whole corpus it makes no block map and no
    companion's edge set.  model_to_dict then makes the edge set, and
    prints the golden companion."""
    variant, size, _ = CASES[key]
    built, block_maps = [], []
    build, block_map = experiments.build_companion_model, semantics.block_map

    def recording_build(*args):
        model, root = build(*args)
        built.append(model)
        return model, root

    def counting_block_map(partition):
        block_maps.append(partition)
        return block_map(partition)
    monkeypatch.setattr(experiments, "build_companion_model", recording_build)
    monkeypatch.setattr(semantics, "block_map", counting_block_map)
    report = experiments.trick_experiment(read_corpus(corpus), variant, size)
    assert report.disagreements == [] and report.skipped == []
    assert len(built) == len(golden[key])
    assert len(block_maps) == 0
    assert sum("access" in vars(model.frame) for model in built) == 0
    for model, recorded in zip(built, golden[key]):
        assert json.dumps(model_to_dict(model)) == json.dumps(recorded)
    assert sum("access" in vars(model.frame) for model in built) == len(built)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_companions --write")
    with open(GOLDEN_COMPANIONS_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: [\n" + ",\n".join(
                json.dumps(model_to_dict(model))
                for model, _ in _companions(key)) + "\n]"
            for key in CASES) + "\n}\n")
