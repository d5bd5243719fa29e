import functools
import json
import pathlib

import pytest

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "golden_verdicts.json"


@functools.cache
def _golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_verdict(key):
    """Recorded JSON output of the query named key in tests/test_golden.py."""
    return _golden()[key]


def read_corpus(name):
    lines = (DATA / name).read_text().splitlines()
    stripped = (line.split("#", 1)[0].strip() for line in lines)
    return [line for line in stripped if line]


@pytest.fixture
def classical_corpus():
    return read_corpus("classical_corpus.txt")


@pytest.fixture
def graph_corpus():
    return read_corpus("graph_corpus.txt")


@pytest.fixture
def monadic_corpus():
    return read_corpus("monadic_corpus.txt")
