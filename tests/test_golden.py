"""Golden verdicts: fixed sat/decide/separate/experiment queries whose
JSON output must stay byte-identical across refactors of the search and
evaluator.  An experiment's ``wall_time`` is blanked.

The file ``tests/data/golden_verdicts.json`` was recorded from a trusted
revision with ``PYTHONPATH=src python -m tests.test_golden --write``.
"""

import json
import sys

import pytest

from monotrick.experiments import trick_experiment
from monotrick.search import (
    decide_valid_over_frame, eq_separation_search, parse_frame_class,
    sat_bounded,
)
from monotrick.semantics import Frame
from monotrick.syntax import parse
from monotrick.translations import Variant
from tests.conftest import GOLDEN_PATH, golden_verdict, read_corpus

CHAIN = Frame(("w0", "w1"), frozenset({("w0", "w1")}))
PREORDER_CHAIN = Frame(("w0", "w1"),
                       frozenset({("w0", "w0"), ("w0", "w1"), ("w1", "w1")}))
REFLEXIVE_POINT = Frame(("w0",), frozenset({("w0", "w0")}))
CHAIN3 = Frame(("w0", "w1", "w2"), frozenset({("w0", "w1"), ("w1", "w2")}))
PREORDER3 = Frame(("w0", "w1", "w2"), frozenset({
    ("w0", "w0"), ("w0", "w1"), ("w0", "w2"), ("w1", "w1"), ("w1", "w2"),
    ("w2", "w2")}))
DISCRETE2 = Frame(("w0", "w1"), frozenset())


def _sat(text, worlds=2, domain=2, cls="", **kwargs):
    return lambda: sat_bounded(parse(text), parse_frame_class(cls), worlds,
                               domain, **kwargs).to_json()


def _decide(frame, text, domain=2, **kwargs):
    return lambda: decide_valid_over_frame(frame, parse(text), domain,
                                           **kwargs).to_json()


def _separate(worlds, domain):
    return lambda: json.dumps(eq_separation_search(worlds, domain).to_dict(),
                              sort_keys=True, indent=2)


def _experiment(corpus, variant, size):
    return lambda: json.dumps(
        trick_experiment(read_corpus(corpus), variant, size).to_dict()
        | {"wall_time": None}, sort_keys=True, indent=2)


QUERIES = {
    "sat-modal-eq3-diamond-pair":
        _sat("exists x exists y <>(Q1(x) & Q2(y))"),
    "sat-modal-eq1-distinct-q":
        _sat("exists x exists y (~(x = y) & Q(x))", eq_principle="eq1"),
    "sat-modal-eq1-merge-later":
        _sat("exists x exists y (~(x = y) & <>(x = y))", eq_principle="eq1"),
    "sat-modal-eq2-merge-later":
        _sat("exists x exists y (~(x = y) & <>(x = y))", eq_principle="eq2"),
    "sat-modal-eq3-step-cap-12":
        _sat("exists x exists y (Q(x) & <>Q(y) & ~(x = y))", max_steps=12),
    "sat-modal-eq3-step-cap-exhausted":
        _sat("<>false", worlds=3, max_steps=5),
    # Without modalities the one-world scan, counting on its own, settles
    # a capped search.
    "sat-modal-eq3-step-cap-one-world":
        _sat("false", worlds=3, max_steps=5),
    "sat-modal-eq3-constant-domains":
        _sat("exists x <>~Q(x) & []exists y Q(y)", constant_domains=True),
    "sat-int-eq1-two-statuses":
        _sat("exists x ~Q(x) & exists y ~~Q(y)", mode="int",
             eq_principle="eq1"),
    "sat-int-eq3-negated-excluded-middle":
        _sat("~forall x (Q(x) | ~Q(x))", mode="int"),
    # First witnesses on 3-world frames: the search passes frames that are
    # isomorphic to earlier ones before it reaches them.
    "sat-modal-eq3-symmetric-three-worlds":
        _sat("p & ~q & <>(q & ~p) & <>(~p & ~q)", worlds=3, domain=1,
             cls="symmetric"),
    "sat-modal-eq1-serial-three-worlds":
        _sat("exists x exists y (p & ~(x = y) & <>(x = y) & "
             "<>(~p & ~(x = y)))", worlds=3, cls="serial", eq_principle="eq1"),
    "sat-modal-eq3-transitive-three-worlds":
        _sat("exists x (Q(x) & ~p & <>(~Q(x) & ~p) & <>(p & exists y ~Q(y)))",
             worlds=3, cls="transitive"),
    "sat-modal-eq2-preorder-three-worlds":
        _sat("exists x (Q(x) & ~p & <>(~Q(x) & ~p) & <>p)", worlds=3,
             cls="reflexive,transitive", eq_principle="eq2"),
    # Exhaustive searches: contradictions, so every frame up to the bound
    # is visited.
    "sat-int-eq1-contradiction-four-worlds":
        _sat("~((x = y) | ~(x = y))", worlds=4, mode="int",
             eq_principle="eq1"),
    "sat-int-eq3-contradiction-four-worlds":
        _sat("~forall x (Q(x) | ~Q(x)) & forall x (Q(x) | ~Q(x))", worlds=4,
             mode="int"),
    "sat-modal-eq3-unsatisfiable-three-worlds":
        _sat("<>exists x ~Q(x) & []forall x Q(x)", worlds=3),
    "decide-modal-eq3-chain-persistence":
        _decide(CHAIN, "forall x (Q(x) -> []Q(x))"),
    "decide-modal-eq1-chain-distinctness":
        _decide(CHAIN, "~(x = y) -> []~(x = y)", eq_principle="eq1"),
    "decide-modal-eq2-chain-distinctness":
        _decide(CHAIN, "~(x = y) -> []~(x = y)", eq_principle="eq2"),
    "decide-modal-eq3-chain-box-true":
        _decide(CHAIN, "[]true"),
    "decide-int-eq1-decidable-equality":
        _decide(PREORDER_CHAIN, "x = y | ~(x = y)", mode="int",
                eq_principle="eq1"),
    "decide-int-eq2-decidable-equality":
        _decide(PREORDER_CHAIN, "x = y | ~(x = y)", mode="int",
                eq_principle="eq2"),
    "decide-int-eq3-heuristic-bound":
        _decide(REFLEXIVE_POINT, "forall x (Q(x) | ~Q(x))", domain=None,
                mode="int"),
    "decide-modal-eq3-non-monadic":
        _decide(REFLEXIVE_POINT, "forall x forall y (P(x,y) -> P(x,y))",
                domain=1),
    # First countermodels and witnesses with two or more individuals
    # present in exactly the same worlds, so that renaming them gives
    # another model of the same domain assignment.  "[][]false" holds on
    # the chain's last two worlds, so those countermodels lie at w0.
    "decide-modal-eq3-chain3-domain3-same-layer":
        _decide(CHAIN3, "[][]false | forall x forall y (Q(x) <-> Q(y))",
                domain=3),
    "decide-modal-eq1-chain3-domain3-same-layer":
        _decide(CHAIN3, "[][]false | (~(x = y) -> []~(x = y))", domain=3,
                eq_principle="eq1"),
    "decide-modal-eq2-chain3-domain3-same-layer":
        _decide(CHAIN3, "[][]false | forall x forall y (x = y | Q(x) | Q(y))",
                domain=3, eq_principle="eq2"),
    "decide-modal-eq2-chain3-domain3-leibniz":
        _decide(CHAIN3, "x = y -> (<>Q(x) <-> <>Q(y))", domain=3,
                eq_principle="eq2"),
    "decide-modal-eq3-preorder3-constant-domains":
        _decide(PREORDER3, "forall x <>Q(x) -> <>forall x Q(x)", domain=3,
                constant_domains=True),
    "decide-int-eq3-preorder3-three-individuals":
        _decide(PREORDER3, "exists x exists y exists z (~(x = y) & ~(y = z) & "
                "~(x = z)) -> forall x (Q(x) | ~Q(x))", domain=3, mode="int"),
    "decide-int-eq1-preorder3-two-individuals":
        _decide(PREORDER3, "exists x exists y ~(x = y) -> (x = y | ~(x = y))",
                domain=3, mode="int", eq_principle="eq1"),
    "decide-int-eq2-preorder3-three-individuals":
        _decide(PREORDER3, "exists x exists y exists z (~(x = y) & ~(y = z) & "
                "~(x = z)) -> forall x (Q(x) | ~Q(x))", domain=3, mode="int",
                eq_principle="eq2"),
    "sat-modal-eq1-constant-domains-merge-later":
        _sat("exists x exists y (~(x = y) & Q(x) & ~Q(y) & <>(x = y))",
             constant_domains=True, eq_principle="eq1"),
    "sat-modal-eq2-constant-domains-swap":
        _sat("exists x exists y (Q(x) & ~Q(y) & <>(Q(y) & ~Q(x)))",
             constant_domains=True, eq_principle="eq2"),
    "sat-modal-eq3-three-individuals-domain3":
        _sat("exists x exists y exists z (~(x = y) & ~(y = z) & ~(x = z) & "
             "Q(x) & ~Q(y) & <>(Q(y) & ~Q(z)))", domain=3),
    "sat-int-eq2-two-individuals-domain3":
        _sat("exists x exists y (~(x = y) & Q(x) & ~Q(y))", domain=3,
             mode="int", eq_principle="eq2"),
    # eq2 with the equality observed: a 3-world witness with two
    # individuals that x = y must keep apart.
    "sat-modal-eq2-three-worlds-two-individuals":
        _sat("exists x exists y (~(x = y) & Q(x) & ~p & <>(~Q(x) & ~p) & "
             "<>(p & Q(y)))", worlds=3, eq_principle="eq2"),
    # Constant domains on a frame that is not connected: the first
    # countermodel merges a0 and a1 at w0, which its failing world w1
    # does not see.
    "decide-modal-eq2-disconnected-constant-domains":
        _decide(DISCRETE2, "x = y | ~q", constant_domains=True,
                eq_principle="eq2"),
    "separate-2-2": _separate(2, 2),
    "separate-3-2": _separate(3, 2),
    "separate-4-2": _separate(4, 2),
    "experiment-d2-classical-size3":
        _experiment("classical_corpus.txt", Variant.DIAMOND2, 3),
    "experiment-nd1-graph-size4":
        _experiment("graph_corpus.txt", Variant.NEG_DIAMOND1, 4),
}


@pytest.mark.parametrize("key", sorted(QUERIES))
def test_golden_verdict(key):
    assert QUERIES[key]() == golden_verdict(key)


def test_golden_file_covers_every_query():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        assert sorted(json.load(fh)) == sorted(QUERIES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({key: QUERIES[key]() for key in sorted(QUERIES)}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
