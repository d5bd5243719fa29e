"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
from itertools import product

from monotrick.experiments import trick_experiment
from monotrick.search import (
    FrameClass, _congruent, _domain_assignments, _equalities,
    _letter_options, classical_sat, decide_valid_over_frame,
    enumerate_frames, enumerate_models, eq_separation_search,
    frame_properties, sat_bounded,
)
from monotrick.semantics import (
    Equality, Frame, Model, evaluate, valid_in_model, validate_model,
)
from monotrick.syntax import (
    And, Atom, Eq, Exists, Falsum, Forall, Iff, Implies, Not, Or, Verum,
    classify, free_variables, parse,
)
from monotrick.translations import Variant
from tests.conftest import golden_verdict, read_corpus


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_01_diamond2_faithfulness():
    corpus = read_corpus("classical_corpus.txt")
    assert len(corpus) >= 20
    report = trick_experiment(corpus, Variant.DIAMOND2, 3)
    assert report.corpus_size == len(corpus)
    assert report.structure_count == 530
    assert report.disagreements == []
    assert report.agreement == report.corpus_size * 530
    assert report.wall_time < 60
    _ok(1, f"Diamond2: 100% agreement on {report.corpus_size} formulas x "
           f"530 structures in {report.wall_time:.1f}s")


def test_criterion_02_neg_diamond1_faithfulness():
    corpus = read_corpus("graph_corpus.txt")
    assert len(corpus) >= 10
    report = trick_experiment(corpus, Variant.NEG_DIAMOND1, 4)
    assert report.structure_count == 75
    assert report.disagreements == []
    assert report.agreement == report.corpus_size * 75
    assert report.wall_time < 120
    _ok(2, f"NegDiamond1: 100% agreement on {report.corpus_size} formulas x "
           f"75 structures in {report.wall_time:.1f}s")


def _upward_hereditary(model):
    for (w, v) in model.frame.access:
        for a in model.domains[w]:
            for b in model.domains[w]:
                if model.related(w, a, b) and not model.related(v, a, b):
                    return False
    return True


def _downward_hereditary(model):
    for (w, v) in model.frame.access:
        for a in model.domains[w]:
            for b in model.domains[w]:
                if model.related(v, a, b) and not model.related(w, a, b):
                    return False
    return True


def test_criterion_03_eq1_correspondence():
    formula = parse("x = y -> [](x = y)")
    cases = 0
    for fr in enumerate_frames(2, FrameClass()):
        for domains in _domain_assignments(fr, 2, constant=False):
            doms = tuple(map(domains.get, fr.worlds))
            families, _ = _letter_options(Frame(fr.worlds, frozenset()),
                                          doms, 1)
            for family in families:
                valuation = {w: {"Q": q} for w, q in zip(fr.worlds, family)}
                for _, eq in _congruent(fr, valuation,
                                        *_equalities(fr, doms, "any")[:2]):
                    model = Model(fr, dict(domains), valuation,
                                  Equality("eq1", eq.classes), "modal")
                    valid, _ = valid_in_model(model, formula)
                    assert valid == _upward_hereditary(model)
                    cases += 1
    _ok(3, f"Eq1 correspondence exact on {cases} models")


def test_criterion_04_intuitionistic_eq2_correspondence():
    formula = parse("x = y | ~(x = y)")
    preorders = FrameClass(frozenset({"reflexive", "transitive"}))
    cases = 0
    for fr in enumerate_frames(3, preorders):
        for model in enumerate_models(fr, {}, 2, "int", "eq1"):
            valid, _ = valid_in_model(model, formula)
            assert valid == _downward_hereditary(model)
            cases += 1
    _ok(4, f"intuitionistic Eq2 correspondence exact on {cases} models")


def test_criterion_05_serial_eq2_direction():
    formula = parse("(x = y) <-> [](x = y)")
    cases = 0
    for fr in enumerate_frames(3, FrameClass(frozenset({"serial"}))):
        for model in enumerate_models(fr, {}, 2, "modal", "eq2"):
            valid, witness = valid_in_model(model, formula)
            assert valid, witness
            cases += 1
    _ok(5, f"(x=y)<->[](x=y) valid in all {cases} serial Eq2 models")


def _int_formula(rng, depth, scope):
    kinds = ["atom", "eq", "true", "false"]
    if depth > 0:
        kinds += ["not", "and", "or", "implies", "forall", "exists"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return Atom(rng.choice(("Q1", "Q2")), (rng.choice(scope),))
    if kind == "eq":
        return Eq(rng.choice(scope), rng.choice(scope))
    if kind == "true":
        return Verum()
    if kind == "false":
        return Falsum()
    if kind == "not":
        return Not(_int_formula(rng, depth - 1, scope))
    if kind in ("forall", "exists"):
        var = rng.choice(("x", "y"))
        ctor = Forall if kind == "forall" else Exists
        return ctor(var, _int_formula(rng, depth - 1,
                                      sorted(set(scope) | {var})))
    ctor = {"and": And, "or": Or, "implies": Implies}[kind]
    return ctor(_int_formula(rng, depth - 1, scope),
                _int_formula(rng, depth - 1, scope))


def test_criterion_06_heredity_lemma():
    rng = random.Random(20260823)
    pool = [_int_formula(rng, 3, ["x", "y"]) for _ in range(10000)]
    preorders = FrameClass(frozenset({"reflexive", "transitive"}))
    models = [m for fr in enumerate_frames(3, preorders)
              for m in enumerate_models(fr, {"Q1": 1, "Q2": 1}, 2, "int", "eq1")]
    per_model = max(1, math.ceil(10000 / len(models)))
    checks = 0
    used = set()
    for i, model in enumerate(models):
        for j in range(per_model):
            idx = (i * per_model + j) % len(pool)
            used.add(idx)
            f = pool[idx]
            fv = sorted(free_variables(f))
            truth = {}
            for w in model.frame.worlds:
                for combo in product(model.domains[w], repeat=len(fv)):
                    truth[w, combo] = evaluate(model, w, dict(zip(fv, combo)), f)
            for (w, v) in model.frame.access:
                for combo in product(model.domains[w], repeat=len(fv)):
                    assert not truth[w, combo] or truth[v, combo], \
                        (str(f), w, v, combo)
            checks += 1
    assert len(used) >= 10000 or len(used) == len(pool)
    assert checks >= 10000
    _ok(6, f"heredity holds in {checks} (model, formula) checks over "
           f"{len(models)} models and {len(used)} formulas")


def test_criterion_07_dualities():
    from tests.test_syntax import random_formula
    rng = random.Random(977)
    frames = list(enumerate_frames(2, FrameClass()))
    cases = 0
    while cases < 1000:
        fr = rng.choice(frames)
        domains = {w: tuple(f"a{i}" for i in range(rng.randint(1, 2)))
                   for w in fr.worlds}
        for (w, v) in fr.access:  # force expanding domains
            if len(domains[w]) > len(domains[v]):
                domains[v] = domains[w]
        valuation = {
            w: {"Q1": frozenset((a,) for a in domains[w] if rng.random() < .5),
                "p": frozenset([()] if rng.random() < .5 else [])}
            for w in fr.worlds
        }
        from monotrick.semantics import identity_partition
        model = Model(fr, domains, valuation,
                      Equality("eq3", {w: identity_partition(domains[w])
                                       for w in fr.worlds}), "modal")
        assert validate_model(model) == []
        f = random_formula(rng, 3, ["x"])
        if "P(" in str(f):
            continue
        w = rng.choice(fr.worlds)
        sigma = {x: rng.choice(domains[w]) for x in ("x", "y", "z", "u")}
        assert evaluate(model, w, sigma, parse(f"<>({f})")) == \
            evaluate(model, w, sigma, parse(f"~[]~({f})"))
        assert evaluate(model, w, sigma, parse(f"exists x ({f})")) == \
            evaluate(model, w, sigma, parse(f"~forall x ~({f})"))
        cases += 1
    _ok(7, f"modal and quantifier dualities agree on {cases} sampled cases")


CLASSIFIER_TABLE = [
    ("<>(Q1(x) & Q2(y))",
     dict(is_monadic=True, is_monodic=False, is_positive=True,
          has_equality=False, variable_count=2, modal_depth=1,
          max_letter_arity=1)),
    ("[]P(x,y)",
     dict(is_monadic=False, is_monodic=False, is_positive=True,
          has_equality=False, variable_count=2, modal_depth=1,
          max_letter_arity=2)),
    ("(Q1(x) & Q2(y) -> p) | q",
     dict(is_monadic=True, is_monodic=True, is_positive=True,
          has_equality=False, variable_count=2, modal_depth=0,
          max_letter_arity=1)),
    ("forall x []Q(x)",
     dict(is_monadic=True, is_monodic=True, is_positive=True,
          has_equality=False, variable_count=1, modal_depth=1,
          max_letter_arity=1)),
    ("~<>(Q(x) & Q(y))",
     dict(is_monadic=True, is_monodic=False, is_positive=False,
          has_equality=False, variable_count=2, modal_depth=1,
          max_letter_arity=1)),
    ("x = y -> [](x = y)",
     dict(is_monadic=True, is_monodic=False, is_positive=True,
          has_equality=True, variable_count=2, modal_depth=1,
          max_letter_arity=0)),
    ("forall x (Q(x) -> <>Q(x))",
     dict(is_monadic=True, is_monodic=True, is_positive=True,
          has_equality=False, variable_count=1, modal_depth=1,
          max_letter_arity=1)),
    ("P(x,y) & R(x,y,x)",
     dict(is_monadic=False, is_monodic=True, is_positive=True,
          has_equality=False, variable_count=2, modal_depth=0,
          max_letter_arity=3)),
    ("false -> p",
     dict(is_monadic=True, is_monodic=True, is_positive=False,
          has_equality=False, variable_count=0, modal_depth=0,
          max_letter_arity=0)),
    ("forall x exists y <>(Q1(x) & Q2(y))",
     dict(is_monadic=True, is_monodic=False, is_positive=True,
          has_equality=False, variable_count=2, modal_depth=1,
          max_letter_arity=1)),
]


def test_criterion_08_classifier_table():
    assert len(CLASSIFIER_TABLE) == 10
    for text, expected in CLASSIFIER_TABLE:
        assert classify(parse(text)).to_dict() == expected, text
    _ok(8, "classifier table of 10 labelled formulas matches exactly")


def test_criterion_09_fixed_frame_oracle_agreement():
    corpus = read_corpus("monadic_corpus.txt")
    assert len(corpus) >= 15
    point = Frame(("w0",), frozenset({("w0", "w0")}))
    for text in corpus:
        f = parse(text)
        assert classify(f).is_monadic
        verdict = decide_valid_over_frame(point, f, 3, eq_principle="eq3")
        counter = classical_sat(Not(f), 3)
        assert (verdict.outcome == "valid") == (counter is None), text
    _ok(9, f"fixed-frame decision agrees with the classical oracle on "
           f"{len(corpus)} monadic formulas")


def test_criterion_10_witness_integrity_and_determinism():
    chain = Frame(("w0", "w1"), frozenset({("w0", "w1")}))
    calls = {
        "sat-modal-eq3-diamond-pair": lambda: sat_bounded(
            parse("exists x exists y <>(Q1(x) & Q2(y))"), FrameClass(), 2, 2),
        "sat-modal-eq1-distinct-q": lambda: sat_bounded(
            parse("exists x exists y (~(x = y) & Q(x))"),
            FrameClass(), 2, 2, eq_principle="eq1"),
        "decide-modal-eq3-chain-persistence": lambda: decide_valid_over_frame(
            chain, parse("forall x (Q(x) -> []Q(x))"), 2),
        "decide-modal-eq1-chain-distinctness": lambda: decide_valid_over_frame(
            chain, parse("~(x = y) -> []~(x = y)"), 2, eq_principle="eq1"),
        "decide-modal-eq3-chain-box-true": lambda: decide_valid_over_frame(
            chain, parse("[]true"), 2),
    }
    witnesses = 0
    for key, call in calls.items():
        first = call()
        assert first.to_json() == call().to_json() == golden_verdict(key)
        if first.model is not None:
            assert validate_model(first.model) == []
            witnesses += 1
    # re-evaluate each witness against its own formula
    pairs = [
        (sat_bounded(parse("exists x exists y <>(Q1(x) & Q2(y))"),
                     FrameClass(), 2, 2),
         parse("exists x exists y <>(Q1(x) & Q2(y))"), True),
        (decide_valid_over_frame(chain, parse("forall x (Q(x) -> []Q(x))"), 2),
         parse("forall x (Q(x) -> []Q(x))"), False),
        (decide_valid_over_frame(chain, parse("~(x = y) -> []~(x = y)"), 2,
                                 eq_principle="eq1"),
         parse("~(x = y) -> []~(x = y)"), False),
    ]
    for verdict, f, claimed in pairs:
        assert verdict.model is not None
        assert validate_model(verdict.model) == []
        assert evaluate(verdict.model, verdict.world, verdict.assignment,
                        f) is claimed
    _ok(10, f"{witnesses + len(pairs)} witnesses re-validate; repeated "
            f"verdicts byte-identical to the golden ones on {len(calls)} calls")


def test_criterion_11_eq_separation_harness():
    report = eq_separation_search(world_bound=3, domain_bound=2)
    d = report.to_dict()
    assert "eq3_not_eq2" in d and "eq2_not_eq1" in d  # no silent success
    for key in ("eq3_not_eq2", "eq2_not_eq1"):
        entry = d[key]
        if isinstance(entry, str):
            assert entry == "not found within bounds"
        else:
            assert entry["reverified"] is True
    finding = report.eq2_not_eq1
    assert finding is not None and finding.reverified
    lines = []
    for key in ("eq3_not_eq2", "eq2_not_eq1"):
        entry = d[key]
        lines.append(f"{key}: " + (entry if isinstance(entry, str)
                                   else f"found {entry['formula']!r}"))
    _ok(11, "; ".join(lines))
