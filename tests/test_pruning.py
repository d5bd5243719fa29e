"""Differential tests for the search shortcuts: frames searched once per
isomorphism class and only when point-generated, intuitionistic searches
on one world, models checked once per renaming of individuals, equality
relations built once per domain assignment, and what a formula cannot
observe skipped (the equality without ``=``, twin individuals without
``=`` and binary letters, the frame's other worlds without modalities),
eq2 searched as its eq3 quotient, and each model tested only at the
worlds whose view can hold the first hit.  Each is compared with a naive
test-side reference."""

import json
import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from monotrick import cli, search
from monotrick.search import (
    PROPERTY_NAMES, FrameClass, Verdict, _set_partitions,
    decide_valid_over_frame,
    enumerate_frames, enumerate_frames_up_to_iso, enumerate_models,
    eq_separation_search, frame_matches, parse_frame_class, sat_bounded,
)
from monotrick.semantics import (
    Equality, Frame, Model, evaluate, first_point, model_to_dict,
    valid_in_model, validate_model,
)
from monotrick.syntax import free_variables, letters, modal_depth, parse
from tests.test_syntax import random_formula

CLASSES = ("", "reflexive", "serial", "symmetric", "transitive",
           "reflexive,transitive")
PREORDERS = FrameClass(frozenset({"reflexive", "transitive"}))
PRINCIPLES = ("eq1", "eq2", "eq3")

# (mode, formula, domain bound, principles).  Under those principles the
# modal formulas first hold on three worlds in most classes (the second
# one nowhere on symmetric frames, whose domains are constant on three
# worlds); the third needs eq1, which lets x = y start after an edge.
# Intuitionistic truth persists upwards, so a satisfiable formula holds on
# one world; the second one is unsatisfiable, so its search is exhaustive.
SAT_CASES = [
    (mode, text, domain, eq)
    for mode, text, domain, principles in (
        ("modal", "p & ~q & <>(q & ~p) & <>(~p & ~q)", 1, PRINCIPLES),
        ("modal", "exists x (p & <>(~p & exists z ~(z = x)) & "
                  "<>(~p & forall z (z = x)))", 2, PRINCIPLES),
        ("modal", "exists x exists y (p & ~(x = y) & <>(x = y) & "
                  "<>(~p & ~(x = y)))", 2, ("eq1",)),
        ("int", "exists x ~Q(x) & ~~exists y Q(y)", 2, PRINCIPLES),
        ("int", "~((x = y) | ~(x = y))", 2, PRINCIPLES),
    )
    for eq in principles
]


def reference_sat(f, cls, world_bound, domain_bound, mode, eq_principle,
                  constant=False):
    """sat_bounded over every labelled frame, checking points through the
    checked evaluate()."""
    if mode == "int":
        cls = cls.with_properties("reflexive", "transitive")
    bounds = {"world_bound": world_bound, "domain_bound": domain_bound,
              "mode": mode, "eq_principle": eq_principle,
              "constant_domains": constant}
    free = sorted(free_variables(f))
    for fr in enumerate_frames(world_bound, cls):
        for m in enumerate_models(fr, letters(f), domain_bound, mode,
                                  eq_principle, constant):
            for w in fr.worlds:
                for values in product(m.domains[w], repeat=len(free)):
                    sigma = dict(zip(free, values))
                    if evaluate(m, w, sigma, f):
                        return Verdict("satisfiable", bounds, model=m,
                                       world=w, assignment=sigma).to_json()
    return Verdict("unsatisfiable_up_to_bound", bounds).to_json()


@pytest.mark.parametrize("mode,text,domain,eq_principle", SAT_CASES)
def test_sat_matches_unpruned_reference(mode, text, domain, eq_principle):
    f = parse(text)
    for cls_text in CLASSES:
        cls = parse_frame_class(cls_text)
        got = sat_bounded(f, cls, 3, domain, mode, eq_principle).to_json()
        assert got == reference_sat(f, cls, 3, domain, mode, eq_principle), \
            cls_text


def _every_world(frames):
    """A _generated_frames that yields each of frames with all its worlds."""
    return lambda world_bound, cls=FrameClass(): (
        (fr, fr.worlds) for fr in frames(world_bound, cls))


def test_separation_matches_unpruned_search(monkeypatch):
    pruned = eq_separation_search(3, 2).to_dict()
    monkeypatch.setattr(search, "_generated_frames",
                        _every_world(enumerate_frames_up_to_iso))
    assert json.dumps(pruned, sort_keys=True) == \
        json.dumps(eq_separation_search(3, 2).to_dict(), sort_keys=True)


def test_separation_matches_search_of_every_frame(monkeypatch):
    pruned = eq_separation_search(3, 2).to_dict()
    monkeypatch.setattr(search, "_generated_frames",
                        _every_world(enumerate_frames))
    assert json.dumps(pruned, sort_keys=True) == \
        json.dumps(eq_separation_search(3, 2).to_dict(), sort_keys=True)


def test_generated_frames_counts():
    per_size = Counter(len(fr.worlds) for fr, _ in search._generated_frames(3))
    assert per_size == {1: 2, 2: 7, 3: 80}
    per_size = Counter(len(fr.worlds)
                       for fr, _ in search._generated_frames(3, PREORDERS))
    assert per_size == {1: 1, 2: 2, 3: 5}
    # Point-generated digraphs with loops on 4 nodes, up to isomorphism.
    assert sum(1 for _ in search._generated_frames(4)) == 2727


def _mask(fr, rename):
    index = {w: i for i, w in enumerate(fr.worlds)}
    n = len(fr.worlds)
    return sum(1 << (n * rename[index[a]] + rename[index[b]])
               for a, b in fr.access)


def _reachable(fr, w):
    seen, todo = {w}, [w]
    while todo:
        for v in fr.succ[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _connected(fr):
    """Whether the frame is connected, edges taken in either direction."""
    both_ways = Frame(fr.worlds, fr.access | {(b, a) for a, b in fr.access})
    return _reachable(both_ways, fr.worlds[0]) == set(fr.worlds)


def _brute_generated_frames(world_bound, cls=FrameClass()):
    """(frame, roots) of each frame of enumerate_frames that is least
    labelled (no renaming of the worlds lowers the mask) and has roots,
    the worlds that reach every world."""
    out = []
    for fr in enumerate_frames(world_bound, cls):
        roots = [w for w in fr.worlds if _reachable(fr, w) == set(fr.worlds)]
        if roots and all(_mask(fr, range(len(fr.worlds))) <= _mask(fr, p)
                         for p in permutations(range(len(fr.worlds)))):
            out.append((fr, roots))
    return out


def test_generated_frames_match_brute_force():
    """Least labelled and generated by one of its worlds, in the order of
    enumerate_frames, each with the worlds that generate it."""
    assert list(search._generated_frames(3)) == _brute_generated_frames(3)


@pytest.mark.parametrize("cls_text", (*PROPERTY_NAMES, "alt_1", "alt_2"))
def test_generated_frames_of_each_class_match_brute_force(cls_text):
    cls = parse_frame_class(cls_text)
    assert list(search._generated_frames(3, cls)) == \
        _brute_generated_frames(3, cls)


def test_connected_matches_brute_force():
    frames = list(enumerate_frames(3))
    assert [search._connected(fr) for fr in frames] == \
        [_connected(fr) for fr in frames]
    assert not all(map(search._connected, frames))


@pytest.mark.parametrize("eq", PRINCIPLES)
def test_int_sat_searches_one_world(capsys, eq):
    """An intuitionistic contradiction at 6 worlds gets the verdict it gets
    at 1 world; only world_bound differs.  It finishes because only the
    one-world frame is searched: all frames of 6 worlds are 2^36 masks."""
    def sat(worlds):
        code = cli.main(["sat", "--json", "--mode", "int", "--eq", eq,
                         "--worlds", str(worlds), "--domain", "2",
                         "~((x = y) | ~(x = y)) & exists x ~~Q(x)"])
        return code, json.loads(capsys.readouterr().out)

    code6, six = sat(6)
    code1, one = sat(1)
    assert code6 == code1 == 1
    assert six["bounds_used"].pop("world_bound") == 6
    assert one["bounds_used"].pop("world_bound") == 1
    assert six == one


def test_frames_up_to_iso_counts():
    # Digraphs with loops up to isomorphism: OEIS A000595.
    per_size = Counter(len(fr.worlds) for fr in enumerate_frames_up_to_iso(3))
    assert per_size == {1: 2, 2: 10, 3: 104}
    # Preorders up to isomorphism: 1 + 3 + 9.
    assert sum(1 for _ in enumerate_frames_up_to_iso(3, PREORDERS)) == 13


def test_frames_up_to_iso_keep_enumeration_order():
    cls = parse_frame_class("serial")
    full = list(enumerate_frames(3, cls))
    kept = list(enumerate_frames_up_to_iso(3, cls))
    positions = [full.index(fr) for fr in kept]
    assert positions == sorted(positions)
    assert all(frame_matches(fr, cls) for fr in kept)


def _subsets(items):
    items = sorted(items)
    return [frozenset(t for i, t in enumerate(items) if mask >> i & 1)
            for mask in range(1 << len(items))]


def naive_models(fr, letter_arities, domain_bound, mode, eq_principle):
    """Every domain assignment, valuation and per-world partition, in the
    enumeration order, kept when validate_model finds nothing wrong."""
    pool = tuple(f"a{i}" for i in range(domain_bound))
    names = sorted(letter_arities)
    out = []
    for sizes in product(range(1, domain_bound + 1), repeat=len(fr.worlds)):
        domains = {w: pool[:s] for w, s in zip(fr.worlds, sizes)}
        per_letter = [
            list(product(*(_subsets(product(domains[w],
                                            repeat=letter_arities[name]))
                           for w in fr.worlds)))
            for name in names]
        partitions = [list(_set_partitions(domains[w])) for w in fr.worlds]
        for combo in product(*per_letter):
            valuation = {w: {name: combo[k][i] for k, name in enumerate(names)}
                         for i, w in enumerate(fr.worlds)}
            for parts in product(*partitions):
                m = Model(fr, domains, valuation,
                          Equality(eq_principle, dict(zip(fr.worlds, parts))),
                          mode)
                if validate_model(m) == []:
                    out.append(model_to_dict(m))
    return out


@pytest.mark.parametrize("eq_principle", PRINCIPLES)
@pytest.mark.parametrize("mode", ("modal", "int"))
def test_enumerate_models_matches_naive_enumeration(mode, eq_principle):
    """Every model is kept before any is read, so a model that the
    enumeration changes after yielding it would show."""
    arities = {"Q": 1, "p": 0}
    for fr in enumerate_frames(2):
        if mode == "int" and not frame_matches(fr, PREORDERS):
            continue
        models = list(enumerate_models(fr, arities, 2, mode, eq_principle))
        got = [model_to_dict(m) for m in models]
        assert got == naive_models(fr, arities, 2, mode, eq_principle), \
            sorted(fr.access)


CHAIN3 = Frame(("w0", "w1", "w2"), frozenset({("w0", "w1"), ("w1", "w2")}))
PREORDER3 = Frame(("w0", "w1", "w2"), frozenset({
    ("w0", "w0"), ("w0", "w1"), ("w0", "w2"), ("w1", "w1"), ("w1", "w2"),
    ("w2", "w2")}))
DECIDE_FRAMES = [*enumerate_frames(2), CHAIN3, PREORDER3]

# Formulas whose countermodels need two individuals at one world, so that
# the first one often has two individuals present in the same worlds,
# next to formulas valid in every model (whose search walks every model).
# Then formulas that cannot observe part of a model: without a modality
# (the frame's other worlds, in modal mode), without = (the equality) and,
# with letters at most unary, without = (twin individuals).  Some need an
# equality, a second individual or an edge for their first countermodel.
DECIDE_CASES = {
    "modal": ("forall x forall y (x = y) | <>exists x Q(x)",
              "[]false | forall x forall y (Q(x) <-> Q(y))",
              "~(x = y) -> [](~(x = y) & (Q(x) -> Q(y)))",
              "x = y -> (Q(x) <-> Q(y))",
              "forall x forall y (x = y) | p",
              "forall x Q(x) | exists x ~Q(x)",
              "exists x Q(x) -> forall x Q(x)",
              "forall x (Q(x) -> []Q(x))",
              "[]forall x Q(x) -> forall x []Q(x)",
              "~(forall x exists y P(x,y) & forall x ~P(x,x))"),
    "int": ("exists x exists y ~(x = y) -> forall x (Q(x) | ~Q(x))",
            "forall x forall y (x = y | ~(x = y) | Q(x))",
            "x = y -> (Q(x) -> Q(y))",
            "p | ~p",
            "forall x (Q(x) | ~Q(x))",
            "forall x Q(x) -> exists x Q(x)",
            "x = y | ~(x = y)",
            "~(forall x exists y P(x,y) & forall x ~P(x,x))"),
}


def test_cached_option_tables_give_the_same_verdicts_in_any_order():
    """The option tables are built once and shared: searches from cold
    tables and, in reverse order, from tables the other searches built
    give byte-identical verdicts, and enumerate_models yields the same
    models before and after the searches.  Both caches are bounded, with
    room to spare for these searches."""
    queries = [
        lambda: sat_bounded(parse("exists x exists y (~(x = y) & <>(x = y))"),
                            FrameClass(), 2, 2, eq_principle="eq1"),
        lambda: sat_bounded(parse("exists x (Q(x) & <>~Q(x) & <>Q(x))"),
                            FrameClass(), 3, 2),
        lambda: sat_bounded(parse("exists x ~Q(x) & ~~exists y Q(y)"),
                            PREORDERS, 2, 2, "int", "eq1"),
        lambda: decide_valid_over_frame(CHAIN3, parse(DECIDE_CASES["modal"][2]),
                                        2, eq_principle="eq1"),
        lambda: decide_valid_over_frame(CHAIN3, parse(DECIDE_CASES["modal"][9]),
                                        2),
        lambda: decide_valid_over_frame(PREORDER3, parse("x = y | ~(x = y)"),
                                        2, "int", "eq1"),
        lambda: decide_valid_over_frame(PREORDER3, parse("forall x Q(x) | "
                                                         "~forall x Q(x)"),
                                        2, "int"),
    ]

    def models():
        return [model_to_dict(m) for fr, mode in ((CHAIN3, "modal"),
                                                  (PREORDER3, "int"))
                for m in enumerate_models(fr, {"Q": 1}, 2, mode, "eq1")]

    search._letter_options.cache_clear()
    search._equalities.cache_clear()
    before = models()
    forward = [query().to_json() for query in queries]
    backward = [query().to_json() for query in reversed(queries)]
    assert forward == backward[::-1]
    assert [json.loads(v)["outcome"] for v in forward] == [
        "satisfiable", "satisfiable", "satisfiable", "countermodel",
        "countermodel", "countermodel", "countermodel"]
    assert models() == before
    for table in (search._letter_options, search._equalities):
        maxsize = table.cache_parameters()["maxsize"]
        assert maxsize is not None
        assert table.cache_info().currsize < maxsize


def reference_decide(fr, f, domain_bound, mode, eq_principle, constant):
    """decide_valid_over_frame over every model of enumerate_models."""
    bounds = {"domain_bound": domain_bound, "mode": mode,
              "eq_principle": eq_principle, "constant_domains": constant,
              "domain_bound_heuristic": False}
    warnings = [] if max(letters(f).values(), default=0) <= 1 else [
        "formula is not monadic; the fixed-frame decidability guarantee "
        "does not apply"]
    for m in enumerate_models(fr, letters(f), domain_bound, mode,
                              eq_principle, constant):
        ok, witness = valid_in_model(m, f)
        if not ok:
            w, sigma = witness
            return Verdict("countermodel", bounds, model=m, world=w,
                           assignment=sigma, warnings=warnings).to_json()
    return Verdict("valid", bounds, warnings=warnings).to_json()


@pytest.mark.parametrize("constant", (False, True))
@pytest.mark.parametrize("eq_principle", PRINCIPLES)
@pytest.mark.parametrize("mode", ("modal", "int"))
def test_decide_matches_unpruned_reference(mode, eq_principle, constant):
    for fr in DECIDE_FRAMES:
        if mode == "int" and not frame_matches(fr, PREORDERS):
            continue
        for text in DECIDE_CASES[mode]:
            f = parse(text)
            for domain in (1, 2, 3):
                got = decide_valid_over_frame(fr, f, domain, mode, eq_principle,
                                              constant).to_json()
                assert got == reference_decide(fr, f, domain, mode,
                                               eq_principle, constant), \
                    (sorted(fr.access), text, domain)


def test_decide_checks_as_many_models_as_before(monkeypatch):
    """The number of models the decide searches of
    test_decide_matches_unpruned_reference test, recorded before the
    search kept one live model per domain assignment: the same models
    are checked, so step caps stop where they did."""
    calls = []

    def counting(m, compiled, value, worlds=None):
        calls.append(None)
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", counting)
    for mode, eq_principle, constant in product(
            ("modal", "int"), PRINCIPLES, (False, True)):
        for fr in DECIDE_FRAMES:
            if mode == "int" and not frame_matches(fr, PREORDERS):
                continue
            for text in DECIDE_CASES[mode]:
                for domain in (1, 2, 3):
                    decide_valid_over_frame(fr, parse(text), domain, mode,
                                            eq_principle, constant)
    assert len(calls) == 40573


@pytest.mark.parametrize("command", ("sat", "decide"))
def test_witness_outlives_the_search(monkeypatch, command):
    """A witness is a model of its own, not the search's live model: after
    a second search of the same frame and domains it still serialises as
    before, passes validate_model and re-evaluates to the claimed value."""
    tested = []

    def recording(m, compiled, value, worlds=None):
        tested.append(m)
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    if command == "sat":
        f = parse("exists x (Q(x) & <>~Q(x))")
        g = parse("exists x Q(x) & <>forall x ~Q(x)")
        first = sat_bounded(f, FrameClass(), 2, 2)
        again = lambda: sat_bounded(g, FrameClass(), 2, 2)
        value = True
    else:
        f, g = parse("forall x (Q(x) | ~Q(x))"), parse("exists x Q(x)")
        first = decide_valid_over_frame(PREORDER3, f, 2, "int")
        again = lambda: decide_valid_over_frame(PREORDER3, g, 2, "int")
        value = False
    witness = first.model
    assert witness is not tested[-1]
    assert not any(facts is live for facts, live in zip(
        witness.valuation.values(), tested[-1].valuation.values()))
    recorded = model_to_dict(witness)
    assert again().model is not None
    assert model_to_dict(witness) == recorded
    assert validate_model(witness) == []
    assert evaluate(witness, first.world, first.assignment, f) is value


# The same kinds of formula for sat, on up to two worlds with constant and
# expanding domains: without = (monadic, or with a binary letter) and,
# as controls, with =.  The modal ones without modalities, satisfiable or
# not, are checked on one world first; the classes add one without the
# one-world frame without edges (reflexive) and one without any frame.
UNOBSERVED_SAT = {
    "modal": ("exists x exists y (Q(x) & ~Q(y))",
              "exists x (Q(x) & <>~Q(x)) & forall x forall y (Q(x) <-> Q(y))",
              "forall x exists y P(x,y) & forall x ~P(x,x)",
              "~(x = y) & <>(x = y)",
              "exists x (Q(x) & ~Q(x))",
              "exists x exists y (~(x = y) & p) & forall x forall y (x = y)",
              "~exists x ~(x = x) & ~p"),
    "int": ("~~exists x Q(x) & ~exists x Q(x)",
            "exists x exists y ~(Q(x) <-> Q(y))",
            "forall x exists y P(x,y) & forall x ~P(x,x)",
            "~(x = y) & ~~(x = y)"),
}


@pytest.mark.parametrize("constant", (False, True))
@pytest.mark.parametrize("eq_principle", PRINCIPLES)
@pytest.mark.parametrize("mode", ("modal", "int"))
def test_sat_skipping_unobserved_matches_reference(mode, eq_principle,
                                                   constant):
    for text in UNOBSERVED_SAT[mode]:
        f = parse(text)
        for cls_text in (*CLASSES, "serial,irreflexive_transitive"):
            cls = parse_frame_class(cls_text)
            for domain in (1, 2, 3):
                got = sat_bounded(f, cls, 2, domain, mode, eq_principle,
                                  constant).to_json()
                assert got == reference_sat(f, cls, 2, domain, mode,
                                            eq_principle, constant), \
                    (cls_text, text, domain)


def test_modality_free_valid_decide_checks_one_world(monkeypatch):
    """A valid formula without modalities is checked on the one-world
    frame only, once per model without twins: for one unary letter, one
    model per non-empty set of the two letter patterns."""
    checked = []

    def recording(m, compiled, value, worlds=None):
        checked.append(m)
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    f = parse("forall x Q(x) | exists x ~Q(x)")
    two_worlds = [fr for fr in enumerate_frames(2) if len(fr.worlds) == 2]
    for fr in (CHAIN3, PREORDER3, *two_worlds):
        for eq_principle in PRINCIPLES:
            checked.clear()
            verdict = decide_valid_over_frame(fr, f, 3, "modal", eq_principle)
            assert verdict.outcome == "valid"
            assert [m.frame.worlds for m in checked] == \
                [fr.worlds[:1]] * 3, sorted(fr.access)
            assert all(not m.frame.access for m in checked)


EDGELESS = Frame(("w0",), frozenset())
LOOP = Frame(("w0",), frozenset({("w0", "w0")}))

# Every class of at most two properties or alt_n bounds.
SMALL_CLASSES = [",".join(items) for k in range(3) for items in
                 combinations((*PROPERTY_NAMES, "alt_0", "alt_1"), k)]


def _one_world_frame(cls):
    """The one-world frame of the class that sat searches a formula
    without modalities on: the one without edges if the class has it, else
    the reflexive one, or None if the class has neither."""
    return next((fr for fr in (EDGELESS, LOOP) if frame_matches(fr, cls)),
                None)


def test_class_has_a_frame_iff_it_has_a_one_world_frame():
    """The lemma behind sat's one-world rule: a class has a frame of at
    most three worlds exactly when it has one of one world."""
    empty = []
    for cls_text in SMALL_CLASSES:
        cls = parse_frame_class(cls_text)
        has_frame = next(enumerate_frames(3, cls), None) is not None
        assert has_frame == (_one_world_frame(cls) is not None), cls_text
        if not has_frame:
            empty.append(cls_text)
    assert {"serial,irreflexive_transitive", "reflexive,alt_0",
            "linear,irreflexive_transitive"} <= set(empty)


def test_modality_free_unsatisfiable_sat_checks_one_world(monkeypatch):
    """An unsatisfiable formula without modalities is checked on one
    one-world frame of the class only: the one without edges if the class
    has it, else the reflexive one.  A class without frames checks no
    model."""
    checked = []

    def recording(m, compiled, value, worlds=None):
        checked.append(m)
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    f = parse("exists x (Q(x) & ~Q(x)) | (p & ~p)")
    for cls_text in (*CLASSES, "irreflexive_transitive",
                     "serial,irreflexive_transitive"):
        cls = parse_frame_class(cls_text)
        on = _one_world_frame(cls)
        for eq_principle in PRINCIPLES:
            checked.clear()
            verdict = sat_bounded(f, cls, 3, 2, "modal", eq_principle)
            assert verdict.outcome == "unsatisfiable_up_to_bound"
            assert {m.frame for m in checked} == ({on} if on else set()), \
                (cls_text, eq_principle)


# Without modalities: satisfiable on one world, unsatisfiable, and with =.
MODALITY_FREE = ("exists x exists y (Q(x) & ~Q(y))",
                 "exists x (Q(x) & ~Q(x)) | (p & ~p)",
                 "exists x exists y ~(x = y) & forall x (Q(x) | p)")


@pytest.mark.parametrize("text", MODALITY_FREE)
def test_modality_free_capped_sat_counts_one_frame(monkeypatch, text):
    """In every small class, sat of a formula without modalities checks
    models on the class's one-world frame only.  Capped below their number
    it is bound_exhausted, and from their number on it gives the uncapped
    verdict.  An unsatisfiable formula checks every model of that frame."""
    checked = []

    def recording(m, compiled, value, worlds=None):
        checked.append(m)
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    f = parse(text)
    for cls_text in SMALL_CLASSES:
        cls = parse_frame_class(cls_text)
        on = _one_world_frame(cls)
        checked.clear()
        uncapped = sat_bounded(f, cls, 3, 2)
        models = len(checked)
        assert {m.frame for m in checked} == ({on} if on else set()), \
            cls_text
        if on and uncapped.outcome == "unsatisfiable_up_to_bound":
            assert models == len(list(search._models(
                on, letters(f), 2, "modal", "eq3", constant_domains=False,
                leaders_only=True,
                sees_equality=search.classify(f).has_equality)))
        for cap in range(models + 3):
            capped = sat_bounded(f, cls, 3, 2, max_steps=cap)
            if cap < models:
                assert capped.outcome == "bound_exhausted", (cls_text, cap)
            else:
                assert capped.to_json() == uncapped.to_json(), (cls_text, cap)


@pytest.mark.parametrize("text", (*MODALITY_FREE, "p & <>~p"))
def test_sat_in_small_classes_matches_unpruned_reference(text):
    """sat in every small class gives the verdict of a walk over every
    labelled frame: for formulas without modalities, and for one of modal
    depth 1 whose witness needs two worlds."""
    f = parse(text)
    for cls_text in SMALL_CLASSES:
        cls = parse_frame_class(cls_text)
        assert sat_bounded(f, cls, 2, 1).to_json() == \
            reference_sat(f, cls, 2, 1, "modal", "eq3"), cls_text


def test_modality_free_capped_decide_counts_the_frame_alone(monkeypatch):
    """The one-world scan counts the step cap on its own: the least cap
    that gives a capped decide its countermodel is the number of models
    checked on the frame itself."""
    checked = []

    def recording(m, compiled, value, worlds=None):
        checked.append(m.frame)
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    f = parse("exists x Q(x) -> forall x Q(x)")
    uncapped = decide_valid_over_frame(CHAIN3, f, 2)
    on_frame = checked.count(CHAIN3)
    assert uncapped.outcome == "countermodel"
    assert 0 < on_frame < len(checked)
    assert decide_valid_over_frame(CHAIN3, f, 2, max_steps=on_frame) \
        .to_json() == uncapped.to_json()
    assert decide_valid_over_frame(CHAIN3, f, 2, max_steps=on_frame - 1) \
        .outcome == "bound_exhausted"


def test_modality_free_decide_on_one_world_frame_scans_it_once(monkeypatch):
    """On a one-world frame a formula without modalities is checked on the
    frame itself, once per lex-leader, with no scan of the world without
    edges before it."""
    checked = []

    def recording(m, compiled, value, worlds=None):
        checked.append(model_to_dict(m))
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    f = parse("x = y -> (Q(x) <-> Q(y))")
    for fr in enumerate_frames(1):
        for eq_principle in PRINCIPLES:
            checked.clear()
            verdict = decide_valid_over_frame(fr, f, 3, "modal", eq_principle)
            assert verdict.outcome == "valid"
            _, leaders = leader_models(
                fr, letters(f), 3, "modal",
                "eq3" if eq_principle == "eq2" else eq_principle, False)
            assert checked == [
                d | {"equality": d["equality"] | {"principle": eq_principle}}
                for d in leaders], (sorted(fr.access), eq_principle)


CYCLE3 = Frame(("w0", "w1", "w2"),
               frozenset({("w0", "w1"), ("w1", "w2"), ("w2", "w0")}))
VIEW_FRAMES = [*enumerate_frames(2), CHAIN3, PREORDER3, CYCLE3]
BARCAN = "forall x []Q(x) -> []forall x Q(x)"

# Formulas of modal depth 0, 0, 1, 1, 1, 2, 2, 3 and 3, and intuitionistic
# ones, valid on some of the view frames and not on others; the worlds of
# those frames see different parts of them at each depth.
VIEW_CASES = {
    "modal": ("exists x Q(x) -> forall x Q(x)",
              "x = y -> (Q(x) <-> Q(y))",
              BARCAN,
              "[]forall x Q(x) -> forall x []Q(x)",
              "~(x = y) -> []~(x = y)",
              "<><>exists x Q(x) -> <>exists x Q(x)",
              "<>[]p -> []<>p",
              "[][][]p -> []p",
              "<><><>p -> <>p"),
    "int": ("p | ~p",
            "~~(p | ~p)",
            "x = y | ~(x = y)",
            "(p -> q) | (q -> p)",
            "forall x (Q(x) | ~Q(x)) -> (exists x Q(x) | ~exists x Q(x))"),
}


@pytest.mark.parametrize("constant", (False, True))
@pytest.mark.parametrize("eq_principle", PRINCIPLES)
@pytest.mark.parametrize("mode", ("modal", "int"))
def test_decide_by_views_matches_unpruned_reference(mode, eq_principle,
                                                    constant):
    """decide, which checks each world's view first and then tests the
    frame's models only at the worlds whose view it did not find valid,
    gives the verdict of a walk over every model at every world: modal depths 0-3
    and intuitionistic formulas, on every frame of at most two worlds, the
    3-chain, the 3-preorder and the 3-cycle."""
    for fr in VIEW_FRAMES:
        if mode == "int" and not frame_matches(fr, PREORDERS):
            continue
        for text in VIEW_CASES[mode]:
            f = parse(text)
            for domain in (1, 2):
                got = decide_valid_over_frame(fr, f, domain, mode, eq_principle,
                                              constant).to_json()
                assert got == reference_decide(fr, f, domain, mode,
                                               eq_principle, constant), \
                    (sorted(fr.access), text, domain)


@pytest.mark.parametrize("eq_principle", ("eq1", "eq3"))
def test_barcan_is_valid_on_the_three_cycle(eq_principle):
    """A cycle forces equal domains, so the Barcan formula is valid on the
    3-cycle; the view of each world at depth 1, one edge w0 -> w1, has a
    countermodel with a larger domain at w1.  decide does not report that
    countermodel, which need not extend to the cycle, but scans the cycle
    itself."""
    f = parse(BARCAN)
    edge = Frame(("w0", "w1"), frozenset({("w0", "w1")}))
    assert {search._view(CYCLE3, w, 1) for w in CYCLE3.worlds} == {edge}
    assert decide_valid_over_frame(edge, f, 2, eq_principle=eq_principle) \
        .outcome == "countermodel"
    for domain in (2, 3):
        assert decide_valid_over_frame(
            CYCLE3, f, domain, eq_principle=eq_principle).outcome == "valid"


def test_decide_tests_each_world_unless_its_view_is_valid(monkeypatch):
    """Under eq1 ~(x = y) -> []~(x = y) is valid on the view of w2 in the
    3-chain (one world, no edges) and not on the one edge that w0 and w1
    both see, so the chain's models are tested at w0 and w1 only: 6 and 9
    models on the views, 9 on the chain, and the countermodel of a walk
    over every model.  On the 3-cycle the Barcan formula's only view has
    a countermodel, so every world of the cycle is tested."""
    tested = []

    def recording(m, compiled, value, worlds=None):
        tested.append((m.frame, tuple(worlds)))
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    f = parse("~(x = y) -> []~(x = y)")
    verdict = decide_valid_over_frame(CHAIN3, f, 3, eq_principle="eq1")
    assert verdict.to_json() == reference_decide(CHAIN3, f, 3, "modal",
                                                 "eq1", False)
    assert (verdict.outcome, verdict.world) == ("countermodel", "w1")
    assert len(tested) == 24
    assert Counter(worlds for fr, worlds in tested if fr == CHAIN3) == \
        {("w0", "w1"): 9}
    tested.clear()
    verdict = decide_valid_over_frame(CYCLE3, parse(BARCAN), 2)
    assert verdict.outcome == "valid"
    assert {worlds for fr, worlds in tested if fr == CYCLE3} == \
        {CYCLE3.worlds}


def test_views():
    """A world's view at depth d: the worlds within d steps, w first, the
    others in breadth-first order, with the edges leaving the worlds
    within d - 1 steps; unbounded, the subframe the world generates."""
    chain = Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"),
                                              ("c", "c")}))
    edge = frozenset({("w0", "w1")})
    assert search._view(chain, "a", 0) == EDGELESS
    assert search._view(chain, "c", 0) == EDGELESS
    assert search._view(chain, "c", 1) == LOOP
    assert search._view(chain, "a", 1) == Frame(("w0", "w1"), edge)
    assert search._view(chain, "b", 1) == Frame(("w0", "w1"), edge)
    assert search._view(chain, "b", 2) == \
        Frame(("w0", "w1"), edge | {("w1", "w1")})
    assert search._view(chain, "a", 2) == \
        Frame(("w0", "w1", "w2"), edge | {("w1", "w2")})
    assert search._view(chain, "a", float("inf")) == \
        Frame(("w0", "w1", "w2"), edge | {("w1", "w2"), ("w2", "w2")})
    assert search._view(CYCLE3, "w2", 2) == \
        Frame(("w0", "w1", "w2"), edge | {("w1", "w2")})
    assert search._roots(chain) == ["a"]
    assert search._roots(CYCLE3) == list(CYCLE3.worlds)
    assert search._roots(Frame(("w0", "w1"), frozenset())) == []


@pytest.mark.parametrize("mode", ("modal", "int"))
def test_views_capped_decide_gives_uncapped_verdict_or_exhausts(monkeypatch,
                                                               mode):
    """Each view's check counts the step cap on its own.  Under every cap
    up to the number of models checked without one, decide on the view
    frames gives bound_exhausted or the uncapped verdict."""
    checked = []

    def recording(m, compiled, value, worlds=None):
        checked.append(m)
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    for fr in VIEW_FRAMES:
        if mode == "int" and not frame_matches(fr, PREORDERS):
            continue
        for text in VIEW_CASES[mode]:
            f = parse(text)
            checked.clear()
            uncapped = decide_valid_over_frame(fr, f, 2, mode, "eq1")
            for cap in range(len(checked) + 1):
                capped = decide_valid_over_frame(fr, f, 2, mode, "eq1",
                                                 max_steps=cap)
                assert capped.outcome == "bound_exhausted" or \
                    capped.to_json() == uncapped.to_json(), \
                    (sorted(fr.access), text, cap)


def test_eq2_matches_every_eq2_model_on_random_formulas():
    """eq2 sat and decide, which search the identity equality only, give
    the verdicts of a walk over every eq2 model of enumerate_models: modal
    and intuitionistic, constant and expanding domains, every frame of at
    most two worlds plus the 3-chain and the 3-preorder.  The formulas'
    letters are kept small enough for the walk to stay cheap."""
    rng = random.Random(11)
    for _ in range(200):
        mode = rng.choice(("modal", "int"))
        while True:
            f = random_formula(rng, 4, ["x", "y"])
            if (mode == "modal" or modal_depth(f) == 0) and \
                    sum(a + 1 for a in letters(f).values()) <= 4:
                break
        constant = rng.random() < 0.5
        domain = rng.choice((1, 2))
        if rng.random() < 0.5:
            got = sat_bounded(f, FrameClass(), 2, domain, mode, "eq2",
                              constant).to_json()
            want = reference_sat(f, FrameClass(), 2, domain, mode, "eq2",
                                 constant)
        else:
            fr = rng.choice([fr for fr in DECIDE_FRAMES if mode == "modal"
                             or frame_matches(fr, PREORDERS)])
            got = decide_valid_over_frame(fr, f, domain, mode, "eq2",
                                          constant).to_json()
            want = reference_decide(fr, f, domain, mode, "eq2", constant)
        assert got == want, (str(f), mode, constant, domain)


def test_eq2_constant_domains_on_disconnected_frame_keep_every_equality():
    """With constant domains on a frame that is not connected, an eq2
    model need not have an eq3 quotient with constant domains, so eq2
    keeps every equality there.  The first countermodel merges a0 and a1
    at w0, where the formula holds, and fails at w1; searched as eq3 it
    would have the identity at both worlds."""
    fr = Frame(("w0", "w1"), frozenset())
    f = parse("x = y | ~q")
    verdict = decide_valid_over_frame(fr, f, 2, "modal", "eq2", True)
    assert verdict.to_json() == reference_decide(fr, f, 2, "modal", "eq2",
                                                 True)
    assert verdict.model.equality.classes["w0"] == (frozenset({"a0", "a1"}),)
    assert verdict.world == "w1"


def _swapped(m, a, b):
    """m with the individuals a and b swapped."""
    swap = {a: b, b: a}.get

    def rename(items):
        return frozenset(tuple(swap(x, x) for x in t) for t in items)
    return Model(m.frame, m.domains,
                 {w: {name: rename(ext) for name, ext in facts.items()}
                  for w, facts in m.valuation.items()},
                 Equality(m.equality.principle,
                          {w: tuple(frozenset(swap(x, x) for x in block)
                                    for block in part)
                           for w, part in m.equality.classes.items()}),
                 m.mode, m.constant_domains)


def leader_models(fr, letter_arities, domain_bound, mode, eq_principle,
                  constant):
    """The models of enumerate_models that no swap of two adjacent
    individuals a_i, a_i+1 present in the same worlds moves to an earlier
    position of enumerate_models."""
    models = list(enumerate_models(fr, letter_arities, domain_bound, mode,
                                   eq_principle, constant))
    dicts = [model_to_dict(m) for m in models]
    position = {json.dumps(d, sort_keys=True): i for i, d in enumerate(dicts)}
    leaders = []
    for i, m in enumerate(models):
        present = {a: {w for w in fr.worlds if a in m.domains[w]}
                   for a in max(m.domains.values(), key=len)}
        pairs = [(f"a{k}", f"a{k + 1}") for k in range(len(present) - 1)
                 if present[f"a{k}"] == present[f"a{k + 1}"]]
        if all(position[json.dumps(model_to_dict(_swapped(m, a, b)),
                                   sort_keys=True)] >= i
               for a, b in pairs):
            leaders.append(dicts[i])
    return dicts, leaders


@pytest.mark.parametrize("constant", (False, True))
@pytest.mark.parametrize("eq_principle", PRINCIPLES)
@pytest.mark.parametrize("mode", ("modal", "int"))
def test_decide_checks_each_lex_leader_once(monkeypatch, mode, eq_principle,
                                            constant):
    """On a valid formula decide checks exactly the lex-leaders among the
    models of the frame, in order, and fewer models than enumerate_models
    yields.  The formulas have = (which observes the equality and twins),
    and the modal one a modality (which observes the frame).  eq2 is
    searched as eq3, with the principle relabelled, unless the domains are
    constant on a frame that is not connected.  The models checked on the
    views of the frame's worlds before it are left out, and a frame that
    no world generates is not scanned at all: on these transitive frames
    the worlds within one step are those reachable."""
    checked = []

    def recording(m, compiled, value, worlds=None):
        if m.frame == fr:
            checked.append(model_to_dict(m))
        return first_point(m, compiled, value, worlds)
    monkeypatch.setattr(search, "first_point", recording)
    f = parse("x = y -> [](Q(x) -> Q(y))" if mode == "modal"
              else "x = y -> (Q(x) -> Q(y))")
    total = pruned = 0
    for fr in (PREORDER3, *enumerate_frames(2, PREORDERS)):
        for domain in (2, 3):
            checked.clear()
            verdict = decide_valid_over_frame(fr, f, domain, mode,
                                              eq_principle, constant)
            assert verdict.outcome == "valid"
            models, leaders = leader_models(fr, letters(f), domain, mode,
                                            eq_principle, constant)
            if eq_principle == "eq2" and not (constant and not _connected(fr)):
                leaders = [d | {"equality": d["equality"] | {"principle": "eq2"}}
                           for d in leader_models(fr, letters(f), domain, mode,
                                                  "eq3", constant)[1]]
            if not any(_reachable(fr, w) == set(fr.worlds) for w in fr.worlds):
                leaders = []
            assert checked == leaders, (sorted(fr.access), domain)
            total += len(models)
            pruned += len(checked)
    assert pruned < total


CAPPED_QUERIES = [
    lambda cap: sat_bounded(
        parse("exists x exists y (Q(x) & <>Q(y) & ~(x = y))"), FrameClass(),
        2, 2, max_steps=cap),
    lambda cap: sat_bounded(
        parse("exists x exists y (~(x = y) & <>(x = y))"), FrameClass(), 2, 2,
        eq_principle="eq1", constant_domains=True, max_steps=cap),
    lambda cap: sat_bounded(parse("<>exists x ~Q(x) & []forall x Q(x)"),
                            FrameClass(), 2, 2, max_steps=cap),
    lambda cap: decide_valid_over_frame(
        CHAIN3, parse("[]false | forall x forall y (Q(x) <-> Q(y))"), 3,
        max_steps=cap),
    lambda cap: decide_valid_over_frame(
        PREORDER3, parse("exists x exists y ~(x = y) -> (x = y | ~(x = y))"),
        3, "int", "eq1", max_steps=cap),
    lambda cap: decide_valid_over_frame(
        CHAIN3, parse("x = y -> (<>Q(x) <-> <>Q(y))"), 2, eq_principle="eq2",
        max_steps=cap),
    # Without modalities: a countermodel on one world, then on the frame.
    lambda cap: decide_valid_over_frame(
        CHAIN3, parse("exists x Q(x) -> forall x Q(x)"), 2, max_steps=cap),
    # Without modalities, unsatisfiable: one world settles it.
    lambda cap: sat_bounded(parse("exists x (Q(x) & ~Q(x)) | (p & ~p)"),
                            FrameClass(), 3, 2, max_steps=cap),
    # Without modalities, on a one-world frame: one world without edges,
    # then the frame itself.
    lambda cap: decide_valid_over_frame(
        Frame(("w0",), frozenset({("w0", "w0")})),
        parse("exists x Q(x) -> forall x Q(x)"), 3, max_steps=cap),
]


@pytest.mark.parametrize("query", range(len(CAPPED_QUERIES)))
def test_step_cap_gives_uncapped_verdict_or_exhausts(query):
    """Under any step cap a search gives the uncapped verdict or
    bound_exhausted, and once a cap reaches the verdict every larger
    cap does."""
    run = CAPPED_QUERIES[query]
    uncapped = run(None).to_json()
    outcomes = []
    for cap in range(0, 400, 7):
        capped = run(cap)
        assert capped.outcome == "bound_exhausted" or \
            capped.to_json() == uncapped, cap
        outcomes.append(capped.outcome == "bound_exhausted")
    assert outcomes == sorted(outcomes, reverse=True)
    assert outcomes[0] and not outcomes[-1]
