import json
import random
from dataclasses import replace
from itertools import product

import pytest

from monotrick import semantics
from monotrick.search import FrameClass, enumerate_frames, enumerate_models
from monotrick.semantics import (
    MODES, PRINCIPLES, Equality, EvaluationError, Frame, Model, block_map,
    check_letter_arities, compile_formula, evaluate, frame_from_dict, identity_partition, model_from_dict, model_to_dict,
    valid_in_model, validate_model,
)
from monotrick.syntax import (
    And, Box, Diamond, Verum, free_variables, letters, map_children, parse,
)
from monotrick.translations import (
    Variant, build_companion_model, fresh_scheme, kripke_trick,
)
from tests.conftest import read_corpus
from tests.test_syntax import random_formula


def simple_model(mode="modal", access=None, valuation=None, classes=None,
                 principle="eq3", domains=None,
                 worlds=("w", "v")):
    frame = Frame(tuple(worlds),
                  frozenset(access if access is not None
                            else [("w", "v"), ("w", "w"), ("v", "v")]))
    domains = domains or {w: ("a", "b") for w in worlds}
    classes = classes or {w: identity_partition(domains[w]) for w in worlds}
    return Model(
        frame=frame,
        domains=domains,
        valuation=valuation or {w: {} for w in worlds},
        equality=Equality(principle, classes),
        mode=mode,
    )


class TestValidate:
    def test_identity_everywhere_is_clean(self):
        assert validate_model(simple_model()) == []

    def test_eq1_upward_violation(self):
        m = simple_model(
            principle="eq1",
            classes={"w": (frozenset({"a", "b"}),),
                     "v": identity_partition(("a", "b"))})
        names = [v.name for v in validate_model(m)]
        assert "Eq1 upward heredity" in names

    def test_eq2_downward_violation(self):
        m = simple_model(
            principle="eq2",
            classes={"w": identity_partition(("a", "b")),
                     "v": (frozenset({"a", "b"}),)})
        names = [v.name for v in validate_model(m)]
        assert "Eq2 downward heredity" in names
        assert "Eq1 upward heredity" not in names

    def test_eq3_identity_violation(self):
        m = simple_model(classes={"w": (frozenset({"a", "b"}),),
                                  "v": (frozenset({"a", "b"}),)})
        names = [v.name for v in validate_model(m)]
        assert "Eq3 identity" in names

    def test_intuitionistic_needs_preorder(self):
        m = simple_model(mode="int", access=[("w", "v")])
        names = [v.name for v in validate_model(m)]
        assert "intuitionistic frame must be a preorder" in names

    def test_intuitionistic_valuation_heredity(self):
        m = simple_model(
            mode="int",
            valuation={"w": {"Q": frozenset({("a",)})}, "v": {}})
        names = [v.name for v in validate_model(m)]
        assert "valuation heredity" in names

    def test_congruence_violation(self):
        m = simple_model(
            principle="eq1",
            classes={"w": (frozenset({"a", "b"}),),
                     "v": (frozenset({"a", "b"}),)},
            valuation={"w": {"Q": frozenset({("a",)})}, "v": {}})
        names = [v.name for v in validate_model(m)]
        assert "congruence" in names

    def test_expanding_domains_violation(self):
        m = simple_model(domains={"w": ("a", "b"), "v": ("a",)})
        names = [v.name for v in validate_model(m)]
        assert "expanding domains" in names

    def test_individual_listed_twice_violation(self):
        twice = (frozenset({"a"}), frozenset({"a"}))
        m = simple_model(domains={"w": ("a", "a"), "v": ("a", "a")},
                         classes={"w": twice, "v": twice})
        names = [v.name for v in validate_model(m)]
        assert "distinct individuals" in names

    def test_missing_transitive_edge_reported_once(self):
        # a -> b -> d and a -> c -> d both miss (a,d); a -> b -> e misses
        # (a,e).  Each is reported once, in sorted order.
        worlds = ("a", "b", "c", "d", "e")
        edges = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"), ("b", "e")]
        m = simple_model(mode="int", worlds=worlds,
                         access=edges + [(w, w) for w in worlds])
        assert [str(v) for v in validate_model(m)] == [
            "intuitionistic frame must be a preorder: "
            f"missing transitive edge (a,{c})" for c in "de"]


def _with(**changes) -> Model:
    """simple_model() with some fields replaced."""
    return replace(simple_model(), **changes)


# One model per violation that no other test produces: (name, part of the
# witness, model).
VIOLATIONS = [
    ("nonempty worlds", "no worlds",
     Model(Frame((), frozenset()), {}, {}, Equality("eq3", {}))),
    ("distinct worlds", "duplicate",
     simple_model(worlds=("w", "w"), access=[])),
    ("access range", "(w,u) leaves",
     simple_model(access=[("w", "u")])),
    ("mode", "'classical'", simple_model(mode="classical")),
    ("equality principle", "'eq4'", _with(equality=Equality("eq4", {}))),
    ("domain coverage", "v has no domain",
     _with(domains={"w": ("a", "b")})),
    ("empty domain", "v has an empty domain",
     _with(domains={"w": ("a", "b"), "v": ()})),
    ("constant domains", "D(v) differs from D(w)",
     replace(simple_model(domains={"w": ("a",), "v": ("a", "b")}),
             constant_domains=True)),
    ("valuation arity", "Q has tuples of mixed length",
     simple_model(valuation={"w": {"Q": frozenset({("a",), ("a", "b")})},
                             "v": {}})),
    ("valuation range", "outside D(w)",
     simple_model(valuation={"w": {"Q": frozenset({("c",)})}, "v": {}})),
    ("equality partition", "no partition for world v",
     simple_model(classes={"w": identity_partition(("a", "b"))})),
    ("equality partition", "classes at w do not partition D(w)",
     simple_model(classes={"w": (frozenset({"a"}),),
                           "v": identity_partition(("a", "b"))})),
]


@pytest.mark.parametrize("name, witness, model", VIOLATIONS,
                         ids=[n.replace(" ", "_") for n, _, _ in VIOLATIONS])
def test_validate_reports(name, witness, model):
    assert any(v.name == name and witness in v.witness
               for v in validate_model(model)), validate_model(model)


class TestEvaluate:
    def test_box_true_everywhere(self):
        m = simple_model()
        for w in m.frame.worlds:
            assert evaluate(m, w, {}, parse("[]true"))

    def test_dead_end_box_vacuous(self):
        m = simple_model(access=[])
        assert evaluate(m, "w", {}, parse("[]false"))
        assert not evaluate(m, "w", {}, parse("<>true"))

    def test_modality_rejected_in_int_mode(self):
        m = simple_model(mode="int")
        with pytest.raises(EvaluationError):
            evaluate(m, "w", {}, parse("[]true"))

    def test_unassigned_variable(self):
        m = simple_model()
        with pytest.raises(EvaluationError):
            evaluate(m, "w", {}, parse("Q(x)"))

    def test_assignment_outside_domain(self):
        m = simple_model()
        with pytest.raises(EvaluationError):
            evaluate(m, "w", {"x": "zz"}, parse("Q(x)"))

    def test_intuitionistic_chain(self):
        # Q holds of a only at the later world: both Q(x) and ~Q(x) fail
        # at the root.  Cross-checked against the naive evaluator below.
        m = simple_model(
            mode="int", principle="eq1",
            valuation={"w": {}, "v": {"Q": frozenset({("a",)})}})
        assert validate_model(m) == []
        for text in ("Q(x)", "~Q(x)"):
            assert evaluate(m, "w", {"x": "a"}, parse(text)) is False
            assert naive_int_eval(m, "w", {"x": "a"}, parse(text)) is False
        assert evaluate(m, "v", {"x": "a"}, parse("Q(x)")) is True

    def test_equality_uses_partition(self):
        m = simple_model(
            principle="eq1",
            classes={"w": (frozenset({"a", "b"}),),
                     "v": (frozenset({"a", "b"}),)})
        assert evaluate(m, "w", {"x": "a", "y": "b"}, parse("x = y"))

    def test_intuitionistic_agrees_with_naive_oracle(self):
        rng = random.Random(99)
        m = simple_model(
            mode="int", principle="eq1",
            valuation={"w": {"Q1": frozenset({("a",)})},
                       "v": {"Q1": frozenset({("a",), ("b",)}),
                             "Q2": frozenset({("b",)})}})
        assert validate_model(m) == []
        for _ in range(300):
            f = random_formula(rng, depth=3, vars_in_scope=["x"])
            if any(tok in str(f) for tok in ("[]", "<>", "P(")):
                continue
            sigma = {x: rng.choice(("a", "b")) for x in ("x", "y", "z", "u")}
            for w in m.frame.worlds:
                assert evaluate(m, w, sigma, f) == naive_int_eval(m, w, sigma, f)


def naive_int_eval(m, w, sigma, f):
    """Independent intuitionistic evaluator used as a test oracle."""
    from monotrick import syntax as s
    up = [v for v in m.frame.worlds if (w, v) in m.frame.access]
    if isinstance(f, s.Atom):
        return tuple(sigma[x] for x in f.args) in \
            m.valuation.get(w, {}).get(f.letter, frozenset())
    if isinstance(f, s.Eq):
        return m.related(w, sigma[f.left], sigma[f.right])
    if isinstance(f, s.Verum):
        return True
    if isinstance(f, s.Falsum):
        return False
    if isinstance(f, s.And):
        return naive_int_eval(m, w, sigma, f.left) and \
            naive_int_eval(m, w, sigma, f.right)
    if isinstance(f, s.Or):
        return naive_int_eval(m, w, sigma, f.left) or \
            naive_int_eval(m, w, sigma, f.right)
    if isinstance(f, s.Not):
        return naive_int_eval(m, w, sigma, s.Implies(f.body, s.Falsum()))
    if isinstance(f, s.Iff):
        return naive_int_eval(m, w, sigma, s.Implies(f.left, f.right)) and \
            naive_int_eval(m, w, sigma, s.Implies(f.right, f.left))
    if isinstance(f, s.Implies):
        for v in up:
            if naive_int_eval(m, v, sigma, f.left) and \
                    not naive_int_eval(m, v, sigma, f.right):
                return False
        return True
    if isinstance(f, s.Forall):
        for v in up:
            for a in m.domains[v]:
                if not naive_int_eval(m, v, {**sigma, f.var: a}, f.body):
                    return False
        return True
    if isinstance(f, s.Exists):
        return any(naive_int_eval(m, w, {**sigma, f.var: a}, f.body)
                   for a in m.domains[w])
    raise AssertionError(type(f))


def naive_modal_eval(m, w, sigma, f):
    """Independent modal evaluator used as a test oracle."""
    from monotrick import syntax as s
    up = [v for v in m.frame.worlds if (w, v) in m.frame.access]
    if isinstance(f, s.Atom):
        return tuple(sigma[x] for x in f.args) in \
            m.valuation.get(w, {}).get(f.letter, frozenset())
    if isinstance(f, s.Eq):
        return m.related(w, sigma[f.left], sigma[f.right])
    if isinstance(f, s.Verum):
        return True
    if isinstance(f, s.Falsum):
        return False
    if isinstance(f, s.Not):
        return not naive_modal_eval(m, w, sigma, f.body)
    if isinstance(f, s.And):
        return naive_modal_eval(m, w, sigma, f.left) and \
            naive_modal_eval(m, w, sigma, f.right)
    if isinstance(f, s.Or):
        return naive_modal_eval(m, w, sigma, f.left) or \
            naive_modal_eval(m, w, sigma, f.right)
    if isinstance(f, s.Implies):
        return not naive_modal_eval(m, w, sigma, f.left) or \
            naive_modal_eval(m, w, sigma, f.right)
    if isinstance(f, s.Iff):
        return naive_modal_eval(m, w, sigma, f.left) == \
            naive_modal_eval(m, w, sigma, f.right)
    if isinstance(f, s.Box):
        return all(naive_modal_eval(m, v, sigma, f.body) for v in up)
    if isinstance(f, s.Diamond):
        return any(naive_modal_eval(m, v, sigma, f.body) for v in up)
    if isinstance(f, s.Forall):
        return all(naive_modal_eval(m, w, {**sigma, f.var: a}, f.body)
                   for a in m.domains[w])
    if isinstance(f, s.Exists):
        return any(naive_modal_eval(m, w, {**sigma, f.var: a}, f.body)
                   for a in m.domains[w])
    raise AssertionError(type(f))


def _differential_formulas(rng, mode, count, binary=False):
    """Random formulas small enough to check on every model: at most two
    letters, no modality in intuitionistic mode, and the binary letter P
    in each formula if binary, in none otherwise."""
    out = []
    while len(out) < count:
        f = random_formula(rng, depth=3, vars_in_scope=["x", "y"])
        text = str(f)
        if ("P(" in text) != binary or len(letters(f)) > 2:
            continue
        if mode == "int" and ("[]" in text or "<>" in text):
            continue
        out.append(f)
    return out


def _check_every_point(m, f, naive):
    """Check evaluate() against naive at every point of m and
    valid_in_model() against their conjunction; the number of points."""
    fv = sorted(free_variables(f))
    expect_valid = True
    points = 0
    for w in m.frame.worlds:
        for combo in product(m.domains[w], repeat=len(fv)):
            sigma = dict(zip(fv, combo))
            expected = naive(m, w, sigma, f)
            assert evaluate(m, w, sigma, f) == expected, (str(f), w, sigma)
            expect_valid = expect_valid and expected
            points += 1
    assert valid_in_model(m, f)[0] == expect_valid, str(f)
    return points


@pytest.mark.parametrize("principle", PRINCIPLES)
@pytest.mark.parametrize("mode", MODES)
def test_evaluator_matches_naive_oracle(mode, principle):
    """Every point of every model on every 2-world frame of the mode."""
    rng = random.Random(f"differential-{mode}-{principle}")
    naive = naive_modal_eval if mode == "modal" else naive_int_eval
    cls = FrameClass(frozenset({"reflexive", "transitive"})) \
        if mode == "int" else FrameClass()
    frames = [fr for fr in enumerate_frames(2, cls) if len(fr.worlds) == 2]
    points = 0
    for fr in frames:
        for f in _differential_formulas(rng, mode, 192 // len(frames)):
            for m in enumerate_models(fr, letters(f), 2, mode, principle):
                points += _check_every_point(m, f, naive)
    assert points > 5000


@pytest.mark.parametrize("principle", PRINCIPLES)
@pytest.mark.parametrize("mode", MODES)
def test_evaluator_matches_naive_oracle_on_binary_letters(mode, principle):
    """As above, for formulas over the binary letter P: every point of
    every model at domain <= 2 when P's only companion is a nullary
    letter, at domain 1 with a unary letter (at domain 2 that pair has
    about 70,000 modal models on the 2-world frames)."""
    rng = random.Random(f"differential-binary-{mode}-{principle}")
    naive = naive_modal_eval if mode == "modal" else naive_int_eval
    cls = FrameClass(frozenset({"reflexive", "transitive"})) \
        if mode == "int" else FrameClass()
    frames = [fr for fr in enumerate_frames(2, cls) if len(fr.worlds) == 2]
    points = binary_points = 0
    for fr in frames:
        for f in _differential_formulas(rng, mode, 16 // len(frames),
                                        binary=True):
            arities = letters(f)
            domain = 1 if 1 in arities.values() else 2
            for m in enumerate_models(fr, arities, domain, mode, principle):
                n = _check_every_point(m, f, naive)
                points += n
                binary_points += n * (domain == 2)
    assert points > 2000 and binary_points > 1000


# The bodies that _compile gives one successor loop under [] or <>, by
# their letters: one atom with arguments or the & of two, unary or binary,
# a variable twice, a letter twice.
FUSED_BODIES = {
    "Q": ("Q(y)", "Q(x) & Q(y)", "Q(y) & Q(y)"),
    "Q1 Q2": ("Q1(x) & Q2(y)", "Q2(x) & Q1(x)"),
    "P": ("P(x,y)", "P(x,x)", "P(y,x) & P(x,y)"),
    "P Q": ("Q(x) & P(x,y)", "P(y,y) & Q(x)"),
}

# Each body under [] and <>; the first two-atom body also under ~,
# quantifiers and a second modality; and the first body under
# forall x exists y [], where y reads slot 1, not slot 0.
FUSED_CONTEXTS = ("~<>({})", "exists x []({})", "forall y <>({})",
                  "<><>({})", "[]<>({})")


def _fused_formulas(key):
    bodies = FUSED_BODIES[key]
    main = next(b for b in bodies if "&" in b)
    return [parse(f"{op}({b})") for b in bodies for op in ("<>", "[]")] + \
        [parse(c.format(main)) for c in FUSED_CONTEXTS] + \
        [parse(f"forall x exists y []({bodies[0]})")]


def _sparse(m):
    """m with no empty extension and no world without facts in its
    valuation: the fused closures then read the _NO_FACTS and
    _NO_TUPLES defaults."""
    valuation = {}
    for w, facts in m.valuation.items():
        kept = {letter: tuples for letter, tuples in facts.items() if tuples}
        if kept:
            valuation[w] = kept
    return replace(m, valuation=valuation)


def _facts(m):
    """The domains and the valuation of m, hashable."""
    return (tuple(m.domains.items()),
            tuple((w, tuple(sorted(facts.items())))
                  for w, facts in m.valuation.items()))


@pytest.mark.parametrize("key", FUSED_BODIES)
def test_fused_modal_atoms_match_naive_oracle(key):
    """[] and <> over one atom or the & of two, alone, under ~ and
    quantifiers and nested, at every point of every modal model on every
    frame of at most 2 worlds (dead ends included) at domain <= 2, also
    with the worlds and letters that hold nothing left out of the
    valuation.  The models with expanding domains include those with
    constant domains, as checked here.  The pair of P with Q has about
    70,000 models at domain 2 there, so it runs at domain 2 on the
    one-world frames and at domain 1 on the rest.  Int mode never takes
    this path: the Gödel translation's boxes are over ~, ->, <-> and
    forall."""
    compiled = [(f, compile_formula(f, "modal")) for f in _fused_formulas(key)]
    arities = letters(compiled[0][0])
    assert all(letters(f) == arities for f, _ in compiled)
    points = dead_ends = 0
    for fr in enumerate_frames(2):
        domain = 1 if key == "P Q" and len(fr.worlds) == 2 else 2
        dead_ends += sum(not fr.succ[w] for w in fr.worlds)
        models = list(enumerate_models(fr, arities, domain, "modal", "eq3"))
        expanding = set(map(_facts, models))
        assert all(_facts(m) in expanding for m in enumerate_models(
            fr, arities, domain, "modal", "eq3", True))
        for m in models:
            sparse = _sparse(m)
            for f, holds in compiled:
                for w in fr.worlds:
                    for values in product(m.domains[w],
                                          repeat=len(holds.free)):
                        expected = naive_modal_eval(
                            m, w, dict(zip(holds.free, values)), f)
                        assert holds.holds(m, w, values) == expected, \
                            (str(f), m.valuation, w, values)
                        assert holds.holds(sparse, w, values) == expected, \
                            (str(f), sparse.valuation, w, values)
                        points += 1
    assert dead_ends == 9 and points > 4000


def _unfused(f):
    """f with every [] and <> body B written B & true, a body that
    _compile gives the general closures."""
    g = map_children(f, _unfused)
    return type(g)(And(g.body, Verum())) if isinstance(g, (Box, Diamond)) \
        else g


@pytest.mark.parametrize("variant, size, corpus", [
    (Variant.DIAMOND2, 3, "classical_corpus.txt"),
    (Variant.DIAMOND2, 3, "graph_corpus.txt"),
    (Variant.NEG_DIAMOND1, 4, "graph_corpus.txt"),
])
def test_fused_and_general_closures_agree_on_companions(variant, size,
                                                         corpus):
    """The truth of each corpus sentence's translation at the root of the
    companion of every class representative, fused and through the
    general closures."""
    from tests.test_golden_companions import _representatives
    translated = []
    for text in read_corpus(corpus):
        f = parse(text)
        g = kripke_trick(f, variant, fresh_scheme(f))
        translated.append((compile_formula(g, "modal").holds,
                           compile_formula(_unfused(g), "modal").holds))
    checks = truths = 0
    for s in _representatives(variant, size):
        m, root = build_companion_model(s, variant)
        for fused, general in translated:
            truth = fused(m, root, ())
            assert truth == general(m, root, ()), (s, root)
            checks += 1
            truths += truth
    assert len(translated) >= 10 and 0 < truths < checks


def test_fused_closures_serve_exactly_the_trick_shapes():
    """Which [] and <> get one successor loop: an atom with arguments or
    the & of two, in either order; nothing with a nullary letter, a third
    atom, a negation, a disjunction, = or a nested modality."""
    slots = {"x": 0, "y": 1, "z": 2}

    def fused(text):
        ev = semantics._compile(parse(text), slots, [3])
        return ev.__qualname__.startswith("_compile_modal_atoms")
    for key, bodies in FUSED_BODIES.items():
        for body in bodies:
            assert fused(f"<>({body})") and fused(f"[]({body})"), body
    for text in ("<>p", "<>(Q(x) & p)", "[](Q(x) & Q(y) & Q(z))",
                 "<>~Q(x)", "[](Q(x) | Q(y))", "<>(x = y)", "<><>Q(x)",
                 "<>(Q(x) & true)", "<>((Q(x) & Q(y)) & true)"):
        assert not fused(text), text


class TestValidInModel:
    def test_verum_valid(self):
        assert valid_in_model(simple_model(), parse("true")) == (True, None)

    def test_eq1_scheme_valid_in_eq1_model(self):
        m = simple_model(
            principle="eq1",
            classes={"w": (frozenset({"a", "b"}),),
                     "v": (frozenset({"a", "b"}),)})
        assert validate_model(m) == []
        assert valid_in_model(m, parse("x = y -> [](x = y)")) == (True, None)

    def test_decidable_equality_fails_with_late_merge(self):
        m = simple_model(
            mode="int", principle="eq1",
            classes={"w": identity_partition(("a", "b")),
                     "v": (frozenset({"a", "b"}),)})
        assert validate_model(m) == []
        ok, witness = valid_in_model(m, parse("x = y | ~(x = y)"))
        assert not ok
        world, sigma = witness
        assert world == "w"
        assert set(sigma.values()) == {"a", "b"}


def test_evaluate_over_points_hits_the_compile_cache():
    m = simple_model(valuation={"w": {"Q": frozenset({("a",)})},
                                "v": {"Q": frozenset({("b",)})}})
    f = parse("Q(x) | <>Q(y)")
    points = [(w, {"x": a, "y": b}) for w in m.frame.worlds
              for a, b in product(m.domains[w], repeat=2)]
    evaluate(m, *points[0], f)
    before = compile_formula.cache_info()
    for w, sigma in points:
        evaluate(m, w, sigma, f)
    after = compile_formula.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(points)


@pytest.mark.parametrize("worlds", [("root",), ("root", "w_0_1", "w_1_0"),
                                    tuple(f"w{i}" for i in range(10))])
def test_universal_frame_is_the_frame_of_all_pairs(worlds):
    universal = Frame.universal(worlds)
    plain = Frame(worlds, frozenset(product(worlds, repeat=2)))
    assert universal == plain and hash(universal) == hash(plain)
    assert universal.succ == plain.succ
    assert repr(universal) == repr(plain)


def test_worlds_that_share_a_partition_share_its_block_map():
    ab, a_b = (frozenset("ab"),), identity_partition(("a", "b"))
    eq = Equality("eq1", {"w": ab, "v": a_b, "u": a_b})
    assert eq.related("w", "a", "b")
    assert not eq.related("v", "a", "b") and not eq.related("u", "a", "b")
    # The maps are built by the first related() call.
    assert eq.blocks["v"] is eq.blocks["u"]
    assert eq.blocks["w"] is not eq.blocks["v"]


def _random_partition(rng, domain):
    blocks = {}
    for a in domain:
        blocks.setdefault(rng.randrange(len(domain)), set()).add(a)
    return tuple(frozenset(block) for block in blocks.values())


def test_lazy_block_maps_agree_with_eager_ones():
    """related(), whose block maps are built by its first call, answers
    as a block_map built for each world up front: on worlds that share a
    partition object, on worlds missing from classes (where only a == b
    holds) and for individuals outside the partition."""
    rng = random.Random(23)
    individuals = ("a", "b", "c", "d")
    worlds = ("w0", "w1", "w2", "w3", "w4")
    for _ in range(200):
        pool = [_random_partition(rng, individuals[:rng.randint(1, 4)])
                for _ in range(2)]
        classes = {w: rng.choice(pool) for w in worlds if rng.random() < 0.8}
        eq = Equality(rng.choice(PRINCIPLES), classes)
        assert eq.blocks is None
        eager = {w: block_map(part) for w, part in classes.items()}
        for w in worlds:
            maps = eager.get(w, {})
            for a, b in product(individuals + ("z",), repeat=2):
                assert eq.related(w, a, b) == \
                    (a == b or (a in maps and b in maps[a])), (classes, w, a, b)
        assert eq.blocks == eager
        for w, v in product(classes, repeat=2):
            assert (eq.blocks[w] is eq.blocks[v]) == \
                (classes[w] is classes[v])


def test_evaluated_classes_define_no_attribute_hooks():
    """The evaluator reads m.frame.succ, m.domains, m.valuation and
    m.equality at every step.  A __getattr__ or __getattribute__ on one of
    these classes, or a class-level descriptor for an attribute the
    evaluator reads, keeps CPython 3.11 from specialising those attribute
    loads: with a __getattr__ on Frame, dis.dis(..., adaptive=True) shows
    the .succ load of a <> closure left LOAD_ATTR_ADAPTIVE.  A __getattr__
    on Frame that made a universal frame's edge set on first read left
    perfbench's decide-frame, which builds no universal frame, slower:
    +3.3% wall_s over 4 alternating pairs of 42 s runs, and about +7% in
    an earlier prototype.  A lazy attribute that the evaluator does not
    read goes in a subclass as a cached_property, as access does for
    Frame.universal."""
    universal = type(Frame.universal(("w",)))
    read = ("worlds", "succ", "valuation", "domains", "frame", "equality",
            "blocks")
    for cls in (Frame, universal, Equality, Model):
        for base in cls.__mro__[:-1]:
            assert "__getattr__" not in vars(base), base
            assert "__getattribute__" not in vars(base), base
            for name in read:
                assert not hasattr(type(vars(base).get(name)), "__get__"), \
                    (base, name)


def test_modal_dualities_pointwise():
    rng = random.Random(5)
    m = simple_model(valuation={
        "w": {"Q1": frozenset({("a",)}), "p": frozenset()},
        "v": {"Q1": frozenset({("b",)}), "p": frozenset({()})},
    })
    for _ in range(300):
        f = random_formula(rng, depth=3, vars_in_scope=["x"])
        if "P(" in str(f):
            continue
        sigma = {x: rng.choice(("a", "b")) for x in ("x", "y", "z", "u")}
        for w in m.frame.worlds:
            dia = evaluate(m, w, sigma, parse(f"<>({f})"))
            box = evaluate(m, w, sigma, parse(f"~[]~({f})"))
            assert dia == box
            ex = evaluate(m, w, sigma, parse(f"exists x ({f})"))
            fa = evaluate(m, w, sigma, parse(f"~forall x ~({f})"))
            assert ex == fa


class TestJson:
    def test_round_trip(self):
        m = simple_model(valuation={
            "w": {"Q": frozenset({("a",)})},
            "v": {"Q": frozenset({("a",), ("b",)})},
        })
        d = model_to_dict(m)
        m2 = model_from_dict(json.loads(json.dumps(d)))
        assert model_to_dict(m2) == d
        assert validate_model(m2) == []

    def test_unknown_keys_rejected(self):
        d = model_to_dict(simple_model())
        d["extra"] = 1
        with pytest.raises(ValueError, match="unknown model keys"):
            model_from_dict(d)

    def test_missing_key_rejected(self):
        d = model_to_dict(simple_model())
        del d["equality"]
        with pytest.raises(ValueError, match="missing key"):
            model_from_dict(d)

    def test_frame_subset_format(self):
        fr = frame_from_dict({"worlds": ["w0", "w1"], "access": [["w0", "w1"]]})
        assert fr.worlds == ("w0", "w1")
        assert fr.access == frozenset({("w0", "w1")})
        with pytest.raises(ValueError):
            frame_from_dict({"worlds": [], "access": [], "bogus": 1})

    @pytest.mark.parametrize("d, message", [
        ({"worlds": ["w0", "w0"], "access": []}, "duplicate worlds"),
        ({"worlds": ["w0", "w1"], "access": [["w0", "w9"]]},
         "leaves the world set"),
        ({"worlds": ["w0"], "access": [["w0"]]}, "not a pair"),
        ({"worlds": "w0", "access": []}, "worlds must be a JSON list"),
        ({"worlds": ["w0"]}, "missing key 'access'"),
        (["w0"], "frame must be a JSON object"),
        ({"worlds": [["a"]], "access": []}, "names must be strings or integers"),
        ({"worlds": ["w0"], "access": [["w0", None]]},
         "access entry holds null"),
        ({"worlds": [True], "access": []}, "worlds holds true"),
    ])
    def test_malformed_frames_rejected(self, d, message):
        with pytest.raises(ValueError, match=message):
            frame_from_dict(d)

    @pytest.mark.parametrize("path, value, message", [
        (("domains",), ["a", "b"], "domains must be a JSON object"),
        (("valuation",), [], "valuation must be a JSON object"),
        (("valuation", "w"), [["a"]], "valuation at w must be a JSON object"),
        (("equality", "classes"), [["a"]], "classes must be a JSON object"),
        (("equality", "classes", "w"), "ab", "classes at w must be a JSON list"),
        (("worlds",), ["w", "v", "w"], "duplicate worlds"),
        (("constant_domains",), "false",
         'constant_domains must be true or false, got "false"'),
        (("constant_domains",), None,
         "constant_domains must be true or false, got null"),
        (("constant_domains",), 1, "constant_domains must be true or false"),
        (("domains", "w"), ["a", {"b": 1}], "domain of w holds"),
        (("valuation", "w"), {"Q": [[["a"]]]}, "tuple of Q at w holds"),
        (("equality", "classes", "w"), [["a"], [None]], "class at w holds"),
    ])
    def test_malformed_models_rejected(self, path, value, message):
        d = json.loads(json.dumps(model_to_dict(simple_model())))
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=message):
            model_from_dict(d)


    def test_integer_names_and_missing_constant_domains_accepted(self):
        fr = frame_from_dict({"worlds": [0, 1], "access": [[0, 1]]})
        assert fr == Frame(("0", "1"), frozenset({("0", "1")}))
        d = json.loads(json.dumps(model_to_dict(simple_model())))
        del d["constant_domains"]
        d["domains"] = {"w": [0, "b"], "v": [0, "b"]}
        d["equality"]["classes"] = {w: [[0], ["b"]] for w in ("w", "v")}
        m = model_from_dict(d)
        assert m.constant_domains is False
        assert m.domains == {"w": ("0", "b"), "v": ("0", "b")}
        assert validate_model(m) == []


class TestLetterArities:
    def test_mismatch_rejected(self):
        m = simple_model(valuation={"w": {"Q": frozenset({("a", "b")})},
                                    "v": {}})
        with pytest.raises(EvaluationError, match="letter Q has arity 1"):
            check_letter_arities(m, parse("Q(x)"))

    def test_matching_and_unused_letters_pass(self):
        m = simple_model(valuation={"w": {"Q": frozenset({("a",)}),
                                          "P": frozenset({("a", "b")})},
                                    "v": {"Q": frozenset()}})
        check_letter_arities(m, parse("Q(x) & R(x,y,z)"))
