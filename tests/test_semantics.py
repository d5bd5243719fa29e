import json
import random
from dataclasses import replace
from itertools import product

import pytest

from monotrick.search import FrameClass, enumerate_frames, enumerate_models
from monotrick.semantics import (
    MODES, PRINCIPLES, Equality, EvaluationError, Frame, Model, block_map,
    check_letter_arities, compile_formula, evaluate, frame_from_dict, identity_partition, model_from_dict, model_to_dict,
    valid_in_model, validate_model,
)
from monotrick.syntax import free_variables, letters, parse
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


def _differential_formulas(rng, mode, count):
    """Random formulas small enough to check on every model: no binary
    letter, at most two letters, and no modality in intuitionistic mode."""
    out = []
    while len(out) < count:
        f = random_formula(rng, depth=3, vars_in_scope=["x", "y"])
        text = str(f)
        if "P(" in text or len(letters(f)) > 2:
            continue
        if mode == "int" and ("[]" in text or "<>" in text):
            continue
        out.append(f)
    return out


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
            fv = sorted(free_variables(f))
            for m in enumerate_models(fr, letters(f), 2, mode, principle):
                expect_valid = True
                for w in fr.worlds:
                    for combo in product(m.domains[w], repeat=len(fv)):
                        sigma = dict(zip(fv, combo))
                        expected = naive(m, w, sigma, f)
                        assert evaluate(m, w, sigma, f) == expected, \
                            (str(f), w, sigma)
                        expect_valid = expect_valid and expected
                        points += 1
                assert valid_in_model(m, f)[0] == expect_valid, str(f)
    assert points > 5000


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
