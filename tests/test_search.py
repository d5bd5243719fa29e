import random
from itertools import product

import pytest

from monotrick.search import (
    ClassicalSearchError, FrameClass, classical_evaluate, classical_sat,
    decide_valid_over_frame, default_domain_bound, enumerate_frames,
    enumerate_models, eq_separation_search, frame_matches, frame_properties,
    parse_frame_class, sat_bounded,
)
from monotrick.semantics import Frame, evaluate, validate_model
from monotrick.syntax import (
    And, Atom, Eq, Exists, Falsum, Forall, Iff, Implies, Not, Or, Verum,
    free_variables, letters, parse, render,
)
from tests.conftest import golden_verdict


def frame(worlds, access):
    return Frame(tuple(worlds), frozenset(access))


REFLEXIVE_POINT = frame(["w0"], [("w0", "w0")])


class TestClassicalSat:
    def test_asymmetric_pair(self):
        got = classical_sat(parse("exists x exists y (P(x,y) & ~P(y,x))"), 2)
        assert got is not None
        assert got.domain == (0, 1)
        assert got.relation == frozenset({(0, 1)})

    def test_false_has_no_model(self):
        assert classical_sat(parse("false"), 3) is None

    def test_smallest_reflexive_point(self):
        got = classical_sat(parse("exists x P(x,x)"), 1)
        assert got.domain == (0,)
        assert got.relation == frozenset({(0, 0)})

    def test_unary_and_nullary_witness(self):
        got = classical_sat(parse("exists x Q(x) & p"), 2)
        assert got.unary == {"Q": frozenset({0})}
        assert got.nullary == {"p": True}

    def test_rejects_open_formula(self):
        with pytest.raises(ClassicalSearchError):
            classical_sat(parse("P(x,y)"), 2)

    def test_rejects_modality(self):
        with pytest.raises(ClassicalSearchError):
            classical_sat(parse("<>true"), 2)


def naive_classical_evaluate(domain, interp, assignment, f):
    """Reference: classical truth by walking the tree at every step, with
    a fresh assignment for each value a quantifier binds."""
    def ev(g, assignment):
        if isinstance(g, Atom):
            return tuple(assignment[x] for x in g.args) in \
                interp.get(g.letter, frozenset())
        if isinstance(g, Eq):
            return assignment[g.left] == assignment[g.right]
        if isinstance(g, Verum):
            return True
        if isinstance(g, Falsum):
            return False
        if isinstance(g, Not):
            return not ev(g.body, assignment)
        if isinstance(g, And):
            return ev(g.left, assignment) and ev(g.right, assignment)
        if isinstance(g, Or):
            return ev(g.left, assignment) or ev(g.right, assignment)
        if isinstance(g, Implies):
            return not ev(g.left, assignment) or ev(g.right, assignment)
        if isinstance(g, Iff):
            return ev(g.left, assignment) == ev(g.right, assignment)
        if isinstance(g, Forall):
            return all(ev(g.body, {**assignment, g.var: a}) for a in domain)
        if isinstance(g, Exists):
            return any(ev(g.body, {**assignment, g.var: a}) for a in domain)
        raise AssertionError(f"not first-order: {type(g).__name__}")
    return ev(f, assignment)


FO_LETTERS = (("p", 0), ("Q", 1), ("P", 2))
FO_SEED = 2027
FO_COUNT = 40


def random_first_order(rng, depth):
    """A random first-order formula over p, Q, P and =, with variables x,
    y, z free or bound; quantifiers may rebind a variable in scope."""
    kind = rng.choice(["atom", "atom", "eq", "true", "false"] if depth == 0
                      else ["atom", "eq", "not", "and", "or", "implies",
                            "iff", "forall", "exists", "forall", "exists"])
    if kind == "atom":
        letter, arity = rng.choice(FO_LETTERS)
        return Atom(letter, tuple(rng.choice("xyz") for _ in range(arity)))
    if kind == "eq":
        return Eq(rng.choice("xyz"), rng.choice("xyz"))
    if kind in ("true", "false"):
        return Verum() if kind == "true" else Falsum()
    if kind in ("forall", "exists"):
        ctor = Forall if kind == "forall" else Exists
        return ctor(rng.choice("xyz"), random_first_order(rng, depth - 1))
    if kind == "not":
        return Not(random_first_order(rng, depth - 1))
    ctor = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
    return ctor(random_first_order(rng, depth - 1),
                random_first_order(rng, depth - 1))


def _interpretations(used, n):
    """Every interpretation over range(n) of the letters in used."""
    names = sorted(used)
    extensions = [[frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)
                   for mask in range(1 << len(tuples))]
                  for tuples in (list(product(range(n), repeat=used[name]))
                                 for name in names)]
    for combo in product(*extensions):
        yield dict(zip(names, combo))


FIXED_FIRST_ORDER = (
    "forall x exists x P(x,x)",
    "exists x (Q(x) & forall x ~Q(x)) | p",
    "forall x (P(x,y) -> exists y (P(y,x) & ~(x = y)))",
    "x = y <-> exists z (P(x,z) & P(z,y))",
    "exists x exists y (~(x = y) & forall z (z = x | z = y))",
    "Q(z) & forall z (Q(z) -> P(z,z))",
    "p -> false",
)


class TestClassicalOracle:
    def test_matches_naive_evaluation(self):
        """Every fixed and seeded random formula, on every structure of
        at most three individuals over its letters.  An open formula
        takes the assignments of its free variables in turn, one per
        structure, and each size meets each structure and each
        assignment.  Where z is not free the assignment still gives it
        a value, which must not leak into a quantifier that binds z."""
        rng = random.Random(FO_SEED)
        formulas = [parse(text) for text in FIXED_FIRST_ORDER]
        formulas += [random_first_order(rng, 4) for _ in range(FO_COUNT)]
        covered = set()
        for f in formulas:
            free = sorted(free_variables(f))
            used = letters(f)
            for n in range(1, 4):
                domain = tuple(range(n))
                points = [{"z": n - 1, **dict(zip(free, values))}
                          for values in product(domain, repeat=len(free))]
                interps = list(_interpretations(used, n))
                for i in range(max(len(interps), len(points))):
                    interp = interps[i % len(interps)]
                    assignment = points[i % len(points)]
                    assert classical_evaluate(domain, interp, assignment, f) \
                        == naive_classical_evaluate(domain, interp,
                                                    assignment, f), \
                        (render(f), interp, assignment)
            covered.update(used.values())
            covered.add("open" if free else "closed")
        assert covered == {0, 1, 2, "open", "closed"}

    def test_unbound_free_variable_is_named(self):
        message = r"^unassigned free variables: \['x', 'y'\]$"
        for text in ("Q(x) & P(x,y)", "true | P(y,x)", "x = y | true"):
            with pytest.raises(ClassicalSearchError, match=message):
                classical_evaluate((0, 1), {}, {}, parse(text))
        with pytest.raises(ClassicalSearchError,
                           match=r"^unassigned free variables: \['y'\]$"):
            classical_evaluate((0, 1), {}, {"x": 0}, parse("P(x,y)"))

    def test_modality_is_rejected_before_evaluation(self):
        for text, node in (("true | <>q", "Diamond"),
                           ("false & []q", "Box"),
                           ("exists x (Q(x) | <>Q(x))", "Diamond")):
            with pytest.raises(ClassicalSearchError,
                               match=f"^modality in classical formula: {node}$"):
                classical_evaluate((0,), {}, {}, parse(text))


class TestFrameProperties:
    def test_two_cycle(self):
        rep = frame_properties(frame(["w", "v"], [("w", "v"), ("v", "w")]))
        assert rep.symmetric and rep.serial
        assert not rep.reflexive and not rep.transitive and not rep.linear
        assert rep.max_out_degree == 1

    def test_universal_three(self):
        ws = ["w0", "w1", "w2"]
        rep = frame_properties(frame(ws, [(a, b) for a in ws for b in ws]))
        assert rep.reflexive and rep.transitive and rep.symmetric
        assert rep.euclidean and rep.serial
        assert rep.max_out_degree == 3

    def test_chain_with_loops(self):
        rep = frame_properties(
            frame(["w", "v"], [("w", "w"), ("v", "v"), ("w", "v")]))
        assert rep.reflexive and rep.transitive and rep.partial_order
        assert rep.linear
        assert rep.max_out_degree == 2

    def test_irreflexive_transitive(self):
        rep = frame_properties(frame(["w", "v"], [("w", "v")]))
        assert rep.irreflexive_transitive
        assert not rep.serial


class TestEnumerateFrames:
    def test_counts_without_constraints(self):
        assert sum(1 for _ in enumerate_frames(1, FrameClass())) == 2
        # 2^(k^2) relations on k worlds, k in {1, 2}
        assert sum(1 for _ in enumerate_frames(2, FrameClass())) == 18

    def test_reflexive_single_world(self):
        frames = list(enumerate_frames(1, parse_frame_class("reflexive")))
        assert len(frames) == 1
        assert frames[0].access == frozenset({("w0", "w0")})

    def test_alt_bound(self):
        for fr in enumerate_frames(2, parse_frame_class("alt_1")):
            assert frame_properties(fr).max_out_degree <= 1

    @pytest.mark.parametrize("text", ("alt_1,alt_2", "alt_2,alt_1"))
    def test_repeated_alt_keeps_the_least_bound(self, text):
        # A class is a conjunction: alt_1 and alt_2 is alt_1.
        assert parse_frame_class(text) == parse_frame_class("alt_1")

    def test_matches_its_own_filter(self):
        cls = parse_frame_class("transitive,serial")
        for fr in enumerate_frames(2, cls):
            assert frame_matches(fr, cls)


class TestEnumerateModels:
    def test_witnesses_validate(self):
        fr = frame(["w0", "w1"], [("w0", "w0"), ("w0", "w1"), ("w1", "w1")])
        count = 0
        for m in enumerate_models(fr, {"Q": 1}, 2, "int", "eq1"):
            assert validate_model(m) == []
            count += 1
        assert count > 0

    def test_constant_domains(self):
        fr = frame(["w0", "w1"], [("w0", "w1")])
        for m in enumerate_models(fr, {}, 2, "modal", "eq3",
                                  constant_domains=True):
            assert m.domains["w0"] == m.domains["w1"]


class TestSatBounded:
    def test_diamond_pair_satisfiable(self):
        verdict = sat_bounded(parse("exists x exists y <>(Q1(x) & Q2(y))"),
                              FrameClass(), world_bound=2, domain_bound=2)
        assert verdict.outcome == "satisfiable"
        assert validate_model(verdict.model) == []
        assert evaluate(verdict.model, verdict.world, verdict.assignment,
                        parse("exists x exists y <>(Q1(x) & Q2(y))"))

    def test_false_unsatisfiable(self):
        verdict = sat_bounded(parse("false"), FrameClass(), 2, 2)
        assert verdict.outcome == "unsatisfiable_up_to_bound"

    def test_alt0_kills_diamond(self):
        verdict = sat_bounded(parse("<>true"), FrameClass(alt_bound=0), 2, 2)
        assert verdict.outcome == "unsatisfiable_up_to_bound"

    def test_step_cap(self):
        verdict = sat_bounded(parse("<>false"), FrameClass(), 3, 2, max_steps=5)
        assert verdict.outcome == "bound_exhausted"

    def test_negative_step_cap_rejected(self):
        with pytest.raises(ValueError, match="step cap"):
            sat_bounded(parse("false"), FrameClass(), 1, 1, max_steps=-1)

    def test_monotone_in_bounds(self):
        f = parse("exists x exists y (<>(Q1(x) & Q2(y)) & ~(x = y))")
        small = sat_bounded(f, FrameClass(), 2, 2)
        assert small.outcome == "satisfiable"
        for worlds, domain in ((2, 3), (3, 2), (3, 3)):
            again = sat_bounded(f, FrameClass(), worlds, domain)
            assert again.outcome == "satisfiable"

    def test_matches_golden_verdict(self):
        f = parse("exists x exists y <>(Q1(x) & Q2(y))")
        assert sat_bounded(f, FrameClass(), 2, 2).to_json() == \
            golden_verdict("sat-modal-eq3-diamond-pair")


class TestDecideValidOverFrame:
    def test_tautology(self):
        verdict = decide_valid_over_frame(
            REFLEXIVE_POINT, parse("<>Q(x) -> <>Q(x)"), 2)
        assert verdict.outcome == "valid"

    def test_classical_equality_on_a_point(self):
        verdict = decide_valid_over_frame(
            REFLEXIVE_POINT, parse("x = y | ~(x = y)"), 2, eq_principle="eq3")
        assert verdict.outcome == "valid"

    def test_eq1_separates_decidable_equality(self):
        fr = frame(["w0", "w1"],
                   [("w0", "w0"), ("w1", "w1"), ("w0", "w1")])
        verdict = decide_valid_over_frame(
            fr, parse("x = y | ~(x = y)"), 2, mode="int", eq_principle="eq1")
        assert verdict.outcome == "countermodel"
        assert validate_model(verdict.model) == []
        assert not evaluate(verdict.model, verdict.world, verdict.assignment,
                            parse("x = y | ~(x = y)"))
        # the witness merges two individuals only at the later world
        assert not verdict.model.related("w0", "a0", "a1")
        assert verdict.model.related("w1", "a0", "a1")

    def test_non_monadic_warning(self):
        verdict = decide_valid_over_frame(
            REFLEXIVE_POINT, parse("forall x forall y (P(x,y) -> P(x,y))"), 1)
        assert verdict.outcome == "valid"
        assert verdict.warnings

    def test_heuristic_default_bound(self):
        f = parse("forall x (Q(x) | ~Q(x))")
        assert default_domain_bound(f) == 2 * 2
        verdict = decide_valid_over_frame(REFLEXIVE_POINT, f)
        assert verdict.outcome == "no_countermodel_up_to_bound"
        assert verdict.bounds_used["domain_bound"] == 4
        assert verdict.bounds_used["domain_bound_heuristic"] is True

    @pytest.mark.xfail(strict=True, reason="the default domain bound "
                       "ignores the frame; a countermodel needs 5 individuals")
    def test_default_bound_finds_five_type_countermodel(self):
        # Five individuals of distinct types at w0 (whether Q holds of
        # each at w0, w1 and w2) falsify the negated conjunction, so it is
        # not valid on the 3-chain; the default bound, 2 * (1 + 1) = 4,
        # has room for four.
        types = [f"exists x ({a}Q(x) & {b}<>Q(x) & {c}<><>Q(x))"
                 for a, b, c in product(("", "~"), repeat=3)][:5]
        f = parse("~(" + " & ".join(types) + ")")
        chain3 = frame(["w0", "w1", "w2"], [("w0", "w1"), ("w1", "w2")])
        assert default_domain_bound(f) == 4
        assert decide_valid_over_frame(chain3, f).outcome == "countermodel"

    def test_rejects_non_preorder_in_int_mode(self):
        with pytest.raises(ValueError):
            decide_valid_over_frame(frame(["w0"], []), parse("true"),
                                    1, mode="int")

    def test_matches_golden_verdict(self):
        f = parse("forall x (Q(x) -> []Q(x))")
        fr = frame(["w0", "w1"], [("w0", "w1")])
        verdict = decide_valid_over_frame(fr, f, 2)
        assert verdict.outcome == "countermodel"
        assert verdict.to_json() == \
            golden_verdict("decide-modal-eq3-chain-persistence")


def test_oracle_agreement_on_reflexive_point(monadic_corpus):
    from monotrick.syntax import Not
    for text in monadic_corpus:
        f = parse(text)
        verdict = decide_valid_over_frame(REFLEXIVE_POINT, f, 3,
                                          eq_principle="eq3")
        counter = classical_sat(Not(f), 3)
        assert (verdict.outcome == "valid") == (counter is None), text


def test_eq_separation_search_small():
    report = eq_separation_search(world_bound=2, domain_bound=2)
    assert report.eq2_not_eq1 is not None
    assert report.eq2_not_eq1.reverified
    d = report.to_dict()
    assert d["eq3_not_eq2"] == "not found within bounds" or \
        d["eq3_not_eq2"]["reverified"]
