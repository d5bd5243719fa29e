import random
import time

import pytest

from monotrick.syntax import (
    MAX_DEPTH, And, Atom, ArityConflictError, Box, Diamond, Eq, Exists, Falsum,
    Forall, Formula, Iff, Implies, Not, Or, ParseError, Verum, all_variables,
    classify, free_variables, letters, modal_depth, nesting_depth, parse,
    render,
)


class TestParse:
    def test_diamond_conjunction(self):
        assert parse("<>(Q1(x) & Q2(y))") == Diamond(
            And(Atom("Q1", ("x",)), Atom("Q2", ("y",))))

    def test_constants(self):
        assert parse("true") == Verum()
        assert parse("false") == Falsum()

    def test_quantified_implication(self):
        assert parse("forall x (P(x,y) -> P(x,y))") == Forall(
            "x", Implies(Atom("P", ("x", "y")), Atom("P", ("x", "y"))))

    def test_equality_atom(self):
        assert parse("x = y -> [](x = y)") == Implies(
            Eq("x", "y"), Box(Eq("x", "y")))

    def test_propositional_letter(self):
        assert parse("p") == Atom("p")
        assert parse("(Q1(x) & Q2(y) -> p) | q") == Or(
            Implies(And(Atom("Q1", ("x",)), Atom("Q2", ("y",))), Atom("p")),
            Atom("q"))

    def test_precedence_chain(self):
        # ~, [], <>, quantifiers > & > | > -> > <->
        f = parse("~p & q | r -> s <-> t")
        assert f == Iff(Implies(Or(And(Not(Atom("p")), Atom("q")), Atom("r")),
                                Atom("s")), Atom("t"))

    def test_implies_right_associative(self):
        assert parse("p -> q -> r") == Implies(Atom("p"),
                                               Implies(Atom("q"), Atom("r")))

    def test_iff_right_associative(self):
        assert parse("p <-> q <-> r") == Iff(Atom("p"),
                                             Iff(Atom("q"), Atom("r")))

    def test_and_or_left_associative(self):
        assert parse("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))
        assert parse("p | q | r") == Or(Or(Atom("p"), Atom("q")), Atom("r"))

    def test_comments_and_whitespace(self):
        assert parse("p &  # trailing comment\n q") == And(Atom("p"), Atom("q"))

    def test_trailing_white_space_scans_in_linear_time(self):
        # A scan that tried \s* again from each trailing space would take
        # seconds here, against well under a millisecond.
        started = time.perf_counter()
        assert parse("p" + " " * 10_000 + "\n" + "\t" * 10_000) == Atom("p")
        assert time.perf_counter() - started < 1.0

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse("p & & q")
        assert info.value.line == 1
        assert info.value.col == 5

    @pytest.mark.parametrize("text, message", [
        ("(p & q", "unexpected end of input at line 1, column 7 "
                   "(expected ')')"),
        ("P(x,", "unexpected end of input at line 1, column 5 "
                 "(expected variable)"),
        ("p ->", "unexpected end of input at line 1, column 5 "
                 "(expected formula)"),
    ])
    def test_end_of_input_is_not_a_token(self, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    def test_arity_conflict(self):
        with pytest.raises(ArityConflictError):
            parse("P(x) & P(x,y)")

    def test_bare_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("x & p")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("p $ q")


class TestDepthBound:
    @pytest.mark.parametrize("text", [
        "~" * 3000 + "p",
        "(" * 3000 + "p" + ")" * 3000,
        " & ".join(["p"] * 3000),
        "~" * MAX_DEPTH + "p",
        "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1),
    ], ids=["not-3000", "parentheses-3000", "and-3000", "not-limit",
            "parentheses-limit"])
    def test_too_deep_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nests deeper"):
            parse(text)

    @pytest.mark.parametrize("text", [
        "~" * (MAX_DEPTH - 1) + "P(x,y)",
        "[]" * (MAX_DEPTH - 1) + "P(x,y)",
        "forall x " * (MAX_DEPTH - 1) + "P(x,y)",
        "(" * MAX_DEPTH + "P(x,y)" + ")" * MAX_DEPTH,
        " -> ".join(["P(x,y)"] * MAX_DEPTH),
        " & ".join(["P(x,y)"] * MAX_DEPTH),
    ], ids=["not", "box", "forall", "parentheses", "implies", "and"])
    def test_deepest_accepted_formulas_are_usable(self, text):
        from monotrick.search import default_domain_bound
        from monotrick.semantics import evaluate, valid_in_model
        from monotrick.translations import Variant, fresh_scheme, kripke_trick
        from tests.test_semantics import simple_model
        f = parse(text)
        assert nesting_depth(f) <= MAX_DEPTH
        assert parse(render(f)) == f
        for query in (classify, letters, all_variables, free_variables,
                      modal_depth, default_domain_bound):
            query(f)
        has_box = "[]" in text
        if not has_box:  # the trick takes classical input only
            kripke_trick(f, Variant.DIAMOND2, fresh_scheme(f))
        for mode in ("modal",) if has_box else ("modal", "int"):
            m = simple_model(mode=mode, valuation={
                "w": {"P": frozenset({("a", "b")})},
                "v": {"P": frozenset({("a", "b")})}})
            evaluate(m, "w", {"x": "a", "y": "b"}, f)
            valid_in_model(m, f)

    def test_folds_spend_one_frame_per_level(self):
        """The folds over _children walk a library-built formula 700
        levels deep; at two frames per level they would pass the default
        recursion limit (1000)."""
        f = Atom("Q", ("x",))
        for i in range(700):
            f = (Not, Box, lambda body: Exists("x", body))[i % 3](f)
        assert classify(f).modal_depth == 233
        assert letters(f) == {"Q": 1}
        assert all_variables(f) == {"x"}
        assert free_variables(f) == frozenset()


class TestRender:
    def test_spec_shapes(self):
        assert render(Diamond(And(Atom("Q1", ("x",)), Atom("Q2", ("y",))))) \
            == "<>(Q1(x) & Q2(y))"
        assert render(Falsum()) == "false"
        assert render(Implies(Eq("x", "y"), Box(Eq("x", "y")))) \
            == "x = y -> [](x = y)"

    def test_minimal_parentheses(self):
        assert render(parse("(p & q) | r")) == "p & q | r"
        assert render(parse("p & (q | r)")) == "p & (q | r)"
        assert render(parse("(p -> q) -> r")) == "(p -> q) -> r"


def random_formula(rng, depth, vars_in_scope):
    choices = ["atom", "eq", "true", "false"]
    if depth > 0:
        choices += ["not", "and", "or", "implies", "iff", "box", "diamond",
                    "forall", "exists"]
    kind = rng.choice(choices)
    if kind == "atom":
        letter, arity = rng.choice([("p", 0), ("q", 0), ("Q1", 1), ("Q2", 1),
                                    ("P", 2)])
        args = tuple(rng.choice(vars_in_scope) for _ in range(arity))
        return Atom(letter, args)
    if kind == "eq":
        return Eq(rng.choice(vars_in_scope), rng.choice(vars_in_scope))
    if kind == "true":
        return Verum()
    if kind == "false":
        return Falsum()
    if kind in ("not", "box", "diamond"):
        ctor = {"not": Not, "box": Box, "diamond": Diamond}[kind]
        return ctor(random_formula(rng, depth - 1, vars_in_scope))
    if kind in ("forall", "exists"):
        var = rng.choice(["x", "y", "z", "u"])
        ctor = Forall if kind == "forall" else Exists
        return ctor(var, random_formula(rng, depth - 1,
                                        sorted(set(vars_in_scope) | {var})))
    ctor = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
    return ctor(random_formula(rng, depth - 1, vars_in_scope),
                random_formula(rng, depth - 1, vars_in_scope))


def test_parse_render_round_trip():
    rng = random.Random(2024)
    for _ in range(500):
        f = random_formula(rng, depth=5, vars_in_scope=["x", "y"])
        assert parse(render(f)) == f, render(f)


def test_free_variables():
    assert free_variables(parse("forall x P(x,y)")) == {"y"}
    assert free_variables(parse("<>(Q1(x) & Q2(y))")) == {"x", "y"}
    assert free_variables(parse("true")) == frozenset()
    assert free_variables(parse("x = y")) == {"x", "y"}


def test_letters_and_depth():
    f = parse("[]<>(P(x,y) & Q1(x)) | p")
    assert letters(f) == {"P": 2, "Q1": 1, "p": 0}
    assert modal_depth(f) == 2


class TestClassify:
    def test_kripke_trick_shape(self):
        report = classify(parse("<>(Q1(x) & Q2(y))"))
        assert report.is_monadic and not report.is_monodic
        assert report.max_letter_arity == 1
        assert report.variable_count == 2

    def test_binary_under_box(self):
        report = classify(parse("[]P(x,y)"))
        assert not report.is_monadic and not report.is_monodic
        assert report.max_letter_arity == 2

    def test_positive_variant(self):
        report = classify(parse("(Q1(x) & Q2(y) -> p) | q"))
        assert report.is_monadic and report.is_positive
        assert report.modal_depth == 0

    def test_alpha_invariance(self):
        # closed formulas, so the renaming is a bijection on names
        rng = random.Random(7)
        for _ in range(200):
            f = Forall("x", Forall("y", random_formula(
                rng, depth=4, vars_in_scope=["x", "y"])))
            renamed = _rename_bound(f, {})
            assert classify(renamed) == classify(f)

    def test_monodic_propagates_to_modal_subformulas(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(300):
            f = random_formula(rng, depth=4, vars_in_scope=["x", "y"])
            if not classify(f).is_monodic:
                continue
            for g in subformulas(f):
                if isinstance(g, (Box, Diamond)):
                    assert classify(g.body).is_monodic
                    checked += 1
        assert checked > 0

    def test_one_walk_agrees_with_the_separate_queries(self):
        """classify's single walk against the report assembled from
        letters, free_variables, all_variables and modal_depth; a third of
        the formulas repeat a letter at another arity, and both must
        raise the same ArityConflictError."""
        def reference(f):
            arity = max(letters(f).values(), default=0)
            return (arity <= 1,
                    all(len(free_variables(g)) <= 1 for g in subformulas(f)
                        if isinstance(g, (Box, Diamond))),
                    not any(isinstance(g, (Not, Falsum))
                            for g in subformulas(f)),
                    any(isinstance(g, Eq) for g in subformulas(f)),
                    len(all_variables(f)), modal_depth(f), arity)

        def outcome(query, f):
            try:
                return query(f)
            except ArityConflictError as exc:
                return str(exc)

        rng = random.Random(5)
        conflicts = 0
        for i in range(600):
            f = random_formula(rng, depth=5, vars_in_scope=["x", "y"])
            if i % 3 == 0:
                f = Or(Atom("Q1", ("x", "y")) if i % 2 else f,
                       And(f, Atom("Q1", ("x",))) if i % 2 else Atom("P", ()))
            want = outcome(reference, f)
            got = outcome(lambda g: tuple(classify(g).to_dict().values()), f)
            assert got == want, render(f)
            conflicts += isinstance(want, str)
        assert conflicts > 50


def subformulas(f):
    """f and every subformula of f, outermost first, left before right."""
    yield f
    for c in vars(f).values():
        if isinstance(c, Formula):
            yield from subformulas(c)


def _rename_bound(f, mapping):
    if isinstance(f, Atom):
        return Atom(f.letter, tuple(mapping.get(a, a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(mapping.get(f.left, f.left), mapping.get(f.right, f.right))
    if isinstance(f, (Verum, Falsum)):
        return f
    if isinstance(f, (Not, Box, Diamond)):
        return type(f)(_rename_bound(f.body, mapping))
    if isinstance(f, (Forall, Exists)):
        fresh = f.var + "9"  # alpha-convert every binder uniformly
        return type(f)(fresh, _rename_bound(f.body, {**mapping, f.var: fresh}))
    return type(f)(_rename_bound(f.left, mapping), _rename_bound(f.right, mapping))
