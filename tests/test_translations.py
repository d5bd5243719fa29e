from itertools import combinations, product

import pytest

from monotrick.experiments import enumerate_structures
from monotrick.search import classical_evaluate
from monotrick.semantics import evaluate, model_to_dict, validate_model
from monotrick.syntax import classify, parse, render
from monotrick.translations import (
    ClassicalStructure, NamingScheme, TranslationError, Variant,
    build_companion_model, companion_table, fresh_letter, fresh_scheme,
    kripke_trick, positivize,
)


class TestPositivize:
    @pytest.mark.parametrize("before, after", [
        ("~Q(x)", "Q(x) -> p"),
        ("Q(x)", "Q(x)"),
        ("~~q", "(q -> p) -> p"),
        ("false | r", "p | r"),
    ])
    def test_examples(self, before, after):
        assert positivize(parse(before), "p") == parse(after)

    def test_result_is_positive_and_flags_preserved(self):
        for text in ("~P(x,y)", "forall x ~(P(x,y) & ~P(y,x))",
                     "[](~Q(x) | false)"):
            f = parse(text)
            g = positivize(f, "p0")
            rep_f, rep_g = classify(f), classify(g)
            assert rep_g.is_positive
            assert rep_g.is_monadic == rep_f.is_monadic
            assert rep_g.is_monodic == rep_f.is_monodic

    def test_fresh_collision(self):
        with pytest.raises(TranslationError):
            positivize(parse("~Q(x)"), "Q")


class TestKripkeTrick:
    def test_diamond2(self):
        assert render(kripke_trick(parse("P(x,y)"), Variant.DIAMOND2)) \
            == "<>(Q1(x) & Q2(y))"

    def test_neg_diamond1(self):
        assert render(kripke_trick(parse("P(x,y)"), Variant.NEG_DIAMOND1)) \
            == "~<>(Q(x) & Q(y))"

    def test_positive_imp_homomorphic(self):
        got = kripke_trick(parse("forall x exists y P(x,y)"),
                           Variant.POSITIVE_IMP)
        assert got == parse("forall x exists y ((Q1(x) & Q2(y) -> p_neg) | q_aux)")

    def test_neg_disj(self):
        assert render(kripke_trick(parse("P(x,y)"), Variant.NEG_DISJ)) \
            == "~(Q1(x) & Q2(y)) | q_aux"

    def test_monadic_output(self, classical_corpus):
        import warnings as w
        for text in classical_corpus:
            for variant in Variant:
                with w.catch_warnings():
                    w.simplefilter("ignore")  # corpus is not positivized
                    assert classify(kripke_trick(parse(text), variant)).is_monadic

    def test_rejects_modalities(self):
        with pytest.raises(TranslationError):
            kripke_trick(parse("[]P(x,y)"), Variant.DIAMOND2)

    def test_rejects_second_binary_letter(self):
        with pytest.raises(TranslationError):
            kripke_trick(parse("P(x,y) & R(y,x)"), Variant.DIAMOND2)

    def test_rejects_equality(self):
        with pytest.raises(TranslationError):
            kripke_trick(parse("P(x,y) & x = y"), Variant.DIAMOND2)

    def test_fresh_scheme_avoids_collisions(self):
        scheme = fresh_scheme(parse("P(x,y) & Q1(z)"))
        assert scheme.q1 == "Q1_1"
        g = kripke_trick(parse("P(x,y)"), Variant.DIAMOND2, scheme)
        assert render(g) == "<>(Q1_1(x) & Q2_1(y))"
        # The least suffix that frees every name; fresh_letter likewise.
        f = parse("P(x,y) & Q1(z) & q_aux_1 & p_neg & p_neg_1 & p_pos_2")
        assert fresh_scheme(f) == NamingScheme(
            "Q1_2", "Q2_2", "Q_2", "p_neg_2", "q_aux_2")
        assert fresh_scheme(parse("P(x,y) & R(z)")) == NamingScheme()
        assert fresh_letter(f) == "p_neg_2"
        assert fresh_letter(f, "p_pos") == "p_pos"
        assert fresh_letter(parse("p_pos"), "p_pos") == "p_pos_1"

    def test_positive_variant_warns_on_negative_input(self):
        with pytest.warns(UserWarning):
            kripke_trick(parse("~P(x,y)"), Variant.POSITIVE_IMP)


class TestCompanionModel:
    def test_diamond2_single_pair(self):
        s = ClassicalStructure((0, 1), frozenset({(0, 1)}))
        model, root = build_companion_model(s, Variant.DIAMOND2)
        assert set(model.frame.worlds) == {"root", "w_0_1"}
        assert validate_model(model) == []
        f = parse("<>(Q1(x) & Q2(y))")
        assert evaluate(model, root, {"x": 0, "y": 1}, f)
        assert not evaluate(model, root, {"x": 1, "y": 0}, f)

    def test_diamond2_empty_relation(self):
        s = ClassicalStructure((0,), frozenset())
        model, root = build_companion_model(s, Variant.DIAMOND2)
        assert model.frame.worlds == ("root",)
        assert not evaluate(model, root, {"x": 0, "y": 0},
                            parse("<>(Q1(x) & Q2(y))"))

    def test_neg_diamond1_two_cycle(self):
        s = ClassicalStructure((0, 1), frozenset({(0, 1), (1, 0)}))
        model, root = build_companion_model(s, Variant.NEG_DIAMOND1)
        assert set(model.frame.worlds) == {"root", "w_0_0", "w_1_1"}
        f = parse("~<>(Q(x) & Q(y))")
        assert evaluate(model, root, {"x": 0, "y": 1}, f)
        assert not evaluate(model, root, {"x": 0, "y": 0}, f)

    def test_neg_diamond1_rejects_bad_relation(self):
        with pytest.raises(TranslationError):
            build_companion_model(
                ClassicalStructure((0,), frozenset({(0, 0)})),
                Variant.NEG_DIAMOND1)
        with pytest.raises(TranslationError):
            build_companion_model(
                ClassicalStructure((0, 1), frozenset({(0, 1)})),
                Variant.NEG_DIAMOND1)

    def test_one_table_serves_the_structures_on_its_domain(self):
        table = companion_table(Variant.DIAMOND2, NamingScheme(), (1, 0))
        for rel, worlds in ((set(), ("root",)),
                            ({(1, 0)}, ("root", "w_1_0")),
                            ({(0, 1), (1, 1)}, ("root", "w_0_1", "w_1_1"))):
            s = ClassicalStructure((0, 1), frozenset(rel))
            model, root = build_companion_model(s, Variant.DIAMOND2,
                                                table=table)
            assert model.frame.worlds == worlds
            assert validate_model(model) == []
            assert model_to_dict(model) == model_to_dict(
                build_companion_model(s, Variant.DIAMOND2)[0])

    def test_no_companion_for_positive_variants(self):
        s = ClassicalStructure((0,), frozenset())
        with pytest.raises(TranslationError):
            build_companion_model(s, Variant.POSITIVE_IMP)

    def test_atom_level_guarantee_diamond2_exhaustive(self):
        # every structure with up to 4 individuals, every pair
        for n in range(1, 5):
            domain = tuple(range(n))
            pairs = sorted(product(domain, repeat=2))
            # sampling all relations is 2^16 at n=4; keep every relation
            # for n <= 3 and a deterministic stride at n = 4
            masks = range(1 << len(pairs)) if n <= 3 else \
                range(0, 1 << len(pairs), 257)
            for mask in masks:
                rel = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
                s = ClassicalStructure(domain, rel)
                model, root = build_companion_model(s, Variant.DIAMOND2)
                f = parse("<>(Q1(x) & Q2(y))")
                for a in domain:
                    for b in domain:
                        assert evaluate(model, root, {"x": a, "y": b}, f) \
                            == ((a, b) in rel)

    def test_atom_level_guarantee_neg_diamond1_exhaustive(self):
        for n in range(1, 5):
            domain = tuple(range(n))
            edges = list(combinations(domain, 2))
            for mask in range(1 << len(edges)):
                chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
                rel = frozenset(p for (a, b) in chosen
                                for p in ((a, b), (b, a)))
                s = ClassicalStructure(domain, rel)
                model, root = build_companion_model(s, Variant.NEG_DIAMOND1)
                f = parse("~<>(Q(x) & Q(y))")
                for a in domain:
                    for b in domain:
                        assert evaluate(model, root, {"x": a, "y": b}, f) \
                            == ((a, b) in rel)


class TestFullFaithfulness:
    def test_diamond2_small_corpus(self, classical_corpus):
        formulas = [parse(t) for t in classical_corpus]
        structures = list(enumerate_structures(2))
        for f in formulas:
            g = kripke_trick(f, Variant.DIAMOND2)
            for s in structures:
                classical = classical_evaluate(s.domain, {"P": s.relation}, {}, f)
                model, root = build_companion_model(s, Variant.DIAMOND2)
                assert evaluate(model, root, {}, g) == classical, render(f)

    def test_neg_diamond1_small_corpus(self, graph_corpus):
        formulas = [parse(t) for t in graph_corpus]
        structures = list(enumerate_structures(3, symmetric_irreflexive=True))
        for f in formulas:
            g = kripke_trick(f, Variant.NEG_DIAMOND1)
            for s in structures:
                classical = classical_evaluate(s.domain, {"P": s.relation}, {}, f)
                model, root = build_companion_model(s, Variant.NEG_DIAMOND1)
                assert evaluate(model, root, {}, g) == classical, render(f)
