from collections import Counter
from itertools import combinations, permutations

import pytest

from monotrick import experiments
from monotrick.experiments import (
    ExperimentReport, enumerate_structures, trick_experiment,
)
from monotrick.search import classical_evaluate, compile_classical
from monotrick.semantics import compile_formula
from monotrick.syntax import letters, parse, render
from monotrick.translations import (
    ClassicalStructure, TranslationError, Variant, build_companion_model,
    companion_table, fresh_scheme, kripke_trick,
)
from tests.conftest import read_corpus


def test_structure_counts():
    # 2^(n^2) relations per domain size n
    assert sum(1 for _ in enumerate_structures(2)) == 2 + 16
    assert sum(1 for _ in enumerate_structures(3)) == 2 + 16 + 512
    # 2^C(n,2) undirected loop-free graphs per size
    assert sum(1 for _ in enumerate_structures(4, symmetric_irreflexive=True)) \
        == 1 + 2 + 8 + 64


def test_structure_order():
    # d2: relations in the bit order of their frame masks (bit n*a + b).
    assert [(len(s.domain), _mask(s)) for s in enumerate_structures(3)] \
        == [(n, m) for n in range(1, 4) for m in range(1 << n * n)]
    # nd1: edge subsets in the bit order of combinations(domain, 2).  At
    # four individuals this is not the order of the relations' frame
    # masks, so the structures cannot be enumerated as frames without
    # renumbering them.
    expected = [(n, frozenset(p for i, (a, b) in enumerate(edges)
                              if m >> i & 1 for p in ((a, b), (b, a))))
                for n in range(1, 5)
                for edges in [list(combinations(range(n), 2))]
                for m in range(1 << len(edges))]
    structures = list(enumerate_structures(4, symmetric_irreflexive=True))
    assert [(len(s.domain), s.relation) for s in structures] == expected
    by_mask = {n: [_mask(s) for s in structures if len(s.domain) == n]
               for n in (3, 4)}
    assert by_mask[3] == sorted(by_mask[3])
    assert by_mask[4] != sorted(by_mask[4])


def test_symmetric_irreflexive_stream_is_well_formed():
    for s in enumerate_structures(3, symmetric_irreflexive=True):
        assert s.is_symmetric() and s.is_irreflexive()


def test_diamond2_single_formula():
    report = trick_experiment(["exists x exists y P(x,y)"],
                              Variant.DIAMOND2, 2)
    assert report.structure_count == 18
    assert report.agreement == 18
    assert report.disagreements == []
    assert report.agreement + len(report.disagreements) \
        == report.corpus_size * report.structure_count


def test_neg_diamond1_symmetry_formula():
    report = trick_experiment(["forall x forall y (P(x,y) -> P(y,x))"],
                              Variant.NEG_DIAMOND1, 3)
    assert report.structure_count == 11  # 1 + 2 + 8
    assert report.agreement == 11
    assert report.disagreements == []


def test_empty_corpus():
    report = trick_experiment([], Variant.DIAMOND2, 1)
    assert report.corpus_size == 0
    assert report.agreement == 0


def test_inadmissible_formulas_are_skipped():
    report = trick_experiment(["P(x,y)", "<>p", "exists x Q(x)"],
                              Variant.DIAMOND2, 1)
    assert report.corpus_size == 0
    assert len(report.skipped) == 3


def test_sentence_with_propositional_letter_is_skipped():
    # No structure makes p true, so its agreements would be unchecked.
    report = trick_experiment(["exists x exists y P(x,y) | p",
                               "forall x P(x,x)"], Variant.DIAMOND2, 2)
    assert report.corpus_size == 1
    assert report.agreement == report.structure_count == 18
    assert report.skipped == [{
        "formula": "exists x exists y P(x,y) | p",
        "reason": "propositional letter 'p' is not interpreted by the "
                  "structures"}]


def test_positive_variants_rejected():
    # One check and one text for a variant without a companion model.
    s = ClassicalStructure((0,), frozenset())
    message = "no companion construction for variant pi"
    with pytest.raises(TranslationError, match=f"^{message}$"):
        trick_experiment([], Variant.POSITIVE_IMP, 1)
    with pytest.raises(TranslationError, match=f"^{message}$"):
        build_companion_model(s, Variant.POSITIVE_IMP)


def test_report_round_trips():
    report = trick_experiment(["forall x P(x,x)"], Variant.DIAMOND2, 2)
    d = report.to_dict()
    assert isinstance(ExperimentReport(**d), ExperimentReport)


def _mask(s):
    n = len(s.domain)
    return sum(1 << (n * a + b) for a, b in s.relation)


def _least_member(s):
    """(n, relation mask) of the least-labelled member of s's class."""
    n = len(s.domain)
    return n, min(sum(1 << (n * p[a] + p[b]) for a, b in s.relation)
                  for p in permutations(range(n)))


def _least_in_class(s):
    """Whether no renaming of the domain gives s a smaller relation mask."""
    return _least_member(s) == (len(s.domain), _mask(s))


def _labelled_walk(corpus, variant, size_bound):
    """Reference: the comparison made on every labelled structure."""
    structures = list(enumerate_structures(size_bound,
                                           variant is Variant.NEG_DIAMOND1))
    agreement, disagreements = 0, []
    for f in map(parse, corpus):
        scheme = fresh_scheme(f)
        translated = compile_formula(experiments.kripke_trick(f, variant,
                                                              scheme), "modal")
        binary, = (name for name, a in letters(f).items() if a == 2)
        for idx, s in enumerate(structures):
            classical = classical_evaluate(s.domain, {binary: s.relation},
                                           {}, f)
            model, root = build_companion_model(s, variant, scheme)
            modal = translated.holds(model, root, ())
            if classical == modal:
                agreement += 1
            else:
                disagreements.append({
                    "formula": render(f),
                    "structure": {"domain": list(s.domain),
                                  "relation": sorted(map(list, s.relation))},
                    "structure_index": idx,
                    "classical": classical,
                    "modal": modal,
                })
    return len(structures), agreement, disagreements


def _unfaithful(f, variant, names=None):
    """The trick applied after negating every P atom: still a closed
    monadic sentence, so its truth is invariant under renaming, but it
    disagrees with classical truth on some classes and not on others."""
    return kripke_trick(parse(render(f).replace("P(", "~P(")), variant, names)


@pytest.mark.parametrize("corpus, variant, size", [
    ("classical_corpus.txt", Variant.DIAMOND2, 3),
    ("graph_corpus.txt", Variant.NEG_DIAMOND1, 4),
    # 1,099 structures; at five individuals too the edge order of the
    # structures is not the order of their relation masks.
    ("graph_corpus.txt", Variant.NEG_DIAMOND1, 5),
])
def test_one_structure_per_class_matches_labelled_walk(monkeypatch, corpus,
                                                       variant, size):
    sentences = read_corpus(corpus)
    monkeypatch.setattr(experiments, "kripke_trick", _unfaithful)
    count, agreement, disagreements = _labelled_walk(sentences, variant, size)
    assert disagreements and agreement

    compiled_for, met, tables, built = [], [], [], []

    def oracle(f):
        compiled_for.append(render(f))
        compiled = compile_classical(f)

        def holds(domain, interp, values):
            met.append((render(f), tuple(domain), interp["P"]))
            return compiled.holds(domain, interp, values)
        return compiled._replace(holds=holds)

    def table(variant, names, domain):
        made = companion_table(variant, names, domain)
        tables.append((made, names))
        return made

    def builder(s, variant, names, table):
        built.append((s, table, names))
        return build_companion_model(s, variant, names, table)

    monkeypatch.setattr(experiments, "compile_classical", oracle)
    monkeypatch.setattr(experiments, "companion_table", table)
    monkeypatch.setattr(experiments, "build_companion_model", builder)
    report = trick_experiment(sentences, variant, size)
    assert report.structure_count == count
    assert report.agreement == agreement
    assert report.disagreements == disagreements
    # Each sentence is compiled once and meets the least-labelled member
    # of each class, class by class.  The sentences share one naming
    # scheme: the call makes one table of pair worlds for each size, and
    # builds each class's companion once, from the table of its size.
    representatives = [s for s in enumerate_structures(
        size, variant is Variant.NEG_DIAMOND1) if _least_in_class(s)]
    assert compiled_for == [render(parse(text)) for text in sentences]
    assert met == [(render(parse(text)), s.domain, s.relation)
                   for s in representatives for text in sentences]
    scheme = fresh_scheme(parse(sentences[0]))
    assert [(t.domain, names) for t, names in tables] == \
        [(tuple(range(n)), scheme) for n in range(1, size + 1)]
    assert [(s, t.domain, names) for s, t, names in built] == \
        [(s, s.domain, scheme) for s in representatives]
    assert all(t is tables[len(s.domain) - 1][0] for s, t, _ in built)


def test_experiment_matches_fresh_companions(monkeypatch):
    """Each (class, sentence) verdict of trick_experiment agrees with one
    on a companion model built afresh, faithful translation and
    unfaithful, each run after the others in one process: a companion
    shared by the sentences of a call under the wrong naming scheme, or
    one left from an earlier call, would show.  The Q1 sentences get the
    naming scheme Q1_1, Q2_1, ...; the last corpus mixes them with a
    sentence over P, whose companions use Q1, Q2."""
    runs = [(read_corpus("classical_corpus.txt"), Variant.DIAMOND2, 3),
            (read_corpus("graph_corpus.txt"), Variant.NEG_DIAMOND1, 4),
            (read_corpus("graph_corpus.txt"), Variant.NEG_DIAMOND1, 5),
            (["exists x exists y P(x,y)", "exists x exists y Q1(x,y)",
              "forall x exists y (Q1(x,y) & ~Q1(y,x))"], Variant.DIAMOND2, 3)]
    for translate in (kripke_trick, _unfaithful):
        monkeypatch.setattr(experiments, "kripke_trick", translate)
        disagreeing = set()
        for sentences, variant, size in runs:
            structures = list(enumerate_structures(
                size, variant is Variant.NEG_DIAMOND1))
            classes = {_least_member(s): s for s in structures
                       if _least_in_class(s)}
            orbits = Counter(map(_least_member, structures))
            agreement, wrong = 0, {}
            for f in map(parse, sentences):
                scheme = fresh_scheme(f)
                translated = compile_formula(translate(f, variant, scheme),
                                             "modal")
                binary, = (name for name, a in letters(f).items() if a == 2)
                for key, s in classes.items():
                    classical = classical_evaluate(
                        s.domain, {binary: s.relation}, {}, f)
                    model, root = build_companion_model(s, variant, scheme)
                    modal = translated.holds(model, root, ())
                    if classical == modal:
                        agreement += orbits[key]
                    else:
                        wrong[render(f), key] = classical, modal
            report = trick_experiment(sentences, variant, size)
            assert report.agreement == agreement
            assert len(report.disagreements) == sum(
                orbits[key] for _, key in wrong)
            assert {(d["formula"], _least_member(
                        structures[d["structure_index"]])):
                    (d["classical"], d["modal"])
                    for d in report.disagreements} == wrong
            disagreeing.update(wrong)
        # The trick is faithful; negating every P atom is not.
        assert bool(disagreeing) == (translate is _unfaithful)


@pytest.mark.parametrize("symmetric, size", [(False, 3), (True, 5)])
def test_class_table_matches_brute_force(symmetric, size):
    """Every structure lies in exactly one class of the int table; the
    representatives are least in their class and come in
    enumerate_structures order; the orbit sizes sum to the count."""
    for bound in range(1, size + 1):
        structures = list(enumerate_structures(bound, symmetric))
        count, classes = experiments._classes(bound, symmetric)
        assert count == len(structures)
        assert sum(orbit for *_, orbit in classes) == count
        indices = [idx for idx, *_ in classes]
        assert indices == sorted(indices)
        assert indices == [i for i, s in enumerate(structures)
                           if _least_in_class(s)]
        where = {(len(s.domain), s.relation): i
                 for i, s in enumerate(structures)}
        seen = []
        for idx, n, mask, orbit in classes:
            s = structures[idx]
            assert (len(s.domain), _mask(s)) == (n, mask)
            members = {where[n, frozenset((p[a], p[b]) for a, b in s.relation)]
                       for p in permutations(range(n))}
            assert len(members) == orbit
            seen += members
        assert sorted(seen) == list(range(count))


def test_experiment_repeats_under_unfaithful_translation(monkeypatch):
    """The class table is cached per process: a second call, with its
    disagreement expansions, reports exactly what the first did."""
    monkeypatch.setattr(experiments, "kripke_trick", _unfaithful)
    for corpus, variant, size in (("classical_corpus.txt", Variant.DIAMOND2, 2),
                                  ("graph_corpus.txt", Variant.NEG_DIAMOND1, 4)):
        sentences = read_corpus(corpus)
        first, second = (trick_experiment(sentences, variant, size).to_dict()
                         for _ in range(2))
        assert first["disagreements"]
        first.pop("wall_time")
        second.pop("wall_time")
        assert first == second

