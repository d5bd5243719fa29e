"""Reproducibility experiment: translation faithfulness on small structures.

For every corpus sentence and every classical structure up to a size
bound, classical truth (computed by the independent classical
evaluator) is compared against Kripke evaluation of the translated
sentence at the companion-model root.

Both sides are invariant under renaming the domain: classical truth is,
and a renamed structure has an isomorphic companion model.  So each
isomorphism class is checked once, on its least-labelled member (least
bit mask, bit n*a + b for the pair (a, b), as for frames in ``search``),
and an agreement counts for every member.  A class that disagrees is
expanded into its members, reported in ``enumerate_structures`` order.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import combinations, product

from .search import _least_labelled, _renamed_masks, classical_evaluate
from .semantics import compile_formula
from .syntax import free_variables, letters, parse, render
from .translations import (
    ClassicalStructure, TranslationError, Variant, build_companion_model,
    fresh_scheme, kripke_trick,
)


def enumerate_structures(max_size: int, symmetric_irreflexive: bool = False):
    """All classical structures of domain size 1..max_size, deterministically.

    With symmetric_irreflexive, only undirected loop-free relations
    (each unordered edge stored in both directions).
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    for n in range(1, max_size + 1):
        domain = tuple(range(n))
        if symmetric_irreflexive:  # bit i: the i-th edge of combinations()
            cells = [((a, b), (b, a)) for a, b in combinations(domain, 2)]
        else:  # bit n*a + b: the pair (a, b)
            cells = [(p,) for p in product(domain, repeat=2)]
        for mask in range(1 << len(cells)):
            yield ClassicalStructure(domain, frozenset(
                p for i, ps in enumerate(cells) if mask >> i & 1 for p in ps))


def _classes(structures: list) -> list:
    """(index of the least-labelled member, indices of all members) of
    each isomorphism class of structures over domains 0..n-1, in the
    order of the least-labelled members."""
    index = {(len(s.domain), sum(1 << (len(s.domain) * a + b)
                                 for a, b in s.relation)): i
             for i, s in enumerate(structures)}
    return [(i, [index[n, m] for m in {mask, *_renamed_masks(n, mask)}])
            for (n, mask), i in index.items() if _least_labelled(n, mask)]


@dataclass
class ExperimentReport:
    variant: str
    corpus_size: int
    structure_count: int
    agreement: int
    disagreements: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def trick_experiment(corpus, variant: Variant, size_bound: int) -> ExperimentReport:
    """Compare classical truth with companion-root truth of the translation."""
    if variant not in (Variant.DIAMOND2, Variant.NEG_DIAMOND1):
        raise ValueError(
            f"variant {variant.value} has no companion-model construction")
    started = time.perf_counter()
    formulas = []  # (sentence, naming scheme, compiled translation)
    skipped = []
    for entry in corpus:
        f = parse(entry) if isinstance(entry, str) else entry
        try:  # the trick checks the signature, not closedness
            if free_variables(f):
                raise TranslationError(
                    f"open formula; free: {sorted(free_variables(f))}")
            scheme = fresh_scheme(f)
            translated = kripke_trick(f, variant, scheme)
            # The trick translates p, but no structure makes p true.
            nullary = sorted(name for name, a in letters(f).items() if a == 0)
            if nullary:
                raise TranslationError(
                    f"propositional letter {nullary[0]!r} is not interpreted "
                    "by the structures")
        except TranslationError as exc:
            skipped.append({"formula": render(f), "reason": str(exc)})
            continue
        formulas.append((f, scheme, compile_formula(translated, "modal")))

    symmetric = variant is Variant.NEG_DIAMOND1
    structures = list(enumerate_structures(size_bound, symmetric))
    classes = _classes(structures)
    agreement = 0
    disagreements = []
    for f, scheme, translated in formulas:
        binary = next((name for name, a in letters(f).items() if a == 2), None)
        wrong = []
        for idx, members in classes:
            s = structures[idx]
            interp = {binary: s.relation} if binary else {}
            classical = classical_evaluate(s.domain, interp, {}, f)
            model, root = build_companion_model(s, variant, scheme)
            # f is closed (checked above), so is its translation, and the
            # root is a world of the companion model: evaluate()'s checks
            # hold by construction.
            modal = translated.holds(model, root, ())
            if classical == modal:
                agreement += len(members)
            else:
                wrong += ((i, classical, modal) for i in members)
        for idx, classical, modal in sorted(wrong):
            s = structures[idx]
            disagreements.append({
                "formula": render(f),
                "structure": {"domain": list(s.domain),
                              "relation": sorted(map(list, s.relation))},
                "structure_index": idx,
                "classical": classical,
                "modal": modal,
            })
    return ExperimentReport(
        variant=variant.value,
        corpus_size=len(formulas),
        structure_count=len(structures),
        agreement=agreement,
        disagreements=disagreements,
        skipped=skipped,
        wall_time=time.perf_counter() - started,
    )
