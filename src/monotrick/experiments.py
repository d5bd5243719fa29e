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

The classes are a table of plain ints (``_classes``), built once per
process for each size bound and variant; the labelled structures are
never all built.  d2 at size 4 (66,066 structures, 3,160 classes) takes
about 0.25 s to tabulate (Python 3.11, one core of a 2-core host).

A companion model depends on the class, the variant and the naming
scheme, never on the sentence, and its worlds depend only on the pairs
of the domain: ``trick_experiment`` compiles each sentence once (its
classical truth and its translation) and makes the table of pair
worlds (``translations.companion_table``) once per domain size and
scheme.  It goes class by class and builds each (class, scheme)
companion once per call from its table, for all the sentences of the
corpus, and drops it before the next class.  Nothing is kept across
calls, so a call holds one companion per naming scheme at a time.
"""

from __future__ import annotations

import time
from copy import deepcopy
from functools import cache
from itertools import combinations

from .search import _least_labelled, _renamed_masks, compile_classical
from .semantics import compile_formula
from .syntax import Record, free_variables, letters, parse, render
from .translations import (
    ClassicalStructure, TranslationError, Variant, build_companion_model,
    companion, companion_table, fresh_scheme, kripke_trick,
)

# A structure on the individuals 0..n-1 is numbered within its size by
# its bits: bit n*a + b is the pair (a, b) for d2; for nd1 (symmetric,
# irreflexive) bit i is the i-th edge of combinations(), both directions.
# Its relation mask always has bit n*a + b for the pair (a, b).


@cache
def _edges(n: int) -> tuple:
    """The relation mask of each edge of combinations(range(n), 2)."""
    return tuple(1 << n * a + b | 1 << n * b + a
                 for a, b in combinations(range(n), 2))


def _masks(max_size: int, symmetric: bool):
    """(n, relation mask) of each structure of enumerate_structures(max_size,
    symmetric), in its order."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    for n in range(1, max_size + 1):
        if symmetric:
            edges = _edges(n)
            for bits in range(1 << len(edges)):
                yield n, sum(edge for i, edge in enumerate(edges)
                             if bits >> i & 1)
        else:
            yield from ((n, mask) for mask in range(1 << n * n))


def _bits(n: int, mask: int, symmetric: bool) -> int:
    """The number within its size of the structure on n individuals with
    this relation mask."""
    if not symmetric:
        return mask
    return sum(1 << i for i, edge in enumerate(_edges(n)) if mask & edge)


def _structure(n: int, mask: int) -> ClassicalStructure:
    return ClassicalStructure(tuple(range(n)), frozenset(
        divmod(i, n) for i in range(n * n) if mask >> i & 1))


def enumerate_structures(max_size: int, symmetric_irreflexive: bool = False):
    """All classical structures of domain size 1..max_size, deterministically.

    With symmetric_irreflexive, only undirected loop-free relations
    (each unordered edge stored in both directions).
    """
    for n, mask in _masks(max_size, symmetric_irreflexive):
        yield _structure(n, mask)


@cache
def _classes(max_size: int, symmetric: bool) -> tuple:
    """The isomorphism classes of enumerate_structures(max_size, symmetric):
    (structure count, classes).  A class is (structure_index, n, relation
    mask) of its least-labelled member and the orbit size, the number of
    its members; the classes come in the order of those members."""
    classes = []
    for index, (n, mask) in enumerate(_masks(max_size, symmetric)):
        if _least_labelled(n, mask):
            classes.append((index, n, mask,
                            len({mask, *_renamed_masks(n, mask)})))
    return index + 1, tuple(classes)


class ExperimentReport(Record):
    _fields = ("variant", "corpus_size", "structure_count", "agreement",
               "disagreements", "skipped", "wall_time")

    def __init__(self, variant: str, corpus_size: int, structure_count: int,
                 agreement: int, disagreements: list | None = None,
                 skipped: list | None = None, wall_time: float = 0.0):
        self.variant = variant
        self.corpus_size = corpus_size
        self.structure_count = structure_count
        self.agreement = agreement
        self.disagreements = [] if disagreements is None else disagreements
        self.skipped = [] if skipped is None else skipped
        self.wall_time = wall_time

    def to_dict(self) -> dict:
        """Every field, its lists and dicts copied, as
        dataclasses.asdict gives them."""
        return deepcopy(dict(zip(self._fields, self._key())))


def trick_experiment(corpus, variant: Variant, size_bound: int) -> ExperimentReport:
    """Compare classical truth with companion-root truth of the translation."""
    symmetric = companion(variant).symmetric_irreflexive
    started = time.perf_counter()
    # (sentence, naming scheme, its classical truth, truth of its
    # translation, binary letter), each sentence compiled once
    formulas = []
    skipped = []
    for entry in corpus:
        f = parse(entry) if isinstance(entry, str) else entry
        try:  # the trick checks the signature, not closedness
            free = free_variables(f)
            if free:
                raise TranslationError(f"open formula; free: {sorted(free)}")
            scheme = fresh_scheme(f)
            translated = kripke_trick(f, variant, scheme)
            arities = letters(f)
            # The trick translates p, but no structure makes p true.
            nullary = sorted(name for name, a in arities.items() if a == 0)
            if nullary:
                raise TranslationError(
                    f"propositional letter {nullary[0]!r} is not interpreted "
                    "by the structures")
        except TranslationError as exc:
            skipped.append({"formula": render(f), "reason": str(exc)})
            continue
        binary = next((name for name, a in arities.items() if a == 2), None)
        formulas.append((f, scheme, compile_classical(f).holds,
                         compile_formula(translated, "modal").holds, binary))

    structure_count, classes = _classes(size_bound, symmetric)
    representatives = [_structure(n, mask) for _, n, mask, _ in classes]
    schemes = dict.fromkeys(scheme for _, scheme, *_ in formulas)
    tables = {(n, scheme): companion_table(variant, scheme, range(n))
              for n in range(1, size_bound + 1) for scheme in schemes}
    agreement = 0
    wrong = [[] for _ in formulas]  # per sentence, its disagreements
    # Class-major: each (class, scheme) companion is built once, for all
    # the sentences.
    for (idx, n, mask, orbit), s in zip(classes, representatives):
        models = {scheme: build_companion_model(s, variant, scheme,
                                                tables[n, scheme])
                  for scheme in schemes}
        for (f, scheme, classical_holds, modal_holds, binary), out in \
                zip(formulas, wrong):
            interp = {binary: s.relation} if binary else {}
            # f is closed (checked above), so is its translation, and the
            # root is a world of the companion model: the evaluators'
            # checks hold by construction.
            classical = classical_holds(s.domain, interp, ())
            model, root = models[scheme]
            modal = modal_holds(model, root, ())
            if classical == modal:
                agreement += orbit
            else:
                offset = idx - _bits(n, mask, symmetric)  # of size n
                out += ((offset + _bits(n, m, symmetric), n, m, classical,
                         modal) for m in {mask, *_renamed_masks(n, mask)})
    disagreements = []
    for (f, *_), out in zip(formulas, wrong):
        for idx, n, mask, classical, modal in sorted(out):
            s = _structure(n, mask)
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
        structure_count=structure_count,
        agreement=agreement,
        disagreements=disagreements,
        skipped=skipped,
        wall_time=time.perf_counter() - started,
    )
