"""The Kripke-trick translation family and companion Kripke models.

A binary atom ``P(x,y)`` in a classical formula is rewritten, per
variant, to a monadic (modal or positive) formula; the companion model
of a finite classical structure then makes the rewritten atom true at
the root exactly when the original pair is in the relation.
"""

from __future__ import annotations

import warnings
from enum import Enum
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, NamedTuple

from .semantics import Equality, Frame, Model, identity_partition
from .syntax import (
    And, Atom, Diamond, Falsum, Formula, FragmentReport, Implies, Not, Or,
    Record, classify, letters, map_children,
)


class Variant(Enum):
    DIAMOND2 = "d2"
    NEG_DIAMOND1 = "nd1"
    POSITIVE_IMP = "pi"
    NEG_DISJ = "ndj"


class TranslationError(ValueError):
    pass


class ClassicalStructure(Record):
    """Finite domain with one binary relation; input side of the trick."""

    _fields = ("domain", "relation", "unary", "nullary")

    def __init__(self, domain: tuple, relation: frozenset,
                 unary: dict[str, frozenset] | None = None,
                 nullary: dict[str, bool] | None = None):
        dom = set(domain)
        if not dom:
            raise ValueError("domain must be nonempty")
        for (a, b) in relation:
            if a not in dom or b not in dom:
                raise ValueError(f"relation pair ({a},{b}) leaves the domain")
        self.domain = domain
        self.relation = relation
        self.unary = {} if unary is None else unary
        self.nullary = {} if nullary is None else nullary

    def is_symmetric(self) -> bool:
        return all((b, a) in self.relation for (a, b) in self.relation)

    def is_irreflexive(self) -> bool:
        return all(a != b for (a, b) in self.relation)


class NamingScheme(NamedTuple):
    """The letters the trick writes; a scheme is the tuple of them."""
    q1: str = "Q1"
    q2: str = "Q2"
    q: str = "Q"
    p: str = "p_neg"
    q_prop: str = "q_aux"


def _fresh(names: tuple, f: Formula) -> tuple:
    """names, or else each of them suffixed ``_n`` for the least n >= 1
    that keeps all of them out of the letters of f."""
    used = letters(f).keys()
    candidate, suffix = names, 0
    while not used.isdisjoint(candidate):
        suffix += 1
        candidate = tuple(f"{n}_{suffix}" for n in names)
    return candidate


def fresh_scheme(f: Formula) -> NamingScheme:
    """Default naming scheme, suffixed to avoid the letters of f."""
    return NamingScheme(*_fresh(NamingScheme(), f))


def fresh_letter(f: Formula, base: str = "p_neg") -> str:
    """A propositional-letter name not occurring in f."""
    return _fresh((base,), f)[0]


def positivize(f: Formula, fresh: str) -> Formula:
    """Replace every negation by an implication to the fresh letter.

    ``~g`` becomes ``g -> fresh`` and ``false`` becomes ``fresh``,
    recursively; the result is in the positive fragment.
    """
    if fresh in letters(f):
        raise TranslationError(f"fresh letter {fresh!r} already occurs in the formula")
    target = Atom(fresh)

    def go(g: Formula) -> Formula:
        if isinstance(g, Falsum):
            return target
        if isinstance(g, Not):
            return Implies(go(g.body), target)
        return map_children(g, go)

    return go(f)


def _check_trick_input(report: FragmentReport,
                       names: NamingScheme) -> str | None:
    """Validate the admissible signature of a formula from its classify()
    report; returns the binary letter, if any."""
    if report.modal_depth > 0:
        raise TranslationError("input to the trick must contain no modality")
    if report.has_equality:
        raise TranslationError("input to the trick must contain no equality atoms")
    binary = None
    for letter, arity in report.letter_arities.items():
        if arity >= 3:
            raise TranslationError(f"letter {letter!r} has arity {arity} > 2")
        if arity == 2:
            if binary is not None:
                raise TranslationError(
                    f"second binary letter {letter!r} (after {binary!r})")
            binary = letter
        elif arity == 1:
            raise TranslationError(
                f"unary letter {letter!r} not admitted in trick input")
        if letter in names:
            raise TranslationError(f"letter {letter!r} collides with the naming scheme")
    return binary


def kripke_trick(f: Formula, variant: Variant,
                 names: NamingScheme | None = None) -> Formula:
    """Rewrite every binary atom P(s,t) per the chosen variant.

    The result is monadic; all non-atom structure is unchanged.
    """
    if names is None:
        names = fresh_scheme(f)
    report = classify(f)
    _check_trick_input(report, names)
    if variant in (Variant.POSITIVE_IMP, Variant.NEG_DISJ) and not report.is_positive:
        warnings.warn("positive-fragment variants expect a positive input; "
                      "apply positivize first", stacklevel=2)

    def replace(s: str, t: str) -> Formula:
        pair = And(Atom(names.q1, (s,)), Atom(names.q2, (t,)))
        if variant is Variant.DIAMOND2:
            return Diamond(pair)
        if variant is Variant.NEG_DIAMOND1:
            return Not(Diamond(And(Atom(names.q, (s,)), Atom(names.q, (t,)))))
        if variant is Variant.POSITIVE_IMP:
            return Or(Implies(pair, Atom(names.p)), Atom(names.q_prop))
        return Or(Not(pair), Atom(names.q_prop))

    def go(g: Formula) -> Formula:
        if isinstance(g, Atom) and len(g.args) == 2:
            return replace(*g.args)
        return map_children(g, go)

    return go(f)


class Companion(NamedTuple):
    """How a variant's companion model is built.

    A companion model has a root and one world ``w_a_b`` per kept pair
    (a, b).  The world's name and facts depend only on the pair and the
    naming scheme; the structure decides only which pairs get a world.
    """
    # Whether the structure's relation must be symmetric and irreflexive.
    symmetric_irreflexive: bool
    # domain -> the candidate pairs, in world order.
    pairs: Callable[[tuple], Iterable[tuple]]
    # Whether a pair is kept when it is in the relation (else when not).
    keeps_edges: bool
    # (pair, names) -> the facts of the pair's world, letter -> tuples.
    facts: Callable[[tuple, NamingScheme], dict]


COMPANIONS = {
    # One world per pair (a, b) of the relation: Q1(a), Q2(b).
    Variant.DIAMOND2: Companion(
        False, lambda domain: product(domain, repeat=2), True,
        lambda pair, names: {names.q1: frozenset([pair[:1]]),
                             names.q2: frozenset([pair[1:]])}),
    # One world per unordered non-edge {a, b}, a = b included: Q(a), Q(b).
    Variant.NEG_DIAMOND1: Companion(
        True, lambda domain: combinations_with_replacement(domain, 2), False,
        lambda pair, names: {names.q: frozenset([pair[:1], pair[1:]])}),
}


def companion(variant: Variant) -> Companion:
    """The COMPANIONS entry of variant; a TranslationError for a variant
    without a companion-model construction."""
    spec = COMPANIONS.get(variant)
    if spec is None:
        raise TranslationError(
            f"no companion construction for variant {variant.value}")
    return spec


class CompanionTable(NamedTuple):
    """The parts of the companion models on one domain that do not
    depend on the structure (companion_table)."""
    domain: tuple  # sorted by str, the order of the pairs
    identity: tuple  # the identity partition of domain
    worlds: tuple  # (pair, world name, facts) per candidate pair, in order


def companion_table(variant: Variant, names: NamingScheme,
                    domain) -> CompanionTable:
    """The candidate pair worlds of a variant of COMPANIONS on domain and
    its identity partition, made once for every structure on domain."""
    spec = companion(variant)
    domain = tuple(sorted(domain, key=str))
    return CompanionTable(
        domain, identity_partition(domain),
        tuple((pair, f"w_{pair[0]}_{pair[1]}", spec.facts(pair, names))
              for pair in spec.pairs(domain)))


def build_companion_model(m: ClassicalStructure, variant: Variant,
                          names: NamingScheme | None = None,
                          table: CompanionTable | None = None):
    """Companion Kripke model for a variant of COMPANIONS.

    Returns (model, root).  The frame is universal with a constant
    domain; equality is the identity.  At the root nothing is true, so
    evaluating a translated sentence there mirrors classical truth.  The
    model has a world for each pair of table that m keeps; table is
    companion_table(variant, names, m.domain), made here when None.  The
    models built from one table share its facts and partition, so they
    are read-only.
    """
    spec = companion(variant)
    if spec.symmetric_irreflexive and not (
            m.is_symmetric() and m.is_irreflexive()):
        raise TranslationError(
            "NegDiamond1 requires a symmetric irreflexive relation")
    if table is None:
        table = companion_table(variant, names or NamingScheme(), m.domain)
    relation, keep = m.relation, spec.keeps_edges
    valuation: dict[str, dict[str, frozenset]] = {"root": {}}
    for pair, name, facts in table.worlds:
        if (pair in relation) == keep:
            valuation[name] = facts
    worlds = tuple(valuation)
    model = Model(
        frame=Frame.universal(worlds),
        domains=dict.fromkeys(worlds, table.domain),
        valuation=valuation,
        equality=Equality("eq3", dict.fromkeys(worlds, table.identity)),
        mode="modal",
        constant_domains=True,
    )
    return model, "root"
