"""Kripke frames and models: validation, modal/intuitionistic evaluation.

Equality at each world is a partition of that world's domain.  Three
principles constrain how the partitions relate along accessibility:

* ``eq1`` -- upward-hereditary congruence,
* ``eq2`` -- upward- and downward-hereditary congruence,
* ``eq3`` -- the identity relation at every world.

Formulas are evaluated by compiling them once into nested closures
(``compile_formula``); ``evaluate`` is the checked one-shot entry point.
There is one evaluator, the modal one: intuitionistic truth at a world
of a preorder model is modal truth of the formula's Gödel translation
(Gödel 1933; McKinsey and Tarski 1948), which puts a ``[]`` on each
``~``, ``->``, ``<->`` and ``forall``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Callable, NamedTuple

from .syntax import (
    And, Atom, Box, Diamond, Eq, Exists, Falsum, Forall, Formula, Iff,
    Implies, Not, Or, Verum, free_variables, letters, map_children,
)

MODES = ("modal", "int")
PRINCIPLES = ("eq1", "eq2", "eq3")


class EvaluationError(ValueError):
    pass


def _ind_key(a):
    return str(a)


_NO_BLOCKS: dict = {}


@dataclass(frozen=True)
class Frame:
    worlds: tuple[str, ...]
    access: frozenset[tuple[str, str]]
    # world -> successors in world order; edges leaving the world set are
    # not in it (validate_model reports them).
    succ: dict[str, tuple[str, ...]] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        object.__setattr__(self, "succ", {
            w: tuple(v for v in self.worlds if (w, v) in self.access)
            for w in self.worlds})

    def successors(self, w: str) -> tuple[str, ...]:
        return self.succ.get(w, ())


@dataclass(frozen=True)
class Equality:
    principle: str
    classes: dict[str, tuple[frozenset, ...]]  # world -> partition of D(w)
    # world -> individual -> its block, built once; models that share this
    # Equality share the maps.
    blocks: dict[str, dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", {
            w: block_map(part) for w, part in self.classes.items()})

    def related(self, w: str, a, b) -> bool:
        blocks = self.blocks.get(w, _NO_BLOCKS)
        return a == b or (a in blocks and blocks.get(a) is blocks.get(b))


@dataclass(frozen=True)
class Violation:
    name: str
    witness: str

    def __str__(self) -> str:
        return f"{self.name}: {self.witness}"


def identity_partition(domain) -> tuple[frozenset, ...]:
    return tuple(frozenset([a]) for a in sorted(domain, key=_ind_key))


def block_map(partition) -> dict:
    """Map each individual of the partition to its block."""
    return {a: block for block in partition for a in block}


@dataclass
class Model:
    frame: Frame
    domains: dict[str, tuple]          # world -> individuals
    valuation: dict[str, dict[str, frozenset]]  # world -> letter -> tuples
    equality: Equality
    mode: str = "modal"
    constant_domains: bool = False

    def related(self, w: str, a, b) -> bool:
        return self.equality.related(w, a, b)


def partition_congruent(partition, valuation_at_w) -> tuple | None:
    """Check that ε-related individuals are atom-indistinguishable.

    Returns None if congruent, else a witness (letter, tuple, variant).
    """
    blocks = block_map(partition)
    for letter, tuples in valuation_at_w.items():
        for tup in tuples:
            variants = product(*(sorted(blocks.get(a, frozenset([a])), key=_ind_key)
                                 for a in tup))
            for variant in variants:
                if variant not in tuples:
                    return (letter, tup, variant)
    return None


UPWARD = "Eq1 upward heredity"
DOWNWARD = "Eq2 downward heredity"


def heredity_violations(frame: Frame, domains: dict, equality: Equality):
    """Yield (w, v, a, b, rule) for every edge w -> v and pair a < b of
    D(w) that breaks a heredity rule of the equality's principle: UPWARD
    (eq1 and eq2: a ε b at w but not at v) or DOWNWARD (eq2 only: a ε b
    at v but not at w).  Edges to worlds without classes are skipped."""
    principle = equality.principle
    if principle not in ("eq1", "eq2"):
        return
    classes = equality.classes
    for (w, v) in sorted(frame.access):
        if w not in classes or v not in classes:
            continue
        dom_w = domains[w]
        for a in dom_w:
            for b in dom_w:
                if _ind_key(a) >= _ind_key(b):
                    continue
                same_w = equality.related(w, a, b)
                same_v = equality.related(v, a, b)
                if same_w and not same_v:
                    yield w, v, a, b, UPWARD
                if principle == "eq2" and same_v and not same_w:
                    yield w, v, a, b, DOWNWARD


def validate_model(m: Model) -> list[Violation]:
    """Check every structural invariant; violations are data, not errors."""
    out: list[Violation] = []
    worlds = m.frame.worlds
    wset = set(worlds)
    if not worlds:
        out.append(Violation("nonempty worlds", "frame has no worlds"))
        return out
    if len(set(worlds)) != len(worlds):
        out.append(Violation("distinct worlds", "duplicate world identifiers"))
    for (a, b) in m.frame.access:
        if a not in wset or b not in wset:
            out.append(Violation("access range", f"edge ({a},{b}) leaves the world set"))
    for what, table in (("domain", m.domains), ("valuation", m.valuation),
                        ("equality classes", m.equality.classes)):
        for w in sorted(set(table) - wset, key=str):
            out.append(Violation("world range",
                                 f"{what} given for world {w} outside the frame"))
    if m.mode not in MODES:
        out.append(Violation("mode", f"unknown mode {m.mode!r}"))
    if m.equality.principle not in PRINCIPLES:
        out.append(Violation("equality principle",
                             f"unknown principle {m.equality.principle!r}"))

    for w in worlds:
        dom = m.domains.get(w)
        if dom is None:
            out.append(Violation("domain coverage", f"world {w} has no domain"))
        elif len(dom) == 0:
            out.append(Violation("empty domain", f"world {w} has an empty domain"))
        elif len(set(dom)) != len(dom):
            out.append(Violation("distinct individuals",
                                 f"D({w}) lists an individual twice"))
    if any(v.name == "domain coverage" for v in out):
        return out

    for (w, v) in sorted(m.frame.access):
        if w in wset and v in wset and not set(m.domains[w]) <= set(m.domains[v]):
            out.append(Violation("expanding domains",
                                 f"D({w}) is not included in D({v})"))
    if m.constant_domains:
        base = set(m.domains[worlds[0]])
        for w in worlds[1:]:
            if set(m.domains[w]) != base:
                out.append(Violation("constant domains",
                                     f"D({w}) differs from D({worlds[0]})"))

    arities: dict[str, int] = {}
    for w in worlds:
        dom = set(m.domains[w])
        for letter, tuples in m.valuation.get(w, {}).items():
            for tup in tuples:
                seen = arities.setdefault(letter, len(tup))
                if seen != len(tup):
                    out.append(Violation("valuation arity",
                                         f"letter {letter} has tuples of mixed length"))
                if not set(tup) <= dom:
                    out.append(Violation(
                        "valuation range",
                        f"{letter}{tup} at {w} uses individuals outside D({w})"))
    if m.mode == "int":
        for (w, v) in sorted(m.frame.access):
            if w not in wset or v not in wset:
                continue
            for letter, tuples in m.valuation.get(w, {}).items():
                missing = tuples - m.valuation.get(v, {}).get(letter, frozenset())
                if missing:
                    tup = sorted(missing)[0]
                    out.append(Violation(
                        "valuation heredity",
                        f"{letter}{tup} holds at {w} but not at successor {v}"))

    for w in worlds:
        part = m.equality.classes.get(w)
        if part is None:
            out.append(Violation("equality partition", f"no partition for world {w}"))
            continue
        covered: list = []
        for block in part:
            covered.extend(block)
        if sorted(covered, key=_ind_key) != sorted(m.domains[w], key=_ind_key):
            out.append(Violation("equality partition",
                                 f"classes at {w} do not partition D({w})"))
            continue
        witness = partition_congruent(part, m.valuation.get(w, {}))
        if witness is not None:
            letter, tup, variant = witness
            out.append(Violation(
                "congruence",
                f"at {w}: {letter}{tup} holds but ε-variant {variant} does not"))

    for w, v, a, b, rule in heredity_violations(m.frame, m.domains, m.equality):
        out.append(Violation(rule, (
            f"{a} ε {b} at {w} but not at successor {v}" if rule == UPWARD
            else f"{a} ε {b} at successor {v} but not at {w}")))
    principle = m.equality.principle
    if principle == "eq3":
        for w in worlds:
            if w not in m.equality.classes:
                continue
            for block in m.equality.classes[w]:
                if len(block) > 1:
                    out.append(Violation(
                        "Eq3 identity",
                        f"non-singleton class {sorted(block, key=_ind_key)} at {w}"))

    if m.mode == "int":
        for w in worlds:
            if (w, w) not in m.frame.access:
                out.append(Violation("intuitionistic frame must be a preorder",
                                     f"world {w} is not reflexive"))
        missing = {(a, c) for (a, b) in m.frame.access for c in worlds
                   if (b, c) in m.frame.access and (a, c) not in m.frame.access}
        for (a, c) in sorted(missing):
            out.append(Violation("intuitionistic frame must be a preorder",
                                 f"missing transitive edge ({a},{c})"))
    return out


class Compiled(NamedTuple):
    """A formula compiled for one mode by compile_formula.

    ``holds(m, w, values)`` is the truth of the formula at world w of m
    when ``values[i]`` is assigned to ``free[i]``.  It runs none of
    evaluate()'s checks: w must be a world of m, the values must lie in
    D(w), and m must be a model of the mode it was compiled for.
    """
    free: tuple[str, ...]
    holds: Callable[[Model, str, tuple], bool]


_NO_FACTS: dict = {}
_NO_TUPLES: frozenset = frozenset()


# Callers of evaluate() loop over one formula's points (or alternate a
# few formulas); the searches and the experiment compile once per query.
# A small cache serves both and pins few closures.
@lru_cache(maxsize=4)
def compile_formula(f: Formula, mode: str) -> Compiled:
    """Compile f once into nested closures for evaluation in mode.

    Variables become slots of a list: the free variables, sorted, come
    first; every quantifier occurrence owns one further slot, so binding
    a variable never overwrites a value that is still in scope.  An
    intuitionistic formula is compiled as its Gödel translation.
    """
    if mode not in MODES:
        raise EvaluationError(f"unknown mode {mode!r}")
    free = tuple(sorted(free_variables(f)))
    slots = {x: i for i, x in enumerate(free)}
    used = [len(free)]
    root = _compile(f if mode == "modal" else _goedel(f), slots, used)
    pad = (None,) * (used[0] - len(free))

    def holds(m, w, values):
        return root(m, w, [*values, *pad])
    return Compiled(free, holds)


def _goedel(f: Formula) -> Formula:
    """The Gödel translation of an intuitionistic formula: each ``~``,
    ``->``, ``<->`` and ``forall`` under a ``[]``.  Atoms and ``=`` need
    none, since they are hereditary along a preorder; ``&``, ``|`` and
    ``exists`` are read at the world itself in both semantics."""
    if isinstance(f, (Box, Diamond)):
        raise EvaluationError(
            "modal operators are not allowed in intuitionistic mode")
    g = map_children(f, _goedel)
    return Box(g) if isinstance(f, (Not, Implies, Iff, Forall)) else g


def _compile(f: Formula, slots: dict, used: list):
    """Closure ev(m, w, env) for the modal formula f; slots maps each
    variable in scope to its index in env, and used[0] counts the slots
    handed out so far."""
    if isinstance(f, Atom):
        letter = f.letter
        if not f.args:
            def ev(m, w, env):
                return () in m.valuation.get(w, _NO_FACTS).get(letter, _NO_TUPLES)
        elif len(f.args) == 1:
            i = slots[f.args[0]]

            def ev(m, w, env):
                return (env[i],) in \
                    m.valuation.get(w, _NO_FACTS).get(letter, _NO_TUPLES)
        else:
            key = itemgetter(*(slots[x] for x in f.args))

            def ev(m, w, env):
                return key(env) in \
                    m.valuation.get(w, _NO_FACTS).get(letter, _NO_TUPLES)
        return ev
    if isinstance(f, Eq):
        i, j = slots[f.left], slots[f.right]

        def ev(m, w, env):
            return m.equality.related(w, env[i], env[j])
        return ev
    if isinstance(f, Verum):
        return lambda m, w, env: True
    if isinstance(f, Falsum):
        return lambda m, w, env: False
    if isinstance(f, (Forall, Exists)):
        k = used[0]
        used[0] += 1
        body = _compile(f.body, {**slots, f.var: k}, used)
        if isinstance(f, Exists):
            def ev(m, w, env):
                for a in m.domains[w]:
                    env[k] = a
                    if body(m, w, env):
                        return True
                return False
        else:
            def ev(m, w, env):
                for a in m.domains[w]:
                    env[k] = a
                    if not body(m, w, env):
                        return False
                return True
        return ev
    if isinstance(f, (Not, Box, Diamond)):
        body = _compile(f.body, slots, used)
        if isinstance(f, Not):
            def ev(m, w, env):
                return not body(m, w, env)
        elif isinstance(f, Box):
            def ev(m, w, env):
                for v in m.frame.succ[w]:
                    if not body(m, v, env):
                        return False
                return True
        else:
            def ev(m, w, env):
                for v in m.frame.succ[w]:
                    if body(m, v, env):
                        return True
                return False
        return ev
    if not isinstance(f, (And, Or, Implies, Iff)):
        raise EvaluationError(f"cannot evaluate node {type(f).__name__}")
    left = _compile(f.left, slots, used)
    right = _compile(f.right, slots, used)
    if isinstance(f, And):
        def ev(m, w, env):
            return left(m, w, env) and right(m, w, env)
    elif isinstance(f, Or):
        def ev(m, w, env):
            return left(m, w, env) or right(m, w, env)
    elif isinstance(f, Implies):
        def ev(m, w, env):
            return not left(m, w, env) or right(m, w, env)
    else:
        def ev(m, w, env):
            return left(m, w, env) == right(m, w, env)
    return ev


def evaluate(m: Model, w: str, assignment: dict, f: Formula) -> bool:
    """Truth of f at world w under the assignment, per the model's mode."""
    if w not in m.frame.worlds:
        raise EvaluationError(f"unknown world {w!r}")
    dom = set(m.domains[w])
    for var, ind in assignment.items():
        if ind not in dom:
            raise EvaluationError(
                f"assignment sends {var} to {ind!r}, outside D({w})")
    compiled = compile_formula(f, m.mode)
    missing = set(compiled.free) - set(assignment)
    if missing:
        raise EvaluationError(f"unassigned free variables: {sorted(missing)}")
    return compiled.holds(m, w, [assignment[x] for x in compiled.free])


def valid_in_model(m: Model, f: Formula):
    """Truth at every world under every assignment of f's free variables.

    Returns (True, None) or (False, (world, assignment)).  A search that
    checks one formula on many models compiles it once and calls
    first_point instead.
    """
    point = first_point(m, compile_formula(f, m.mode), False)
    return point is None, point


def first_point(m: Model, compiled: Compiled, value: bool, worlds=None):
    """The first point (world, assignment) of m at which compiled
    evaluates to value, worlds in frame order (or in the order of worlds,
    if given: the only worlds tested) and values in product order; None
    if there is none.  compiled must be of m's mode."""
    holds, free = compiled.holds, compiled.free
    # Points are drawn from D(w) and bind exactly the free variables, so
    # evaluate()'s per-point checks hold by construction.
    for w in m.frame.worlds if worlds is None else worlds:
        for values in product(m.domains[w], repeat=len(free)):
            if holds(m, w, values) is value:
                return w, dict(zip(free, values))
    return None


def check_letter_arities(m: Model, f: Formula):
    """Raise EvaluationError if f uses a letter at another arity than the
    tuples the model's valuation holds for it."""
    used = letters(f)
    for w, facts in m.valuation.items():
        for letter, tuples in facts.items():
            arity = used.get(letter)
            for tup in tuples:
                if arity is not None and len(tup) != arity:
                    raise EvaluationError(
                        f"letter {letter} has arity {arity} in the formula "
                        f"but holds of {tup} at world {w} in the model")


# ---------------------------------------------------------------------------
# JSON model files

_MODEL_KEYS = {"mode", "constant_domains", "worlds", "access", "domains",
               "valuation", "equality"}
_EQ_KEYS = {"principle", "classes"}
_FRAME_KEYS = {"worlds", "access"}


def model_to_dict(m: Model) -> dict:
    return {
        "mode": m.mode,
        "constant_domains": m.constant_domains,
        "worlds": list(m.frame.worlds),
        "access": sorted([list(e) for e in m.frame.access]),
        "domains": {w: [_ind_key(a) for a in sorted(dom, key=_ind_key)]
                    for w, dom in m.domains.items()},
        "valuation": {
            w: {letter: sorted([_ind_key(a) for a in tup] for tup in tuples)
                for letter, tuples in sorted(val.items())}
            for w, val in m.valuation.items()
        },
        "equality": {
            "principle": m.equality.principle,
            "classes": {
                w: sorted(sorted(_ind_key(a) for a in block) for block in part)
                for w, part in m.equality.classes.items()
            },
        },
    }


def _reject_unknown(d: dict, allowed: set[str], what: str):
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _require(d: dict, keys, what: str):
    for key in keys:
        if key not in d:
            raise ValueError(f"{what} is missing key {key!r}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def _strings(value, what: str) -> tuple:
    """A JSON list of names as strings; integer names (hand-numbered
    individuals) are read as their decimal text."""
    items = _list(value, what)
    for a in items:
        if isinstance(a, bool) or not isinstance(a, (str, int)):
            raise ValueError(f"{what} holds {json.dumps(a)}; names must be "
                             "strings or integers")
    return tuple(map(str, items))


def frame_from_dict(d: dict) -> Frame:
    """Frame from its JSON form; rejects an empty or duplicate world list
    and edges that leave the world set, so every loaded frame is well
    formed."""
    _reject_unknown(_object(d, "frame"), _FRAME_KEYS, "frame")
    _require(d, ("worlds", "access"), "frame")
    worlds = _strings(d["worlds"], "worlds")
    if not worlds:
        raise ValueError("frame has no worlds")
    if len(set(worlds)) != len(worlds):
        raise ValueError(f"duplicate worlds in {list(worlds)}")
    access = set()
    for edge in _list(d["access"], "access"):
        pair = _strings(edge, "access entry")
        if len(pair) != 2:
            raise ValueError(f"access entry {edge!r} is not a pair of worlds")
        a, b = pair
        if a not in worlds or b not in worlds:
            raise ValueError(f"edge ({a},{b}) leaves the world set")
        access.add(pair)
    return Frame(worlds, frozenset(access))


def model_from_dict(d: dict) -> Model:
    _reject_unknown(_object(d, "model"), _MODEL_KEYS, "model")
    _require(d, ("mode", "worlds", "access", "domains", "valuation",
                 "equality"), "model file")
    if d["mode"] not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {d['mode']!r}")
    eq = _object(d["equality"], "equality")
    _reject_unknown(eq, _EQ_KEYS, "equality")
    _require(eq, ("principle", "classes"), "equality")
    if eq["principle"] not in PRINCIPLES:
        raise ValueError(f"equality principle must be one of {PRINCIPLES}")
    constant = d.get("constant_domains", False)
    if not isinstance(constant, bool):
        raise ValueError("constant_domains must be true or false, got "
                         f"{json.dumps(constant)}")
    frame = frame_from_dict({"worlds": d["worlds"], "access": d["access"]})
    # The domain of a world outside the frame is kept unread:
    # validate_model reports the world, whatever its domain holds.
    domains = {w: _strings(dom, f"domain of {w}") if w in frame.worlds else dom
               for w, dom in _object(d["domains"], "domains").items()}
    valuation = {
        w: {letter: frozenset(_strings(tup, f"tuple of {letter} at {w}")
                              for tup in _list(tuples, f"{letter} at {w}"))
            for letter, tuples in _object(val, f"valuation at {w}").items()}
        for w, val in _object(d["valuation"], "valuation").items()
    }
    classes = {
        w: tuple(frozenset(_strings(block, f"class at {w}"))
                 for block in _list(part, f"classes at {w}"))
        for w, part in _object(eq["classes"], "classes").items()
    }
    return Model(
        frame=frame,
        domains=domains,
        valuation=valuation,
        equality=Equality(eq["principle"], classes),
        mode=d["mode"],
        constant_domains=constant,
    )


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def load_frame(path: str) -> Frame:
    with open(path, encoding="utf-8") as fh:
        return frame_from_dict(json.load(fh))
