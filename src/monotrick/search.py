"""Exhaustive finite search: classical satisfiability, frame enumeration,
bounded satisfiability/validity over frame classes, and the
fixed-finite-frame decision procedure.

The classical oracle (``compile_classical``, ``classical_evaluate``)
compiles a first-order formula once into closures with a dispatch of
its own; it shares no code with the Kripke evaluator of ``semantics``,
which it cross-checks.

All enumerations are deterministic: world counts and domain sizes
ascend, relations and valuations follow lexicographic bit order, and
witnesses are always the enumeration-order-least.

Searches over frame classes (``sat_bounded``, ``eq_separation_search``)
visit only the frames that can carry the first hit, and find the same
first hit as a search of every frame:

- One frame per isomorphism class, the least labelled one.  Every class
  property is invariant under renaming worlds, and the least labelled
  frame of a class comes first in the full order.
- Only point-generated frames: some world reaches every world.  Truth at
  a world depends only on the submodel it generates, every class
  property and ``alt_n`` passes to generated subframes, and so does
  validity on a frame.  A hit on a frame that its world does not
  generate is thus also a hit on a frame with fewer worlds, which comes
  first.  The worlds that generate a frame, its roots (``_roots``), come
  from ``_ball``, the one walk that tells which worlds reach which.
  A class without a one-world frame has no frame (``sat_bounded``), so
  its walk stops at once.
- ``sat_bounded`` in intuitionistic mode and for a formula without
  modalities: only the first one-world frame of the class (see there).
- ``sat_bounded`` tests each model only at its frame's roots.  A hit at
  another world is a hit on the subframe that world generates, which has
  fewer worlds, is in the class (as above) and comes first.

Both those searches and ``decide_valid_over_frame`` check models once
per renaming of individuals:

- Individuals.  A domain layer is a run of the pool a0, a1, ... present
  in exactly the same worlds.  A model is skipped when swapping two
  adjacent individuals of one layer gives a model that comes earlier:
  a smaller tuple of per-letter extension indices, or the same tuple and
  an earlier equality (lex-leader symmetry breaking).  A swap keeps the
  domains, the heredity of valuations and equalities, congruence and
  truth, so the renamed model is a hit exactly when the skipped one is.
  The first hit thus has no earlier renaming and is never skipped.

The options of each domain assignment, a letter's extensions per arity
(``_letter_options``) and the equalities per principle (``_equalities``),
are built once with their swap tables and kept in bounded caches, and
every search and ``enumerate_models`` shares them read-only.

They also skip what the formula cannot observe, per ``syntax.classify``:

- Equalities.  For a formula without ``=`` truth does not depend on the
  equality, so each valuation is checked once, under the identity.  A hit
  under eq1 (or eq2 below, ``_every_equality``) then gets the first
  congruent equality, the first hit's.  The lex-leader test keeps that
  one: a swap that fixes the valuation maps congruent equalities to
  congruent ones, so it maps the first to no earlier one.
- Twins.  For a formula without ``=`` whose letters are at most unary, a
  valuation is skipped when an adjacent swap of one layer fixes it: its
  two individuals exist in the same worlds and agree on every letter at
  every world.  Deleting one of these twins (and renaming the later
  individuals down) gives a model with a smaller domain at some worlds
  and no larger one elsewhere, which comes earlier and has the same
  truth values, since the formula cannot tell twins apart.  So the first
  hit has no twins.
- Views.  A formula of modal depth d evaluated at a world w sees only
  the worlds within d steps of w and the edges leaving those within
  d - 1 steps (generated submodels: Blackburn, de Rijke & Venema, *Modal
  Logic*, 2001, section 2.1).  Intuitionistic ``->``, ``~`` and
  ``forall`` look at every later world, so in that mode d is unbounded.
  ``_view`` is that subframe with its worlds renamed, w first; at d = 0
  it is w without edges.  A model's restriction to a view is a model of
  the same kind (domains grow and equalities and intuitionistic
  valuations are hereditary along the edges kept, constant domains stay
  constant) with the same truth at w, so no model of the frame fails at
  a world whose view is valid.  On a frame of more than one world
  ``decide_valid_over_frame`` therefore groups the worlds by view, checks
  each distinct view with fewer worlds than the frame at its root w0,
  smallest first, up to the first one that is not valid, and then tests
  the frame's models at every world whose view it did not find valid;
  if there is none, the frame is not scanned.  The first countermodel on
  the frame and its first point are thus kept.  A view's countermodel is
  never reported, as it need not extend to the frame (the Barcan formula
  is valid on a 3-cycle, which forces equal domains, but not on its view
  w0 -> w1).

Equality under eq2.  Each world's eq2 equality is a congruence, and along
an edge w -> v a and b in D(w) are equal at w exactly when they are at v,
so a class at w lies in exactly one class at v: an eq2 model is a Kripke
sheaf with injective transition maps, the same thing as a model with
expanding domains and identity equality (Gabbay, Shehtman & Skvortsov,
*Quantification in Nonclassical Logic*, 2009).  In the searches' layout,
keep the least individual of each class.  Domains are prefixes of the
pool a0, a1, ... and grow along edges, so the representatives at w are
the representatives at v that lie in D(w); renaming them by rank gives
prefix domains that grow along edges, an eq3 model on the same frame
with the same truths.  Its domain is no larger at any world, and smaller
at some world unless the equality is already the identity, so it comes
earlier.  The first eq2 hit therefore has the identity equality and is
the first eq3 hit with the principle relabelled, and the searches give
eq2 the identity only.  The exception is constant domains on a frame
that is not connected: the quotient's domain size can then differ
between components, so it is no constant-domain model, and that case
keeps every eq2 equality.  (With constant domains on a connected frame
eq2 equalities agree at every world, and so do the quotient's sizes.)
``enumerate_models`` yields every eq2 equality.

``_models`` keeps one live model per domain assignment: for each
candidate it rewrites in place only the letters whose extension changed
and the equality, and yields the same ``Model`` again, valid until the
generator is resumed.  A witness is a copy (``_copy``) with valuation
dicts of its own, and ``enumerate_models`` yields such a copy for each
model, so its models stay independent; they share domains, extensions
and ``Equality`` objects.

``sat_bounded`` and ``decide_valid_over_frame`` run one scan,
``_search``: one loop that counts each model of ``_models`` on the frames
given as one step, tests it with ``first_point`` and builds the verdict.
Under a step cap (``max_steps``) the skipped frames and models count no
steps, so a capped search can give a definite answer where the full
search would have run out of steps; it never gives a different one.
Each of ``decide``'s view checks counts on its own, so the frame's scan
after them gives the verdict it gave without them, or, where there is
no scan, the verdict of the views.
"""

from __future__ import annotations

import json
from functools import cache, lru_cache
from itertools import islice, permutations, product
from operator import itemgetter
from typing import Callable, NamedTuple

from .semantics import (
    Equality, Frame, Model, compile_formula, evaluate, first_point,
    heredity_violations, identity_partition, model_to_dict,
    partition_congruent, validate_model,
)
from .syntax import (
    And, Atom, Eq, Exists, Falsum, Forall, Formula, FrozenRecord, Iff,
    Implies, Not, Or, Record, Verum, classify, free_variables, letters,
    modal_depth, parse,
)
from .translations import ClassicalStructure

def _reflexive(ws, acc) -> bool:
    return all((w, w) in acc for w in ws)


def _transitive(ws, acc) -> bool:
    return all((a, c) in acc for (a, b) in acc for (b2, c) in acc if b == b2)


# Each frame-class property by its direct definition on the worlds ws and
# the edges acc, in the order frame-props reports them.
_PROPERTIES = {
    "reflexive": _reflexive,
    "transitive": _transitive,
    "symmetric": lambda ws, acc: all((b, a) in acc for (a, b) in acc),
    "serial": lambda ws, acc: all(any((w, v) in acc for v in ws) for w in ws),
    "euclidean": lambda ws, acc: all(
        (b, c) in acc for (a, b) in acc for (a2, c) in acc if a == a2),
    "linear": lambda ws, acc: _transitive(ws, acc) and all(
        (a, b) in acc or (b, a) in acc for a in ws for b in ws),
    "partial_order": lambda ws, acc: _reflexive(ws, acc) and _transitive(
        ws, acc) and all(a == b for (a, b) in acc if (b, a) in acc),
    "irreflexive_transitive": lambda ws, acc: all(
        (w, w) not in acc for w in ws) and _transitive(ws, acc),
}
PROPERTY_NAMES = tuple(_PROPERTIES)


_set = object.__setattr__


class FrameClass(FrozenRecord):
    _fields = ("properties", "alt_bound")

    def __init__(self, properties: frozenset[str] = frozenset(),
                 alt_bound: int | None = None):
        unknown = properties - set(PROPERTY_NAMES)
        if unknown:
            raise ValueError(f"unknown frame properties: {sorted(unknown)}")
        if alt_bound is not None and alt_bound < 0:
            raise ValueError("alt_n bound must be non-negative")
        _set(self, "properties", properties)
        _set(self, "alt_bound", alt_bound)

    def with_properties(self, *names: str) -> "FrameClass":
        return FrameClass(self.properties | set(names), self.alt_bound)


# The frames of intuitionistic models.
PREORDER = FrameClass(frozenset({"reflexive", "transitive"}))


def parse_frame_class(text: str) -> FrameClass:
    """Parse a comma-separated property list, e.g. 'reflexive,alt_2'.  The
    class is their conjunction: of several alt_n, the least bound holds."""
    props: set[str] = set()
    alts = []
    for item in filter(None, (s.strip() for s in text.split(","))):
        if item.startswith("alt_"):
            try:
                alts.append(int(item[4:]))
            except ValueError:
                raise ValueError(f"frame class item {item!r}: alt_n needs an "
                                 "integer n") from None
        else:
            props.add(item)
    return FrameClass(frozenset(props), min(alts, default=None))


class PropertyReport(FrozenRecord):
    """A frame's value of each property and its largest out-degree."""

    _fields = PROPERTY_NAMES + ("max_out_degree",)

    def __init__(self, reflexive: bool, transitive: bool, symmetric: bool,
                 serial: bool, euclidean: bool, linear: bool,
                 partial_order: bool, irreflexive_transitive: bool,
                 max_out_degree: int):
        _set(self, "reflexive", reflexive)
        _set(self, "transitive", transitive)
        _set(self, "symmetric", symmetric)
        _set(self, "serial", serial)
        _set(self, "euclidean", euclidean)
        _set(self, "linear", linear)
        _set(self, "partial_order", partial_order)
        _set(self, "irreflexive_transitive", irreflexive_transitive)
        _set(self, "max_out_degree", max_out_degree)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._key()))


def frame_properties(fr: Frame) -> PropertyReport:
    """Compute every frame-class property by direct definition."""
    return PropertyReport(
        **{name: holds(fr.worlds, fr.access)
           for name, holds in _PROPERTIES.items()},
        max_out_degree=max(map(len, fr.succ.values()), default=0))


def frame_matches(fr: Frame, cls: FrameClass) -> bool:
    """Whether fr is in cls; only the class's own properties are tested."""
    if cls.alt_bound is not None and any(
            len(succ) > cls.alt_bound for succ in fr.succ.values()):
        return False
    return all(_PROPERTIES[name](fr.worlds, fr.access)
               for name in cls.properties)


def _frames(world_bound: int, cls: FrameClass, keep):
    """Frames on w0..w(n-1), n ascending, in bit-mask order; bit n*a + b
    of a mask is the edge wa -> wb.  Yields those whose mask keep(n, mask)
    accepts and that match cls."""
    if world_bound < 1:
        raise ValueError("world_bound must be >= 1")
    for n in range(1, world_bound + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        pairs = [(a, b) for a in worlds for b in worlds]
        for mask in range(1 << len(pairs)):
            if not keep(n, mask):
                continue
            access = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            fr = Frame(worlds, access)
            if frame_matches(fr, cls):
                yield fr


def enumerate_frames(world_bound: int, cls: FrameClass = FrameClass()):
    """Yield every frame on canonical worlds w0..wk matching cls.

    World count ascends; accessibility relations follow lexicographic
    bit order over the sorted pair list.
    """
    return _frames(world_bound, cls, lambda n, mask: True)


@cache
def _renamings(n: int) -> list:
    """One entry per non-identity permutation p of the n worlds: for each
    world a, a table from the bits of a's out-edges (bit b: a -> b) to the
    mask bits of the renamed edges p(a) -> p(b)."""
    out = []
    for p in permutations(range(n)):
        if p == tuple(range(n)):
            continue
        out.append([[sum(1 << (n * p[a] + p[b]) for b in range(n) if row >> b & 1)
                     for row in range(1 << n)]
                    for a in range(n)])
    return out


def _renamed_masks(n: int, mask: int):
    """The frame's mask under each non-identity renaming of its worlds."""
    full = (1 << n) - 1
    rows = [mask >> (n * a) & full for a in range(n)]
    for tables in _renamings(n):
        renamed = 0
        for table, row in zip(tables, rows):
            renamed |= table[row]
        yield renamed


def _least_labelled(n: int, mask: int) -> bool:
    """Whether no renaming of the worlds gives the frame a smaller mask."""
    for renamed in _renamed_masks(n, mask):
        if renamed < mask:
            return False
    return True


def enumerate_frames_up_to_iso(world_bound: int,
                               cls: FrameClass = FrameClass()):
    """The frames of enumerate_frames that have the least mask in their
    isomorphism class, in the same order: one frame per class."""
    return _frames(world_bound, cls, _least_labelled)


def _generated_frames(world_bound: int, cls: FrameClass = FrameClass()):
    """(frame, roots) for each point-generated frame of
    enumerate_frames_up_to_iso, in the same order: the frames that can
    carry the first hit of a search, each with the worlds that generate
    it (_roots).  None if cls has no one-world frame (sat_bounded)."""
    if world_bound >= 1 and next(enumerate_frames(1, cls), None) is None:
        return
    for fr in enumerate_frames_up_to_iso(world_bound, cls):
        roots = _roots(fr)
        if roots:
            yield fr, roots


def _ball(fr: Frame, w: str, d: float) -> tuple:
    """The worlds within d steps of the world w of fr, w first and the
    others as a breadth-first walk meets them, and the edges leaving the
    worlds within d - 1 steps."""
    seen, frontier, edges = {w: None}, [w], []
    while frontier and d > 0:
        d -= 1
        reached = []
        for u in frontier:
            for v in fr.succ[u]:
                edges.append((u, v))
                if v not in seen:
                    seen[v] = None
                    reached.append(v)
        frontier = reached
    return seen, edges


def _view(fr: Frame, w: str, d: float) -> Frame:
    """What a formula of modal depth d sees from the world w of fr: the
    subframe of _ball(fr, w, d) with its worlds renamed w0, w1, ... in
    its order.  At d = 0 it is w without edges; unbounded, the subframe
    that w generates."""
    worlds, edges = _ball(fr, w, d)
    name = {v: f"w{i}" for i, v in enumerate(worlds)}
    return Frame(tuple(name.values()),
                 frozenset((name[u], name[v]) for u, v in edges))


def _roots(fr: Frame) -> list:
    """The worlds of fr whose unbounded view is all of fr: the worlds
    that generate it."""
    return [w for w in fr.worlds if len(_ball(fr, w, float("inf"))[0])
            == len(fr.worlds)]


def _every_equality(frame: Frame, principle: str, constant: bool) -> bool:
    """Whether a search keeps every equality of the principle: eq1, and
    eq2 with constant domains on a frame not connected (module docstring)."""
    return principle != "eq3" and (principle != "eq2" or constant
                                   and not _connected(frame))


def _connected(frame: Frame) -> bool:
    """Whether every world reaches every other along edges taken in
    either direction: whether the frame with each edge reversed too has
    a root."""
    return bool(_roots(Frame(frame.worlds, frame.access | {
        (b, a) for a, b in frame.access})))


# ---------------------------------------------------------------------------
# Classical finite-model search

class ClassicalSearchError(ValueError):
    pass


class ClassicalCompiled(NamedTuple):
    """A first-order formula compiled by compile_classical.

    ``holds(domain, interp, values)`` is the classical truth of the
    formula over domain, with each letter's extension (a set of tuples)
    in interp and ``values[i]`` assigned to ``free[i]``.  It runs no
    checks: every free variable must get a value.
    """
    free: tuple[str, ...]
    holds: Callable[[tuple, dict, tuple], bool]


_NO_TUPLES: frozenset = frozenset()


# The experiment compiles each sentence once and classical_sat once per
# query; classical_evaluate's callers loop over one formula (or alternate
# a few).  A small cache serves them all.
@lru_cache(maxsize=8)
def compile_classical(f: Formula) -> ClassicalCompiled:
    """Compile f once into nested closures for classical truth; equality
    is identity.

    Variables become slots of a list: the free variables, sorted, come
    first; every quantifier occurrence owns one further slot, so binding
    a variable never overwrites a value that is still in scope.  A
    modality anywhere in f is a ClassicalSearchError here, before any
    evaluation.
    """
    free = tuple(sorted(free_variables(f)))
    used = [len(free)]
    root = _compile_classical(f, {x: i for i, x in enumerate(free)}, used)
    pad = (None,) * (used[0] - len(free))

    def holds(domain, interp, values):
        return root(domain, interp, [*values, *pad])
    return ClassicalCompiled(free, holds)


def _compile_classical(f: Formula, slots: dict, used: list):
    """Closure ev(domain, interp, env) for f; slots maps each variable in
    scope to its index in env, and used[0] counts the slots handed out
    so far."""
    if isinstance(f, Atom):
        letter = f.letter
        if not f.args:
            return lambda domain, interp, env: \
                () in interp.get(letter, _NO_TUPLES)
        if len(f.args) == 1:
            i = slots[f.args[0]]
            return lambda domain, interp, env: \
                (env[i],) in interp.get(letter, _NO_TUPLES)
        key = itemgetter(*(slots[x] for x in f.args))
        return lambda domain, interp, env: \
            key(env) in interp.get(letter, _NO_TUPLES)
    if isinstance(f, Eq):
        i, j = slots[f.left], slots[f.right]
        return lambda domain, interp, env: env[i] == env[j]
    if isinstance(f, Verum):
        return lambda domain, interp, env: True
    if isinstance(f, Falsum):
        return lambda domain, interp, env: False
    if isinstance(f, (Forall, Exists)):
        k = used[0]
        used[0] += 1
        body = _compile_classical(f.body, {**slots, f.var: k}, used)
        if isinstance(f, Exists):
            def ev(domain, interp, env):
                for a in domain:
                    env[k] = a
                    if body(domain, interp, env):
                        return True
                return False
        else:
            def ev(domain, interp, env):
                for a in domain:
                    env[k] = a
                    if not body(domain, interp, env):
                        return False
                return True
        return ev
    if isinstance(f, Not):
        body = _compile_classical(f.body, slots, used)
        return lambda domain, interp, env: not body(domain, interp, env)
    if not isinstance(f, (And, Or, Implies, Iff)):
        raise ClassicalSearchError(
            f"modality in classical formula: {type(f).__name__}")
    left = _compile_classical(f.left, slots, used)
    right = _compile_classical(f.right, slots, used)
    if isinstance(f, And):
        return lambda domain, interp, env: \
            left(domain, interp, env) and right(domain, interp, env)
    if isinstance(f, Or):
        return lambda domain, interp, env: \
            left(domain, interp, env) or right(domain, interp, env)
    if isinstance(f, Implies):
        return lambda domain, interp, env: \
            not left(domain, interp, env) or right(domain, interp, env)
    return lambda domain, interp, env: \
        left(domain, interp, env) == right(domain, interp, env)


def classical_evaluate(domain: tuple, interp: dict, assignment: dict,
                       f: Formula) -> bool:
    """Classical truth over a finite domain; equality is identity.

    f is compiled once (compile_classical), so a modality is rejected
    wherever it occurs, and a free variable without a value in the
    assignment is a ClassicalSearchError.
    """
    free, holds = compile_classical(f)
    missing = [x for x in free if x not in assignment]
    if missing:
        raise ClassicalSearchError(f"unassigned free variables: {missing}")
    return holds(domain, interp, [assignment[x] for x in free])


def _subsets(tuples: list):
    """All subsets of a sorted tuple list, in lexicographic bit order."""
    for mask in range(1 << len(tuples)):
        yield frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)


def classical_sat(f: Formula, size_bound: int) -> ClassicalStructure | None:
    """First structure of size <= size_bound satisfying the closed formula f.

    Enumeration is deterministic: sizes ascend; each letter's
    interpretation follows lexicographic bit order.
    """
    if size_bound < 1:
        raise ValueError("size_bound must be >= 1")
    if modal_depth(f) > 0:
        raise ClassicalSearchError("classical search rejects modal formulas")
    free = free_variables(f)
    if free:
        raise ClassicalSearchError(f"formula must be closed; free: {sorted(free)}")
    arities = letters(f)
    binaries = sorted(name for name, a in arities.items() if a == 2)
    if any(a > 2 for a in arities.values()):
        raise ClassicalSearchError("letters of arity > 2 are not supported")
    if len(binaries) > 1:
        raise ClassicalSearchError(f"more than one binary letter: {binaries}")
    names = sorted(arities)
    holds = compile_classical(f).holds
    for n in range(1, size_bound + 1):
        domain = tuple(range(n))
        candidate_sets = [
            list(_subsets(sorted(product(domain, repeat=arities[name]))))
            for name in names
        ]
        for combo in product(*candidate_sets):
            interp = dict(zip(names, combo))
            if holds(domain, interp, ()):
                return ClassicalStructure(
                    domain=domain,
                    relation=interp[binaries[0]] if binaries else frozenset(),
                    unary={name: frozenset(t[0] for t in interp[name])
                           for name in names if arities[name] == 1},
                    nullary={name: () in interp[name]
                             for name in names if arities[name] == 0},
                )
    return None


# ---------------------------------------------------------------------------
# Model enumeration over frames

def _set_partitions(items: tuple):
    """Every partition of items as a tuple of frozensets; deterministic."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (part[i] | {first},) + part[i + 1:]
        yield part + (frozenset([first]),)


# How many option tables _letter_options and _equalities each keep, the
# least recently used dropped first; a long run of the fixed workloads
# asks for a few dozen keys.
_OPTION_TABLES = 256


def _domain_assignments(frame: Frame, domain_bound: int, constant: bool):
    pool = tuple(f"a{i}" for i in range(domain_bound))
    worlds = frame.worlds
    if constant:
        for size in range(1, domain_bound + 1):
            yield {w: pool[:size] for w in worlds}
        return
    for sizes in product(range(1, domain_bound + 1), repeat=len(worlds)):
        by_world = dict(zip(worlds, sizes))
        if all(by_world[w] <= by_world[v] for (w, v) in frame.access):
            yield {w: pool[:s] for w, s in by_world.items()}


@lru_cache(maxsize=_OPTION_TABLES)
def _letter_options(frame: Frame, doms: tuple, arity: int) -> tuple:
    """A letter's extensions on the domain assignment doms (one domain per
    world of frame), and their _swap_tables.

    An option is a tuple of one extension per world, in product order
    over the worlds, each world's extensions in lexicographic bit order.
    Only options that grow along the frame's edges are kept; ask on the
    frame without edges when no heredity is wanted."""
    at = {w: k for k, w in enumerate(frame.worlds)}
    edges = [(at[w], at[v]) for w, v in frame.access]
    options = [combo for combo in product(*(
                   list(_subsets(sorted(product(dom, repeat=arity))))
                   for dom in doms))
               if all(combo[k] <= combo[j] for k, j in edges)]
    return options, _swap_tables(options, doms)


@lru_cache(maxsize=_OPTION_TABLES)
def _equalities(frame: Frame, doms: tuple, principle: str,
                identity: bool = False) -> tuple:
    """Every equality on the domain assignment doms that the principle's
    heredity rules allow on frame, whatever the valuation; with identity,
    the identity equality alone.

    Returns (partitions, options, swap tables): partitions[i] lists the
    partitions of the i-th world's domain; options holds (index of each
    world's partition, Equality) in product order; the tables are the
    options' _swap_tables.  Principle "any" keeps every family."""
    worlds = frame.worlds
    domains = dict(zip(worlds, doms))
    partitions = [[identity_partition(dom)] if identity
                  else list(_set_partitions(tuple(sorted(dom))))
                  for dom in doms]
    options = []
    for combo in product(*(range(len(parts)) for parts in partitions)):
        eq = Equality(principle, {w: parts[i] for w, parts, i
                                  in zip(worlds, partitions, combo)})
        if next(heredity_violations(frame, domains, eq), None) is None:
            options.append((combo, eq))
    return partitions, options, _swap_tables(
        [tuple(map(frozenset, map(eq.classes.get, worlds)))
         for _, eq in options], doms)


def _congruent(frame: Frame, valuation: dict, partitions: list,
               options: list) -> list:
    """(index, Equality) of each option of _equalities whose partition at
    every world is congruent with the valuation, in the options' order.
    A partition into singletons is congruent with every valuation, so
    only the partitions with a larger block are tested."""
    ok = [[max(map(len, part)) == 1
           or partition_congruent(part, valuation.get(w, {})) is None
           for part in parts]
          for w, parts in zip(frame.worlds, partitions)]
    return [(j, eq) for j, (combo, eq) in enumerate(options)
            if all(row[i] for row, i in zip(ok, combo))]


def _layer_swaps(doms: tuple) -> list:
    """The pairs (a_i, a_i+1) of the pool that lie in one domain layer of
    the domain assignment doms: present in exactly the same worlds, i.e.
    no world has i+1 of them."""
    sizes = set(map(len, doms))
    pool = max(doms, key=len)
    return [(pool[i], pool[i + 1]) for i in range(len(pool) - 1)
            if i + 1 not in sizes]


def _renamed(x, swap: dict):
    """x, nested tuples and frozensets of individuals, with each individual
    a replaced by swap.get(a, a)."""
    if isinstance(x, str):
        return swap.get(x, x)
    return type(x)(_renamed(y, swap) for y in x)


def _swap_tables(keys: list, doms: tuple) -> list:
    """For each layer swap (a, b) of the domain assignment doms, the table
    from i to the index in keys of keys[i] with a and b swapped."""
    where = dict(zip(keys, range(len(keys))))
    return [[where[_renamed(key, {a: b, b: a})] for key in keys]
            for a, b in _layer_swaps(doms)]


def _models(frame: Frame, letter_arities: dict, domain_bound: int, mode: str,
            eq_principle: str, constant_domains: bool, leaders_only: bool,
            sees_equality: bool = True):
    """The models of enumerate_models, in its order.  With leaders_only,
    skip each model that swapping two adjacent individuals of one domain
    layer turns into a model that comes earlier, check only the identity
    equality for a formula without ``=`` (not sees_equality) or unless
    _every_equality, and skip valuations with twin individuals if the
    formula has no ``=`` and letters of arity at most 1 (see the module
    docstring).

    Each domain assignment has one live model, yielded again for each of
    its models with its valuation and equality updated in place: a model
    from _models is valid until the generator is resumed.  _copy keeps
    one."""
    worlds = frame.worlds
    no_twins = leaders_only and not sees_equality and max(
        letter_arities.values(), default=0) <= 1
    identity_only = eq_principle == "eq3" or leaders_only and not (
        sees_equality
        and _every_equality(frame, eq_principle, constant_domains))
    # Options that do not depend on the edges are asked for on the frame
    # without edges, which every frame with these worlds shares.
    bare = Frame(worlds, frozenset())
    letter_frame = frame if mode == "int" else bare
    eq_frame = bare if identity_only else frame
    names = sorted(letter_arities)
    for domains in _domain_assignments(frame, domain_bound, constant_domains):
        doms = tuple(map(domains.get, worlds))
        per_letter = [_letter_options(letter_frame, doms, letter_arities[name])
                      for name in names]
        choices = [options for options, _ in per_letter]
        partitions, equalities, eq_tables = _equalities(
            eq_frame, doms, eq_principle, identity_only)
        # Identity partitions are congruent with every valuation.
        identities = list(enumerate(eq for _, eq in equalities)) \
            if identity_only else None
        renamings = [([tables[k] for _, tables in per_letter], eq_table)
                     for k, eq_table in enumerate(eq_tables)] \
            if leaders_only else []
        # The live model: its valuation holds the extensions of the option
        # indices in shown, and only the letters whose index changed are
        # written again.
        valuation = {w: {} for w in worlds}
        model = Model(frame, domains, valuation, None, mode, constant_domains)
        shown = [None] * len(names)
        for index in product(*(range(len(c)) for c in choices)):
            # The equality tables of the swaps that fix the valuation.
            ties = []
            for tables, eq_table in renamings:
                renamed = tuple(map(list.__getitem__, tables, index))
                if renamed < index:
                    break
                if renamed == index:
                    ties.append(eq_table)
            else:
                if ties and no_twins:
                    continue
                for n, (name, c, i) in enumerate(zip(names, choices, index)):
                    if shown[n] != i:
                        shown[n] = i
                        for facts, extension in zip(valuation.values(), c[i]):
                            facts[name] = extension
                fitting = identities if identity_only else \
                    _congruent(frame, valuation, partitions, equalities)
                for j, equality in fitting:
                    if ties and any(table[j] < j for table in ties):
                        continue
                    model.equality = equality
                    yield model


def enumerate_models(frame: Frame, letter_arities: dict, domain_bound: int,
                     mode: str, eq_principle: str, constant_domains: bool = False):
    """Yield every model on the frame within the domain bound.

    Only the given letters are interpreted; others cannot affect
    evaluation.  In intuitionistic mode valuations are hereditary.
    Domain assignments come first, then each letter's extension in
    letter order, then the equality.  Each model is independent of the
    generator (a _copy of _models' live model, with its own per-world
    valuation dicts), but the models share their ``domains`` with the
    other models of their domain assignment, and their extensions and
    ``Equality`` objects with each other and with other searches, so
    they are read-only.
    """
    return map(_copy, _models(frame, letter_arities, domain_bound, mode,
                              eq_principle, constant_domains,
                              leaders_only=False))


def _copy(model: Model) -> Model:
    """model with valuation dicts of its own: a live model of _models
    kept past the next step of its generator."""
    return Model(model.frame, model.domains,
                 {w: dict(facts) for w, facts in model.valuation.items()},
                 model.equality, model.mode, model.constant_domains)


# ---------------------------------------------------------------------------
# Verdicts and bounded decision procedures

class Verdict(Record):
    _fields = ("outcome", "bounds_used", "model", "world", "assignment",
               "warnings")

    def __init__(self, outcome: str, bounds_used: dict,
                 model: Model | None = None, world: str | None = None,
                 assignment: dict | None = None, warnings: list | None = None):
        # valid | countermodel | satisfiable | unsatisfiable_up_to_bound |
        # no_countermodel_up_to_bound | bound_exhausted
        self.outcome = outcome
        self.bounds_used = bounds_used
        self.model = model
        self.world = world
        self.assignment = assignment
        self.warnings = [] if warnings is None else warnings

    def to_dict(self) -> dict:
        out = {
            "outcome": self.outcome,
            "bounds_used": dict(self.bounds_used),
            "warnings": list(self.warnings),
        }
        if self.model is not None:
            out["witness"] = {
                "model": model_to_dict(self.model),
                "world": self.world,
                "assignment": {x: str(a) for x, a in (self.assignment or {}).items()},
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _search(frames, f: Formula, report, bounds: dict,
            max_steps: int | None, value: bool, outcomes: tuple,
            warnings: list) -> Verdict:
    """The verdict of the first model on frames, with its first point
    (semantics.first_point) at which f evaluates to value: outcomes[0]
    with that witness, outcomes[1] if there is none, or bound_exhausted
    when the frames' models spend max_steps, each model checked being
    one step.  frames yields (frame, worlds) pairs: each model of the
    frame is tested at those worlds only.  report is classify(f); bounds,
    the verdict's bounds_used, gives the mode, domain_bound, eq_principle
    and constant_domains of the search."""
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"step cap must be >= 0, got {max_steps}")
    limit = float("inf") if max_steps is None else max_steps
    mode, principle = bounds["mode"], bounds["eq_principle"]
    compiled = compile_formula(f, mode)
    steps = 0
    for frame, worlds in frames:
        for model in _models(frame, report.letter_arities,
                             bounds["domain_bound"], mode, principle,
                             bounds["constant_domains"], True,
                             report.has_equality):
            steps += 1
            if steps > limit:
                return Verdict("bound_exhausted",
                               bounds | {"max_steps": max_steps},
                               warnings=warnings)
            point = first_point(model, compiled, value, worlds)
            if point is not None:
                if not report.has_equality and _every_equality(
                        frame, principle, bounds["constant_domains"]):
                    doms = tuple(map(model.domains.get, frame.worlds))
                    model.equality = _congruent(
                        frame, model.valuation,
                        *_equalities(frame, doms, principle)[:2])[0][1]
                return Verdict(outcomes[0], bounds, model=_copy(model),
                               world=point[0], assignment=point[1],
                               warnings=warnings)
    return Verdict(outcomes[1], bounds, warnings=warnings)


def sat_bounded(f: Formula, cls: FrameClass, world_bound: int, domain_bound: int,
                mode: str = "modal", eq_principle: str = "eq3",
                constant_domains: bool = False,
                max_steps: int | None = None) -> Verdict:
    """Search for a model and point satisfying f within the bounds.

    The witness is the first one in the order of enumerate_frames.  Only
    the point-generated frames of one isomorphism class each are visited,
    each model tested only at its frame's roots, as _generated_frames
    pairs them (see the module docstring), and in intuitionistic mode and
    for a
    formula without modalities only the first one-world frame of the
    class.  That is exact: a final intuitionistic cluster collapses onto
    one reflexive world, and a formula without modalities cannot see past
    its world, so a witness on a frame of the class gives one on each
    one-world frame of the class.  And a class has a frame iff it
    has a one-world frame: each property, and alt_n for n >= 1, holds on
    the world without edges or on the reflexive world; reflexive,
    serial, linear and partial_order fail only on the first,
    irreflexive_transitive and alt_0 only on the second, and a class
    with one of each has no finite frame.  The one-world frames come
    first, so the first frame of the class carries the first witness, or
    no frame does.  The verdict still reports the requested world_bound.
    """
    if world_bound < 1 or domain_bound < 1:
        raise ValueError("bounds must be >= 1")
    if mode == "int":
        cls = cls.with_properties(*PREORDER.properties)
    bounds = {"world_bound": world_bound, "domain_bound": domain_bound,
              "mode": mode, "eq_principle": eq_principle,
              "constant_domains": constant_domains}
    report = classify(f)
    if mode == "int" or report.modal_depth == 0:
        frames = islice(_generated_frames(1, cls), 1)
    else:
        frames = _generated_frames(world_bound, cls)
    return _search(frames, f, report, bounds, max_steps, True,
                   ("satisfiable", "unsatisfiable_up_to_bound"), [])


def default_domain_bound(f: Formula) -> int:
    """Heuristic bound: 2^(unary letters) * (variables + 1)."""
    report = classify(f)
    unary = sum(1 for a in report.letter_arities.values() if a == 1)
    return (2 ** unary) * (report.variable_count + 1)


def decide_valid_over_frame(fr: Frame, f: Formula, domain_bound: int | None = None,
                            mode: str = "modal", eq_principle: str = "eq3",
                            constant_domains: bool = False,
                            max_steps: int | None = None) -> Verdict:
    """Validity of f over all models on the fixed finite frame fr,
    within the domain bound; returns the first countermodel otherwise.
    Without a domain bound the search runs to default_domain_bound, a
    guess that can be too small, so finding no countermodel there gives
    no_countermodel_up_to_bound, not valid.  The views of fr's worlds
    that have fewer worlds are checked first, up to the first that is not
    valid; the models of fr are then tested at each world whose view was
    not found valid (see the module docstring)."""
    heuristic = domain_bound is None
    if heuristic:
        domain_bound = default_domain_bound(f)
    if domain_bound < 1:
        raise ValueError("domain_bound must be >= 1")
    if mode == "int" and not frame_matches(fr, PREORDER):
        raise ValueError("intuitionistic mode requires a preorder frame")
    bounds = {"domain_bound": domain_bound, "mode": mode,
              "eq_principle": eq_principle, "constant_domains": constant_domains,
              "domain_bound_heuristic": heuristic}
    report = classify(f)
    warnings = [] if report.is_monadic else [
        "formula is not monadic; the fixed-frame decidability guarantee "
        "does not apply"]
    outcomes = ("countermodel",
                "no_countermodel_up_to_bound" if heuristic else "valid")
    worlds = fr.worlds
    if len(fr.worlds) > 1:
        depth = report.modal_depth if mode == "modal" else float("inf")
        views = {}
        for w in fr.worlds:
            view = _view(fr, w, depth)
            if len(view.worlds) < len(fr.worlds):
                views.setdefault(view, []).append(w)
        valid = set()
        for view in sorted(views, key=lambda v: len(v.worlds)):
            if _search([(view, view.worlds[:1])], f, report, bounds,
                       max_steps, False, outcomes, warnings).outcome \
                    != outcomes[1]:
                break
            valid.update(views[view])
        worlds = [w for w in fr.worlds if w not in valid]
    return _search([(fr, worlds)] if worlds else [], f, report, bounds,
                   max_steps, False, outcomes, warnings)


# ---------------------------------------------------------------------------
# Equality-principle separation harness

class SeparationFinding(Record):
    """A formula valid on frame under eq2 with an eq1 countermodel."""

    _fields = ("frame", "formula", "mode", "counter_verdict", "reverified")

    def __init__(self, frame: Frame, formula: Formula, mode: str,
                 counter_verdict: Verdict, reverified: bool):
        self.frame = frame
        self.formula = formula
        self.mode = mode
        self.counter_verdict = counter_verdict
        self.reverified = reverified

    def to_dict(self) -> dict:
        return {
            "frame": {"worlds": list(self.frame.worlds),
                      "access": sorted(list(e) for e in self.frame.access)},
            "formula": str(self.formula),
            "mode": self.mode,
            "valid_principle": "eq2",
            "failing_principle": "eq1",
            "counter_verdict": self.counter_verdict.to_dict(),
            "reverified": self.reverified,
        }


class SeparationReport(Record):
    _fields = ("world_bound", "domain_bound", "eq2_not_eq1")

    def __init__(self, world_bound: int, domain_bound: int,
                 eq2_not_eq1: SeparationFinding | None):
        self.world_bound = world_bound
        self.domain_bound = domain_bound
        self.eq2_not_eq1 = eq2_not_eq1

    def to_dict(self) -> dict:
        return {
            "world_bound": self.world_bound,
            "domain_bound": self.domain_bound,
            "eq3_not_eq2": "not found within bounds",
            "eq2_not_eq1": (self.eq2_not_eq1.to_dict() if self.eq2_not_eq1
                            else "not found within bounds"),
        }


_SEPARATION_CANDIDATES = (
    ("modal", "~(x = y) -> []~(x = y)"),
    ("modal", "(x = y) <-> [](x = y)"),
    ("int", "(x = y) | ~(x = y)"),
)


def _reverify(verdict: Verdict, f: Formula) -> bool:
    if verdict.model is None:
        return False
    if validate_model(verdict.model):
        return False
    return evaluate(verdict.model, verdict.world, verdict.assignment, f) is False


def eq_separation_search(world_bound: int = 3, domain_bound: int = 2,
                         max_steps: int | None = None) -> SeparationReport:
    """Search small frames for pairs separating the equality principles.

    Because every eq3 (identity) model also satisfies the eq2
    conditions, and every eq2 model the eq1 condition, validity can
    only shrink from eq3 to eq2 to eq1.  The eq3-vs-eq2 leg is settled by
    proof, not searched: the frames searched here are point-generated,
    hence connected, and domains expand, so every eq2 model has an eq3
    quotient with no larger domains and the same truths (see the module
    docstring).  A formula valid under eq3 within the domain bound is
    thus valid under eq2 within it, eq3_not_eq2 always reads "not found
    within bounds", and the search stops at the first eq2-vs-eq1 pair,
    a formula valid under eq3 (so eq2) with an eq1 countermodel.

    Frames are visited as in sat_bounded: point-generated, one per
    isomorphism class.  Validity on a frame passes to its generated
    subframes, and a countermodel restricts to the subframe its world
    generates, so the first separating frame is point-generated.
    """
    parsed = [(mode, parse(text)) for mode, text in _SEPARATION_CANDIDATES]
    for fr, _ in _generated_frames(world_bound):
        preorder = frame_matches(fr, PREORDER)
        for mode, f in parsed:
            if mode == "int" and not preorder:
                continue
            v3 = decide_valid_over_frame(fr, f, domain_bound, mode, "eq3",
                                         max_steps=max_steps)
            if v3.outcome != "valid":
                continue
            v1 = decide_valid_over_frame(fr, f, domain_bound, mode, "eq1",
                                         max_steps=max_steps)
            if v1.outcome == "countermodel":
                return SeparationReport(
                    world_bound, domain_bound,
                    SeparationFinding(fr, f, mode, v1, _reverify(v1, f)))
    return SeparationReport(world_bound, domain_bound, None)
