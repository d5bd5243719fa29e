"""The formula nodes and the result records behave as dataclasses: the
same constructor, defaults and a fresh default container per instance,
``==`` only within one class, the same hash values, repr text,
frozenness and instance attributes.  Each class
is described here by its fields, not read from the class, so the table
states the behaviour independently of how the class is written."""

import dataclasses
import inspect
import random

import pytest

from monotrick import (
    cli, experiments, search, semantics, syntax, translations,
)
from monotrick.experiments import ExperimentReport
from monotrick.search import (
    PROPERTY_NAMES, FrameClass, PropertyReport, SeparationFinding,
    SeparationReport, Verdict, frame_properties,
)
from monotrick.semantics import Equality, Frame, Model, Violation
from monotrick.syntax import (
    And, Atom, Box, Diamond, Eq, Exists, Falsum, Forall, Formula,
    FragmentReport, Iff, Implies, Not, Or, Verum, classify, parse,
)
from monotrick.translations import ClassicalStructure
from tests.test_syntax import random_formula

NODE_FIELDS = {
    Atom: ("letter", "args"), Eq: ("left", "right"), Verum: (), Falsum: (),
    Not: ("body",), And: ("left", "right"), Or: ("left", "right"),
    Implies: ("left", "right"), Iff: ("left", "right"), Box: ("body",),
    Diamond: ("body",), Forall: ("var", "body"), Exists: ("var", "body"),
}


def dataclass_repr(value) -> str:
    """repr as a dataclass prints a formula node: its class's name and
    each field as name=repr, in declaration order."""
    if not isinstance(value, Formula):
        return repr(value)
    shown = ", ".join(f"{name}={dataclass_repr(getattr(value, name))}"
                      for name in NODE_FIELDS[type(value)])
    return f"{type(value).__qualname__}({shown})"


def subformulas(f):
    yield f
    for name in NODE_FIELDS[type(f)]:
        value = getattr(f, name)
        if isinstance(value, Formula):
            yield from subformulas(value)


def assert_frozen(record, names):
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot delete field '{name}'"):
            delattr(record, name)


def test_formula_nodes_keep_dataclass_repr_hash_and_fields():
    rng = random.Random(26)
    seen = set()
    for _ in range(300):
        f = random_formula(rng, depth=5, vars_in_scope=["x", "y"])
        assert repr(f) == dataclass_repr(f)
        for g in subformulas(f):
            names = NODE_FIELDS[type(g)]
            values = tuple(getattr(g, name) for name in names)
            seen.add(type(g))
            assert list(vars(g)) == list(names)
            assert hash(g) == hash(values)
            copy = type(g)(*values)
            assert copy == g and copy is not g and hash(copy) == hash(g)
            assert type(g)(**dict(zip(names, values))) == g
            assert not g != copy
            for k, value in enumerate(values):
                other = (Not(value) if isinstance(value, Formula)
                         else value + ("x",) if isinstance(value, tuple)
                         else value + "1")
                changed = type(g)(*values[:k], other, *values[k + 1:])
                assert changed != g and not changed == g
    assert seen == set(NODE_FIELDS)


def test_formula_nodes_are_frozen():
    for cls, names in NODE_FIELDS.items():
        node = cls(*(Verum() if name == "body" else "x" for name in names))
        assert_frozen(node, names + ("other",))
        assert list(vars(node)) == list(names)


def test_formula_nodes_equal_only_within_one_class():
    p, q = Atom("p"), Atom("q")
    assert Atom("p") == Atom("p", ()) and Atom("p").args == ()
    pairs = [(And(p, q), Or(p, q)), (Implies(p, q), Iff(p, q)),
             (Box(p), Diamond(p)), (Box(p), Not(p)), (Verum(), Falsum()),
             (Forall("x", p), Exists("x", p)), (Eq("x", "y"), And(p, q))]
    for a, b in pairs:
        assert a != b and not a == b
        assert a.__eq__(b) is NotImplemented
    assert p.__eq__(("p", ())) is NotImplemented
    assert Verum() == Verum() and hash(Verum()) == hash(())
    assert len({Falsum(), Falsum(), Verum()}) == 2


def test_formula_node_signatures():
    for cls, names in NODE_FIELDS.items():
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.kind) for p in params] == \
            [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in names]
        defaults = {p.name: p.default for p in params
                    if p.default is not inspect.Parameter.empty}
        assert defaults == ({"args": ()} if cls is Atom else {})


FRAME = Frame(("w0", "w1"), frozenset({("w0", "w1")}))
FRESH_LIST, FRESH_DICT = object(), object()


class Case:
    """One record class: make() builds an instance, changed(r) one that
    differs in a compared field.  fields are the instance's attributes in
    order, shown those in repr, ==, and hash; defaults map each optional
    parameter to its value, FRESH_LIST / FRESH_DICT for a new empty
    container; hashable is True, False (__hash__ is None) or TypeError
    (hashing a field raises)."""

    def __init__(self, make, changed, params, fields=None, shown=None,
                 defaults=None, frozen=True, hashable=True):
        self.make, self.changed = make, changed
        self.params = params
        self.fields = fields or params
        self.shown = shown or self.fields
        self.defaults = defaults or {}
        self.frozen, self.hashable = frozen, hashable

    @property
    def cls(self):
        return type(self.make())


REPORT_FIELDS = ("is_monadic", "is_monodic", "is_positive", "has_equality",
                 "variable_count", "modal_depth", "max_letter_arity")
VERDICT = ("valid", {"mode": "modal", "domain_bound": 2})
CASES = {
    "FragmentReport": Case(
        lambda: FragmentReport(True, True, False, True, 2, 1, 1, {"P": 1}),
        lambda r: FragmentReport(True, True, False, True, 2, 2, 1),
        REPORT_FIELDS + ("letter_arities",), shown=REPORT_FIELDS,
        defaults={"letter_arities": FRESH_DICT}),
    "Frame": Case(
        lambda: Frame(("w0", "w1"), frozenset({("w0", "w1")})),
        lambda r: Frame(r.worlds, frozenset()),
        ("worlds", "access"), fields=("worlds", "access", "succ"),
        shown=("worlds", "access")),
    "Equality": Case(
        lambda: Equality("eq1", {"w": (frozenset({"a", "b"}),)}),
        lambda r: Equality("eq2", r.classes),
        ("principle", "classes"), fields=("principle", "classes", "blocks"),
        shown=("principle", "classes"), hashable=TypeError),
    "Violation": Case(
        lambda: Violation("Eq1 upward heredity", "w0 -> w1: a, b"),
        lambda r: Violation(r.name, "w1 -> w0: a, b"),
        ("name", "witness")),
    "FrameClass": Case(
        lambda: FrameClass(frozenset({"reflexive", "transitive"}), 2),
        lambda r: FrameClass(r.properties, 3),
        ("properties", "alt_bound"),
        defaults={"properties": frozenset(), "alt_bound": None}),
    "PropertyReport": Case(
        lambda: frame_properties(FRAME),
        lambda r: frame_properties(Frame(FRAME.worlds, frozenset())),
        PROPERTY_NAMES + ("max_out_degree",)),
    "Verdict": Case(
        lambda: Verdict(*VERDICT),
        lambda r: Verdict(*VERDICT, warnings=["w"]),
        ("outcome", "bounds_used", "model", "world", "assignment",
         "warnings"),
        defaults={"model": None, "world": None, "assignment": None,
                  "warnings": FRESH_LIST},
        frozen=False, hashable=False),
    "SeparationFinding": Case(
        lambda: SeparationFinding(FRAME, parse("p"), "modal",
                                  Verdict(*VERDICT), True),
        lambda r: SeparationFinding(FRAME, parse("p"), "modal",
                                    Verdict(*VERDICT), False),
        ("frame", "formula", "mode", "counter_verdict", "reverified"),
        frozen=False, hashable=False),
    "SeparationReport": Case(
        lambda: SeparationReport(3, 2, None),
        lambda r: SeparationReport(2, 2, None),
        ("world_bound", "domain_bound", "eq2_not_eq1"),
        frozen=False, hashable=False),
    "ClassicalStructure": Case(
        lambda: ClassicalStructure(("a", "b"), frozenset({("a", "b")}),
                                   {"U": frozenset({"a"})}),
        lambda r: ClassicalStructure(r.domain, frozenset()),
        ("domain", "relation", "unary", "nullary"),
        defaults={"unary": FRESH_DICT, "nullary": FRESH_DICT},
        frozen=False, hashable=False),
    "ExperimentReport": Case(
        lambda: ExperimentReport("d2", 3, 10, 30, [{"formula": "p"}]),
        lambda r: ExperimentReport("d2", 3, 10, 29),
        ("variant", "corpus_size", "structure_count", "agreement",
         "disagreements", "skipped", "wall_time"),
        defaults={"disagreements": FRESH_LIST, "skipped": FRESH_LIST,
                  "wall_time": 0.0},
        frozen=False, hashable=False),
}
records = pytest.mark.parametrize("case", CASES.values(), ids=CASES)


@records
def test_record_signature_and_defaults(case):
    params = inspect.signature(case.cls).parameters.values()
    assert [(p.name, p.kind) for p in params] == \
        [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
         for name in case.params]
    optional = [p.name for p in params
                if p.default is not inspect.Parameter.empty]
    assert optional == list(case.defaults)
    full = case.make()
    required = [getattr(full, name) for name in case.params
                if name not in case.defaults]
    a, b = case.cls(*required), case.cls(*required)
    for name, default in case.defaults.items():
        if default is FRESH_LIST or default is FRESH_DICT:
            empty = [] if default is FRESH_LIST else {}
            assert getattr(a, name) == empty and type(getattr(a, name)) is \
                type(empty)
            assert getattr(a, name) is not getattr(b, name)
        else:
            assert getattr(a, name) == default


@records
def test_record_fields_repr_and_equality(case):
    a, b = case.make(), case.make()
    assert list(vars(a)) == list(case.fields)
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in case.shown)
    assert repr(a) == f"{type(a).__qualname__}({shown})"
    assert a == b and not a != b and a is not b
    changed = case.changed(a)
    assert a != changed and not a == changed
    assert a.__eq__(object()) is NotImplemented
    assert a.__eq__(tuple(getattr(a, name) for name in case.shown)) \
        is NotImplemented


@records
def test_record_hash_and_frozenness(case):
    a = case.make()
    if case.hashable is True:
        assert hash(a) == hash(tuple(getattr(a, name)
                                     for name in case.shown))
        assert hash(a) == hash(case.make())
    elif case.hashable is False:
        assert type(a).__hash__ is None
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    if case.frozen:
        assert_frozen(a, case.fields)
    else:
        for name in case.fields:
            setattr(a, name, "changed")
            assert getattr(a, name) == "changed"
        assert a != case.make()


def test_fields_outside_equality_hash_and_repr():
    a = CASES["FragmentReport"].make()
    b = FragmentReport(*[getattr(a, name) for name in REPORT_FIELDS],
                       letter_arities={"Q": 2})
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert classify(parse("P(x,y) & q")).letter_arities == {"P": 2, "q": 0}
    assert "letter_arities" not in classify(parse("p")).to_dict()
    eq = CASES["Equality"].make()
    assert eq.blocks is None and eq.related("w", "a", "b")
    assert eq.blocks is not None
    assert eq == CASES["Equality"].make() and "blocks" not in repr(eq)


def test_frame_compares_hashes_and_prints_by_its_edges():
    universal = Frame.universal(("w0", "w1"))
    plain = Frame(("w0", "w1"), frozenset({(v, w) for v in ("w0", "w1")
                                           for w in ("w0", "w1")}))
    assert universal == plain and plain == universal
    assert hash(universal) == hash(plain) and repr(universal) == repr(plain)
    assert plain.succ == {"w0": ("w0", "w1"), "w1": ("w0", "w1")}
    assert FRAME.succ == {"w0": ("w1",), "w1": ()}


def test_record_constructors_validate():
    with pytest.raises(ValueError, match="unknown frame properties"):
        FrameClass(frozenset({"dense"}))
    with pytest.raises(ValueError, match="alt_n bound must be non-negative"):
        FrameClass(alt_bound=-1)
    with pytest.raises(ValueError, match="domain must be nonempty"):
        ClassicalStructure((), frozenset())
    with pytest.raises(ValueError, match=r"relation pair \(a,c\) leaves"):
        ClassicalStructure(("a", "b"), frozenset({("a", "c")}))


def test_record_to_dict_copies_fields():
    report = CASES["FragmentReport"].make()
    assert report.to_dict() == dict(zip(REPORT_FIELDS,
                                        (True, True, False, True, 2, 1, 1)))
    props = frame_properties(FRAME)
    assert list(props.to_dict()) == list(PROPERTY_NAMES) + ["max_out_degree"]
    assert props.to_dict()["max_out_degree"] == 1
    assert props.to_dict()["irreflexive_transitive"] is True
    experiment = CASES["ExperimentReport"].make()
    out = experiment.to_dict()
    assert out == {"variant": "d2", "corpus_size": 3, "structure_count": 10,
                   "agreement": 30, "disagreements": [{"formula": "p"}],
                   "skipped": [], "wall_time": 0.0}
    out["disagreements"][0]["formula"] = "q"
    assert experiment.disagreements == [{"formula": "p"}]


def test_model_is_the_only_dataclass():
    """Records are plain classes with hand-written methods, not
    dataclasses: for each dataclass, the dataclasses module writes the
    source of its methods and execs it at every import of the package.
    On Python 3.11.7 that took 0.44 ms for a two-field frozen class and
    0.72 ms for a nine-field one (medians of 200), and the 24 classes
    written out since made up most of a re-import's module-body time.
    Model stays one, since callers build its variants with
    dataclasses.replace.  A new dataclass must be added here."""
    modules = (syntax, semantics, translations, search, experiments, cli)
    found = {f"{module.__name__}.{name}" for module in modules
             for name, value in vars(module).items()
             if isinstance(value, type) and dataclasses.is_dataclass(value)
             and value.__module__ == module.__name__}
    assert found == {"monotrick.semantics.Model"}
    assert dataclasses.is_dataclass(Model)
