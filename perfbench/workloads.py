"""The workloads: seeded inputs, one timed call per query, and the
known-answer gate that judges each output.

A workload makes one batch of queries per batch index from the seed.
Batch make-up is fixed per workload; the seed picks literal signs and
query order, so every seed asks for the same amount of search.  Cost caps keep every query well inside the run time: at three
worlds a formula has at most one unary and one propositional letter, and
two unary letters appear only at two worlds or fewer.

No query passes ``--workers`` or ``--max-steps``, and every bounded query
gives ``--domain``; the gate compares outcomes, witnesses and counts, never
verdict JSON text or the experiment's ``wall_time``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from itertools import product

import formulas as fm

HERE = os.path.dirname(os.path.abspath(__file__))
CORPORA = os.path.join(HERE, "corpora")


class Query:
    __slots__ = ("kind", "argv", "formula", "expect", "info", "slot")

    def __init__(self, kind, argv=None, formula=None, expect=None, **info):
        self.kind = kind          # label used in the trace file
        self.argv = argv          # CLI arguments, for CLI workloads
        self.formula = formula    # benchmark-side tree of the formula
        self.expect = expect      # known answer
        self.info = info
        self.slot = None          # position in the batch's fixed make-up


def _numbered(rng, queries):
    """Number the queries by slot, then shuffle their order."""
    for slot, q in enumerate(queries):
        q.slot = slot
    rng.shuffle(queries)
    return queries


def run_cli(api, argv):
    """One in-process CLI call with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = api["cli"].main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Random formula pieces
#
# Two generators feed each batch.  ``shape`` is seeded by the workload
# only; it fixes connectives, quantifiers, modal prefixes and letters,
# which set how much an exhaustive search costs.  ``rng`` is seeded by the
# run's seed and the batch index and picks literal signs and query order.
# Every batch of every seed thus asks the program for the same amount of
# work, so a run's figures do not depend on how many batches fit in it.

def _lit(rng, letter, *args):
    atom = ("atom", letter, args)
    return atom if rng.random() < 0.5 else ("not", atom)


def _modal(shape, f):
    return shape.choice((f, ("dia", f), ("box", f)))


def _connective(shape):
    return shape.choice(("and", "or", "imp"))


def monadic(shape, rng, unary, prop, modal, free):
    """Monadic formula of fixed size: Qx (L1 op L2) [op p].

    With ``free`` the second literal speaks of a free y.  Intuitionistic
    search cost depends on literal signs (heredity is one-way), so there
    the signs come from ``shape`` too.
    """
    second = "y" if free else "x"
    signs = rng if modal else shape
    wrap = (lambda f: _modal(shape, f)) if modal else (lambda f: f)
    core = (_connective(shape), wrap(_lit(signs, unary[0], "x")),
            wrap(_lit(signs, unary[-1], second)))
    f = (shape.choice(("ex", "all")), "x", core)
    if prop:
        f = (_connective(shape), f, wrap(_lit(signs, prop)))
    return f


def _generators(name, seed, index):
    return random.Random(f"{name}:shape"), random.Random(f"{name}:{seed}:{index}")


def _check_witness(api, model_dict, world, assignment, f, want: bool):
    """Failure reason for a witness, or None when it holds up."""
    violations = api["semantics"].validate_model(
        api["semantics"].model_from_dict(model_dict))
    if violations:
        return f"witness fails validate_model: {violations[0]}"
    ref = fm.RefModel(model_dict)
    if world not in ref.worlds:
        return f"witness world {world!r} is not in the model"
    if set(assignment) != set(fm.free_vars(f)):
        return f"witness assignment {assignment} does not bind the free variables"
    if any(a not in ref.domains[world] for a in assignment.values()):
        return "witness assignment leaves the world's domain"
    if ref.holds(world, assignment, f) is not want:
        return f"witness does not re-evaluate to {want}"
    return None


def _verdict(code, text, ok_codes):
    if code not in ok_codes:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, "output is not JSON"


# ---------------------------------------------------------------------------
# sat-classes

# Exhaustive slots: (mode, frame class, eq, worlds, unary letters, prop, free).
# Costs differ by class and bound; the mix is fixed, so each batch does the
# same search.
_SAT_EXHAUSTIVE = (
    [("modal", cls, eq, 2, ("Q",), "p", eq == "eq3")
     for i, cls in enumerate(("", "reflexive", "serial", "reflexive,transitive",
                              "symmetric", "transitive"))
     for eq in ("eq3", ("eq1", "eq2")[i % 2])]
    + [("modal", cls, "eq3", 2, ("R", "Q"), None, False)
       for cls in ("reflexive", "symmetric")]
    + [("modal", cls, "eq3", 3, ("Q",), None, False)
       for cls in ("reflexive,transitive", "symmetric")]
    + [("int", "", eq, 3, ("Q",), None, free)
       for eq, free in (("eq3", True), ("eq1", False))]
    + [("int", "", eq, 2, ("R", "Q"), "p", False) for eq in ("eq3", "eq1")]
)
# First-hit pair slots: (mode, frame class, eq, free).  There are enough of
# them that the 90th latency percentile falls among the two-world
# contradictions, whose costs lie close together, not in a gap between the
# few dearest queries.
_SAT_PAIRS = (
    [("modal", cls, eq, free)
     for cls in ("", "reflexive", "serial", "reflexive,transitive", "symmetric",
                 "transitive")
     for eq in ("eq3", "eq1", "eq2") for free in (False, True)]
    + [("int", "", eq, free) for eq in ("eq3", "eq1", "eq2") for free in (False, True)]
)
_SAT_DOMAIN = 2


def _sat_argv(mode, cls, eq, worlds, f):
    return ["sat", "--json", "--mode", mode, "--class", cls,
            "--worlds", str(worlds), "--domain", str(_SAT_DOMAIN), "--eq", eq,
            fm.render(f)]


class SatClasses:
    name = "sat-classes"
    search_kinds = ("contradiction", "pair", "separate")
    target_layers = ("search.frame", "search.enumerate_frames", "semantics.evaluate")

    def setup(self, api, seed, workdir):
        self.api = api

    def batch(self, seed, index):
        shape, rng = _generators(self.name, seed, index)
        queries = []
        for mode, cls, eq, worlds, unary, prop, free in _SAT_EXHAUSTIVE:
            psi = monadic(shape, rng, unary, prop, mode == "modal", free)
            f = ("and", psi, ("not", psi)) if mode == "modal" else \
                ("not", ("or", psi, ("not", psi)))
            queries.append(Query("contradiction", _sat_argv(mode, cls, eq, worlds, f),
                                 f, "unsatisfiable_up_to_bound",
                                 mode=mode, cls=cls, eq=eq, worlds=worlds))
        for mode, cls, eq, free in _SAT_PAIRS:
            chi = monadic(shape, rng, ("Q",), None, mode == "modal", free)
            # p is fresh in chi, so both p <-> chi and its negation hold
            # somewhere on the one-world frame every class contains.
            psi = ("iff", ("atom", "p", ()), chi)
            for f in (psi, ("not", psi)):
                queries.append(Query("pair", _sat_argv(mode, cls, eq, 3, f), f,
                                     "satisfiable", mode=mode, cls=cls, eq=eq,
                                     worlds=3))
        queries.append(Query("separate", ["separate", "--json", "--worlds", "3",
                                          "--domain", "2"], expect="found"))
        return _numbered(rng, queries)

    def run(self, q):
        return run_cli(self.api, q.argv)

    def check(self, q, out):
        code, text = out
        if q.kind == "separate":
            return self._check_separate(code, text)
        want_code = 0 if q.expect == "satisfiable" else 1
        d, err = _verdict(code, text, (want_code,))
        if err:
            return err
        if d.get("outcome") != q.expect:
            return f"outcome {d.get('outcome')!r}, expected {q.expect!r}"
        if q.expect != "satisfiable":
            return None
        wit = d.get("witness")
        if not isinstance(wit, dict):
            return "satisfiable verdict without a witness"
        md = wit["model"]
        ref = fm.RefModel(md)
        props = [p for p in q.info["cls"].split(",") if p]
        if q.info["mode"] == "int":
            props += ["reflexive", "transitive"]
        missing = [p for p in props if not ref.frame_has(p)]
        if missing:
            return f"witness frame is not {','.join(missing)}"
        if len(ref.worlds) > q.info["worlds"] or \
                any(len(dom) > _SAT_DOMAIN for dom in ref.domains.values()):
            return "witness exceeds the requested bounds"
        if (ref.mode, ref.principle) != (q.info["mode"], q.info["eq"]):
            return "witness has the wrong mode or equality principle"
        return _check_witness(self.api, md, wit["world"], wit["assignment"],
                              q.formula, True)

    def _check_separate(self, code, text):
        d, err = _verdict(code, text, (0,))
        if err:
            return err
        found = d.get("eq2_not_eq1")
        if not isinstance(found, dict) or found.get("reverified") is not True:
            return "separate did not report a re-verified eq2_not_eq1 pair"
        verdict = found["counter_verdict"]
        if verdict.get("outcome") != "countermodel":
            return "eq2_not_eq1 carries no countermodel"
        wit = verdict["witness"]
        if wit["model"]["equality"]["principle"] != "eq1":
            return "eq2_not_eq1 countermodel is not an eq1 model"
        return _check_witness(self.api, wit["model"], wit["world"],
                              wit["assignment"], fm.parse(found["formula"]), False)


# ---------------------------------------------------------------------------
# decide-frame

_FRAMES = {
    "point": (["w0"], [["w0", "w0"]]),
    "cycle2": (["w0", "w1"], [["w0", "w1"], ["w1", "w0"]]),
    "chain3": (["w0", "w1", "w2"], [["w0", "w1"], ["w1", "w2"]]),
    "preorder3": (["w0", "w1", "w2"],
                  [["w0", "w0"], ["w0", "w1"], ["w0", "w2"], ["w1", "w1"],
                   ["w1", "w2"], ["w2", "w2"]]),
}


def _schema(shape, rng, kind, unary, prop):
    """A modal-logic validity (over every frame, expanding domains)."""
    def part():
        return monadic(shape, rng, unary, prop, True, False)

    def open_part(var):
        return _modal(shape, _lit(rng, unary[0], var))

    if kind == "K":
        a, b = part(), part()
        return ("imp", ("box", ("imp", a, b)), ("imp", ("box", a), ("box", b)))
    if kind == "dual":
        a = part()
        return ("iff", ("dia", a), ("not", ("box", ("not", a))))
    if kind == "lem":
        a = part()
        return ("or", a, ("not", a))
    if kind == "cbf":  # converse Barcan: holds because domains expand
        a = open_part("x")
        return ("imp", ("box", ("all", "x", a)), ("all", "x", ("box", a)))
    if kind == "distrib":
        a, b = open_part("x"), open_part("x")
        return ("imp", ("all", "x", ("imp", a, b)),
                ("imp", ("all", "x", a), ("all", "x", b)))
    raise ValueError(kind)


def _swap_var(f, old, new):
    """Rename the free variable old to new (new must not be bound in f)."""
    kind = f[0]
    if kind == "atom":
        return ("atom", f[1], tuple(new if a == old else a for a in f[2]))
    if kind == "eq":
        return ("eq",) + tuple(new if a == old else a for a in f[1:])
    if kind in ("top", "bot"):
        return f
    if kind in ("not", "box", "dia"):
        return (kind, _swap_var(f[1], old, new))
    if kind in ("all", "ex"):
        return f if f[1] == old else (kind, f[1], _swap_var(f[2], old, new))
    return (kind, _swap_var(f[1], old, new), _swap_var(f[2], old, new))


def classically_valid(f, size: int) -> bool:
    """Truth of a non-modal monadic sentence in every structure of size
    <= size, by the benchmark's own evaluator on one-world models."""
    names = sorted(fm.letters(f).items())
    for n in range(1, size + 1):
        dom = [f"a{i}" for i in range(n)]
        choices = []
        for _, arity in names:
            tuples = [(a,) for a in dom] if arity == 1 else [()]
            choices.append([[t for bit, t in enumerate(tuples) if mask >> bit & 1]
                            for mask in range(1 << len(tuples))])
        for combo in product(*choices):
            model = fm.RefModel({
                "mode": "modal", "worlds": ["w0"], "access": [],
                "domains": {"w0": dom},
                "valuation": {"w0": {name: ext for (name, _), ext
                                     in zip(names, combo)}},
                "equality": {"principle": "eq3",
                             "classes": {"w0": [[a] for a in dom]}}})
            if not model.holds("w0", {}, f):
                return False
    return True


class DecideFrame:
    name = "decide-frame"
    search_kinds = ("corpus", "schema", "leibniz", "eq-counter", "eq-valid")
    target_layers = ("search.enumerate_models", "search.models_per",
                     "semantics.valid_in_model")

    def setup(self, api, seed, workdir):
        self.api = api
        self.frame_files = {}
        for name, (worlds, access) in _FRAMES.items():
            path = os.path.join(workdir, f"frame-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"worlds": worlds, "access": access}, fh)
            self.frame_files[name] = path
        self.corpus = [fm.parse(t) for t in
                       fm.read_corpus(os.path.join(CORPORA, "monadic_corpus.txt"))]
        self.corpus_valid = {(i, d): classically_valid(f, d)
                             for i, f in enumerate(self.corpus) for d in (2, 3)}

    def _argv(self, frame, domain, eq, f):
        return ["decide", "--json", "--frame", self.frame_files[frame],
                "--domain", str(domain), "--eq", eq, fm.render(f)]

    def batch(self, seed, index):
        shape, rng = _generators(self.name, seed, index)
        queries = []

        def add(kind, frame, domain, eq, f, expect):
            queries.append(Query(kind, self._argv(frame, domain, eq, f), f, expect,
                                 frame=frame, domain=domain, eq=eq))

        for frame, (worlds, access) in _FRAMES.items():
            three = len(worlds) == 3
            # On these frames an edge without its converse is exactly what
            # lets eq1 join two individuals after the edge (a cycle forces
            # the same partition at both ends).
            oneway = any(a != b and [b, a] not in access for a, b in access)
            for domain in (2, 3):
                for i, f in enumerate(self.corpus):
                    unary = sum(1 for a in fm.letters(f).values() if a == 1)
                    if three and unary > 1:
                        continue
                    add("corpus", frame, domain, "eq3", f,
                        "valid" if self.corpus_valid[i, domain] else "countermodel")
                # Letters shrink as frames and domains grow (the cost caps).
                unary = ("R", "Q") if frame == "point" or \
                    (frame == "cycle2" and domain == 2) else ("Q",)
                prop = None if three and domain == 3 else "p"
                kinds = ("K", "cbf") if three and domain == 3 else \
                    ("K", "dual", "lem", "cbf", "distrib")
                for kind in kinds:
                    add("schema", frame, domain, "eq3",
                        _schema(shape, rng, kind, unary, prop), "valid")
                for eq in ("eq1", "eq2"):
                    # Leibniz: x = y carries every formula of x over to y.
                    # Kept at domain 2: its two free variables multiply the
                    # points per model.
                    a = (_connective(shape), _modal(shape, _lit(rng, "Q", "x")),
                         _modal(shape, ("ex", "z", (_connective(shape),
                                                    _modal(shape, _lit(rng, "Q", "z")),
                                                    ("eq", "x", "z")))))
                    add("leibniz", frame, 2, eq,
                        ("imp", ("eq", "x", "y"), ("iff", a, _swap_var(a, "x", "y"))),
                        "valid")
                    # Discrete partitions refute it whenever two individuals exist.
                    add("eq-counter", frame, domain, eq,
                        ("or", ("all", "x", ("all", "y", ("eq", "x", "y"))),
                         _lit(rng, "p") if shape.random() < .5 else ("bot",)),
                        "countermodel")
                # eq1 lets x = y appear along an edge; eq2 forbids it.
                f = ("imp", ("not", ("eq", "x", "y")), ("box", ("not", ("eq", "x", "y"))))
                add("eq-counter" if oneway else "eq-valid", frame, domain, "eq1",
                    f, "countermodel" if oneway else "valid")
                add("eq-valid", frame, domain, "eq2", f, "valid")
        return _numbered(rng, queries)

    def run(self, q):
        return run_cli(self.api, q.argv)

    def check(self, q, out):
        code, text = out
        want_code = 0 if q.expect == "valid" else 1
        d, err = _verdict(code, text, (want_code,))
        if err:
            return err
        if d.get("outcome") != q.expect:
            return f"outcome {d.get('outcome')!r}, expected {q.expect!r}"
        if q.expect == "valid":
            return None
        wit = d.get("witness")
        if not isinstance(wit, dict):
            return "countermodel verdict without a witness"
        md = wit["model"]
        worlds, access = _FRAMES[q.info["frame"]]
        if md["worlds"] != worlds or sorted(map(list, md["access"])) != sorted(access):
            return "countermodel is not on the requested frame"
        if any(len(dom) > q.info["domain"] for dom in md["domains"].values()):
            return "countermodel exceeds the domain bound"
        if md["equality"]["principle"] != q.info["eq"]:
            return "countermodel has the wrong equality principle"
        return _check_witness(self.api, md, wit["world"], wit["assignment"],
                              q.formula, False)


# ---------------------------------------------------------------------------
# trick-faithfulness

_TRICK_RANDOM = 16
_TRICK_SIZES = {"d2": (3, 530), "nd1": (4, 75)}


def _binary_sentence(shape, rng):
    """Closed sentence over one binary P with a fixed quantifier prefix.

    Two variables only: the cost of a three-variable sentence swings with
    its literal signs, and the seed picks the signs.
    """
    vars_ = ("x", "y")

    def lit():
        return _lit(rng, "P", shape.choice(vars_), shape.choice(vars_))

    body = (_connective(shape), lit(), (_connective(shape), lit(), lit()))
    for var in reversed(vars_):
        body = (shape.choice(("all", "ex")), var, body)
    return body


class TrickFaithfulness:
    name = "trick-faithfulness"
    search_kinds = ()
    target_layers = ("translations.", "semantics.evaluate", "search.classical_evaluate",
                     "experiments.")

    def setup(self, api, seed, workdir):
        self.api = api
        self.workdir = workdir
        self.fixed = [("d2", t) for t in
                      fm.read_corpus(os.path.join(CORPORA, "classical_corpus.txt"))]
        self.fixed += [("nd1", t) for t in
                       fm.read_corpus(os.path.join(CORPORA, "graph_corpus.txt"))]

    def batch(self, seed, index):
        shape, rng = _generators(self.name, seed, index)
        items = list(self.fixed)
        items += [("d2", fm.render(_binary_sentence(shape, rng)))
                  for _ in range(_TRICK_RANDOM)]
        queries = []
        for i, (variant, text) in enumerate(items):
            # One file per batch: a replayed batch must read its own text.
            path = os.path.join(self.workdir, f"sentence-{index}-{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            size, structures = _TRICK_SIZES[variant]
            queries.append(Query(f"experiment-{variant}",
                                 ["experiment", "--json", "--variant", variant,
                                  "--size", str(size), path],
                                 expect=structures))
        return _numbered(rng, queries)

    def run(self, q):
        return run_cli(self.api, q.argv)

    def check(self, q, out):
        code, text = out
        d, err = _verdict(code, text, (0,))
        if err:
            return err
        if d.get("disagreements") != [] or d.get("skipped") != []:
            return "experiment reports disagreements or skipped sentences"
        if d.get("corpus_size") != 1 or d.get("structure_count") != q.expect:
            return (f"experiment covered {d.get('corpus_size')} sentences x "
                    f"{d.get('structure_count')} structures, expected 1 x {q.expect}")
        if d.get("agreement") != q.expect:
            return f"agreement {d.get('agreement')} != {q.expect}"
        return None

    @staticmethod
    def checks(out):
        return json.loads(out[1])["agreement"]


WORKLOADS = {w.name: w for w in (SatClasses, DecideFrame, TrickFaithfulness)}
