"""Formulas as nested tuples, their text form, and a reference evaluator.

The benchmark builds its own formulas and judges witnesses with its own
evaluator, so a verdict is never checked against the code that made it.

Nodes: ("atom", letter, args), ("eq", x, y), ("top",), ("bot",),
("not", A), ("box", A), ("dia", A), ("and"|"or"|"imp"|"iff", A, B),
("all"|"ex", var, A).
"""

from __future__ import annotations

import re

_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
_PREFIX = {"not": "~", "box": "[]", "dia": "<>"}


def render(f) -> str:
    """Text the program parses back to the same tree (binaries bracketed)."""
    kind = f[0]
    if kind == "atom":
        return f[1] + (f"({','.join(f[2])})" if f[2] else "")
    if kind == "eq":
        return f"({f[1]} = {f[2]})"
    if kind == "top":
        return "true"
    if kind == "bot":
        return "false"
    if kind in _PREFIX:
        return _PREFIX[kind] + render(f[1])
    if kind in ("all", "ex"):
        return ("forall " if kind == "all" else "exists ") + f"{f[1]} {render(f[2])}"
    return f"({render(f[1])} {_BINARY[kind]} {render(f[2])})"


def free_vars(f) -> frozenset:
    kind = f[0]
    if kind == "atom":
        return frozenset(f[2])
    if kind == "eq":
        return frozenset(f[1:])
    if kind in ("top", "bot"):
        return frozenset()
    if kind in _PREFIX:
        return free_vars(f[1])
    if kind in ("all", "ex"):
        return free_vars(f[2]) - {f[1]}
    return free_vars(f[1]) | free_vars(f[2])


def letters(f) -> dict:
    kind = f[0]
    if kind == "atom":
        return {f[1]: len(f[2])}
    if kind in ("eq", "top", "bot"):
        return {}
    if kind in _PREFIX:
        return letters(f[1])
    if kind in ("all", "ex"):
        return letters(f[2])
    return letters(f[1]) | letters(f[2])


# ---------------------------------------------------------------------------
# Parser for the corpus files (same grammar as the program's)

_TOKEN = re.compile(r"\s*(<->|->|\[\]|<>|[~&|(),=]|[A-Za-z_][A-Za-z0-9_]*)")
_VARIABLE = re.compile(r"[xyzuvw][0-9]*\Z")


def parse(text: str):
    tokens, pos = [], 0
    text = text.split("#", 1)[0].rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        tok = tokens[at[0]]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        at[0] += 1
        return tok

    def iff():
        left = imp()
        return ("iff", left, (take(), iff())[1]) if peek() == "<->" else left

    def imp():
        left = disj()
        return ("imp", left, (take(), imp())[1]) if peek() == "->" else left

    def disj():
        left = conj()
        while peek() == "|":
            take()
            left = ("or", left, conj())
        return left

    def conj():
        left = unary()
        while peek() == "&":
            take()
            left = ("and", left, unary())
        return left

    def unary():
        tok = peek()
        if tok in ("~", "[]", "<>"):
            take()
            return ({"~": "not", "[]": "box", "<>": "dia"}[tok], unary())
        if tok in ("forall", "exists"):
            take()
            var = take()
            return ("all" if tok == "forall" else "ex", var, unary())
        if tok == "(":
            take()
            inner = iff()
            take(")")
            return inner
        if tok in ("true", "false"):
            take()
            return ("top",) if tok == "true" else ("bot",)
        name = take()
        if _VARIABLE.match(name):
            take("=")
            return ("eq", name, take())
        args = []
        if peek() == "(":
            take()
            args.append(take())
            while peek() == ",":
                take()
                args.append(take())
            take(")")
        return ("atom", name, tuple(args))

    f = iff()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return f


def read_corpus(path) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    return [line for line in lines if line]


# ---------------------------------------------------------------------------
# Reference Kripke semantics over the program's JSON model form

class RefModel:
    """A witness model read from its JSON form, independent of the program."""

    def __init__(self, d: dict):
        self.mode = d["mode"]
        self.principle = d["equality"]["principle"]
        self.worlds = list(d["worlds"])
        self.access = {tuple(e) for e in d["access"]}
        self.succ = {w: [v for v in self.worlds if (w, v) in self.access]
                     for w in self.worlds}
        self.domains = {w: list(dom) for w, dom in d["domains"].items()}
        self.val = {w: {letter: {tuple(t) for t in tuples}
                        for letter, tuples in v.items()}
                    for w, v in d["valuation"].items()}
        self.block = {w: {a: i for i, block in enumerate(part) for a in block}
                      for w, part in d["equality"]["classes"].items()}

    def related(self, w, a, b) -> bool:
        blocks = self.block.get(w, {})
        return a == b or (a in blocks and blocks[a] == blocks.get(b))

    def holds(self, w, sigma, f) -> bool:
        kind = f[0]
        if kind == "atom":
            return tuple(sigma[x] for x in f[2]) in self.val.get(w, {}).get(f[1], ())
        if kind == "eq":
            return self.related(w, sigma[f[1]], sigma[f[2]])
        if kind in ("top", "bot"):
            return kind == "top"
        if kind == "and":
            return self.holds(w, sigma, f[1]) and self.holds(w, sigma, f[2])
        if kind == "or":
            return self.holds(w, sigma, f[1]) or self.holds(w, sigma, f[2])
        if kind == "ex":
            return any(self.holds(w, {**sigma, f[1]: a}, f[2])
                       for a in self.domains[w])
        if kind == "iff":
            return self.holds(w, sigma, ("imp", f[1], f[2])) and \
                self.holds(w, sigma, ("imp", f[2], f[1]))
        if self.mode == "modal":
            if kind == "not":
                return not self.holds(w, sigma, f[1])
            if kind == "imp":
                return not self.holds(w, sigma, f[1]) or self.holds(w, sigma, f[2])
            if kind == "box":
                return all(self.holds(v, sigma, f[1]) for v in self.succ[w])
            if kind == "dia":
                return any(self.holds(v, sigma, f[1]) for v in self.succ[w])
            if kind == "all":
                return all(self.holds(w, {**sigma, f[1]: a}, f[2])
                           for a in self.domains[w])
        else:
            if kind == "not":
                return all(not self.holds(v, sigma, f[1]) for v in self.succ[w])
            if kind == "imp":
                return all(not self.holds(v, sigma, f[1]) or self.holds(v, sigma, f[2])
                           for v in self.succ[w])
            if kind == "all":
                return all(self.holds(v, {**sigma, f[1]: a}, f[2])
                           for v in self.succ[w] for a in self.domains[v])
        raise ValueError(f"node {kind!r} has no meaning in {self.mode} mode")

    def frame_has(self, prop: str) -> bool:
        ws, acc = self.worlds, self.access
        if prop == "reflexive":
            return all((w, w) in acc for w in ws)
        if prop == "serial":
            return all(self.succ[w] for w in ws)
        if prop == "symmetric":
            return all((b, a) in acc for (a, b) in acc)
        if prop == "transitive":
            return all((a, c) in acc for (a, b) in acc for c in self.succ[b])
        raise ValueError(f"unknown frame property {prop!r}")
