"""Formula AST, parser, pretty-printer, and fragment classification.

Grammar (ASCII): ``~`` not, ``&`` and, ``|`` or, ``->`` implies (right
associative), ``<->`` iff, ``[]`` box, ``<>`` diamond, ``forall x`` /
``exists x`` quantifiers, ``true`` / ``false``, ``x = y`` equality,
``P(x,y)`` atoms, bare identifiers as propositional letters.  ``#``
starts a comment.  Precedence: unary operators and quantifiers bind
tightest, then ``&``, ``|``, ``->``, ``<->``.

Identifiers matching ``[xyzuvw][0-9]*`` are variables; everything else
is a predicate letter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_VARIABLE_RE = re.compile(r"[xyzuvw][0-9]*\Z")
_KEYWORDS = {"forall", "exists", "true", "false"}

# Deepest nesting the parser accepts, counting both AST levels and
# parentheses.  Parsing takes up to seven frames per parenthesis and
# compiling, evaluating and printing at most two per AST level, so every
# accepted formula stays well inside the default recursion limit (1000).
MAX_DEPTH = 100


def is_variable_name(name: str) -> bool:
    return bool(_VARIABLE_RE.match(name))


class Formula:
    """Base class for formula nodes.  Instances are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    letter: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Verum(Formula):
    pass


@dataclass(frozen=True)
class Falsum(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        where = f" at line {line}, column {col}" if line is not None else ""
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{where}{hint}")


class ArityConflictError(ParseError):
    pass


@dataclass(frozen=True)
class _Token:
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"<->|->|\[\]|<>|[~&|(),=]|[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        line = line.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            tokens.append(_Token(m.group(), lineno, pos + 1))
            pos = m.end()
    return tokens


def _too_deep(line=None, col=None) -> ParseError:
    return ParseError(f"formula nests deeper than {MAX_DEPTH} levels", line, col)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.arities: dict[str, int] = {}
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos].value if self.pos < len(self.tokens) else None

    def _loc(self):
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            return tok.line, tok.col
        if self.tokens:
            tok = self.tokens[-1]
            return tok.line, tok.col + len(tok.value)
        return 1, 1

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok.value

    def _expect(self, value):
        if self._peek() != value:
            line, col = self._loc()
            found = self._peek() or "end of input"
            raise ParseError(f"found {found!r}", line, col, expected=[value])
        return self._advance()

    def _nested(self, parse_part):
        """parse_part() one nesting level down, refusing to go past MAX_DEPTH
        before the recursion could exhaust the interpreter's stack."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(*self._loc())
        f = parse_part()
        self.depth -= 1
        return f

    def parse(self) -> Formula:
        f = self._iff()
        if self._peek() is not None:
            line, col = self._loc()
            raise ParseError(f"trailing input {self._peek()!r}", line, col)
        if nesting_depth(f) > MAX_DEPTH:  # long & and | chains nest too
            raise _too_deep()
        return f

    def _iff(self):
        left = self._implies()
        if self._peek() == "<->":
            self._advance()
            return Iff(left, self._nested(self._iff))
        return left

    def _implies(self):
        left = self._or()
        if self._peek() == "->":
            self._advance()
            return Implies(left, self._nested(self._implies))
        return left

    def _or(self):
        left = self._and()
        while self._peek() == "|":
            self._advance()
            left = Or(left, self._and())
        return left

    def _and(self):
        left = self._unary()
        while self._peek() == "&":
            self._advance()
            left = And(left, self._unary())
        return left

    def _unary(self):
        tok = self._peek()
        if tok == "~":
            self._advance()
            return Not(self._nested(self._unary))
        if tok == "[]":
            self._advance()
            return Box(self._nested(self._unary))
        if tok == "<>":
            self._advance()
            return Diamond(self._nested(self._unary))
        if tok in ("forall", "exists"):
            self._advance()
            var = self._variable()
            body = self._nested(self._unary)
            return Forall(var, body) if tok == "forall" else Exists(var, body)
        return self._atomic()

    def _variable(self):
        line, col = self._loc()
        tok = self._peek()
        if tok is None or not tok[0].isalpha() or not is_variable_name(tok):
            raise ParseError(f"found {tok or 'end of input'!r}", line, col,
                             expected=["variable"])
        return self._advance()

    def _atomic(self):
        tok = self._peek()
        line, col = self._loc()
        if tok is None:
            raise ParseError("unexpected end of input", line, col,
                             expected=["formula"])
        if tok == "(":
            self._advance()
            f = self._nested(self._iff)
            self._expect(")")
            return f
        if tok == "true":
            self._advance()
            return Verum()
        if tok == "false":
            self._advance()
            return Falsum()
        if not tok[0].isalpha() and tok[0] != "_":
            raise ParseError(f"found {tok!r}", line, col, expected=["formula"])
        if tok in _KEYWORDS:
            raise ParseError(f"found keyword {tok!r}", line, col, expected=["formula"])
        name = self._advance()
        if is_variable_name(name):
            self._expect("=")
            return Eq(name, self._variable())
        args: tuple[str, ...] = ()
        if self._peek() == "(":
            self._advance()
            parts = [self._variable()]
            while self._peek() == ",":
                self._advance()
                parts.append(self._variable())
            self._expect(")")
            args = tuple(parts)
        seen = self.arities.get(name)
        if seen is None:
            self.arities[name] = len(args)
        elif seen != len(args):
            raise ArityConflictError(
                f"letter {name!r} used with arity {len(args)} after arity {seen}",
                line, col)
        return Atom(name, args)


def parse(text: str) -> Formula:
    """Parse a formula from text.  Raises ParseError on bad input."""
    return _Parser(_tokenize(text)).parse()


_BINARY = {And: ("&", 4), Or: ("|", 3), Implies: ("->", 2), Iff: ("<->", 1)}
_PREFIX_PREC = 6
_EQ_PREC = 5
_ATOM_PREC = 7


def _prec(f: Formula) -> int:
    if type(f) in _BINARY:
        return _BINARY[type(f)][1]
    if isinstance(f, Eq):
        return _EQ_PREC
    if isinstance(f, (Not, Box, Diamond, Forall, Exists)):
        return _PREFIX_PREC
    return _ATOM_PREC


def _wrap(f: Formula, minimum: int) -> str:
    text = render(f)
    return f"({text})" if _prec(f) < minimum else text


def render(f: Formula) -> str:
    """Print a formula with minimal parentheses; re-parses to the same AST."""
    if isinstance(f, Atom):
        return f.letter + (f"({','.join(f.args)})" if f.args else "")
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}"
    if isinstance(f, Verum):
        return "true"
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, Not):
        return "~" + _wrap(f.body, _PREFIX_PREC)
    if isinstance(f, Box):
        return "[]" + _wrap(f.body, _PREFIX_PREC)
    if isinstance(f, Diamond):
        return "<>" + _wrap(f.body, _PREFIX_PREC)
    if isinstance(f, Forall):
        return f"forall {f.var} " + _wrap(f.body, _PREFIX_PREC)
    if isinstance(f, Exists):
        return f"exists {f.var} " + _wrap(f.body, _PREFIX_PREC)
    op, prec = _BINARY[type(f)]
    if isinstance(f, (And, Or)):  # left associative
        return f"{_wrap(f.left, prec)} {op} {_wrap(f.right, prec + 1)}"
    return f"{_wrap(f.left, prec + 1)} {op} {_wrap(f.right, prec)}"  # right assoc


def free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.left, f.right))
    if isinstance(f, (Verum, Falsum)):
        return frozenset()
    if isinstance(f, (Not, Box, Diamond)):
        return free_variables(f.body)
    if isinstance(f, (Forall, Exists)):
        return free_variables(f.body) - {f.var}
    return free_variables(f.left) | free_variables(f.right)


def all_variables(f: Formula) -> frozenset[str]:
    """Every variable occurring in f, bound or free (binders included)."""
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.left, f.right))
    if isinstance(f, (Verum, Falsum)):
        return frozenset()
    if isinstance(f, (Not, Box, Diamond)):
        return all_variables(f.body)
    if isinstance(f, (Forall, Exists)):
        return all_variables(f.body) | {f.var}
    return all_variables(f.left) | all_variables(f.right)


def _children(f: Formula) -> tuple:
    if isinstance(f, (Not, Box, Diamond, Forall, Exists)):
        return (f.body,)
    if isinstance(f, (And, Or, Implies, Iff)):
        return (f.left, f.right)
    return ()


def map_children(f: Formula, fn) -> Formula:
    """f with fn applied to each immediate subformula; a leaf unchanged."""
    if isinstance(f, (Not, Box, Diamond)):
        return type(f)(fn(f.body))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, fn(f.body))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(fn(f.left), fn(f.right))
    return f


def subformulas(f: Formula):
    """Yield f and every subformula of f, outermost first, left before
    right.  Iterative, so it is safe on formulas of any depth."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_children(g)))


def nesting_depth(f: Formula) -> int:
    """Number of nodes on the longest root-to-leaf path of f."""
    deepest = 0
    stack = [(f, 1)]
    while stack:
        g, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in _children(g))
    return deepest


def letters(f: Formula) -> dict[str, int]:
    """Map each predicate letter in f to its arity."""
    out: dict[str, int] = {}
    for g in subformulas(f):
        if isinstance(g, Atom):
            seen = out.get(g.letter)
            if seen is None:
                out[g.letter] = len(g.args)
            elif seen != len(g.args):
                raise ArityConflictError(
                    f"letter {g.letter!r} used with arity {len(g.args)} "
                    f"after arity {seen}")
    return out


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Eq, Verum, Falsum)):
        return 0
    if isinstance(f, (Box, Diamond)):
        return 1 + modal_depth(f.body)
    if isinstance(f, (Not, Forall, Exists)):
        return modal_depth(f.body)
    return max(modal_depth(f.left), modal_depth(f.right))


@dataclass(frozen=True)
class FragmentReport:
    is_monadic: bool
    is_monodic: bool
    is_positive: bool
    has_equality: bool
    variable_count: int
    modal_depth: int
    max_letter_arity: int

    def to_dict(self) -> dict:
        return {
            "is_monadic": self.is_monadic,
            "is_monodic": self.is_monodic,
            "is_positive": self.is_positive,
            "has_equality": self.has_equality,
            "variable_count": self.variable_count,
            "modal_depth": self.modal_depth,
            "max_letter_arity": self.max_letter_arity,
        }


def classify(f: Formula) -> FragmentReport:
    """Compute the fragment membership report for f."""
    arity = max(letters(f).values(), default=0)
    monodic = all(
        len(free_variables(g.body)) <= 1
        for g in subformulas(f)
        if isinstance(g, (Box, Diamond))
    )
    positive = not any(isinstance(g, (Not, Falsum)) for g in subformulas(f))
    has_eq = any(isinstance(g, Eq) for g in subformulas(f))
    return FragmentReport(
        is_monadic=arity <= 1,
        is_monodic=monodic,
        is_positive=positive,
        has_equality=has_eq,
        variable_count=len(all_variables(f)),
        modal_depth=modal_depth(f),
        max_letter_arity=arity,
    )


def to_dict(f: Formula) -> dict:
    """JSON-friendly nested representation of the AST."""
    if isinstance(f, Atom):
        return {"node": "atom", "letter": f.letter, "args": list(f.args)}
    if isinstance(f, Eq):
        return {"node": "eq", "left": f.left, "right": f.right}
    if isinstance(f, Verum):
        return {"node": "true"}
    if isinstance(f, Falsum):
        return {"node": "false"}
    if isinstance(f, Not):
        return {"node": "not", "body": to_dict(f.body)}
    if isinstance(f, Box):
        return {"node": "box", "body": to_dict(f.body)}
    if isinstance(f, Diamond):
        return {"node": "diamond", "body": to_dict(f.body)}
    if isinstance(f, Forall):
        return {"node": "forall", "var": f.var, "body": to_dict(f.body)}
    if isinstance(f, Exists):
        return {"node": "exists", "var": f.var, "body": to_dict(f.body)}
    name = {And: "and", Or: "or", Implies: "implies", Iff: "iff"}[type(f)]
    return {"node": name, "left": to_dict(f.left), "right": to_dict(f.right)}
