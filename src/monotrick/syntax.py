"""Formula AST, parser, pretty-printer, and fragment classification.

Grammar (ASCII): ``~`` not, ``&`` and, ``|`` or, ``->`` implies,
``<->`` iff, ``[]`` box, ``<>`` diamond, ``forall x`` / ``exists x``
quantifiers, ``true`` / ``false``, ``x = y`` equality, ``P(x,y)``
atoms, bare identifiers as propositional letters.  ``#`` starts a
comment.  Unary operators and quantifiers bind tightest, then ``&``,
``|``, ``->``, ``<->``; ``&`` and ``|`` group to the left, ``->`` and
``<->`` to the right.  The parser and ``render`` both read this from the
table ``_BINARY``.

Identifiers matching ``[xyzuvw][0-9]*`` are variables; everything else
is a predicate letter.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

_VARIABLE_RE = re.compile(r"[xyzuvw][0-9]*\Z")

# Deepest nesting the parser accepts, counting both AST levels and
# parentheses.  Parsing takes up to six frames per parenthesis (_nested,
# _unary, _atomic and a _binary for each of at most three precedence
# levels that left-associative operands climb) and two per prefix
# operator or right-associative connective, and compiling, evaluating
# and printing at most two per AST level, so every accepted formula stays
# well inside the default recursion limit (1000).
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


# Binary connectives: token, precedence (higher binds tighter), right
# associative.  The only statement of either; parser and printer read it.
_BINARY = {And: ("&", 4, False), Or: ("|", 3, False), Implies: ("->", 2, True),
           Iff: ("<->", 1, True)}
_BINARY_TOKENS = {tok: (node, prec, right_assoc)
                  for node, (tok, prec, right_assoc) in _BINARY.items()}
# Prefix operators and quantifiers, which bind tighter than any binary
# connective; a quantifier's token is followed by its variable.
_PREFIX = {Not: "~", Box: "[]", Diamond: "<>", Forall: "forall", Exists: "exists"}
_PREFIX_TOKENS = {tok: node for node, tok in _PREFIX.items()}
_CONSTANTS = {Verum: "true", Falsum: "false"}
_CONSTANT_TOKENS = {tok: node for node, tok in _CONSTANTS.items()}


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        where = "" if line is None else f" at line {line}" + (
            "" if col is None else f", column {col}")
        hint = f" (expected {' or '.join(self.expected)})" if self.expected else ""
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

    def _unexpected(self, expected: str) -> ParseError:
        """The error for the current token, or the end of input, where
        expected should come."""
        tok = self._peek()
        found = "unexpected end of input" if tok is None else f"found {tok!r}"
        return ParseError(found, *self._loc(), expected=[expected])

    def _expect(self, value):
        if self._peek() != value:
            raise self._unexpected(repr(value))
        return self._advance()

    def _nested(self, parse_part, *args):
        """parse_part(*args) one nesting level down, refusing to go past
        MAX_DEPTH before the recursion could exhaust the interpreter's
        stack."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(*self._loc())
        f = parse_part(*args)
        self.depth -= 1
        return f

    def parse(self) -> Formula:
        f = self._binary()
        if self._peek() is not None:
            line, col = self._loc()
            raise ParseError(f"trailing input {self._peek()!r}", line, col)
        if nesting_depth(f) > MAX_DEPTH:  # long & and | chains nest too
            raise _too_deep()
        return f

    def _binary(self, min_prec=1):
        """A chain of binary connectives binding at least as tightly as
        min_prec.  The right operand of a right-associative connective
        is one nesting level down; a left-associative chain is a loop
        and is measured after parsing (see parse)."""
        left = self._unary()
        while self._peek() in _BINARY_TOKENS:
            node, prec, right_assoc = _BINARY_TOKENS[self._peek()]
            if prec < min_prec:
                break
            self._advance()
            if right_assoc:
                left = node(left, self._nested(self._binary, prec))
            else:
                left = node(left, self._binary(prec + 1))
        return left

    def _unary(self):
        node = _PREFIX_TOKENS.get(self._peek())
        if node is None:
            return self._atomic()
        self._advance()
        if node in (Forall, Exists):
            return node(self._variable(), self._nested(self._unary))
        return node(self._nested(self._unary))

    def _variable(self):
        tok = self._peek()
        if tok is None or not tok[0].isalpha() or not is_variable_name(tok):
            raise self._unexpected("variable")
        return self._advance()

    def _atomic(self):
        tok = self._peek()
        line, col = self._loc()
        if tok is None:
            raise self._unexpected("formula")
        if tok == "(":
            self._advance()
            f = self._nested(self._binary)
            self._expect(")")
            return f
        if tok in _CONSTANT_TOKENS:
            self._advance()
            return _CONSTANT_TOKENS[tok]()
        if not tok[0].isalpha() and tok[0] != "_":
            raise self._unexpected("formula")
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


_PREFIX_PREC = 6
_EQ_PREC = 5
_ATOM_PREC = 7


def _prec(f: Formula) -> int:
    if type(f) in _BINARY:
        return _BINARY[type(f)][1]
    if isinstance(f, Eq):
        return _EQ_PREC
    if type(f) in _PREFIX:
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
    if type(f) in _CONSTANTS:
        return _CONSTANTS[type(f)]
    if isinstance(f, (Forall, Exists)):
        return f"{_PREFIX[type(f)]} {f.var} " + _wrap(f.body, _PREFIX_PREC)
    if type(f) in _PREFIX:
        return _PREFIX[type(f)] + _wrap(f.body, _PREFIX_PREC)
    op, prec, right_assoc = _BINARY[type(f)]
    # Only the operand on the grouping side may be the same connective
    # unparenthesised.
    left, right = (prec + 1, prec) if right_assoc else (prec, prec + 1)
    return f"{_wrap(f.left, left)} {op} {_wrap(f.right, right)}"


def _variables(f: Formula) -> tuple:
    """The variables written at f's own node: an atom's arguments, an
    equation's sides, a quantifier's binder."""
    if isinstance(f, Atom):
        return f.args
    if isinstance(f, Eq):
        return (f.left, f.right)
    if isinstance(f, (Forall, Exists)):
        return (f.var,)
    return ()


def free_variables(f: Formula) -> frozenset[str]:
    inner = frozenset().union(*map(free_variables, _children(f)))
    if isinstance(f, (Forall, Exists)):
        return inner - {f.var}
    return inner.union(_variables(f))


def all_variables(f: Formula) -> frozenset[str]:
    """Every variable occurring in f, bound or free (binders included)."""
    return frozenset(x for g in subformulas(f) for x in _variables(g))


def _children(f: Formula) -> tuple:
    if type(f) in _PREFIX:
        return (f.body,)
    if type(f) in _BINARY:
        return (f.left, f.right)
    return ()


def map_children(f: Formula, fn) -> Formula:
    """f with fn applied to each immediate subformula; a leaf unchanged."""
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, fn(f.body))
    if type(f) in _PREFIX:
        return type(f)(fn(f.body))
    if type(f) in _BINARY:
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
    depth = max(map(modal_depth, _children(f)), default=0)
    return depth + 1 if isinstance(f, (Box, Diamond)) else depth


@dataclass(frozen=True)
class FragmentReport:
    is_monadic: bool
    is_monodic: bool
    is_positive: bool
    has_equality: bool
    variable_count: int
    modal_depth: int
    max_letter_arity: int
    # Each letter's arity, for the searches; not part of the report.
    letter_arities: dict = field(default_factory=dict, compare=False,
                                 repr=False)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["letter_arities"]
        return out


def classify(f: Formula) -> FragmentReport:
    """Compute the fragment membership report for f in one iterative
    post-order walk: each subformula leaves its free variables and modal
    depth on a stack for its parent.  Atoms are met left to right, as
    ``letters`` meets them, so an arity conflict is reported alike."""
    arities: dict[str, int] = {}
    variables: set[str] = set()
    monodic, positive, has_eq = True, True, False
    done = []  # (free variables, modal depth) of finished subformulas
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        kind, children = type(g), _children(g)
        if children and not expanded:
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(children))
            continue
        own = _variables(g)
        variables.update(own)
        if kind is Atom:
            seen = arities.setdefault(g.letter, len(own))
            if seen != len(own):
                raise ArityConflictError(
                    f"letter {g.letter!r} used with arity {len(own)} "
                    f"after arity {seen}")
        if len(children) == 2:
            (free_r, depth_r), (free_l, depth_l) = done.pop(), done.pop()
            done.append((free_l | free_r, max(depth_l, depth_r)))
            continue
        free, depth = done.pop() if children else (frozenset(own), 0)
        if kind in (Box, Diamond):
            monodic = monodic and len(free) <= 1
            depth += 1
        elif kind in (Forall, Exists):
            free = free - {g.var}
        elif kind in (Not, Falsum):
            positive = False
        elif kind is Eq:
            has_eq = True
        done.append((free, depth))
    arity = max(arities.values(), default=0)
    return FragmentReport(
        is_monadic=arity <= 1,
        is_monodic=monodic,
        is_positive=positive,
        has_equality=has_eq,
        variable_count=len(variables),
        modal_depth=done[0][1],
        max_letter_arity=arity,
        letter_arities=arities,
    )


def to_dict(f: Formula) -> dict:
    """JSON-friendly nested representation of the AST: the node's name
    (a constant's token, else its class's), its own fields, and its
    subformulas as ``body`` or ``left`` / ``right``."""
    out = {"node": _CONSTANTS.get(type(f), type(f).__name__.lower())}
    if isinstance(f, Atom):
        out.update(letter=f.letter, args=list(f.args))
    elif isinstance(f, Eq):
        out.update(left=f.left, right=f.right)
    elif isinstance(f, (Forall, Exists)):
        out["var"] = f.var
    children = list(map(to_dict, _children(f)))
    out.update(zip(("body",) if len(children) == 1 else ("left", "right"),
                   children))
    return out
