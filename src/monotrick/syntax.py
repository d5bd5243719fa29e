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

Formula nodes, like the package's other records (``Record``), are plain
classes that behave as frozen dataclasses; a dataclass would write the
source of its methods and exec it at every import.  A node is
immutable: assigning or deleting an attribute raises
dataclasses.FrozenInstanceError, and its fields are its only instance
attributes.  Two nodes are equal when they are of one class with equal
fields, and a node hashes as the tuple of its fields, so equal nodes
hash alike and a hash depends on the string-hash seed only through the
strings in the node.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError

_VARIABLE_RE = re.compile(r"[xyzuvw][0-9]*\Z")

# Deepest nesting the parser accepts, counting both AST levels and
# parentheses.  Parsing takes up to six frames per parenthesis (_nested,
# _unary, _atomic and a _binary for each of at most three precedence
# levels that left-associative operands climb) and two per prefix
# operator or right-associative connective.  Compiling, evaluating,
# printing and modal_depth take two frames per AST level (on Python 3.11
# they stop near 497 levels), the folds over _children one (near 996;
# 748 on 3.12 where they recurse through map), so every accepted formula
# stays well inside the default recursion limit (1000).
MAX_DEPTH = 100


def is_variable_name(name: str) -> bool:
    return bool(_VARIABLE_RE.match(name))


class Record:
    """Base of the package's records (see the module docstring).
    ``_fields`` names the fields that repr shows as ``name=value`` and
    that ``==`` compares; ``==`` holds only within one class.  A record
    that can change is unhashable."""

    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None


class FrozenRecord(Record):
    """A record that __init__ sets up with object.__setattr__ and that
    hashes the tuple of its fields."""

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_set = object.__setattr__


class Formula(FrozenRecord):
    """Base class for formula nodes.  Each layout of fields below writes
    ``__eq__`` and ``__hash__`` over an explicit tuple, the fastest form:
    compile_formula's cache hashes and compares a formula, node by node,
    on every call."""

    def __str__(self) -> str:
        return render(self)


class _Unary(Formula):
    _fields = ("body",)

    def __init__(self, body: Formula):
        _set(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.body,) == (other.body,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.body,))


class _Binary(Formula):
    _fields = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class _Quantifier(Formula):
    _fields = ("var", "body")

    def __init__(self, var: str, body: Formula):
        _set(self, "var", var)
        _set(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.var, self.body) == (other.var, other.body)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.var, self.body))


class Atom(Formula):
    _fields = ("letter", "args")

    def __init__(self, letter: str, args: tuple[str, ...] = ()):
        _set(self, "letter", letter)
        _set(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.letter, self.args) == (other.letter, other.args)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.letter, self.args))


class Eq(_Binary):
    """left = right, of two variables."""


class Verum(Formula):
    pass


class Falsum(Formula):
    pass


class Not(_Unary):
    pass


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class Iff(_Binary):
    pass


class Box(_Unary):
    pass


class Diamond(_Unary):
    pass


class Forall(_Quantifier):
    pass


class Exists(_Quantifier):
    pass


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


# Optional white space, then a token (group 1) or a character that
# starts none (group 2).  In a str pattern \s is exactly str.isspace;
# the scan runs on lines without trailing white space, which \s* would
# otherwise try again from each of its characters.
_TOKEN_RE = re.compile(
    r"\s*(?:(<->|->|\[\]|<>|[~&|(),=]|[A-Za-z_][A-Za-z0-9_]*)|(\S))")


def _tokenize(text: str) -> list[tuple]:
    """The tokens of text as (token, line, column), ending with the end
    of input (None, line, column) just after the last token, or at (1, 1)
    when there is none."""
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split("#", 1)[0].rstrip()):
            tok, stray = m.groups()
            if stray is not None:
                raise ParseError(f"unexpected character {stray!r}", lineno,
                                 m.start(2) + 1)
            tokens.append((tok, lineno, m.start(1) + 1))
    tok, line, col = tokens[-1] if tokens else ("", 1, 1)
    tokens.append((None, line, col + len(tok)))
    return tokens


def _too_deep(line=None, col=None) -> ParseError:
    return ParseError(f"formula nests deeper than {MAX_DEPTH} levels", line, col)


class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0
        self.arities: dict[str, int] = {}
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos][0]

    def _loc(self):
        return self.tokens[self.pos][1:]

    def _advance(self):
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

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
    return frozenset(_variables(f)).union(*map(all_variables, _children(f)))


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


def nesting_depth(f: Formula) -> int:
    """Number of nodes on the longest root-to-leaf path of f.  The one
    walk over an explicit stack: parse measures left-associative chains
    of any length with it before the depth bound holds, so a long chain
    gives the "nests deeper" ParseError, never a RecursionError."""
    deepest = 0
    stack = [(f, 1)]
    while stack:
        g, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in _children(g))
    return deepest


def _note_arity(arities: dict[str, int], atom: Atom) -> None:
    """Record atom's arity; an ArityConflictError if its letter has another."""
    seen = arities.setdefault(atom.letter, len(atom.args))
    if seen != len(atom.args):
        raise ArityConflictError(
            f"letter {atom.letter!r} used with arity {len(atom.args)} "
            f"after arity {seen}")


def letters(f: Formula) -> dict[str, int]:
    """Map each predicate letter in f to its arity, met left to right."""
    out: dict[str, int] = {}

    def walk(g):
        if isinstance(g, Atom):
            _note_arity(out, g)
        for c in _children(g):
            walk(c)

    walk(f)
    return out


def modal_depth(f: Formula) -> int:
    depth = max(map(modal_depth, _children(f)), default=0)
    return depth + 1 if isinstance(f, (Box, Diamond)) else depth


class FragmentReport(FrozenRecord):
    _fields = ("is_monadic", "is_monodic", "is_positive", "has_equality",
               "variable_count", "modal_depth", "max_letter_arity")

    def __init__(self, is_monadic: bool, is_monodic: bool, is_positive: bool,
                 has_equality: bool, variable_count: int, modal_depth: int,
                 max_letter_arity: int, letter_arities: dict | None = None):
        _set(self, "is_monadic", is_monadic)
        _set(self, "is_monodic", is_monodic)
        _set(self, "is_positive", is_positive)
        _set(self, "has_equality", has_equality)
        _set(self, "variable_count", variable_count)
        _set(self, "modal_depth", modal_depth)
        _set(self, "max_letter_arity", max_letter_arity)
        # Each letter's arity, for the searches; not part of the report,
        # so outside repr, == and hash.
        _set(self, "letter_arities",
             {} if letter_arities is None else letter_arities)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._key()))


def classify(f: Formula) -> FragmentReport:
    """Compute the fragment membership report for f in one recursive
    fold: each subformula returns its free variables and modal depth to
    its parent.  Atoms are met left to right, as ``letters`` meets them,
    so an arity conflict is reported alike."""
    arities: dict[str, int] = {}
    variables: set[str] = set()
    kinds: set[type] = set()
    monodic = True

    def walk(g):
        nonlocal monodic
        kinds.add(type(g))
        own = _variables(g)
        variables.update(own)
        if isinstance(g, Atom):
            _note_arity(arities, g)
        free, depth = frozenset(), 0
        for c in _children(g):
            child_free, child_depth = walk(c)
            free, depth = free | child_free, max(depth, child_depth)
        if isinstance(g, (Forall, Exists)):
            return free - {g.var}, depth
        if isinstance(g, (Box, Diamond)):
            monodic = monodic and len(free) <= 1
            return free, depth + 1
        return free.union(own), depth

    depth = walk(f)[1]
    arity = max(arities.values(), default=0)
    return FragmentReport(
        is_monadic=arity <= 1,
        is_monodic=monodic,
        is_positive=kinds.isdisjoint((Not, Falsum)),
        has_equality=Eq in kinds,
        variable_count=len(variables),
        modal_depth=depth,
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
