"""Golden syntax outputs: what parse, render and the fragment queries
return on fixed inputs, which must stay identical across refactors of
the syntax layer.

Inputs: every sentence of the three test corpora, formulas near the
nesting limit, 500 seeded random formulas (``tests.test_syntax.
random_formula``), malformed texts, whose ``ParseError`` text is
recorded, and texts that pin how the scanner treats white space, line
ends and comments: fixed ones, 100 seeded random texts over an alphabet
of tokens, white space and stray characters, and 100 seeded random
formulas printed with random white space for each space.  A
parse/render round trip cannot catch a precedence or associativity
table that the parser and the printer share and both get wrong; these
recorded outputs can.

The file ``tests/data/golden_syntax.json`` was recorded from a trusted
revision with ``PYTHONPATH=src python -m tests.test_golden_syntax --write``.
"""

import json
import random
import sys

import pytest

from monotrick.syntax import (
    MAX_DEPTH, ParseError, all_variables, classify, free_variables, letters,
    modal_depth, parse, render, to_dict,
)
from tests.conftest import DATA, read_corpus
from tests.test_syntax import random_formula

GOLDEN_SYNTAX_PATH = DATA / "golden_syntax.json"
CORPORA = ("classical_corpus.txt", "graph_corpus.txt", "monadic_corpus.txt")
RANDOM_SEED = 2025
RANDOM_COUNT = 500
SCANNER_SEED = 2026
SCANNER_COUNT = 100

DEEP = {
    "not": "~" * (MAX_DEPTH - 1) + "P(x,y)",
    "box": "[]" * (MAX_DEPTH - 1) + "P(x,y)",
    "forall": "forall x " * (MAX_DEPTH - 1) + "P(x,y)",
    "parentheses": "(" * MAX_DEPTH + "P(x,y)" + ")" * MAX_DEPTH,
    "implies": " -> ".join(["P(x,y)"] * MAX_DEPTH),
    "iff": " <-> ".join(["p"] * MAX_DEPTH),
    "and": " & ".join(["P(x,y)"] * MAX_DEPTH),
    "or": " | ".join(["p"] * MAX_DEPTH),
    "mixed": " <-> ".join([" -> ".join(["p | q & r"] * 3)] * 3),
}

MALFORMED = {
    "empty": "",
    "comment-only": "# nothing here",
    "double-and": "p & & q",
    "unexpected-character": "p $ q",
    "digit": "P(x, 1)",
    "bare-variable": "x & p",
    "arity-conflict": "P(x) & P(x,y)",
    "unclosed-parenthesis": "(p & q",
    "stray-parenthesis": "p & q)",
    "trailing-letter": "p q",
    "trailing-true-arguments": "true(x)",
    "forall-letter": "forall p Q(p)",
    "forall-end": "forall x",
    "exists-end": "exists",
    "keyword-as-formula": "p & exists & q",
    "unclosed-arguments": "P(x,",
    "missing-comma": "P(x y)",
    "empty-arguments": "P()",
    "equality-end": "x = ",
    "equality-letter": "x = p",
    "equality-first": "= x",
    "leading-implies": "-> p",
    "iff-end": "p <->",
    "implies-end": "p -> ",
    "not-end": "~",
    "box-end": "[]",
    "diamond-end": "<>",
    "second-line": "p &\n& q",
    "empty-disjunct": "exists x (P(x,y) | )",
    "not-3000": "~" * 3000 + "p",
    "parentheses-3000": "(" * 3000 + "p" + ")" * 3000,
    "and-3000": " & ".join(["p"] * 3000),
    "not-limit": "~" * MAX_DEPTH + "p",
    "parentheses-limit": "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1),
    "implies-limit": " -> ".join(["p"] * (MAX_DEPTH + 2)),
    "iff-limit": " <-> ".join(["p"] * (MAX_DEPTH + 2)),
    "or-limit": " | ".join(["p"] * (MAX_DEPTH + 1)),
    "forall-limit": "forall x " * MAX_DEPTH + "p",
    "and-under-not-limit": "p & " + "~" * MAX_DEPTH + "p",
    "implies-after-parentheses-limit":
        "(" * (MAX_DEPTH - 1) + "p -> q -> r" + ")" * (MAX_DEPTH - 1),
}

# White space, line ends and comments between tokens, in well-formed and
# malformed texts; str.splitlines ends a line at VT, FF, NEL and U+2028.
SPACING = {
    "crlf": "p &\r\nq\r\n",
    "crlf-error": "p &\r\n& q",
    "cr": "p ->\r[]p\r",
    "cr-error": "p\r$",
    "vt-ff": "p\x0b&\x0cq",
    "vt-ff-error": "p &\x0b\x0c)",
    "nel-u2028": "p\x85&\u2028q",
    "nel-u2028-error": "p\x85&\u2028q $",
    "nbsp-ideographic": "p\xa0&\u3000q",
    "nbsp-ideographic-error": "p\xa0&\u3000$",
    "tab-error": "p &\t\t$",
    "trailing-spaces": "p & q   ",
    "trailing-spaces-after-and": "p &   ",
    "comment-then-error": "p & # note\n$ q",
    "comment-middle-line": "p &\n# only a comment\nq",
    "comment-middle-line-end": "p &\n  # only a comment\n",
}

# The alphabet of the random scanner texts: tokens, white space (line
# ends included) and characters that start no token.
SCANNER_TOKENS = ("p", "q", "P", "x", "y", "(", ")", ",", "=", "&", "|",
                  "->", "<->", "~", "[]", "<>", "forall", "exists", "true",
                  "false")
SCANNER_SPACES = (" ", "  ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c",
                  "\x1c", "\x85", "\xa0", "\u2028", "\u3000")
SCANNER_STRAYS = ("#", "$", "1", "\xe9", "-", "<", "[", "]")


def scanner_text(rng):
    """A random text of 1-12 pieces: six in ten tokens, three in ten
    white space, one in ten a stray character."""
    pieces = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        alphabet = (SCANNER_TOKENS if roll < 0.6 else
                    SCANNER_SPACES if roll < 0.9 else SCANNER_STRAYS)
        pieces.append(rng.choice(alphabet))
    return "".join(pieces)


def spaced_formula(rng):
    """A printed random formula with each space replaced by random white
    space."""
    text = render(random_formula(rng, depth=3, vars_in_scope=["x", "y"]))
    return "".join(rng.choice(SCANNER_SPACES) if c == " " else c
                   for c in text)


def _outputs(f):
    return {
        "render": render(f),
        "to_dict": to_dict(f),
        "classify": classify(f).to_dict(),
        "letters": letters(f),
        "modal_depth": modal_depth(f),
        "free_variables": sorted(free_variables(f)),
        "all_variables": sorted(all_variables(f)),
    }


def _parsed(text):
    try:
        return _outputs(parse(text))
    except ParseError as exc:
        return {"error": str(exc)}


def _cases():
    """Name -> (input text or None, outputs), in a fixed order."""
    out = {}
    for name in CORPORA:
        for i, text in enumerate(read_corpus(name)):
            out[f"{name}:{i}"] = (text, _parsed(text))
    for name, text in DEEP.items():
        out[f"deep:{name}"] = (None, _parsed(text))
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_COUNT):
        out[f"random:{i}"] = (None, _outputs(
            random_formula(rng, depth=5, vars_in_scope=["x", "y"])))
    for name, text in MALFORMED.items():
        out[f"malformed:{name}"] = (None, _parsed(text))
    for name, text in SPACING.items():
        out[f"spacing:{name}"] = (text, _parsed(text))
    rng = random.Random(SCANNER_SEED)
    for i in range(SCANNER_COUNT):
        text = scanner_text(rng)
        out[f"scanner:{i}"] = (text, _parsed(text))
    for i in range(SCANNER_COUNT):
        text = spaced_formula(rng)
        out[f"spaced:{i}"] = (text, _parsed(text))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_SYNTAX_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cases():
    return _cases()


def _record(cases):
    return {name: dict(outputs, **({"input": text} if text else {}))
            for name, (text, outputs) in cases.items()}


def test_golden_syntax_outputs(golden, cases):
    current = _record(cases)
    assert sorted(current) == sorted(golden)
    for name in golden:
        assert current[name] == golden[name], name


def test_recorded_prints_parse_to_recorded_trees(golden):
    # The printed form of each random formula, parsed, gives the recorded
    # tree: this pins the parser on 500 fixed texts, not just the printer.
    for name, entry in golden.items():
        if name.startswith("random:"):
            assert to_dict(parse(entry["render"])) == entry["to_dict"], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_syntax --write")
    with open(GOLDEN_SYNTAX_PATH, "w", encoding="utf-8") as fh:
        record = _record(_cases())
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(record[name], sort_keys=True)}"
            for name in record) + "\n}\n")
