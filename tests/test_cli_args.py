"""The command-table reading of ``cli.main`` against argparse, the
reference: over a corpus of command lines generated from
``cli._COMMANDS``, ``cli._read_args`` either declines (None) or returns
the namespace argparse builds; it declines every line argparse rejects
and every line shape it leaves to argparse; and ``main`` gives the same
exit code, standard output and standard error with it and without it."""

import contextlib
import functools
import io
import json
import random
import re

import pytest

from monotrick import cli

# A well-formed value for each option or positional that has neither a
# type nor choices; <model>, <frame> and <corpus> name input files.
SAMPLES = {"--model": "<model>", "--world": "w0", "--assign": "x=a",
           "--frame": "<frame>", "--class": "reflexive", "formula": "<>p | q",
           "corpus": "<corpus>"}
# Int values argparse accepts, then ones it rejects or that start with -.
GOOD_INTS = ("+3", " 3", "03")
BAD_INTS = ("-1", "x", "", "3.0")

WALL_TIME = re.compile(r'"wall_time": [-+0-9.eE]+|[0-9.]+s$', re.MULTILINE)

FILES = {
    "<model>": {"mode": "modal", "worlds": ["w0", "w1"],
                "access": [["w0", "w1"]],
                "domains": {"w0": ["a"], "w1": ["a", "b"]},
                "valuation": {"w0": {"q": []}, "w1": {"p": [[]]}},
                "equality": {"principle": "eq3",
                             "classes": {"w0": [["a"]], "w1": [["a"], ["b"]]}}},
    "<frame>": {"worlds": ["w0", "w1"], "access": [["w0", "w1"]]},
    "<corpus>": "exists x exists y P(x,y)\n",
}


def _table(command):
    """[(flag, kwargs)] of the command's options, --json first, and the
    names of its positionals."""
    options, positionals = [("--json", {"action": "store_true"})], []
    for flags, kwargs in cli._COMMANDS[command][1]:
        if flags[0].startswith("-"):
            options.append((flags[0], kwargs))
        else:
            positionals.append(flags[0])
    return options, positionals


def _group(flag, kwargs):
    """The tokens giving one option: the flag, and a well-formed value
    unless it is a store_true flag."""
    if kwargs.get("action") == "store_true":
        return [flag]
    return [flag, kwargs["choices"][0] if "choices" in kwargs
            else "1" if kwargs.get("type") is int else SAMPLES[flag]]


def corpus():
    """(argv, must_decline) pairs: for every command, well-formed lines in
    table, reversed and shuffled order, every choice, int edge cases and
    --class "", then each shape the fast path leaves to argparse."""
    lines = []
    for command in cli._COMMANDS:
        options, positionals = _table(command)
        rng = random.Random(command)
        tail = [SAMPLES[p] for p in positionals]

        def line(groups, rest=tail, decline=False):
            lines.append(([command, *(t for g in groups for t in g), *rest],
                          decline))

        groups = [_group(f, kw) for f, kw in options]
        line(groups)
        line(groups[::-1])
        for _ in range(3):
            shuffled = rng.sample(groups + [tail], len(groups) + 1)
            line(shuffled, rest=[])
        line([g for g, (_, kw) in zip(groups, options) if kw.get("required")])
        for i, (flag, kwargs) in enumerate(options):
            others = groups[:i] + groups[i + 1:]
            for choice in kwargs.get("choices", ()):
                line(others + [[flag, choice]])
            if "choices" in kwargs:
                line(others + [[flag, "bogus"]])
            if kwargs.get("type") is int:
                for value in GOOD_INTS:
                    line(others + [[flag, value]])
                for value in BAD_INTS:
                    line(others + [[flag, value]], decline=True)
            if flag == "--class":
                line(others + [[flag, ""]])
            line(others + [[flag[:-1], *groups[i][1:]]], decline=True)
            if len(groups[i]) == 2:
                line(others + [[f"{flag}={groups[i][1]}"]], decline=True)
                line(others + [[flag, "--json"]], decline=True)
                line(others, rest=tail + [flag], decline=True)
            line(others + [groups[i], groups[i]], decline=True)
            if kwargs.get("required"):
                line(others, decline=True)
        for extra in (["-h"], ["--help"], ["--bogus"], ["-x"], ["--"]):
            line(groups + [extra], decline=True)
        line(groups, rest=["--", *tail], decline=True)
        line(groups, rest=tail + ["extra"], decline=True)
        line(groups, rest=["-p"], decline=True)
        if tail:
            line(groups, rest=[], decline=True)
    return lines


def _argparse(argv):
    """argparse's namespace as a dict, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_corpus_covers_every_command_and_both_kinds():
    lines = corpus()
    assert {argv[0] for argv, _ in lines} == set(cli._COMMANDS)
    assert sum(decline for _, decline in lines) > 100
    assert sum(not decline for _, decline in lines) > 100


@pytest.mark.parametrize("argv, must_decline", corpus(),
                         ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_fast_path_declines_or_matches_argparse(argv, must_decline):
    reference = _argparse(argv)
    fast = cli._read_args(argv[0], argv[1:])
    if reference is None or must_decline:
        assert fast is None
    else:
        assert fast is not None and vars(fast) == reference


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in FILES.items():
        path = tmp_path / name.strip("<>")
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        paths[name] = str(path)
    return paths


def _main(argv):
    """main's exit code, stdout and stderr, the experiment's wall time
    blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, WALL_TIME.sub("", out.getvalue()), err.getvalue()


def test_main_is_the_same_with_and_without_the_fast_path(files, monkeypatch):
    monkeypatch.delenv("MONOTRICK_MAX_STEPS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    lines = [[functools.reduce(lambda a, kv: a.replace(*kv), files.items(),
                               arg) for arg in argv] for argv, _ in corpus()]
    fast = [_main(argv) for argv in lines]
    monkeypatch.setattr(cli, "_read_args", lambda command, tokens: None)
    slow = [_main(argv) for argv in lines]
    assert {code for code, _, _ in fast} >= {0, 1, 2}
    for argv, got, want in zip(lines, fast, slow):
        assert got == want, argv
