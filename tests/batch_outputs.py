"""Record, or check against a record, the exit code, standard output and
standard error of every query in the first batch (batch 0) of each
perfbench workload, seeds 1-3, with the experiment's ``wall_time``
blanked, of a fixed list of edge and malformed command lines for each
command (``EDGE_RECORD``), of capped ``sat`` lines for formulas
without modalities (``CAPPED_RECORD``), and of uncapped ``decide`` lines
on three-world frames at modal depths 0-3 (``VIEWS_RECORD``).

    PYTHONPATH=src python -m tests.batch_outputs --write DIR
    PYTHONPATH=src python -m tests.batch_outputs --check DIR

Run ``--write`` on the revision before a change and ``--check`` on the
change: a change that should not alter any output must reproduce every
record byte for byte.  ``--check`` exits 1 and names the differing
queries otherwise.  The batch queries come from ``perfbench/workloads.py``;
every line is played through ``cli.main`` in process, and an argparse
exit (help, a rejected line) is recorded with its exit code.  This
module is not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("syntax", "semantics", "translations", "search", "experiments",
           "cli")
WORKLOADS = ("sat-classes", "decide-frame", "trick-faithfulness")
SEEDS = (1, 2, 3)
EDGE_RECORD = "edge-argv"
CAPPED_RECORD = "capped-sat"
VIEWS_RECORD = "views"
WALL_TIME = re.compile(r'"wall_time": [-+0-9.eE]+|skipped; [0-9.]+s$',
                       re.MULTILINE)

# Input files of the edge lines, written to the work directory; a line
# names one by its key, which may be part of an argument.
FILES = {
    "<model.json>": {"mode": "modal", "worlds": ["w0", "w1"],
                   "access": [["w0", "w1"]],
                   "domains": {"w0": ["a"], "w1": ["a", "b"]},
                   "valuation": {"w0": {"Q": [["a"]]}, "w1": {"Q": [["b"]]}},
                   "equality": {"principle": "eq3",
                                "classes": {"w0": [["a"]],
                                            "w1": [["a"], ["b"]]}}},
    "<frame.json>": {"worlds": ["w0", "w1"], "access": [["w0", "w1"]]},
    "<corpus.txt>": "exists x exists y P(x,y)\n",
}

# Options that take no value.
FLAGS = ("--json", "--positivize", "--constant")

# A well-formed line of each command, starting with an option; its first
# int option, first option with choices and first required option (None
# where it has none).
BASE = {
    "parse": (["--json", "<>(Q(x) & p)"], None, None, None),
    "classify": (["--json", "<>Q(x) -> []Q(y)"], None, None, None),
    "translate": (["--variant", "d2", "--positivize",
                   "forall x exists y P(x,y)"], None, "--variant", "--variant"),
    "validate": (["--model", "<model.json>"], None, None, "--model"),
    "eval": (["--model", "<model.json>", "--world", "w0", "--assign", "x=a",
              "<>Q(x)"], None, None, "--world"),
    "check": (["--json", "--model", "<model.json>", "Q(x) | ~Q(x)"],
              None, None, "--model"),
    "sat": (["--worlds", "2", "--domain", "1", "--mode", "modal", "--class",
             "reflexive", "--eq", "eq2", "<>p & ~p"],
            "--domain", "--mode", "--worlds"),
    "decide": (["--frame", "<frame.json>", "--domain", "1", "--eq", "eq1",
                "--constant", "<>p -> []p"], "--domain", "--eq", "--frame"),
    "frame-props": (["--frame", "<frame.json>"], None, None, "--frame"),
    "experiment": (["--variant", "nd1", "--size", "2", "<corpus.txt>"],
                   "--size", "--variant", "--size"),
    "separate": (["--worlds", "1", "--domain", "1", "--max-steps", "50"],
                 "--max-steps", None, None),
}


def edge_lines() -> list:
    """The edge and malformed argv lines: three for the whole parser, then
    for each command its well-formed line, ``-h``, an abbreviation,
    ``--flag=value``, a repeated option, ``--``, a bad int, a bad choice,
    a missing required option (or positional) and an unknown option."""
    lines = [[], ["-h"], ["bogus", "p"]]
    for command, (base, int_option, choice_option, required) in BASE.items():
        first = base[0]
        n = 1 if first in FLAGS else 2  # tokens of the first option
        value = "yes" if first in FLAGS else base[1]
        lines += [[command, *base], [command, "-h"],
                  [command, first[:-1], *base[1:]],
                  [command, f"{first}={value}", *base[n:]],
                  [command, *base[:n], *base],
                  [command, *base[:-1], "--", base[-1]]]
        for option, bad in ((int_option, "x"), (choice_option, "bogus")):
            if option is not None:
                i = base.index(option)
                lines.append([command, *base[:i + 1], bad, *base[i + 2:]])
        if required is None:
            lines.append([command, *base[:-1]])
        else:
            i = base.index(required)
            lines.append([command, *base[:i], *base[i + 2:]])
        lines.append([command, "--bogus", *base])
    return lines


# Formulas without modalities, one satisfiable and one not, that each
# check ONE_WORLD_MODELS models at --domain 2 on the one-world frame of a
# class; the last class has no frame.
CAPPED_FORMULAS = ("exists x exists y (Q(x) & ~Q(y) & p)",
                   "exists x (Q(x) & ~Q(x)) | (p & ~p)")
CAPPED_CLASSES = ("", "reflexive", "serial,irreflexive_transitive")
ONE_WORLD_MODELS = 6


def capped_lines() -> list:
    """``sat`` of each capped formula in each capped class, capped at 0,
    1, one step short of the one-world models and at their number."""
    return [["sat", "--json", "--worlds", "3", "--domain", "2", "--class",
             cls, "--max-steps", str(cap), text]
            for text in CAPPED_FORMULAS for cls in CAPPED_CLASSES
            for cap in (0, 1, ONE_WORLD_MODELS - 1, ONE_WORLD_MODELS)]


def _play(cli, argv: list) -> list:
    """[exit code, stdout, stderr] of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: help, or a rejected line
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _blank(text: str, workdir: str) -> str:
    return WALL_TIME.sub(lambda m: '"wall_time": null' if m.group()[0] == '"'
                         else "skipped; <wall>s", text).replace(workdir, "<workdir>")


def batch_outputs(name: str, seed: int) -> list:
    """[kind, argv, exit code, stdout, stderr] of each query of batch 0, in
    batch order; the work directory's path reads ``<workdir>``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    api = {module: importlib.import_module(f"monotrick.{module}")
           for module in MODULES}
    workload = workloads.WORKLOADS[name]()
    with tempfile.TemporaryDirectory() as workdir:
        workload.setup(api, seed, workdir)
        return [[q.kind, [arg.replace(workdir, "<workdir>") for arg in q.argv],
                 *(_blank(x, workdir) if isinstance(x, str) else x
                   for x in _play(api["cli"], list(q.argv)))]
                for q in workload.batch(seed, 0)]


def _played(kind: str, lines: list, files: dict) -> list:
    """[kind, line, exit code, stdout, stderr] of each line, with files
    written to a work directory first; a line names a file by its key,
    which may be part of an argument."""
    cli = importlib.import_module("monotrick.cli")
    with tempfile.TemporaryDirectory() as workdir:
        paths = {}
        for name, content in files.items():
            paths[name] = os.path.join(workdir, name.strip("<>"))
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(content if isinstance(content, str)
                         else json.dumps(content))
        out = []
        for line in lines:
            argv = [functools.reduce(lambda a, kv: a.replace(*kv),
                                     paths.items(), arg) for arg in line]
            out.append([kind, line, *(
                _blank(x, workdir) if isinstance(x, str) else x
                for x in _play(cli, argv))])
        return out


def edge_outputs() -> list:
    """["edge", argv, exit code, stdout, stderr] of each line of
    ``edge_lines()``; help is formatted for 80 columns."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return _played("edge", edge_lines(), FILES)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def capped_outputs() -> list:
    """["capped", argv, exit code, stdout, stderr] of each line of
    ``capped_lines()``."""
    cli = importlib.import_module("monotrick.cli")
    return [["capped", line, *_play(cli, line)] for line in capped_lines()]


# Three-world frames on which worlds see different parts of the frame: the
# chain w0 -> w1 -> w2, its reflexive and transitive closure and the cycle
# w0 -> w1 -> w2 -> w0.
VIEW_FRAMES = {
    "<chain3.json>": {"worlds": ["w0", "w1", "w2"],
                      "access": [["w0", "w1"], ["w1", "w2"]]},
    "<preorder3.json>": {"worlds": ["w0", "w1", "w2"],
                         "access": [["w0", "w0"], ["w0", "w1"], ["w0", "w2"],
                                    ["w1", "w1"], ["w1", "w2"], ["w2", "w2"]]},
    "<cycle3.json>": {"worlds": ["w0", "w1", "w2"],
                      "access": [["w0", "w1"], ["w1", "w2"], ["w2", "w0"]]},
}

# Modal formulas of depth 0, 1, 1, 2, 2, 3 and 3 (the third is the Barcan
# formula, valid on the cycle, whose domains are forced constant), then
# intuitionistic ones; valid on some frames and principles, not on others.
VIEW_FORMULAS = {
    "modal": ("exists x Q(x) -> forall x Q(x)",
              "x = y -> (Q(x) <-> Q(y))",
              "forall x []Q(x) -> []forall x Q(x)",
              "[]forall x Q(x) -> forall x []Q(x)",
              "<><>exists x Q(x) -> <>exists x Q(x)",
              "<>[]p -> []<>p",
              "~(x = y) -> [][][]~(x = y)",
              "<><><>p -> <>p"),
    "int": ("p | ~p",
            "~~(p | ~p)",
            "x = y | ~(x = y)",
            "(p -> q) | (q -> p)",
            "forall x (Q(x) | ~Q(x)) -> (exists x Q(x) | ~exists x Q(x))"),
}


def view_lines() -> list:
    """Uncapped ``decide --json --domain 2`` of each view formula under
    eq1 and eq3: the modal ones on each view frame, the intuitionistic
    ones on the preorder."""
    return [["decide", "--json", "--frame", frame, "--domain", "2",
             "--mode", mode, "--eq", eq, text]
            for mode, frames in (("modal", VIEW_FRAMES),
                                 ("int", ("<preorder3.json>",)))
            for frame in frames for text in VIEW_FORMULAS[mode]
            for eq in ("eq1", "eq3")]


def view_outputs() -> list:
    """["views", argv, exit code, stdout, stderr] of each line of
    ``view_lines()``."""
    return _played("views", view_lines(), VIEW_FRAMES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.batch_outputs", description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="DIR",
                        help="record the outputs in DIR")
    action.add_argument("--check", metavar="DIR",
                        help="compare the outputs with the record in DIR")
    args = parser.parse_args(argv)
    directory = pathlib.Path(args.write or args.check)
    if args.write:
        directory.mkdir(parents=True, exist_ok=True)
    records = [(f"{name}-seed{seed}", lambda n=name, s=seed: batch_outputs(n, s))
               for name in WORKLOADS for seed in SEEDS]
    records += [(EDGE_RECORD, edge_outputs), (CAPPED_RECORD, capped_outputs),
                (VIEWS_RECORD, view_outputs)]
    differing = total = 0
    for stem, outputs_of in records:
        path = directory / f"{stem}.json"
        outputs = outputs_of()
        total += len(outputs)
        if args.write:
            path.write_text(json.dumps(outputs, indent=1) + "\n",
                            encoding="utf-8")
            continue
        recorded = json.loads(path.read_text(encoding="utf-8"))
        if len(recorded) != len(outputs):
            print(f"{path.name}: {len(outputs)} queries, "
                  f"{len(recorded)} recorded")
            differing += 1
            continue
        for i, (got, want) in enumerate(zip(outputs, recorded)):
            if got != want:
                print(f"{path.name}: query {i} ({' '.join(got[1])}) "
                      f"gives exit {got[2]}, recorded {want[2]}"
                      + "".join(f"; {stream} differs" for stream, k in
                                (("stdout", 3), ("stderr", 4))
                                if got[k] != want[k]))
                differing += 1
    verb = "recorded" if args.write else "checked"
    print(f"{total} outputs {verb}; {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
