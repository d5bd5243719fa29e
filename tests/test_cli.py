import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from monotrick import cli
from monotrick.cli import main
from monotrick.semantics import model_to_dict
from monotrick.translations import ClassicalStructure, Variant, build_companion_model


@pytest.fixture
def model_file(tmp_path):
    s = ClassicalStructure((0, 1), frozenset({(0, 1)}))
    model, _ = build_companion_model(s, Variant.DIAMOND2)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_dict(model)))
    return str(path)


@pytest.fixture
def frame_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"worlds": ["w0"], "access": [["w0", "w0"]]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse(capsys):
    code, out, _ = run(capsys, "parse", "<> ( Q1(x)&Q2(y) )")
    assert code == 0
    assert out.strip() == "<>(Q1(x) & Q2(y))"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "p & & q")
    assert code == 2
    assert "error" in err


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--json", "<>(Q1(x) & Q2(y))")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_monadic"] is True
    assert payload["is_monodic"] is False


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "--variant", "d2",
                       "forall x exists y P(x,y)")
    assert code == 0
    assert out.strip() == "forall x exists y <>(Q1(x) & Q2(y))"


def test_translate_positivize(capsys):
    code, out, _ = run(capsys, "translate", "--variant", "pi", "--positivize",
                       "~P(x,y)")
    assert code == 0
    assert out.strip() == "(Q1(x) & Q2(y) -> p_neg) | q_aux -> p_pos"


def test_translate_warning_is_one_line(capsys):
    code, out, err = run(capsys, "translate", "--variant", "pi", "~P(x,y)")
    assert code == 0
    assert out.strip() == "~((Q1(x) & Q2(y) -> p_neg) | q_aux)"
    assert err == ("warning: positive-fragment variants expect a positive "
                   "input; apply positivize first\n")


def test_validate_clean(capsys, model_file):
    code, out, _ = run(capsys, "validate", "--model", model_file)
    assert code == 0
    assert out.strip() == "ok"


def test_validate_violations(capsys, tmp_path, model_file):
    broken = json.loads(pathlib.Path(model_file).read_text())
    broken["equality"]["classes"]["root"] = [["0", "1"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 1
    assert "Eq3 identity" in out


def test_eval(capsys, model_file):
    code, out, _ = run(capsys, "eval", "--model", model_file, "--world", "root",
                       "--assign", "x=0,y=1", "<>(Q1(x) & Q2(y))")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "--model", model_file, "--world", "root",
                       "--assign", "x=1,y=0", "<>(Q1(x) & Q2(y))")
    assert code == 1 and out.strip() == "false"


@pytest.mark.parametrize("assign, named", [
    ("x=0,x=1", "'x=1'; x is already assigned"),
    ("=0", "'=0'; '' is not a variable"),
    ("Q=1", "'Q=1'; 'Q' is not a variable"),
])
def test_eval_malformed_assignment_exit_2(capsys, model_file, assign, named):
    code, out, err = run(capsys, "eval", "--model", model_file, "--world",
                         "root", "--assign", assign, "Q1(x)")
    _assert_usage_error(code, err)
    assert err == f"error: bad assignment entry {named}\n" and out == ""


def test_check(capsys, model_file):
    code, out, _ = run(capsys, "check", "--model", model_file, "[]true")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "check", "--model", model_file, "Q1(x)")
    assert code == 1 and "invalid" in out


def test_sat(capsys):
    code, out, _ = run(capsys, "sat", "--worlds", "2", "--domain", "2",
                       "exists x exists y <>(Q1(x) & Q2(y))")
    assert code == 0 and out.splitlines()[0] == "satisfiable"
    code, out, _ = run(capsys, "sat", "--worlds", "2", "--domain", "2", "false")
    assert code == 1
    code, out, _ = run(capsys, "sat", "--worlds", "2", "--domain", "2",
                       "--class", "alt_0", "<>true")
    assert code == 1


@pytest.mark.parametrize("cls", ("alt_1,alt_2", "alt_2,alt_1"))
def test_sat_repeated_alt_keeps_the_least_bound(capsys, cls):
    # Two successors are needed, and alt_1 allows one whatever its order.
    code, out, _ = run(capsys, "sat", "--class", cls, "--worlds", "3",
                       "--domain", "1", "<>p & <>~p")
    assert code == 1 and out.splitlines()[0] == "unsatisfiable_up_to_bound"


@pytest.mark.parametrize("cls", ("reflexive,irreflexive_transitive",
                                 "alt_0,reflexive"))
def test_sat_in_a_class_without_frames_answers_at_once(capsys, cls):
    # A class without a one-world frame has no frame, so sat walks none
    # of the 2^25 frame masks of five worlds; the walk took about 13
    # minutes, and no step cap stopped it, as no model was ever checked.
    start = time.perf_counter()
    code, out, _ = run(capsys, "sat", "--class", cls, "--worlds", "5",
                       "--domain", "1", "<>p")
    assert time.perf_counter() - start < 1
    assert code == 1 and out.splitlines()[0] == "unsatisfiable_up_to_bound"


def test_sat_step_cap(capsys, monkeypatch):
    # <>false is unsatisfiable and modal, so no one-world scan settles it.
    monkeypatch.setenv("MONOTRICK_MAX_STEPS", "3")
    code, out, _ = run(capsys, "sat", "--worlds", "3", "--domain", "2", "<>false")
    assert code == 3 and out.splitlines()[0] == "bound_exhausted"


def test_sat_step_cap_counts_only_checked_models(capsys):
    # The tenth model checked is the first witness (the twelfth model of
    # the frames searched; two before it are renamings of individuals of
    # models checked earlier): a cap of 10 must reach it and a cap of 9
    # must not.  Prefetching candidates must never tick the cap.
    argv = ("sat", "--worlds", "2", "--domain", "2",
            "exists x exists y (Q(x) & <>Q(y) & ~(x = y))")
    code, out, _ = run(capsys, *argv, "--max-steps", "10")
    assert code == 0 and out.splitlines()[0] == "satisfiable"
    code, out, _ = run(capsys, *argv, "--max-steps", "9")
    assert code == 3 and out.splitlines()[0] == "bound_exhausted"


@pytest.mark.parametrize("argv", [
    ("sat", "--worlds", "2", "--domain", "2", "false"),
    ("separate", "--worlds", "1", "--domain", "1"),
])
def test_step_cap_variable_that_is_no_integer_exit_2(capsys, monkeypatch, argv):
    monkeypatch.setenv("MONOTRICK_MAX_STEPS", "abc")
    code, out, err = run(capsys, *argv)
    assert out == ""
    _assert_usage_error(code, err)
    assert err == "error: MONOTRICK_MAX_STEPS must be an integer, not 'abc'\n"


@pytest.mark.parametrize("argv", [
    ("sat", "--worlds", "2", "--domain", "2", "false"),
    ("separate", "--worlds", "1", "--domain", "1"),
])
def test_negative_step_cap_exit_2(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv, "--max-steps", "-1")
    assert out == ""
    _assert_usage_error(code, err)
    monkeypatch.setenv("MONOTRICK_MAX_STEPS", "-1")
    code, out, err = run(capsys, *argv)
    assert out == ""
    _assert_usage_error(code, err)


def test_sat_bound_below_one_names_the_option(capsys):
    for option, other in (("--worlds", "--domain"), ("--domain", "--worlds")):
        code, out, err = run(capsys, "sat", option, "-1", other, "1", "p")
        assert (code, out) == (2, "")
        assert err == f"error: {option} must be >= 1, got -1\n"


def test_decide_bound_below_one_names_the_option(capsys, frame_file):
    code, out, err = run(capsys, "decide", "--frame", frame_file,
                         "--domain", "0", "p")
    assert (code, out, err) == (2, "", "error: --domain must be >= 1, got 0\n")


def test_separate_bound_below_one_names_the_option(capsys):
    for option, other in (("--worlds", "--domain"), ("--domain", "--worlds")):
        code, out, err = run(capsys, "separate", option, "0", other, "1")
        assert (code, out) == (2, "")
        assert err == f"error: {option} must be >= 1, got 0\n"


def test_experiment_bound_below_one_names_the_option(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("exists x exists y P(x,y)\n")
    code, out, err = run(capsys, "experiment", "--variant", "d2", "--size",
                         "0", str(corpus))
    assert (code, out, err) == (2, "", "error: --size must be >= 1, got 0\n")


def test_zero_step_cap_exhausts(capsys):
    code, out, _ = run(capsys, "sat", "--worlds", "1", "--domain", "1",
                       "--max-steps", "0", "false")
    assert code == 3 and out.splitlines()[0] == "bound_exhausted"


def test_workers_option_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sat", "--worlds", "1", "--domain", "1", "--workers", "3", "true"])
    assert info.value.code == 2


def test_decide(capsys, frame_file):
    code, out, _ = run(capsys, "decide", "--frame", frame_file,
                       "--domain", "2", "<>Q(x) -> <>Q(x)")
    assert code == 0 and out.splitlines()[0] == "valid"
    code, out, _ = run(capsys, "decide", "--frame", frame_file,
                       "--domain", "2", "forall x Q(x)")
    assert code == 1 and out.splitlines()[0] == "countermodel"


def test_decide_without_domain_is_not_valid(capsys, frame_file):
    """Without --domain the bound is a guess: no countermodel within it
    has an exit code of its own, neither 0 (valid) nor 1 (countermodel)."""
    code, out, _ = run(capsys, "decide", "--json", "--frame", frame_file,
                       "<>Q(x) -> <>Q(x)")
    payload = json.loads(out)
    assert code == 5
    assert payload["outcome"] == "no_countermodel_up_to_bound"
    assert payload["bounds_used"]["domain_bound"] == 4
    code, out, _ = run(capsys, "decide", "--frame", frame_file, "forall x Q(x)")
    assert code == 1 and out.splitlines()[0] == "countermodel"


def test_frame_props_json(capsys, frame_file):
    code, out, _ = run(capsys, "frame-props", "--json", "--frame", frame_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["reflexive"] is True
    assert payload["max_out_degree"] == 1


# The commands that read a frame or model file, with the file's option.
FILE_COMMANDS = {
    "decide": ("--frame", ["--domain", "1", "p"]),
    "frame-props": ("--frame", []),
    "validate": ("--model", []),
    "eval": ("--model", ["--world", "w0", "p"]),
    "check": ("--model", ["p"]),
}


@pytest.mark.parametrize("content", (b"", b"\xff\xfe{}", b'{"worlds": ['),
                         ids=("empty", "not-utf8", "truncated"))
@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_file_that_is_not_json_names_option_and_path(capsys, tmp_path,
                                                     command, content):
    option, rest = FILE_COMMANDS[command]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, option, str(path), *rest)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option} {path}: not a JSON file: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content", (b"\xff\xfe", b"p | \xffq\n"),
                         ids=("bom", "in-line"))
@pytest.mark.parametrize("command", ("parse", "classify", "sat", "decide"))
def test_formula_file_that_is_not_utf8_names_path(capsys, tmp_path,
                                                  frame_file, command, content):
    rest = {"sat": ["--worlds", "1", "--domain", "1"],
            "decide": ["--frame", frame_file, "--domain", "1"]}.get(command, [])
    path = tmp_path / "formula.txt"
    path.write_bytes(content)
    code, out, err = run(capsys, command, *rest, f"@{path}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: formula file {path}: not a UTF-8 file: "
                          "'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content", (b"\xff\xfe", b"exists x P(x,x)\n\xff\n"),
                         ids=("bom", "second-line"))
def test_corpus_file_that_is_not_utf8_names_path(capsys, tmp_path, content):
    path = tmp_path / "corpus.txt"
    path.write_bytes(content)
    code, out, err = run(capsys, "experiment", "--variant", "d2", "--size",
                         "1", "--json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: corpus file {path}: not a UTF-8 file: "
                          "'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_formula_from_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("p | ~p  # excluded middle\n")
    code, out, _ = run(capsys, "parse", f"@{path}")
    assert code == 0 and out.strip() == "p | ~p"


def test_experiment(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("exists x exists y P(x,y)\n")
    code, out, _ = run(capsys, "experiment", "--variant", "d2", "--size", "2",
                       "--json", str(corpus))
    assert code == 0
    payload = json.loads(out)
    assert payload["structure_count"] == 18
    assert payload["agreement"] == 18
    assert payload["disagreements"] == []


def test_experiment_skips_sentence_the_trick_rejects(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("forall x forall y (P(x,y) -> x = y)\n"
                      "exists x exists y P(x,y)\n")
    code, out, _ = run(capsys, "experiment", "--variant", "d2", "--size", "2",
                       "--json", str(corpus))
    assert code == 0
    payload = json.loads(out)
    assert payload["skipped"] == [{
        "formula": "forall x forall y (P(x,y) -> x = y)",
        "reason": "input to the trick must contain no equality atoms"}]
    assert payload["corpus_size"] == 1
    assert payload["agreement"] == 18


def test_experiment_empty_corpus(capsys, tmp_path):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("# nothing here\n")
    code, out, _ = run(capsys, "experiment", "--variant", "d2", "--size", "1",
                       "--json", str(corpus))
    assert code == 0
    assert json.loads(out)["corpus_size"] == 0


@pytest.mark.parametrize("line, where", [
    ("forall x (", "column 11 (expected formula)"),
    # The tokenizer ends a line at a form feed or U+2028 too; the column
    # still counts from the start of the corpus line.
    ("exists y P(y,y) \f& P(y", "column 23 (expected ')')"),
    ("exists y P(y,y) \u2028& P(y", "column 23 (expected ')')"),
], ids=["newline", "form-feed", "line-separator"])
def test_experiment_parse_error_names_the_corpus_line(capsys, tmp_path, line,
                                                      where):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"exists x exists y P(x,y)\n{line}\n", encoding="utf-8")
    code, out, err = run(capsys, "experiment", "--variant", "d2", "--size",
                         "2", str(corpus))
    assert code == 2 and out == ""
    assert err == (f"error: {corpus}: unexpected end of input at line 2, "
                   f"{where}\n")


def test_json_verdict_round_trips(capsys, frame_file):
    code, out, _ = run(capsys, "decide", "--json", "--frame", frame_file,
                       "--domain", "2", "forall x Q(x)")
    assert code == 1
    payload = json.loads(out)
    assert payload["outcome"] == "countermodel"
    from monotrick.semantics import model_from_dict, validate_model
    model = model_from_dict(payload["witness"]["model"])
    assert validate_model(model) == []


def _assert_usage_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["decide", "frame-props"])
def test_frame_edge_to_unknown_world_exit_2(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"worlds": ["w0", "w1"],
                                "access": [["w0", "w9"]]}))
    argv = [command, "--frame", str(path)] + (
        ["--domain", "1", "p"] if command == "decide" else [])
    code, _, err = run(capsys, *argv)
    _assert_usage_error(code, err)
    assert "leaves the world set" in err


@pytest.mark.parametrize("command", ["decide", "frame-props"])
def test_frame_without_worlds_exit_2(capsys, tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"worlds": [], "access": []}))
    argv = [command, "--frame", str(path)] + (
        ["--domain", "1", "p"] if command == "decide" else [])
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, err)
    assert err == "error: frame has no worlds\n" and out == ""


@pytest.mark.parametrize("command", ["decide", "frame-props"])
def test_frame_with_list_world_name_exit_2(capsys, tmp_path, command):
    path = tmp_path / "listed.json"
    path.write_text(json.dumps({"worlds": [["a"]], "access": []}))
    argv = [command, "--frame", str(path)] + (
        ["--json", "--domain", "1", "p"] if command == "decide" else [])
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, err)
    assert "names must be strings or integers" in err and out == ""


@pytest.mark.parametrize("value", ["false", None])
def test_model_with_non_boolean_constant_domains_exit_2(capsys, tmp_path,
                                                       model_file, value):
    broken = json.loads(pathlib.Path(model_file).read_text())
    broken["constant_domains"] = value
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(broken))
    code, out, err = run(capsys, "validate", "--model", str(path))
    _assert_usage_error(code, err)
    assert "constant_domains must be true or false" in err and out == ""


def test_model_listing_an_individual_twice_fails_validate(capsys, tmp_path):
    twice = {"mode": "modal", "worlds": ["w0"], "access": [],
             "domains": {"w0": ["a", "a"]}, "valuation": {"w0": {}},
             "equality": {"principle": "eq3", "classes": {"w0": [["a"], ["a"]]}}}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(twice))
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 1 and "distinct individuals" in out


@pytest.mark.parametrize("where", ["domains", "valuation", "classes"])
def test_model_entry_outside_frame(capsys, tmp_path, model_file, where):
    broken = json.loads(pathlib.Path(model_file).read_text())
    table = broken["equality"] if where == "classes" else broken
    table[where]["ghost"] = {} if where == "valuation" else [["0"]]
    path = str(tmp_path / "ghost.json")
    pathlib.Path(path).write_text(json.dumps(broken))
    code, out, _ = run(capsys, "validate", "--model", path)
    assert code == 1 and "world ghost outside the frame" in out
    for argv in (("check", "true"), ("eval", "--world", "root", "true")):
        command, *rest = argv
        code, out, err = run(capsys, command, "--model", path, *rest)
        _assert_usage_error(code, err)
        assert "world ghost outside the frame" in err and out == ""


def test_model_with_list_domains_exit_2(capsys, tmp_path, model_file):
    broken = json.loads(pathlib.Path(model_file).read_text())
    broken["domains"] = ["0", "1"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, _, err = run(capsys, "validate", "--model", str(path))
    _assert_usage_error(code, err)


@pytest.mark.parametrize("argv", [
    ("eval", "--world", "root", "--assign", "x=0", "Q1(x,x)"),
    ("check", "Q1(x,x)"),
])
def test_letter_arity_mismatch_exit_2(capsys, model_file, argv):
    command, *rest = argv
    code, out, err = run(capsys, command, "--model", model_file, *rest)
    _assert_usage_error(code, err)
    assert "letter Q1 has arity 2" in err and out == ""


@pytest.mark.parametrize("text", ["~" * 3000 + "p",
                                  "(" * 3000 + "p" + ")" * 3000])
def test_deep_formula_exit_2(capsys, text):
    code, _, err = run(capsys, "parse", text)
    _assert_usage_error(code, err)
    assert "nests deeper" in err


@pytest.mark.parametrize("item", ["alt_x", "alt_"])
def test_malformed_alt_bound_one_line_exit_2(capsys, item):
    code, out, err = run(capsys, "sat", "--worlds", "1", "--domain", "1",
                         "--class", f"reflexive,{item}", "p")
    assert out == ""
    _assert_usage_error(code, err)
    assert err == (f"error: frame class item {item!r}: alt_n needs an "
                   "integer n\n")


@pytest.mark.parametrize("argv", [
    ("sat", "--domain", "2", "p"),                       # missing --worlds
    ("sat", "--worlds", "1", "--domain", "1", "--bogus", "p"),
    ("parse", "--max-steps", "3", "p"),                  # caps no search
    ("experiment", "--variant", "d2", "--size", "1", "--max-steps", "1",
     "corpus.txt"),
])
def test_malformed_arguments_one_line_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_usage_error(info.value.code, captured.err)


def test_unexpected_exception_exit_4(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "_cmd_parse", broken)
    code, out, err = run(capsys, "parse", "p")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == "" and err == "internal error: RuntimeError: boom\n"


def test_closed_stdout_exits_141_quietly(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("forall x exists y P(x,y)\n")
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    with subprocess.Popen(
            [sys.executable, "-m", "monotrick", "experiment", "--json",
             "--variant", "d2", "--size", "2", str(corpus)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()  # the reader is gone before anything is written
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_missing_model_file(capsys):
    code, _, err = run(capsys, "check", "--model", "/does/not/exist.json", "p")
    assert code == 2 and "error" in err
