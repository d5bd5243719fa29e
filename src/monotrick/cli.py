"""Command-line driver.

Exit codes: 0 affirmative (valid / satisfiable / clean validation /
true), 1 negative (countermodel, unsatisfiable, violations, false),
2 usage or input error, 3 bound exhausted or resource cap hit,
4 internal error (an unexpected exception; never a verdict),
5 no countermodel up to a guessed domain bound (``decide`` without
``--domain``; neither valid nor a countermodel),
141 standard output closed before the output was written, e.g. by
``| head`` (128 + SIGPIPE, as POSIX tools report it; nothing is printed).
Errors are reported on one line of standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import search, semantics, syntax, translations
from .experiments import trick_experiment
from .search import (
    Verdict, decide_valid_over_frame, frame_properties, parse_frame_class,
    sat_bounded,
)
from .semantics import (
    check_letter_arities, load_frame, load_model, validate_model, valid_in_model,
)
from .syntax import ParseError, classify, parse, render
from .translations import Variant, fresh_scheme, kripke_trick, positivize

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4
EXIT_NO_COUNTERMODEL = 5
EXIT_BROKEN_PIPE = 141

_VERDICT_EXIT = {
    "valid": EXIT_OK,
    "satisfiable": EXIT_OK,
    "countermodel": EXIT_NEGATIVE,
    "unsatisfiable_up_to_bound": EXIT_NEGATIVE,
    "bound_exhausted": EXIT_EXHAUSTED,
    "no_countermodel_up_to_bound": EXIT_NO_COUNTERMODEL,
}


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports malformed arguments as one ``error:`` line, not a usage
    text; subparsers are made of the same class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _read_text(what: str, path: str) -> str:
    """The text of the file path, given as what, naming both if it is not
    UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{what} {path}: not a UTF-8 file: {exc}") from None


def _read_formula(arg: str) -> syntax.Formula:
    if arg.startswith("@"):
        arg = _read_text("formula file", arg[1:])
    return parse(arg)


def _load(load, option: str, path: str):
    """load(path), the file given as option, naming both if not JSON."""
    try:
        return load(path)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"{option} {path}: not a JSON file: {exc}") from None


def _read_corpus(path: str) -> list[syntax.Formula]:
    """The sentences of a corpus file, one a line."""
    corpus = []
    lines = _read_text("corpus file", path).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.split("#", 1)[0].strip():
            continue
        try:
            corpus.append(parse(line))
        except ParseError as exc:
            # The tokenizer also ends a line at a form feed, U+2028, ...
            col = exc.col and exc.col + sum(
                map(len, line.splitlines(True)[:exc.line - 1]))
            raise ParseError(f"{path}: {exc.message}", lineno, col,
                             exc.expected) from None
    return corpus


def _parse_assignment(text: str) -> dict:
    """The var=ind entries of --assign.  An entry without ``=``, one whose
    name is not a variable, or a variable's second entry is a usage error,
    never a verdict."""
    sigma = {}
    for item in filter(None, (s.strip() for s in text.split(","))):
        var, eq, ind = item.partition("=")
        var = var.strip()
        if not eq:
            raise UsageError(f"bad assignment entry {item!r}; expected var=ind")
        if not syntax.is_variable_name(var):
            raise UsageError(f"bad assignment entry {item!r}; {var!r} is not "
                             "a variable")
        if var in sigma:
            raise UsageError(f"bad assignment entry {item!r}; {var} is "
                             "already assigned")
        sigma[var] = ind.strip()
    return sigma


def _emit(payload: dict, human: str, as_json: bool):
    print(json.dumps(payload, sort_keys=True, indent=2) if as_json else human)


def _emit_verdict(verdict: Verdict, as_json: bool) -> int:
    if as_json:
        print(verdict.to_json())
    else:
        print(verdict.outcome)
        for warning in verdict.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if verdict.model is not None:
            print(f"world: {verdict.world}")
            print(f"assignment: {verdict.assignment}")
            print(json.dumps(semantics.model_to_dict(verdict.model),
                             sort_keys=True, indent=2))
    return _VERDICT_EXIT[verdict.outcome]


def _max_steps(args) -> int | None:
    if args.max_steps is not None:
        return args.max_steps
    env = os.environ.get("MONOTRICK_MAX_STEPS")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise UsageError("MONOTRICK_MAX_STEPS must be an integer, not "
                         f"{env!r}") from None


def _bound(option: str, value: int | None) -> int | None:
    """value, given as option, if it is None or at least 1.  Commands
    check their bounds after reading their other inputs and the step cap,
    where the search functions would check them."""
    if value is not None and value < 1:
        raise UsageError(f"{option} must be >= 1, got {value}")
    return value


def _cmd_parse(args) -> int:
    f = _read_formula(args.formula)
    _emit(syntax.to_dict(f), render(f), args.json)
    return EXIT_OK


def _cmd_classify(args) -> int:
    report = classify(_read_formula(args.formula))
    human = "\n".join(f"{k}: {v}" for k, v in report.to_dict().items())
    _emit(report.to_dict(), human, args.json)
    return EXIT_OK


def _cmd_translate(args) -> int:
    f = _read_formula(args.formula)
    variant = Variant(args.variant)
    if args.positivize:
        f = positivize(f, translations.fresh_letter(f, "p_pos"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = kripke_trick(f, variant, fresh_scheme(f))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    _emit({"formula": render(g)}, render(g), args.json)
    return EXIT_OK


def _cmd_validate(args) -> int:
    model = _load(load_model, "--model", args.model)
    violations = validate_model(model)
    payload = {"violations": [{"name": v.name, "witness": v.witness}
                              for v in violations]}
    human = "ok" if not violations else "\n".join(str(v) for v in violations)
    _emit(payload, human, args.json)
    return EXIT_OK if not violations else EXIT_NEGATIVE


def _load_checked_model(path: str, f: syntax.Formula) -> semantics.Model:
    model = _load(load_model, "--model", path)
    violations = validate_model(model)
    if violations:
        raise UsageError("model fails validation: " + str(violations[0]))
    check_letter_arities(model, f)
    return model


def _cmd_eval(args) -> int:
    f = _read_formula(args.formula)
    model = _load_checked_model(args.model, f)
    sigma = _parse_assignment(args.assign or "")
    value = semantics.evaluate(model, args.world, sigma, f)
    _emit({"value": value}, "true" if value else "false", args.json)
    return EXIT_OK if value else EXIT_NEGATIVE


def _cmd_check(args) -> int:
    f = _read_formula(args.formula)
    ok, witness = valid_in_model(_load_checked_model(args.model, f), f)
    if ok:
        _emit({"valid": True}, "valid", args.json)
        return EXIT_OK
    w, sigma = witness
    _emit({"valid": False, "world": w, "assignment": sigma},
          f"invalid at world {w} under {sigma}", args.json)
    return EXIT_NEGATIVE


def _cmd_sat(args) -> int:
    verdict = sat_bounded(
        _read_formula(args.formula),
        parse_frame_class(args.frame_class),
        max_steps=_max_steps(args),
        world_bound=_bound("--worlds", args.worlds),
        domain_bound=_bound("--domain", args.domain),
        mode=args.mode,
        eq_principle=args.eq,
        constant_domains=args.constant,
    )
    return _emit_verdict(verdict, args.json)


def _cmd_decide(args) -> int:
    verdict = decide_valid_over_frame(
        _load(load_frame, "--frame", args.frame),
        _read_formula(args.formula),
        max_steps=_max_steps(args),
        domain_bound=_bound("--domain", args.domain),
        mode=args.mode,
        eq_principle=args.eq,
        constant_domains=args.constant,
    )
    return _emit_verdict(verdict, args.json)


def _cmd_frame_props(args) -> int:
    report = frame_properties(_load(load_frame, "--frame", args.frame))
    human = "\n".join(f"{k}: {v}" for k, v in report.to_dict().items())
    _emit(report.to_dict(), human, args.json)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    report = trick_experiment(_read_corpus(args.corpus), Variant(args.variant),
                              _bound("--size", args.size))
    human = (f"variant {report.variant}: {report.agreement} agreements over "
             f"{report.corpus_size} formulas x {report.structure_count} "
             f"structures; {len(report.disagreements)} disagreements; "
             f"{len(report.skipped)} skipped; {report.wall_time:.2f}s")
    _emit(report.to_dict(), human, args.json)
    return EXIT_OK if not report.disagreements else EXIT_NEGATIVE


def _cmd_separate(args) -> int:
    report = search.eq_separation_search(
        max_steps=_max_steps(args),
        world_bound=_bound("--worlds", args.worlds),
        domain_bound=_bound("--domain", args.domain))
    d = report.to_dict()
    human = "\n".join(f"{key}: " + (
        "not found within bounds" if isinstance(d[key], str)
        else f"{d[key]['formula']} on frame {d[key]['frame']['access']} "
             f"({d[key]['mode']})")
        for key in ("eq3_not_eq2", "eq2_not_eq1"))
    _emit(d, human, args.json)
    return EXIT_OK


# The option every command has.
_JSON = (("--json",), {"action": "store_true", "help": "emit JSON output"})

# The step cap of the searching commands.
_MAX_STEPS = (("--max-steps",), {
    "type": int, "default": None,
    "help": "enumeration step cap (default: MONOTRICK_MAX_STEPS)"})

# name -> (help, arguments beyond --json); each argument is (flags,
# keyword arguments of add_argument).  build_parser builds argparse's
# parser from it and _read_args reads well-formed command lines with it.
_COMMANDS = {
    "parse": ("parse a formula and pretty-print it", [(("formula",), {})]),
    "classify": ("fragment report for a formula", [(("formula",), {})]),
    "translate": ("apply a Kripke-trick variant", [
        (("--variant",), {"required": True,
                          "choices": [v.value for v in Variant]}),
        (("--positivize",), {"action": "store_true", "help":
                             "replace negations by implications to a fresh "
                             "letter first"}),
        (("formula",), {}),
    ]),
    "validate": ("check model-file invariants",
                 [(("--model",), {"required": True})]),
    "eval": ("evaluate a formula at a world", [
        (("--model",), {"required": True}),
        (("--world",), {"required": True}),
        (("--assign",), {"default": "", "help": "e.g. x=a,y=b"}),
        (("formula",), {}),
    ]),
    "check": ("validity of a formula in a model", [
        (("--model",), {"required": True}),
        (("formula",), {}),
    ]),
    "sat": ("bounded satisfiability over a frame class", [
        (("--mode",), {"choices": semantics.MODES, "default": "modal"}),
        (("--class",), {"dest": "frame_class", "default": "", "help":
                        "comma-separated frame properties, all of which "
                        "hold (of several alt_n, the least), e.g. "
                        "reflexive,alt_2"}),
        (("--worlds",), {"type": int, "required": True}),
        (("--domain",), {"type": int, "required": True}),
        (("--eq",), {"choices": semantics.PRINCIPLES, "default": "eq3"}),
        (("--constant",), {"action": "store_true"}),
        _MAX_STEPS,
        (("formula",), {}),
    ]),
    "decide": ("validity over a fixed finite frame", [
        (("--frame",), {"required": True}),
        (("--domain",), {"type": int, "default": None}),
        (("--mode",), {"choices": semantics.MODES, "default": "modal"}),
        (("--eq",), {"choices": semantics.PRINCIPLES, "default": "eq3"}),
        (("--constant",), {"action": "store_true"}),
        _MAX_STEPS,
        (("formula",), {}),
    ]),
    "frame-props": ("frame property report",
                    [(("--frame",), {"required": True})]),
    "experiment": ("translation-faithfulness experiment over a corpus file", [
        (("--variant",), {"required": True, "choices": [
            v.value for v in translations.COMPANIONS]}),
        (("--size",), {"type": int, "required": True}),
        (("corpus",), {}),
    ]),
    "separate": ("search small frames for equality-principle separations", [
        (("--worlds",), {"type": int, "default": 3}),
        (("--domain",), {"type": int, "default": 2}),
        _MAX_STEPS,
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser."""
    parser = _ArgumentParser(
        prog="monotrick",
        description="Kripke-trick translations, Kripke semantics with "
                    "equality principles, and bounded finite-model search.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in (_JSON, *arguments):
            p.add_argument(*flags, **kwargs)
    return parser


def _read_args(command: str, tokens: list) -> argparse.Namespace | None:
    """The namespace argparse gives for ``[command, *tokens]``, read
    straight from the command table when every token is an exact long
    option (each at most once, a value option followed by its value), a
    value or the one positional, and every type, choice and required
    option checks out; None for anything else, which argparse then
    parses or explains.  A token starting with ``-`` is never taken as a
    value or the positional."""
    options, positional = {}, []
    values = {"command": command}
    for flags, kwargs in (_JSON, *_COMMANDS[command][1]):
        if not flags[0].startswith("-"):
            positional.append(flags[0])
            continue
        dest = kwargs.get("dest", flags[0][2:].replace("-", "_"))
        options[flags[0]] = (dest, kwargs)
        values[dest] = (False if kwargs.get("action") == "store_true"
                        else kwargs.get("default"))
    seen = set()
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            if not positional:
                return None
            values[positional.pop()] = token
            continue
        if token not in options or token in seen:
            return None
        seen.add(token)
        dest, kwargs = options[token]
        if kwargs.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if positional or any(kwargs.get("required") and flag not in seen
                         for flag, (_, kwargs) in options.items()):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    args = _read_args(command, argv[1:]) if command in _COMMANDS else None
    if args is None:
        args = build_parser().parse_args(argv)
    # Looked up per call, so that the command functions can be replaced.
    func = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        code = func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit: let it write nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ParseError, UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not a verdict: keep it off exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
