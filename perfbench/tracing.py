"""Per-layer tracing from outside the program.

Wrappers are bound in place of a layer's public functions, in every
module that imported the name, and keep per-function aggregates only:
calls, generator yields, total and self time.  Self time is a span's
duration minus the time covered by spans that opened inside it.  A
generator is timed inside each ``next()``, so its self time is the
enumeration work alone.  Aggregates, not span records, keep memory
bounded however many per-point calls a query makes.
"""

from __future__ import annotations

import functools
import time

# (metric name, module that defines it, attribute, "call" | "gen",
#  modules whose binding is replaced; None means every module that holds it)
TARGETS = (
    ("syntax.parse", "syntax", "parse", "call", None),
    # syntax itself recurses through free_variables; count the callers' calls.
    ("syntax.free_variables", "syntax", "free_variables", "call",
     ("semantics", "search")),
    ("translations.kripke_trick", "translations", "kripke_trick", "call", None),
    ("translations.build_companion_model", "translations",
     "build_companion_model", "call", None),
    ("semantics.evaluate", "semantics", "evaluate", "call", None),
    ("semantics.valid_in_model", "semantics", "valid_in_model", "call", None),
    ("semantics.validate_model", "semantics", "validate_model", "call", None),
    ("semantics.model_to_dict", "semantics", "model_to_dict", "call", None),
    ("search.frame_matches", "search", "frame_matches", "call", None),
    ("search.enumerate_frames", "search", "enumerate_frames", "gen", None),
    ("search.enumerate_models", "search", "enumerate_models", "gen", None),
    ("search.sat_bounded", "search", "sat_bounded", "call", None),
    ("search.decide_valid_over_frame", "search", "decide_valid_over_frame",
     "call", None),
    ("search.eq_separation_search", "search", "eq_separation_search", "call",
     None),
    # search recurses through classical_evaluate; count the experiment's calls.
    ("search.classical_evaluate", "search", "classical_evaluate", "call",
     ("experiments",)),
    ("experiments.trick_experiment", "experiments", "trick_experiment", "call",
     None),
    ("experiments.enumerate_structures", "experiments", "enumerate_structures",
     "gen", None),
    ("cli.main", "cli", "main", "call", ("cli",)),
)


class Stat:
    __slots__ = ("calls", "yielded", "total_s", "self_s", "worlds")

    def __init__(self):
        self.calls = self.yielded = self.worlds = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    """Installs wrappers on the program's modules and aggregates spans."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, e.g. "search"
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.stats["search.verdict_to_json"] = Stat()
        self.active = False
        self._stack: list[list[float]] = []
        self._undo: list = []

    def reset(self):
        for stat in self.stats.values():
            stat.__init__()

    def snapshot(self) -> dict:
        return {name: (s.calls, s.yielded, s.total_s, s.self_s, s.worlds)
                for name, s in self.stats.items()}

    # -- spans ---------------------------------------------------------------

    def _open(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, stat: Stat, frame, started: float):
        elapsed = time.perf_counter() - started
        self._stack.pop()
        stat.total_s += elapsed
        stat.self_s += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def _call_wrapper(self, name, fn):
        stat = self.stats[name]
        counts_worlds = name == "translations.build_companion_model"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame, started = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stat, frame, started)
            stat.calls += 1
            if counts_worlds:
                stat.worlds += len(result[0].frame.worlds)
            return result
        return wrapper

    def _gen_wrapper(self, name, fn):
        stat = self.stats[name]

        def timed(gen):
            try:
                while True:
                    frame, started = self._open()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(stat, frame, started)
                    stat.yielded += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.active:
                return gen
            stat.calls += 1
            return timed(gen)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        for name, home, attr, kind, where in TARGETS:
            original = getattr(self.modules[home], attr)
            make = self._call_wrapper if kind == "call" else self._gen_wrapper
            wrapper = make(name, original)
            targets = self.modules.values() if where is None else \
                [self.modules[m] for m in where]
            for module in targets:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        verdict = self.modules["search"].Verdict
        self._undo.append((verdict, "to_json", verdict.to_json))
        verdict.to_json = self._call_wrapper("search.verdict_to_json",
                                             verdict.to_json)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
