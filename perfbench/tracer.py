"""Outside-in tracer: times the public functions of each graphentropy module.

Every traced function is replaced, at every module binding that holds it, by
a wrapper that records one span (name, start, end, parent, op id) around the
original call.  Wrappers only time calls: arguments and results pass through
untouched, so every certificate check and validation still runs.  Spans stay
in memory until the op ends; then its self times (span time minus the time
covered by direct child spans) are computed and its spans appended to a file,
so an op killed later loses nothing already recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute).  Several functions may share one span name;
# their spans are then reported together, as for the combinatorial bounds.
TARGETS = (
    ("cli", "graphentropy.cli", "main"),
    ("lp.solve", "graphentropy.lp", "solve"),
    ("lp.verify_certificates", "graphentropy.lp", "verify_certificates"),
    ("bounds.shannon_entropy", "graphentropy.bounds", "shannon_entropy"),
    ("bounds.validate_entropy_function", "graphentropy.bounds", "validate_entropy_function"),
    ("bounds.closure_map", "graphentropy.bounds", "closure_map"),
    ("bounds.fractional_cover", "graphentropy.bounds", "fractional_clique_cover_number"),
    ("bounds.combinatorial", "graphentropy.bounds", "max_matching"),
    ("bounds.combinatorial", "graphentropy.bounds", "clique_cover_number"),
    ("bounds.combinatorial", "graphentropy.bounds", "transversal_number"),
    ("bounds.entropy_bracket", "graphentropy.bounds", "entropy_bracket"),
    ("graphs.automorphisms", "graphentropy.graphs", "automorphisms"),
    ("graphs.parse_graph", "graphentropy.graphs", "parse_graph"),
    ("enumeration.canonical_form", "graphentropy.enumeration", "canonical_form"),
    ("enumeration.isomorphism_classes", "graphentropy.enumeration", "isomorphism_classes"),
    ("enumeration.bracket_with_fallback", "graphentropy.enumeration", "bracket_with_fallback"),
    ("structure.find_reducible_set", "graphentropy.structure", "find_reducible_set"),
    ("guessing.compatibility_graph", "graphentropy.guessing", "compatibility_graph"),
    ("guessing.max_clique", "graphentropy.guessing", "CompatibilityGraph.max_clique_mask"),
    ("guessing.validate", "graphentropy.guessing", "GuessingCode.validate"),
)

# Each span name is reported as <name>.calls and <name>.self_s; the counters
# are kept by the AFTER hooks below.
SPAN_METRICS = sorted({name for name, _, _ in TARGETS})
COUNTERS = ("lp.solve.rows", "lp.solve.vars", "lp.solve.optimal",
            "guessing.words", "guessing.edges")


class Tracer:
    """In-memory span store for the current op of one traced worker."""

    def __init__(self, path: str):
        self.path = path
        self.start_op("")

    def start_op(self, op: str) -> None:
        self.op = op
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def finish_op(self) -> dict:
        """calls and self_s per span name, plus the counters, of the current
        op; its spans are appended to the file as one JSON array per line:
        name, start, end, parent index within the op, op id."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_METRICS, 0)
        self_s = dict.fromkeys(SPAN_METRICS, 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counters)
        with open(self.path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
        return out


def _after_solve(tracer: Tracer, args, kwargs, result) -> None:
    lp = args[0] if args else kwargs["lp"]
    tracer.count("lp.solve.rows", len(lp.rows))
    tracer.count("lp.solve.vars", lp.num_vars)
    if result.status == "optimal":
        tracer.count("lp.solve.optimal", 1)


def _after_compatibility_graph(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("guessing.words", len(result))
    tracer.count("guessing.edges", result.edge_count())


AFTER = {
    ("graphentropy.lp", "solve"): _after_solve,
    ("graphentropy.guessing", "compatibility_graph"): _after_compatibility_graph,
}


def _wrap(fn, name: str, tracer: Tracer, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target at each graphentropy module binding that holds it.

    Functions are matched by identity, so a name imported into another module
    (lp.solve is also bounds.solve) is wrapped there too.  Methods are
    wrapped once, on their class.
    """
    for name, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        after = AFTER.get((module_name, attr))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(getattr(cls, meth), name, tracer, after))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(original, name, tracer, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "graphentropy":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
