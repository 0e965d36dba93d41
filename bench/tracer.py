"""Outside-in tracing: spans around combanal's public functions, installed
from the benchmark without touching the package.

Every public module-level function of every combanal module is wrapped,
and the wrapper replaces each binding of it: the defining module's
attribute, every ``from .x import f`` copy in another module, and values
of module-level dicts such as ``cli.HANDLERS``.  The ``MultiPoly`` ring
operations are wrapped on the class.  ``lru_cache`` objects are left
alone, since a wrapper on their recursive calls would double the stack
depth; their time counts towards the caller.

A span is (name, parent, start, end) in four parallel arrays, kept in
memory and summarised when the session ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from typing import Callable, Dict, List, Optional

REQUEST = "bench.request"

# MultiPoly methods traced on the class, and the span each one records.
# __sub__ and __rsub__ reach __add__, and __pow__ reaches __mul__.
MULTIPOLY_SPANS = {
    "__mul__": "exactcore.mul",
    "__rmul__": "exactcore.mul",
    "__add__": "exactcore.add",
    "__radd__": "exactcore.add",
    "truncate": "exactcore.truncate",
    "exact_div": "exactcore.exact_div",
    "substitute": "exactcore.substitute",
    "diff": "exactcore.diff",
}


def _count_mul(counts: Dict[str, int], args, result) -> None:
    left, right = args
    width = len(right.terms) if hasattr(right, "terms") else 1
    counts["exactcore.mul.pairs_formed"] += len(left.terms) * width
    counts["exactcore.mul.terms_out"] += len(result.terms)


def _count_truncate(counts: Dict[str, int], args, result) -> None:
    counts["exactcore.truncate.terms_in"] += len(args[0].terms)
    counts["exactcore.truncate.terms_kept"] += len(result.terms)


def _count_linsolve(counts: Dict[str, int], args, result) -> None:
    a = args[0]
    counts["exactcore.linsolve_rational.cells"] += len(a) * (len(a[0]) + 1) if a else 0


COUNTERS: Dict[str, Callable] = {
    "exactcore.mul": _count_mul,
    "exactcore.truncate": _count_truncate,
    "exactcore.linsolve_rational": _count_linsolve,
}

COUNT_NAMES = (
    "exactcore.mul.pairs_formed",
    "exactcore.mul.terms_out",
    "exactcore.truncate.terms_in",
    "exactcore.truncate.terms_kept",
    "exactcore.linsolve_rational.cells",
)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counts: Dict[str, int] = {name: 0 for name in COUNT_NAMES}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counts, clock = self.stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self, modules: List[types.ModuleType], multipoly: type, command_result: type) -> None:
        """Wrap every public function of `modules` and rebind each copy."""
        wrapped: Dict[Callable, Callable] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = "cli.handler" if layer == "cli" and attr.startswith("cmd_") else f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(obj, name, COUNTERS.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrapped:
                            obj[key] = wrapped[value]
        for attr, name in MULTIPOLY_SPANS.items():
            original = vars(multipoly)[attr]
            if original not in wrapped:
                wrapped[original] = self.wrap(original, name, COUNTERS.get(name))
            setattr(multipoly, attr, wrapped[original])
        command_result.render = self.wrap(vars(command_result)["render"], "cli.render")

    def summary(self) -> Dict[str, float]:
        """Per-function calls and self time, per-layer entries and self
        time, and the counters, from the spans recorded so far."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = array("q", (e - s for s, e in zip(self.span_start, self.span_end)))
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out: Dict[str, float] = {}
        for i in range(n):
            name = self.names[names[i]]
            layer = layer_of[names[i]]
            self_s = (dur[i] - child[i]) / 1e9
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
            p = parents[i]
            if p < 0 or layer_of[names[p]] != layer:
                out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        out.update(self.counts)
        terms_in = self.counts["exactcore.truncate.terms_in"]
        out["exactcore.truncate.kept_ratio"] = (
            self.counts["exactcore.truncate.terms_kept"] / terms_in if terms_in else 0.0
        )
        return out
