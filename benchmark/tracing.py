"""Span tracing of fjoin's public functions, installed from outside the package.

Each traced function is replaced, under every name it has in the fjoin
package and its modules, by a wrapper that records a span ``(name, start,
end, parent)``. Because fjoin's own modules look those names up at call
time, the program's internal calls are traced too, not only the benchmark's.

Spans are kept only inside a round (``begin_round`` .. ``end_round``); calls
made outside a round run untraced. At the end of each round its spans are
folded into per-function totals. The spans of the first round are kept in
memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (module, function) pairs: the layers of fjoin and their public entry points.
TRACED = (
    ("graph", "parse_edge_list"),
    ("graph", "from_edges"),
    ("graph", "degrees"),
    ("graph", "generate"),
    ("derived", "derive"),
    ("joins", "f_join"),
    ("indices", "invariants"),
    ("indices", "f_index"),
    ("indices", "power_sum_edge_form"),
    ("closed_form", "theorem_value"),
    ("closed_form", "audit_examples"),
    ("harness", "verify_pair"),
    ("harness", "verify_corpus"),
    ("cli", "main"),
)

FUNCTIONS = tuple(f"{module}.{function}" for module, function in TRACED)

# Work counts taken at layer boundaries, each from a call's arguments and result.
WORK_COUNTS = {
    "graph.from_edges": ("edges", lambda args, result: result.m),
    "graph.parse_edge_list": ("edges", lambda args, result: result.m),
    "derived.derive": ("edges_out", lambda args, result: result.graph.m),
    "joins.f_join": ("edges_out", lambda args, result: result.graph.m),
    "indices.invariants": ("edges_in", lambda args, result: args[0].m),
}

# Counted by ``workloads.run_cli``, which holds the captured stdout.
STDOUT_BYTES = "cli.main.stdout_bytes"

COUNTS = tuple(f"{name}.{label}" for name, (label, _) in WORK_COUNTS.items()) + (STDOUT_BYTES,)

ROUND = "round"


class Tracer:
    """Records spans of the wrapped fjoin functions during rounds."""

    def __init__(self):
        self._spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._derived_keys: set = set()
        self.first_round: list | None = None
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.derive_distinct = 0

    def install(self, package) -> None:
        """Wrap every function in ``TRACED`` wherever ``package`` exposes it."""
        modules = {
            module: importlib.import_module(f"{package.__name__}.{module}") for module, _ in TRACED
        }
        owners = [package, *modules.values()]
        for module, function in TRACED:
            name = f"{module}.{function}"
            if function == "from_edges":
                graph_cls = modules["graph"].Graph
                original = vars(graph_cls)["from_edges"].__func__
                self._patch(graph_cls, "from_edges", classmethod(self._wrap(name, original)))
                continue
            original = getattr(modules[module], function)
            wrapped = self._wrap(name, original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack
        work = WORK_COUNTS.get(name)
        count_key = f"{name}.{work[0]}" if work else None
        is_derive = name == "derived.derive"

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if work:
                self.counts[count_key] += work[1](args, result)
            if is_derive and (args[0], args[1]) not in self._derived_keys:
                self._derived_keys.add((args[0], args[1]))
                self.derive_distinct += 1
            return result

        return functools.wraps(fn)(traced)

    def begin_round(self) -> None:
        self._spans.clear()
        self._derived_keys.clear()
        self._stack.append(0)
        self._spans.append((ROUND, perf_counter(), None, -1))

    def end_round(self) -> float:
        """Close the round's root span, fold its spans in, return its duration."""
        end = perf_counter()
        self._stack.pop()
        start = self._spans[0][1]
        self._spans[0] = (ROUND, start, end, -1)
        covered = [0.0] * len(self._spans)
        for name, s, e, parent in self._spans[1:]:
            covered[parent] += e - s
        for index, (name, s, e, parent) in enumerate(self._spans):
            if index:
                self.calls[name] += 1
                self.self_s[name] += (e - s) - covered[index]
        if self.first_round is None:
            self.first_round = list(self._spans)
        return end - start

    def add(self, key: str, value: int) -> None:
        self.counts[key] += value

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "derive_distinct": self.derive_distinct,
        }

    def write(self, path) -> None:
        """Write the first round's spans, one JSON array per line, times from round start."""
        spans = self.first_round or []
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(spans):
                row = [index, name, round(start - origin, 9), round(end - origin, 9), parent]
                handle.write(json.dumps(row) + "\n")
