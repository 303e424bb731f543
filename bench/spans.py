"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` the id of the benchmark op that
caused it. Spans stay in a list until the run ends and are then written
out in one go, so recording costs one list append per call.

The library is instrumented from outside: ``Tracer.patched`` swaps the
names each caller module binds (``pipeline``, ``stats``, ``oracle`` and
``rounding`` import by name) for timing wrappers, and restores them on
exit, so untraced ops run the unmodified functions.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (caller module, bound name, span name). The span name is the layer that
# defines the function, followed by the function's name.
PATCHES = (
    ("pipeline", "accumulate_stats", "stats.accumulate_stats"),
    ("pipeline", "fit_step_size", "quantizer.fit_step_size"),
    ("pipeline", "optq_compensate", "quantizer.optq_compensate"),
    ("pipeline", "optimize_rounding", "rounding.optimize_rounding"),
    ("pipeline", "exact_error", "oracle.exact_error"),
    ("pipeline", "attention_forward", "model.attention_forward"),
    ("pipeline", "loss", "objectives.loss"),
    ("stats", "attention_forward", "model.attention_forward"),
    ("oracle", "attention_forward", "model.attention_forward"),
    ("rounding", "loss", "objectives.loss"),
    ("rounding", "loss_gradient", "objectives.loss_gradient"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, modules: dict, op: int):
        """Record spans for ``op`` while the library names are wrapped."""
        saved = []
        self.op = op
        try:
            for module, attr, name in PATCHES:
                mod = modules[module]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self.op = -1

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "op"])
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([sid, name, repr(start), repr(end), parent, op])


class SpanSummary:
    """Totals over the spans of a set of ops."""

    def __init__(self, spans, ops):
        ops = set(ops)
        self.n_ops = len(ops)
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self._stage: dict[tuple[str, str], int] = {}
        child_time = [0.0] * len(spans)
        stage = [""] * len(spans)
        for sid, (name, start, end, parent, op) in enumerate(spans):
            # Parents are recorded before their children, so a parent's
            # stage is known by the time a child is visited.
            if parent >= 0:
                child_time[parent] += end - start
                stage[sid] = stage[parent] or name
        for sid, (name, start, end, parent, op) in enumerate(spans):
            if op not in ops:
                continue
            dur = end - start
            self.total[name] = self.total.get(name, 0.0) + dur
            self.calls[name] = self.calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self.self_time[layer] = self.self_time.get(layer, 0.0) + dur - child_time[sid]
            key = (stage[sid], name)
            self._stage[key] = self._stage.get(key, 0) + 1

    def per_op_s(self, *names: str) -> float:
        return sum(self.total.get(n, 0.0) for n in names) / self.n_ops

    def per_op_calls(self, *names: str) -> float:
        return sum(self.calls.get(n, 0) for n in names) / self.n_ops

    def calls_within(self, stage: str, name: str) -> int:
        """Calls of ``name`` made inside the op-level span ``stage``."""
        return self._stage.get((stage, name), 0)

    def self_per_op(self) -> dict[str, float]:
        return {layer: t / self.n_ops for layer, t in sorted(self.self_time.items())}
