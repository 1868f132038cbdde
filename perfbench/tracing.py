"""Outside-in span tracing of the ltvmpc layers, from the benchmark's files.

A target names a public function by the namespace its caller looks it up
in (`sim.build_controller` is patched in `ltvmpc.sim`, where `run_scenario`
finds it). Each call through a patched name records one span: name, start,
end, parent span, plus attributes an observer reads off the arguments and
the result. Spans stay in memory until `dump` writes them, under the run id
that all spans of one pass share.
A target whose module or attribute no longer exists is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A public name to wrap: `attr` may be `Class.method`."""

    span: str  # span name, also the prefix of its layer metrics
    module: str
    attr: str
    observe: Callable = None  # (args, kwargs, result) -> dict of attributes


class Tracer:
    """Records spans of one run; not thread-safe, the workload is serial."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []
        self._patched = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> list:
        """Patch every target that exists; returns the span names of the absent ones."""
        absent = []
        for t in targets:
            owner_path, _, leaf = t.attr.rpartition(".")
            try:
                owner = importlib.import_module(t.module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                absent.append(t.span)
                continue
            self._patched.append((owner, leaf, fn))
            setattr(owner, leaf, self.wrap(t.span, fn, t.observe))
        return absent

    def uninstall(self):
        for owner, leaf, fn in reversed(self._patched):
            setattr(owner, leaf, fn)
        self._patched.clear()

    def dump(self, path, **extra):
        doc = {"run_id": self.run_id, "spans": self.spans, **extra}
        with open(path, "w") as f:
            json.dump(doc, f)


def self_times(spans) -> list:
    """Duration of each span minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo = s[1]
        for a, b in sorted(kids):
            a, b = max(a, lo), min(b, s[2])
            if b > a:
                covered += b - a
                lo = b
        out.append((s[2] - s[1]) - covered)
    return out
