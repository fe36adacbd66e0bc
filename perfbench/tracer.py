"""Spans and counters recorded around curvesearch's public functions.

The tracer patches attributes of the curvesearch modules and classes from
the outside (the package's sources are not edited) and restores them on
uninstall.  It is meant for single-process runs: spans are kept on one
stack, so a span's parent is the span that was open when it started.
Calls made while no span is open pass through unrecorded unless the
wrapper is a root, so the benchmark's own checks stay out of the trace.

A span is (id, parent id, layer, name, start, end).  A span's self time is
its duration minus the time its direct children cover; since spans nest
strictly in one thread, the children never overlap and their coverage is
the sum of their durations.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# A hook sees (tracer, span, args, result) after the wrapped call returns
# and may add counters; span is None for counter-only wrappers.
Hook = Callable[["Tracer", "Span | None", tuple, Any], None]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: defaultdict = field(default_factory=lambda: defaultdict(float))
    _stack: list[Span] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, layer: str, name: str):
        s = self.open(layer, name)
        try:
            yield s
        finally:
            self.close(s)

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # -- patching --------------------------------------------------------

    def wrap(self, owner: object, attr: str, layer: str, name: str, *,
             span: bool = True, root: bool = False, hook: Hook | None = None
             ) -> None:
        """Replace owner.attr by a wrapper that counts `name.calls` and,
        with span=True, records a span; `hook` adds further counters."""
        original = getattr(owner, attr)
        tracer = self
        calls = f"{name}.calls"
        stack = self._stack

        if span:
            def wrapper(*args, **kwargs):
                if not (stack or root):
                    return original(*args, **kwargs)
                s = tracer.open(layer, name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(s)
                tracer.counters[calls] += 1
                if hook is not None:
                    hook(tracer, s, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if not stack:
                    return result
                tracer.counters[calls] += 1
                if hook is not None:
                    hook(tracer, None, args, result)
                return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.by_name(name))

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += s.self_s
        return dict(out)

    def self_by_name(self, name: str) -> float:
        return sum(s.self_s for s in self.by_name(name))
