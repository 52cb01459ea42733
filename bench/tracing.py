"""Span tracing from outside the package.

A Tracer rebinds named callables for the length of a ``with`` block and
records one span per call: layer name, start, end, parent span and trial
index. Names are rebound where the caller looks them up, so a function
imported with ``from .x import f`` is rebound in the importing module, and a
function reached as ``x.f`` is rebound on module ``x``. Every name is restored
on exit, also when the block raises.

Spans are kept in memory; self time of a span is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``getattr(owner, attr)`` is recorded as ``layer``.

    count, when given, maps (args, result) to ``(key, amount)``, a unit of
    work added to the span.
    """

    owner: object
    attr: str
    layer: str
    count: Callable | None = None


@dataclass(frozen=True)
class Span:
    id: int
    layer: str
    start: float
    end: float
    parent: int | None
    trial: int | None
    count: tuple | None = None


TRIAL_LAYER = "runner.trial"


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for t in self.targets:
                original = getattr(t.owner, t.attr)
                self._saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, target: Target):
        tracer = self
        is_trial = target.layer == TRIAL_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, trial = stack[-1] if stack else (tracer.root, None)
            if is_trial:
                trial = args[2]  # runner.run_trial(cfg, inputs, trial)
            sid = next(tracer._ids)
            stack.append((sid, trial))
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                count = target.count(args, out) if target.count is not None and out is not None else None
                tracer.spans.append(Span(sid, target.layer, start, end, parent, trial, count))

        return traced

    @contextlib.contextmanager
    def region(self, layer: str, trial: int | None = None, root: bool = False):
        """Span around work the benchmark itself runs.

        A root region also parents the spans of worker threads, whose own
        stacks are empty.
        """
        stack = self._stack()
        parent = stack[-1][0] if stack else self.root
        sid = next(self._ids)
        stack.append((sid, trial))
        if root:
            self.root = sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            self.spans.append(Span(sid, layer, start, end, parent, trial))


def self_times(spans) -> dict[str, float]:
    """Total self time per layer: each span minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        reach = s.start
        for c0, c1 in sorted(children.get(s.id, ())):
            c0, c1 = max(c0, reach), min(c1, s.end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        totals[s.layer] += (s.end - s.start) - covered
    return dict(totals)


def counts(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.count is not None:
            key, amount = s.count
            totals[key] += amount
    return dict(totals)
