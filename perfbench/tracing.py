"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: :meth:`Tracer.patch_function`
and :meth:`Tracer.patch_method` replace a public function or method of the
``repro`` package with a wrapper that times each call.  Nothing inside
``src/`` is instrumented, and :meth:`Tracer.restore` puts every original
back.

Each span carries a name, start, end, the span that caused it (the caller
on the same thread) and a shared id: a root span takes the id its
``trace_id`` callback derives from the call (the point index of a sweep, the
request id of a served request), or its own span id, and child spans
inherit their parent's.  A span wrapped with ``adopt=True`` (a call that
hands its work to worker threads) is also the parent of spans those
threads start with nothing of their own open.  Spans stay in memory until
the run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: derives extra attributes of a span from ``(args, kwargs, result)``
AttrsFn = Callable[[tuple, dict, object], Dict[str, object]]
#: derives the shared id of a root span from ``(args, kwargs)``
TraceIdFn = Callable[[tuple, dict], Optional[int]]


@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for a, b in clipped:
        if b <= a:
            continue
        if cur_start is None or a > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - union_length(
            children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


class Tracer:
    """Records spans around patched ``repro`` functions and methods.

    ``enabled`` can be switched off around work that is not part of the
    measurement (oracles, correctness checks): the wrappers then call
    straight through without recording.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.enabled = True
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        #: the open ``adopt=True`` span and the id of its thread
        self._adopter: Optional[Tuple[Span, int]] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, *,
             attrs: Optional[AttrsFn] = None,
             trace_id: Optional[TraceIdFn] = None,
             adopt: bool = False) -> Callable:
        """A wrapper of ``fn`` that records one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            adopter = self._adopter
            if stack:
                parent: Optional[int] = stack[-1].span_id
                shared = stack[-1].trace_id
            elif adopter is not None and adopter[1] != threading.get_ident():
                parent, shared = adopter[0].span_id, adopter[0].trace_id
            else:
                parent = None
                derived = trace_id(args, kwargs) if trace_id else None
                shared = span_id if derived is None else derived
            span = Span(span_id, name, self.clock(), 0.0, parent, shared)
            stack.append(span)
            if adopt:
                self._adopter = (span, threading.get_ident())
            try:
                result = fn(*args, **kwargs)
            finally:
                if adopt:
                    self._adopter = adopter
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
                if "trace_id" in span.attrs:
                    span.trace_id = int(span.attrs.pop("trace_id"))
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module that imported it.

        Callers that did ``from module import attr`` hold their own binding,
        so each ``repro.*`` module whose global ``attr`` is the same object
        is patched too.
        """
        original = getattr(module, attr)
        traced = self.wrap(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if getattr(mod, "__dict__", {}).get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Wrap method ``cls.attr`` (plain, inherited or classmethod)."""
        raw = cls.__dict__.get(attr)
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(raw.__func__, name, **options))
        else:
            traced = self.wrap(getattr(cls, attr), name, **options)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
