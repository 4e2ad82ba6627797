"""Outside-in span recording for the benchmark's traced runs.

The program under test is never edited: a traced run replaces public
functions and methods with thin wrappers, each wrapper recording one
span (name, start, end, parent span, trace id, attributes) around the
original call.  Spans are kept in memory and written out when the run
ends.  A trace id is the id of the root span, so every span caused by
one build or one request shares it.

Also here: the interval arithmetic behind self time, and the tail
percentile rule every timing report uses.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time


class Span:
    """One timed call.  ``parent`` is the enclosing span's id or None."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "trace",
                 "attrs")

    def __init__(self, span_id, name, start, parent, trace, attrs=None):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.span_id, "name": self.name,
                "start": self.start, "end": self.end,
                "parent": self.parent, "trace": self.trace,
                "attrs": self.attrs}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["id"], data["name"], data["start"],
                   data["parent"], data["trace"], data.get("attrs"))
        span.end = data["end"]
        return span


class Recorder:
    """Thread-aware span recorder plus the patches that feed it.

    Each thread keeps its own stack of open spans, so concurrent
    requests in a threaded server nest correctly.  ``id_prefix`` keeps
    ids from two processes (benchmark and daemon) apart when their
    spans are merged.
    """

    def __init__(self, id_prefix: str = ""):
        self.spans = []
        self._ids = itertools.count(1)
        self._prefix = id_prefix
        self._local = threading.local()
        self._patches = []
        #: Wrappers pass calls straight through while this is False.
        self.enabled = True

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span_id = f"{self._prefix}{next(self._ids)}"
        parent = stack[-1] if stack else None
        span = Span(span_id, name, time.perf_counter(),
                    parent.span_id if parent else None,
                    parent.trace if parent else span_id)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def innermost(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, fn, name: str, note=None):
        """``fn`` wrapped in a span called ``name``.

        ``note(span, args, kwargs, result)`` may add attributes after
        the call.  A call made directly inside a span of the same name
        (an overridden method calling ``super()``, a method recursing
        on itself) is passed straight through, so it counts once.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            top = recorder.innermost()
            if top is not None and top.name == name:
                return fn(*args, **kwargs)
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(span, args, kwargs, result)
                return result
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                recorder.close(span)

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def wrap_generator(self, fn, name: str):
        """Wrap a generator function: one span per produced item, so
        the consumer's work between items is not counted."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not recorder.enabled:
                yield from inner
                return
            while True:
                span = recorder.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    recorder.close(span)
                    return
                except BaseException as exc:
                    span.attrs["error"] = type(exc).__name__
                    recorder.close(span)
                    raise
                recorder.close(span)
                yield item

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    # -- patches -------------------------------------------------------
    def patch(self, module: str, owner: str, attr: str, name: str,
              note=None, generator: bool = False) -> None:
        """Replace ``module[.owner].attr`` with a span-recording wrapper.

        ``owner`` names a class inside ``module`` (or is None for a
        module-level binding).  A class is only patched where it
        defines ``attr`` itself, so an inherited method is wrapped
        once, at its definition.  A lookup site the program no longer
        has (a module, class or binding removed by a later change) is
        skipped: its layer's metrics then read 0 instead of the traced
        run failing.
        """
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError:
            return
        if owner is not None:
            target = getattr(target, owner, None)
            if target is None or attr not in vars(target):
                return
            original = vars(target)[attr]
        else:
            original = getattr(target, attr, None)
            if original is None:
                return
        if getattr(original, "__wrapped_by_bench__", False):
            return
        wrapper = (self.wrap_generator(original, name) if generator
                   else self.wrap(original, name, note))
        setattr(target, attr, wrapper)
        self._patches.append((target, attr, original))

    def unpatch(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)


def dump_spans(spans, path) -> None:
    with open(path, "w") as handle:
        json.dump([span.to_dict() for span in spans], handle)


def load_spans(path) -> list:
    with open(path) as handle:
        return [Span.from_dict(item) for item in json.load(handle)]


# ----------------------------------------------------------------------
# Interval arithmetic.
# ----------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_index(spans) -> dict:
    """``{span id: [child spans]}``."""
    index = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


def self_time(span: Span, children: list) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; children that run
    concurrently (two threads under one parent) are counted once where
    they overlap.
    """
    clipped = [(max(child.start, span.start), min(child.end, span.end))
               for child in children]
    return span.duration - union_length(clipped)


# ----------------------------------------------------------------------
# Tail percentile.
# ----------------------------------------------------------------------
#: Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10


def tail(values):
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it.

    Returns ``(value, percentile, count)``: the ``TAIL_BEYOND + 1``-th
    largest sample, the percentile it sits at (``100 * (n - 10) / n``)
    and the sample count ``n``.  ``(nan, nan, n)`` when ``n`` is too
    small to have a tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return math.nan, math.nan, n
    return (ordered[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) / n, n)


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
