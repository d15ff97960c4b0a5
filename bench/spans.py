"""Span tracing around the package's public functions, from the outside.

Each traced function is replaced, where its callers look it up, by a
wrapper that opens a span (name, start, end, parent) while a root span is
open. Spans are kept in memory and written out by :meth:`Tracer.save`. A
span's self time is its duration minus the durations of its direct
children; spans nest strictly on the one thread that runs the benchmark,
so the children never overlap and the self times of all spans under a root
add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Parallel arrays, one entry per closed span.
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._order: list[int] = []
        # Open spans: [index, name id, start, child time].
        self._stack: list[list] = []
        self._next = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset_totals(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.root_s.clear()

    def _open(self, name_id: int) -> None:
        index = self._next
        self._next += 1
        self._stack.append([index, name_id, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        index, name_id, start, child = self._stack.pop()
        duration = end - start
        name = self.names[name_id]
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        else:
            self.root_s[name] += duration
        # Closed spans are stored in close order; ``index`` is open order.
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self._order.append(index)

    @contextmanager
    def root(self, name: str):
        """A top-level span; nested wrappers record only inside one."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._open(self._id(name))
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, fn, count=None):
        """Wrapper recording a span per call while a root is open.

        ``count(args, kwargs, result)`` returns {counter: increment}.
        """
        name_id = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; :meth:`unpatch` restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        """Write every closed span, in open order, as a compressed .npz:
        ``names``, and per span ``name`` (index into names), ``start`` and
        ``end`` (perf_counter seconds) and ``parent`` (span index, -1 at a
        root)."""
        order = np.argsort(np.asarray(self._order, dtype=np.int64), kind="stable")
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32)[order],
            start=np.asarray(self.span_start, dtype=np.float64)[order],
            end=np.asarray(self.span_end, dtype=np.float64)[order],
            parent=np.asarray(self.span_parent, dtype=np.int64)[order],
        )
