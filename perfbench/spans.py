"""In-memory span recording through instance-level wrappers.

A span is ``[name, start, end, parent, run, work]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``run`` groups the spans of
one program or session, and ``work`` is the size argument of the wrapped
call (outputs for ``run``, firings for a step's ``execute``).  Spans nest
through a stack, so one :class:`Tracer` must only see sequential calls;
concurrent clients each get their own.

Wrappers are set as *instance* attributes, shadowing the class method on
that one object; :meth:`Tracer.unwrap_all` deletes them again, leaving
the objects exactly as they were.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []  # (obj, attr, previous)

    # -- recording ---------------------------------------------------------
    def _open(self, name: str, run: str, work) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), 0.0, parent, run,
                           work])
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, run: str, work=None):
        idx = self._open(name, run, work)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, obj, attr: str, name: str, run: str) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper (plain,
        coroutine and async-generator methods)."""
        inner = getattr(obj, attr)
        tracer = self

        def work_of(args):
            return args[0] if args and isinstance(args[0], int) else None

        if inspect.isasyncgenfunction(inner):
            async def wrapper(*args, **kw):
                idx = tracer._open(name, run, work_of(args))
                try:
                    async for item in inner(*args, **kw):
                        yield item
                finally:
                    tracer._close(idx)
        elif inspect.iscoroutinefunction(inner):
            async def wrapper(*args, **kw):
                idx = tracer._open(name, run, work_of(args))
                try:
                    return await inner(*args, **kw)
                finally:
                    tracer._close(idx)
        else:
            def wrapper(*args, **kw):
                idx = tracer._open(name, run, work_of(args))
                try:
                    return inner(*args, **kw)
                finally:
                    tracer._close(idx)

        self._installed.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, wrapper)

    def unwrap_all(self) -> None:
        """Remove every installed wrapper, newest first."""
        while self._installed:
            obj, attr, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover (children
        of one span never overlap: they come off one call stack)."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def totals(self, run: str) -> dict:
        """Per span name: ``{"self": s, "wall": s, "calls": k, "work": w}``
        over the spans of one run."""
        selfs = self.self_times()
        acc = defaultdict(lambda: {"self": 0.0, "wall": 0.0, "calls": 0,
                                   "work": 0})
        for s, own in zip(self.spans, selfs):
            if s[4] != run:
                continue
            a = acc[s[0]]
            a["self"] += own
            a["wall"] += s[2] - s[1]
            a["calls"] += 1
            a["work"] += s[5] or 0
        return dict(acc)

    def check_partition(self, run: str) -> tuple[float, float]:
        """``(sum of self times, wall time of the roots)`` of one run; the
        two agree when every span sits inside its parent."""
        selfs = self.self_times()
        own = sum(t for s, t in zip(self.spans, selfs) if s[4] == run)
        wall = sum(s[2] - s[1] for s in self.spans
                   if s[4] == run and s[3] < 0)
        return own, wall

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "run",
                                  "work"],
                       "spans": self.spans}, f)
