"""In-memory span recorder and the wrappers the traced run installs.

A span is ``(id, parent, trace, name, start, end, attrs)``.  Spans are
recorded from the benchmark's own files only: each wrapper replaces a
public function (or the name a caller looked it up under) for the duration
of the traced phase and restores it afterwards.  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            trace = getattr(self._local, "trace", 0)
            self.spans.append((span_id, parent, trace, name, start, end, attrs))

    def new_trace(self) -> int:
        """Start a new trace on this thread (one per plan, request or wave)."""
        self._local.trace = next(self._trace_ids)
        return self._local.trace

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a spanned call until :meth:`unwrap_all`.

        ``on_result(attrs, result, args, kwargs)`` may add attributes (node
        counts, hit flags) to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, result, args, kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def wrap_cached_property(self, cls, attr: str, name: str) -> None:
        """Span the first computation of a ``functools.cached_property``."""
        original = cls.__dict__[attr]
        func = original.func

        def compute(instance):
            with self.span(name):
                return func(instance)

        replacement = functools.cached_property(compute)
        replacement.__set_name__(cls, attr)
        setattr(cls, attr, replacement)
        self._restore.append((cls, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Per span name: call count, total duration and total self time.

        Self time is a span's duration minus the time its direct children
        cover (children never outlive their parent on one thread).
        """
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _tid, _name, start, end, _attrs in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, _parent, _tid, name, start, end, _attrs in self.spans:
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
        return out

    def attrs_of(self, name: str) -> list[dict]:
        return [span[6] for span in self.spans if span[3] == name]

    def write(self, path) -> None:
        """Dump every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, tid, name, start, end, attrs in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "trace": tid, "name": name,
                    "start": start, "end": end, "attrs": attrs,
                }, default=str) + "\n")


def install_runtime_wrappers(tracer: Tracer) -> None:
    """Spans around the result store and job hashing (``runtime`` layer)."""
    from repro.runtime.jobs import PlanJob
    from repro.runtime.store import ResultStore

    def mark_hit(attrs, result, _args, _kwargs):
        attrs["hit"] = result is not None

    tracer.wrap(ResultStore, "get", "runtime.store_get", on_result=mark_hit)
    tracer.wrap(ResultStore, "put", "runtime.store_put")
    for attr in ("job_id", "instance_hash", "config_hash"):
        tracer.wrap_cached_property(PlanJob, attr, "runtime.job_hash")
