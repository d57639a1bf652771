"""Spans recorded from outside the program, around calls into its layers.

:class:`SpanRecorder` replaces a public function or method with a
timing wrapper *where the caller looks it up* (a module attribute or a
class attribute), keeps every span in memory, and puts each original
back on :meth:`SpanRecorder.restore`.  A span is ``(id, name, start,
end, parent, request id, meta)``; parents and request ids follow the
asyncio task through :mod:`contextvars`, so spans of one request share
its id.  Work handed to an executor thread starts a new root span.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_current_request: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _open(self, request):
        span_id = next(self._ids)
        parent = _current_span.get()
        rid = request if request is not None else _current_request.get()
        tokens = (_current_span.set(span_id), _current_request.set(rid))
        return span_id, parent, rid, tokens, time.perf_counter()

    def _close(self, name, meta, opened) -> None:
        span_id, parent, rid, (span_token, request_token), start = opened
        end = time.perf_counter()
        _current_span.reset(span_token)
        _current_request.reset(request_token)
        self.spans.append(Span(span_id, name, start, end, parent, rid, meta))

    def wrap(
        self,
        name: str,
        fn: Callable,
        meta_of: Optional[Callable[..., Dict[str, Any]]] = None,
        request_of: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable:
        """A timing wrapper around *fn*, coroutine-aware."""
        recorder = self

        def begin(args, kwargs):
            meta = meta_of(*args, **kwargs) if meta_of else {}
            rid = request_of(*args, **kwargs) if request_of else None
            return meta, recorder._open(rid)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                meta, opened = begin(args, kwargs)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._close(name, meta, opened)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            meta, opened = begin(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(name, meta, opened)

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a
        timing wrapper named *name*."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, **options))
        self._patched.append((owner, attr, original))

    def restore(self) -> List[str]:
        """Put every original back; returns the names that did not end
        up restored (empty when all is well)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftovers = [f"{owner.__name__}.{attr}"
                     for owner, attr, original in self._patched
                     if vars(owner)[attr] is not original]
        self._patched.clear()
        return leftovers

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, span: Span, children: Dict[int, List[Span]]) -> float:
        """The span's duration minus the part its children cover."""
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.seconds - covered

    def children_index(self) -> Dict[int, List[Span]]:
        index: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                index.setdefault(s.parent, []).append(s)
        return index

    def write_jsonl(self, path, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "request": s.request,
                    "meta": s.meta,
                }, default=str) + "\n")
