"""Host-clock spans around the library's public entry points.

The end-to-end benchmark measures the simulator from the outside: it
wraps public methods and functions in timing shims (class methods on
the class, module functions at the binding their caller uses) and
records one span per call — name, layer, start, end, parent span and
request id — on the host clock.  A layer is the ``repro`` package that
owns the entry point, so a span key reads ``<package>.<entry point>``.

Every span's self time (its duration minus the time its child spans
cover) is aggregated per key and per layer for the whole run; the
first :attr:`HostTracer.keep` spans are also kept for the Chrome trace
file, so a long run cannot exhaust memory.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

__all__ = ["HostTracer", "public_methods"]


def public_methods(cls: type) -> list[str]:
    """Names of the plain functions *cls* itself defines, minus private ones."""
    return [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]


class HostTracer:
    """Records nested host spans and their self times.

    Spans nest by call order on one thread.  ``request`` is stamped
    onto every span opened while it is set; the benchmark sets it to
    the arrival sequence numbers of the serving unit, or the index of
    the closed-loop request, being served.
    """

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.request: Any = None
        #: While set, shims call through without recording.
        self.paused = False
        self._origin = time.perf_counter()
        self._stack: list[list] = []
        self._restore: list[tuple[Any, str, Any]] = []
        #: Kept spans: ``[key, layer, start, end, parent index, request]``
        #: with times in seconds since the tracer was created.
        self.spans: list[list] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_seconds: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, key: str, layer: str) -> None:
        """Open a span for *key* under *layer* at the current host time."""
        now = time.perf_counter() - self._origin
        index = None
        if len(self.spans) < self.keep:
            parent = self._stack[-1][4] if self._stack else None
            index = len(self.spans)
            self.spans.append([key, layer, now, None, parent, self.request])
        # [key, layer, start, seconds covered by children, kept index]
        self._stack.append([key, layer, now, 0.0, index])

    def end(self) -> None:
        """Close the innermost span and fold its self time into the totals."""
        now = time.perf_counter() - self._origin
        key, layer, start, children, index = self._stack.pop()
        duration = now - start
        if index is not None:
            self.spans[index][3] = now
        if self._stack:
            self._stack[-1][3] += duration
        own = duration - children
        self.self_seconds[key] += own
        self.layer_seconds[layer] += own
        self.calls[key] += 1

    @contextmanager
    def pause(self):
        """Stop recording for the duration of the block."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextmanager
    def span(self, key: str, layer: str):
        """Context manager form of :meth:`begin` / :meth:`end`."""
        self.begin(key, layer)
        try:
            yield
        finally:
            self.end()

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        name: str,
        key: str,
        on_return: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``owner.name`` with a shim that records one span per call.

        The layer is the key's first component.  *on_return*, when
        given, sees every return value (how the benchmark reads fanouts,
        predictions and round reports without a second code path).
        """
        original = inspect.getattr_static(owner, name)
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{name} is not a plain function")
        layer = key.split(".", 1)[0]
        tracer = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            tracer.begin(key, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if on_return is not None:
                on_return(result)
            return result

        setattr(owner, name, shim)
        self._restore.append((owner, name, original))

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_events(self) -> list[dict[str, Any]]:
        """Kept spans as Chrome trace events, one thread row per layer.

        Timestamps are host microseconds since the tracer was created;
        events are sorted by (row, start) so each row reads forward.
        """
        rows: dict[str, int] = {}
        events = []
        for index, (key, layer, start, end, parent, request) in enumerate(
            self.spans
        ):
            if end is None:
                continue
            events.append(
                {
                    "name": key,
                    "cat": layer,
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": rows.setdefault(layer, len(rows) + 1),
                    "args": {"span": index, "parent": parent, "request": request},
                }
            )
        metadata = [
            {"name": "thread_name", "ph": "M", "ts": 0.0, "pid": 1,
             "tid": tid, "args": {"name": layer}}
            for layer, tid in rows.items()
        ]
        return metadata + sorted(events, key=lambda event: (event["tid"], event["ts"]))
