"""Outside-in span tracer for the end-to-end benchmark.

The harness owns the tracing: nothing under ``src/`` knows about it.  A
traced rep rebinds *instance attributes* of the layer objects a service
exposes (``service.pipeline.preprocessor.feed`` and friends) to timing
wrappers, so the program's own ``self.method(...)`` calls go through the
wrapper while the classes -- and every other instance -- stay untouched.
Untraced reps never construct a :class:`Tracer`, so they run the original
bound methods.

Spans are ``(name, start_ns, end_ns, parent)`` rows kept in memory in
parallel lists and written out once, after the timed region.  A layer's
*self time* is its spans' duration minus the part their child spans
cover.

One shared span stack serves every thread.  That is only sound because
the benchmark's loops are closed with a single client: while the socket
server's connection thread runs ``handle`` the client thread is blocked
on the reply, so pushes and pops strictly alternate.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter_ns

#: one span name per wrapped layer boundary, ``<module path>.<method>``;
#: README.md says which end-to-end metric each should move, on which workload
SPAN_NAMES: List[str] = [
    "gateway.transport.request",  # client round trip; self time = RTT - handle
    "gateway.service.handle",
    "gateway.sequencer.submit",
    "gateway.sequencer.flush",
    "gateway.sources.assign",
    "runtime.service.ingest",
    "runtime.admission.decide",
    "runtime.admission.apply",
    "runtime.journal.append",
    "runtime.journal.replay",
    "runtime.checkpoint.save",
    "runtime.checkpoint.latest",
    "core.pipeline.feed",
    "core.pipeline.sweep",
    "core.preprocessor.feed",
    "syslogproc.classify.classify",
    "core.zoom_in.observe",
    "core.zoom_in.refine",
    "core.locator.feed",
    "core.locator.sweep",
    "core.evaluator.evaluate",
]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self._stack: List[int] = [-1]

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """A callable that records one span per call of ``fn``."""
        name_id = self._ids[name]
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_generator(
        self, name: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """Like :meth:`wrap` for a generator function: one span per
        ``next()``, so the consumer's work between two yields is not
        charged to the producer (``calls`` = items yielded + 1)."""

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            step = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, obj: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Rebind ``obj.attr`` (an instance attribute from now on) to a
        span-recording wrapper around the current bound method."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), **kwargs))

    # -- installation: which attribute is which layer boundary ---------------

    def install_runtime(self, service: Any) -> None:
        """Wrap the public methods of every layer a ``RuntimeService``
        hosts.  Layers are reached through service attributes only."""
        pipeline = service.pipeline
        self.patch(service, "ingest", "runtime.service.ingest")
        self.patch(service.admission, "decide", "runtime.admission.decide")
        self.patch(service.admission, "apply", "runtime.admission.apply")
        if service.journal is not None:
            self.patch(service.journal, "append", "runtime.journal.append")
            service.journal.replay = self.wrap_generator(
                "runtime.journal.replay", service.journal.replay
            )
        if service.checkpoints is not None:
            self.patch(service.checkpoints, "save", "runtime.checkpoint.save")
            self.patch(service.checkpoints, "latest", "runtime.checkpoint.latest")
        self.patch(pipeline, "feed", "core.pipeline.feed")
        self.patch(pipeline, "sweep", "core.pipeline.sweep")
        self.patch(pipeline.preprocessor, "feed", "core.preprocessor.feed")
        self.patch(
            pipeline.preprocessor.classifier, "classify", "syslogproc.classify.classify"
        )
        self.patch(pipeline.zoom, "observe", "core.zoom_in.observe")
        self.patch(pipeline.zoom, "refine", "core.zoom_in.refine")
        self.patch(pipeline.locator, "feed", "core.locator.feed")
        self.patch(pipeline.locator, "sweep", "core.locator.sweep")
        self.patch(pipeline.evaluator, "evaluate", "core.evaluator.evaluate")

    def install_gateway(
        self, gateway: Any, on_release: Callable[[List[Any]], None]
    ) -> Callable[..., Any]:
        """Wrap the gateway's layers and return the traced ``handle`` to
        give the socket server.  ``on_release`` sees every batch the
        sequencer's ``submit`` releases."""
        self.install_runtime(gateway.runtime)
        self.patch(
            gateway.sequencer, "submit", "gateway.sequencer.submit", on_result=on_release
        )
        self.patch(gateway.sequencer, "flush", "gateway.sequencer.flush")
        self.patch(gateway.registry, "assign", "gateway.sources.assign")
        return self.wrap("gateway.service.handle", gateway.handle)

    # -- results -----------------------------------------------------------

    def durations_ms(self, name: str) -> List[float]:
        name_id = self._ids[name]
        return [
            (self.end[i] - self.start[i]) / 1e6
            for i in range(len(self.name))
            if self.name[i] == name_id
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``, plus the
        pseudo-row ``"<root>"`` whose ``total_s`` is the time covered by
        spans that have no parent."""
        count = len(self.name)
        child_ns = [0] * count
        root_ns = 0
        for i in range(count):
            duration = self.end[i] - self.start[i]
            parent = self.parent[i]
            if parent >= 0:
                child_ns[parent] += duration
            else:
                root_ns += duration
        rows = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES
        }
        for i in range(count):
            row = rows[SPAN_NAMES[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration / 1e9
            row["self_s"] += (duration - child_ns[i]) / 1e9
        rows["<root>"] = {"calls": 0, "total_s": root_ns / 1e9, "self_s": 0.0}
        return rows

    def dump(self, path: pathlib.Path) -> None:
        """Write every span, column-wise, with times relative to the first."""
        origin = min(self.start) if self.start else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": SPAN_NAMES,
                    "unit": "ns",
                    "span_name": self.name,
                    "span_start": [t - origin for t in self.start],
                    "span_end": [t - origin for t in self.end],
                    "span_parent": self.parent,
                },
                handle,
                separators=(",", ":"),
            )
