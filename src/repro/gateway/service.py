"""The gateway service: ordered ingestion + incident queries over the runtime.

:class:`GatewayService` wraps one :class:`~repro.runtime.service.RuntimeService`
behind a request/reply API (see :mod:`repro.gateway.transport`) and owns
everything a *served* runtime needs that an offline one does not:

* **ordering** -- submissions from concurrent sources pass through the
  :class:`~repro.gateway.sequencer.DeterministicSequencer`, so the
  runtime ingests them in the arrival-independent total order
  ``(timestamp, source_priority, seq)`` and the served incident stream
  is byte-identical (ids included) to an offline replay;
* **backpressure** -- each source is bounded to ``queue_limit`` pending
  (submitted-but-unreleased) alerts; overflow is shed loudly through the
  admission controller's books (rung ``"source_queue"``);
* **subscription** -- incident opens/closes are observed via the
  runtime's pipeline tap and appended to a cursor-ordered event log that
  ``history``/``subscribe`` serve (long-poll with resume-from-cursor);
* **lifecycle** -- drain-checkpoint-shutdown stores the sequencer's
  *pending heap* in the checkpoint ``extras`` (never flushed: a live
  source could still order ahead of held alerts, and that stays true
  across a restart), and :meth:`GatewayService.resume` rebuilds gateway
  state before the journal-tail replay re-drives the tap.

Thread-safety: one re-entrant lock guards every state transition; the
subscription condition shares it, so event appends and long-poll wakeups
are atomic with the sweeps that produce them.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
from typing import Dict, List, Optional

from ..core.config import SkyNetConfig
from ..core.locator import SweepResult
from ..core.pipeline import PipelineObserver
from ..monitors.base import RawAlert
from ..simulation.state import NetworkState
from ..runtime.faults import ChaosPlan
from ..runtime.journal import raw_from_json, raw_to_json
from ..runtime.service import RuntimeService
from .config import GatewayParams
from .sequencer import DeterministicSequencer
from .sources import (
    GatewayError,
    SequenceError,
    SourceClosedError,
    SourceRegistry,
    SOURCE_PRIORITY,
)
from .transport import Message

#: The admission-ladder rung name gateway queue sheds are booked under.
QUEUE_RUNG = "source_queue"


@dataclasses.dataclass(frozen=True)
class IncidentEvent:
    """One entry of the subscription log: an incident opened or closed."""

    cursor: int
    kind: str  # "opened" | "closed"
    at: float  # sweep sim-time that produced the event
    incident_id: str
    root: str
    start_time: float
    end_time: Optional[float]

    def to_json(self) -> Dict[str, object]:
        return {
            "cursor": self.cursor,
            "kind": self.kind,
            "at": self.at,
            "incident_id": self.incident_id,
            "root": self.root,
            "start_time": self.start_time,
            "end_time": self.end_time,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "IncidentEvent":
        end = data["end_time"]
        return cls(
            cursor=int(data["cursor"]),  # type: ignore[arg-type]
            kind=str(data["kind"]),
            at=float(data["at"]),  # type: ignore[arg-type]
            incident_id=str(data["incident_id"]),
            root=str(data["root"]),
            start_time=float(data["start_time"]),  # type: ignore[arg-type]
            end_time=None if end is None else float(end),  # type: ignore[arg-type]
        )


class _IncidentTap(PipelineObserver):
    """Pipeline observer forwarding sweep results into the event log."""

    def __init__(self, gateway: "GatewayService") -> None:
        self._gateway = gateway

    def on_sweep(self, now: float, result: SweepResult) -> None:
        self._gateway._observe_sweep(now, result)


class GatewayService:
    """Servable front half of the runtime: validate, order, serve."""

    def __init__(
        self,
        topology: object,
        config: Optional[SkyNetConfig] = None,
        state: Optional[NetworkState] = None,
        directory: Optional[pathlib.Path] = None,
        chaos: Optional[ChaosPlan] = None,
        run_seed: int = 0,
        params: Optional[GatewayParams] = None,
        resume: bool = False,
    ) -> None:
        self.params = params or GatewayParams()
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._events: List[IncidentEvent] = []
        self._draining = False
        self._finished = False
        self.registry = SourceRegistry()
        self.sequencer: DeterministicSequencer[RawAlert] = DeterministicSequencer(
            SOURCE_PRIORITY
        )
        tap = _IncidentTap(self)
        if resume:
            if directory is None:
                raise ValueError("resume requires a persistence directory")
            self.runtime = RuntimeService.resume(
                topology,  # type: ignore[arg-type]
                directory,
                config=config,
                state=state,
                chaos=chaos,
                run_seed=run_seed,
                tap=tap,
                extras_hook=self._load_extras,
            )
        else:
            self.runtime = RuntimeService(
                topology,  # type: ignore[arg-type]
                config=config,
                state=state,
                directory=directory,
                chaos=chaos,
                run_seed=run_seed,
                tap=tap,
            )
        self.runtime.checkpoint_extras = self._extras

    # -- ingestion ---------------------------------------------------------

    def submit(
        self,
        raw: RawAlert,
        source: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Message:
        """Offer one alert from a source; may release a batch downstream."""
        with self._lock:
            if self._draining or self._finished:
                raise SourceClosedError("gateway is draining; not accepting")
            name = raw.tool if source is None else source
            if name != raw.tool:
                raise SequenceError(
                    f"source {name!r} cannot submit an alert from tool "
                    f"{raw.tool!r}"
                )
            record = self.registry.record(name)  # raises on unknown source
            if seq is not None and seq < record.next_seq:
                # replay of an already-consumed seq: a client retry whose
                # original reply was lost, or a stale duplicate frame the
                # network re-delivered.  Ack it (with the authoritative
                # next_seq so a restarted client can fast-forward), count
                # it, and never re-ingest it -- duplicates live in the
                # metrics, not in the incident stream.  Checked before
                # the eof guard: a stale replay may land after its
                # source closed, and it is still just a duplicate.
                self._count_duplicate()
                return {
                    "ok": True,
                    "admitted": True,
                    "duplicate": True,
                    "seq": seq,
                    "next_seq": record.next_seq,
                    "released": 0,
                }
            if record.eof:
                raise SourceClosedError(f"source {name!r} already sent eof")
            if self.sequencer.pending_for(name) >= self.params.queue_limit:
                self.registry.mark_shed(name)
                self.runtime.admission.count_shed(QUEUE_RUNG)
                self.runtime.metrics.counter(
                    "gateway_queue_shed_total",
                    "alerts refused by a full per-source gateway queue",
                ).inc()
                return {"ok": True, "admitted": False, "shed": QUEUE_RUNG}
            assigned = self.registry.assign(name, raw.timestamp, seq)
            self.runtime.metrics.counter(
                "gateway_submitted_total", "alerts accepted by the gateway"
            ).inc()
            released = self.sequencer.submit(name, raw.timestamp, assigned, raw)
            self._ingest_released(released)
            return {
                "ok": True,
                "admitted": True,
                "seq": assigned,
                "released": len(released),
            }

    def advance(self, source: str, timestamp: float) -> Message:
        """Watermark heartbeat: "nothing from ``source`` below ``timestamp``"."""
        with self._lock:
            if self._draining or self._finished:
                raise SourceClosedError("gateway is draining; not accepting")
            record = self.registry.record(source)
            if record.eof:
                raise SourceClosedError(f"source {source!r} already sent eof")
            if (
                record.last_timestamp is not None
                and timestamp < record.last_timestamp
            ):
                raise SequenceError(
                    f"source {source!r} heartbeat {timestamp} regresses "
                    f"below {record.last_timestamp}"
                )
            record.last_timestamp = timestamp
            released = self.sequencer.advance(source, timestamp)
            self._ingest_released(released)
            return {"ok": True, "released": len(released)}

    def eof(self, source: str) -> Message:
        """Declare a source done for this stream (idempotent: retries ack)."""
        with self._lock:
            if self._finished:
                raise SourceClosedError("gateway already finished")
            if self.registry.record(source).eof:
                # a retried eof whose original reply was lost: the close
                # already happened, so ack instead of erroring the retry
                self._count_duplicate()
                return {
                    "ok": True,
                    "released": 0,
                    "all_eof": self.registry.all_eof(),
                    "duplicate": True,
                }
            self.registry.mark_eof(source)
            released = self.sequencer.eof(source)
            self._ingest_released(released)
            return {
                "ok": True,
                "released": len(released),
                "all_eof": self.registry.all_eof(),
            }

    def finish(self) -> Message:
        """End of stream: drain the sequencer and close out incidents.

        Idempotent: a retried finish re-acks with the incident count
        instead of erroring, so a client that lost the first reply can
        safely resend.
        """
        with self._lock:
            if self._finished:
                self._count_duplicate()
                return {
                    "ok": True,
                    "released": 0,
                    "incidents": len(self.runtime.reports()),
                    "duplicate": True,
                }
            released = self.sequencer.flush()
            self._ingest_released(released)
            if self.runtime.checkpoints is not None:
                self.runtime.finish()
            else:
                self.runtime.pipeline.finish()
            self._finished = True
            self._wakeup.notify_all()
            return {
                "ok": True,
                "released": len(released),
                "incidents": len(self.runtime.reports()),
            }

    def _count_duplicate(self) -> None:
        self.runtime.metrics.counter(
            "gateway_duplicates_total",
            "replayed requests acked idempotently, never re-applied",
        ).inc()

    def _ingest_released(self, released: List[RawAlert]) -> None:
        metrics = self.runtime.metrics
        for raw in released:
            self.runtime.ingest(raw)
        if released:
            metrics.counter(
                "gateway_released_total",
                "alerts released downstream in deterministic order",
            ).inc(len(released))
        metrics.gauge(
            "gateway_pending_alerts",
            "alerts held by the sequencer awaiting the watermark frontier",
        ).set(self.sequencer.pending())

    # -- queries -----------------------------------------------------------

    def active(self) -> Message:
        with self._lock:
            incidents = [
                {
                    "incident_id": inc.incident_id,
                    "root": str(inc.root),
                    "status": inc.status.value,
                    "start_time": inc.start_time,
                    "created_at": inc.created_at,
                }
                for inc in self.runtime.pipeline.locator.open_incidents
            ]
            return {"ok": True, "incidents": incidents}

    def reports(self) -> Message:
        with self._lock:
            return {
                "ok": True,
                "reports": [
                    {
                        "incident_id": report.incident.incident_id,
                        "score": report.score,
                        "urgent": report.urgent,
                        "render": report.render(),
                    }
                    for report in self.runtime.reports()
                ],
            }

    def history(self, cursor: int = 0) -> Message:
        with self._lock:
            return self._events_since(cursor)

    def subscribe(
        self, cursor: int = 0, timeout_s: Optional[float] = None
    ) -> Message:
        """Long-poll: block until events beyond ``cursor`` exist (or timeout).

        Wakeups only happen on real transitions (event append, finish,
        drain), so a single bounded wait per notification suffices; the
        patience cap is a wall-clock serving concern that never touches
        the pipeline's sim clock.
        """
        patience = (
            self.params.poll_timeout_s if timeout_s is None else timeout_s
        )
        with self._wakeup:
            while (
                len(self._events) <= cursor
                and not self._finished
                and not self._draining
            ):
                if not self._wakeup.wait(timeout=patience):
                    break
            return self._events_since(cursor)

    def _events_since(self, cursor: int) -> Message:
        if cursor < 0:
            raise SequenceError(f"cursor must be >= 0, got {cursor}")
        events = [event.to_json() for event in self._events[cursor:]]
        return {
            "ok": True,
            "events": events,
            "cursor": len(self._events),
            "finished": self._finished,
            "draining": self._draining,
        }

    def health(self) -> Message:
        with self._lock:
            degraded = self.runtime.degraded_sources()
            sources: Dict[str, object] = {}
            for name, record in sorted(self.registry.snapshot().items()):
                watermark = self.sequencer.watermark(name)
                sources[name] = {
                    "priority": record.priority,
                    "next_seq": record.next_seq,
                    "last_timestamp": record.last_timestamp,
                    "submitted": record.submitted,
                    "shed": record.shed,
                    "eof": record.eof,
                    "pending": self.sequencer.pending_for(name),
                    # +/-inf is not JSON; null means "not (yet) gating"
                    "watermark": (
                        None
                        if watermark in (float("inf"), float("-inf"))
                        else watermark
                    ),
                    "degraded": name in degraded,
                }
            return {
                "ok": True,
                "sources": sources,
                "degraded": sorted(degraded),
            }

    def metrics(self) -> Message:
        with self._lock:
            return {"ok": True, "metrics": self.runtime.metrics.as_dict()}

    def stats(self) -> Message:
        with self._lock:
            admission = self.runtime.admission
            return {
                "ok": True,
                "shards": self.runtime.shards,
                "backend": self.runtime.config.runtime.backend,
                "seq": self.runtime._seq,  # lint: allow REP014
                "sim_now": self.runtime.pipeline.now,
                "offered": admission.offered,
                "admitted": admission.admitted,
                "sheds": dict(admission.sheds),
                "pending": self.sequencer.pending(),
                "events": len(self._events),
                "finished": self._finished,
                "draining": self._draining,
            }

    # -- lifecycle ---------------------------------------------------------

    def checkpoint(self) -> Message:
        """Force a durable point now (requires a persistence directory)."""
        with self._lock:
            self.runtime.checkpoint()
            return {"ok": True, "seq": self.runtime._seq}  # lint: allow REP014

    def shutdown(self) -> Message:
        """Drain-checkpoint-shutdown (the SIGTERM path).

        Stops accepting, checkpoints runtime *and* gateway state --
        including the sequencer's un-released pending heap, which is
        deliberately **not** flushed (releasing it would break the total
        order against sources that resume submitting earlier timestamps
        after restart) -- and wakes every long-poller.
        """
        with self._lock:
            if not self._draining:
                self._draining = True
                if self.runtime.checkpoints is not None:
                    self.runtime.checkpoint()
                if self.runtime.journal is not None:
                    self.runtime.journal.close()
                locator = self.runtime.pipeline.locator
                close = getattr(locator, "close", None)
                if callable(close):
                    close()
                self._wakeup.notify_all()
            return {"ok": True, "pending": self.sequencer.pending()}

    @classmethod
    def resume(
        cls,
        topology: object,
        directory: pathlib.Path,
        config: Optional[SkyNetConfig] = None,
        state: Optional[NetworkState] = None,
        chaos: Optional[ChaosPlan] = None,
        run_seed: int = 0,
        params: Optional[GatewayParams] = None,
    ) -> "GatewayService":
        """Rebuild a drained (or killed) gateway from its directory.

        Gateway state (source registry, sequencer incl. pending heap,
        event log) restores from the checkpoint ``extras`` *before* the
        runtime replays its journal tail, so replayed sweeps append to
        the restored event log with consistent cursors.  After a clean
        drain the tail is empty and the served stream continues exactly;
        after a hard kill the tail replay re-emits events subscribers may
        already have seen (at-least-once across crashes).
        """
        return cls(
            topology,
            config=config,
            state=state,
            directory=directory,
            chaos=chaos,
            run_seed=run_seed,
            params=params,
            resume=True,
        )

    # -- request dispatch ---------------------------------------------------

    def handle(self, request: Message) -> Message:
        """One transport-independent request -> reply."""
        op = request.get("op")
        try:
            if op == "submit":
                try:
                    # the journal's own strict decoder: a frame replay
                    # would reject is refused here, never journaled
                    raw = raw_from_json(request["raw"])
                except (TypeError, ValueError) as exc:
                    raise GatewayError(f"malformed raw alert: {exc}") from exc
                source = request.get("source")
                seq = request.get("seq")
                return self.submit(
                    raw,
                    source=None if source is None else str(source),
                    seq=None if seq is None else int(seq),  # type: ignore[arg-type]
                )
            if op == "advance":
                return self.advance(
                    str(request["source"]),
                    float(request["timestamp"]),  # type: ignore[arg-type]
                )
            if op == "eof":
                return self.eof(str(request["source"]))
            if op == "finish":
                return self.finish()
            if op == "active":
                return self.active()
            if op == "reports":
                return self.reports()
            if op == "history":
                return self.history(int(request.get("cursor", 0)))  # type: ignore[arg-type]
            if op == "subscribe":
                timeout = request.get("timeout_s")
                return self.subscribe(
                    int(request.get("cursor", 0)),  # type: ignore[arg-type]
                    None if timeout is None else float(timeout),  # type: ignore[arg-type]
                )
            if op == "health":
                return self.health()
            if op == "metrics":
                return self.metrics()
            if op == "stats":
                return self.stats()
            if op == "checkpoint":
                return self.checkpoint()
            if op == "shutdown":
                return self.shutdown()
        except GatewayError as exc:
            return {
                "ok": False,
                "error": str(exc),
                "kind": type(exc).__name__,
            }
        except KeyError as exc:
            return {"ok": False, "error": f"missing field {exc}"}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- tap + checkpoint extras --------------------------------------------

    def _observe_sweep(self, now: float, result: SweepResult) -> None:
        """Pipeline tap: append opened/closed transitions to the event log.

        Runs inside ``runtime.ingest`` while :meth:`submit` holds the
        lock (re-entrant), and single-threaded during resume's journal
        replay.
        """
        with self._wakeup:
            for incident in result.opened:
                self._append_event("opened", now, incident.incident_id,
                                   str(incident.root), incident.start_time,
                                   None)
            for incident in result.closed:
                self._append_event("closed", now, incident.incident_id,
                                   str(incident.root), incident.start_time,
                                   incident.end_time)
            if result.opened or result.closed:
                self._wakeup.notify_all()

    def _append_event(
        self,
        kind: str,
        at: float,
        incident_id: str,
        root: str,
        start_time: float,
        end_time: Optional[float],
    ) -> None:
        self._events.append(
            IncidentEvent(
                cursor=len(self._events),
                kind=kind,
                at=at,
                incident_id=incident_id,
                root=root,
                start_time=start_time,
                end_time=end_time,
            )
        )

    def _extras(self) -> Dict[str, object]:
        """Gateway state riding the runtime checkpoint (``extras`` key)."""
        heap_state = self.sequencer.state_dict()
        # the heap holds RawAlert payloads; encode them to the journal's
        # wire form so the checkpoint stays plain-data
        heap_state["heap"] = [
            (entry[0], entry[1], entry[2], entry[3], raw_to_json(entry[4]))
            for entry in heap_state["heap"]  # type: ignore[union-attr, index]
        ]
        return {
            "gateway": {
                "registry": self.registry.state_dict(),
                "sequencer": heap_state,
                "events": [event.to_json() for event in self._events],
                "finished": self._finished,
            }
        }

    def _load_extras(self, extras: Dict[str, object]) -> None:
        payload = extras.get("gateway")
        if not isinstance(payload, dict):
            return
        self.registry.load_state_dict(payload["registry"])
        sequencer_state = dict(payload["sequencer"])
        sequencer_state["heap"] = [
            (entry[0], entry[1], entry[2], entry[3], raw_from_json(entry[4]))
            for entry in sequencer_state["heap"]
        ]
        self.sequencer.load_state_dict(sequencer_state)
        self._events = [
            IncidentEvent.from_json(event) for event in payload["events"]
        ]
        self._finished = bool(payload.get("finished", False))
