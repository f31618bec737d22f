"""The resumable online service: journal -> admission -> pipeline.

:class:`RuntimeService` hosts the preprocessor -> (sharded) locator ->
evaluator pipeline as a long-lived stream consumer:

* every offered raw alert is **journaled first** (write-ahead, with its
  admission decision), then run through the admission controller and --
  if admitted -- the pipeline;
* on the configured sim-time cadence the whole mutable pipeline state is
  **checkpointed** (see ``checkpoint.py``);
* after a crash, :meth:`RuntimeService.resume` loads the newest loadable
  checkpoint and replays the journal tail, reproducing the exact state
  -- incident ids included -- the uninterrupted run would have reached
  (``tests/runtime/test_kill_resume.py`` pins this);
* a :class:`MetricsRegistry` threads through every stage via the
  pipeline's observer hook; all its latency quantities are simulated
  time (REP004: no wall clocks in the core);
* an optional :class:`~repro.runtime.faults.ChaosPlan` turns the
  robustness machinery on: journal/checkpoint I/O runs under a bounded
  retry-with-backoff policy consulted against the plan's
  :class:`~repro.runtime.faults.FaultyIO` oracle (exhausted budgets shed
  the write, counted, never silent), planned shard crashes fire against
  a :class:`~repro.runtime.supervisor.SupervisedLocator` and are healed
  in the same ingest, and a
  :class:`~repro.runtime.health.SourceHealthTracker` feeds the
  pipeline's degraded-source awareness.  With no plan (or an empty one)
  none of this machinery is even constructed and the service is
  byte-identical to the pre-chaos runtime.
"""

from __future__ import annotations

import dataclasses
import pathlib
import pickle
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.config import PRODUCTION_CONFIG, SkyNetConfig
from ..core.locator import SweepResult
from ..core.pipeline import IncidentReport, PipelineObserver, SkyNet
from ..monitors.base import RawAlert
from ..simulation.state import NetworkState
from ..topology.network import Topology
from .admission import AdmissionController
from .checkpoint import (
    CheckpointStore,
    _next_incident_id,
    pipeline_state_dict,
    restore_pipeline_state,
    set_incident_counter,
)
from .faults import (
    DATA_LOSS_CONFIDENCE,
    ChaosPlan,
    FaultyIO,
    RetryPolicy,
    chaos_or_none,
)
from .health import SourceHealthTracker
from .journal import AlertJournal, JournalCorruption
from .metrics import MetricsRegistry, registry_or_new
from .sharding import ShardedLocator
from .supervisor import ShardSupervision, SupervisedLocator
from .workers import MPShardedLocator, MPSupervisedLocator

JOURNAL_SUBDIR = "journal"
CHECKPOINT_SUBDIR = "checkpoints"

#: Locator execution backends (``RuntimeParams.backend`` / ``--backend``).
BACKENDS = ("inproc", "mp")


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`RuntimeService.resume` reconstructed."""

    checkpoint_seq: Optional[int]  # None = no checkpoint, full journal replay
    replayed_records: int
    corruptions: Tuple[JournalCorruption, ...]
    skipped_segments: int = 0  # journal segments older than replay's start
    read_records: int = 0  # journal records decoded, replayed or not
    #: newer checkpoints skipped as unloadable ("<name> (<error type>)")
    unloadable_checkpoints: Tuple[str, ...] = ()

    def render(self) -> str:
        base = (
            f"resumed from checkpoint seq={self.checkpoint_seq}"
            if self.checkpoint_seq is not None
            else "no checkpoint found; replaying full journal"
        )
        lines = [
            f"{base}; replayed {self.replayed_records} journal record(s) "
            f"of {self.read_records} read; {self.skipped_segments} older "
            "segment(s) skipped unread"
        ]
        lines.extend(
            f"checkpoint {name} unloadable; fell back past it"
            for name in self.unloadable_checkpoints
        )
        lines.extend(c.render() for c in self.corruptions)
        return "\n".join(lines)


class RuntimeObserver(PipelineObserver):
    """Feeds the metrics registry from the pipeline's observer hooks."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self._raws = metrics.counter(
            "runtime_raw_alerts_total", "raw alerts fed to the pipeline"
        )
        self._structured = metrics.counter(
            "runtime_structured_alerts_total",
            "structured alerts emitted by the preprocessor",
        )
        self._sweeps = metrics.counter(
            "runtime_sweeps_total", "locator sweeps executed"
        )
        self._opened = metrics.counter(
            "runtime_incidents_opened_total", "incident trees generated"
        )
        self._closed = metrics.counter(
            "runtime_incidents_closed_total", "incident trees closed"
        )
        self._expired = metrics.counter(
            "runtime_records_expired_total", "main-tree records expired"
        )
        self._delivery_lag = metrics.histogram(
            "runtime_delivery_lag_seconds",
            "simulated lag between observation and collector delivery",
        )
        self._detection = metrics.histogram(
            "runtime_detection_latency_seconds",
            "simulated time from an incident's first alert to its opening sweep",
        )
        self._duration = metrics.histogram(
            "runtime_incident_duration_seconds",
            "simulated incident lifetime at close",
        )

    def on_raw(self, raw: RawAlert, emitted: List) -> None:
        self._raws.inc()
        self._structured.inc(len(emitted))
        self._delivery_lag.observe(raw.delivered_at - raw.timestamp)

    def on_sweep(self, now: float, result: SweepResult) -> None:
        self._sweeps.inc()
        self._opened.inc(len(result.opened))
        self._closed.inc(len(result.closed))
        self._expired.inc(result.expired_records)
        for incident in result.opened:
            self._detection.observe(max(0.0, now - incident.start_time))
        for incident in result.closed:
            self._duration.observe(
                max(0.0, incident.end_time - incident.start_time)
            )


class _FanoutObserver(PipelineObserver):
    """Broadcasts pipeline hooks to several observers, in order.

    The runtime's own :class:`RuntimeObserver` always comes first so the
    metrics a tap reads in its hooks are already up to date for the
    event being observed.
    """

    def __init__(self, observers: Tuple[PipelineObserver, ...]) -> None:
        self.observers = observers

    def on_raw(self, raw: RawAlert, emitted: List) -> None:
        for observer in self.observers:
            observer.on_raw(raw, emitted)

    def on_sweep(self, now: float, result: SweepResult) -> None:
        for observer in self.observers:
            observer.on_sweep(now, result)


class RuntimeService:
    """Sharded, checkpointable, backpressured hosting of the pipeline."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        state: Optional[NetworkState] = None,
        directory: Optional[pathlib.Path] = None,
        metrics: Optional[MetricsRegistry] = None,
        chaos: Optional[ChaosPlan] = None,
        run_seed: int = 0,
        tap: Optional[PipelineObserver] = None,
    ) -> None:
        self.config = config or PRODUCTION_CONFIG
        params = self.config.runtime
        self.metrics = registry_or_new(metrics)
        self.admission = AdmissionController(params, metrics=self.metrics)
        self.observer = RuntimeObserver(self.metrics)
        #: extra pipeline observer (the gateway's incident tap); fanned
        #: out after the metrics observer and preserved across resume
        self.tap = tap
        #: optional provider of extra checkpoint state (``state["extras"]``)
        #: -- the gateway stores its sequencer/source-registry state here
        self.checkpoint_extras: Optional[Callable[[], Dict[str, object]]] = None
        # an empty plan is normalised away: no chaos machinery exists at
        # all unless something is actually scheduled
        self.chaos = chaos_or_none(chaos)
        self.run_seed = run_seed
        self._faulty: Optional[FaultyIO] = None
        self._retry_policy = RetryPolicy(
            max_attempts=params.io_max_attempts,
            base_backoff_s=params.io_base_backoff_s,
            max_backoff_s=params.io_max_backoff_s,
        )
        self._retry_rng = None
        self._pending_crashes: Tuple = ()
        self._fired_crashes: Set[Tuple[float, int]] = set()
        self._pending_correlated: Tuple = ()
        self._fired_correlated: Set[Tuple[float, Tuple[int, ...]]] = set()
        self._health: Optional[SourceHealthTracker] = None
        # kept for the correlated-crash rebuild path, which replays the
        # journal through a scratch pipeline over the same world
        self._topology = topology
        self._net_state = state
        backend = params.backend
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown locator backend {backend!r} (want one of {BACKENDS})"
            )
        locator: ShardedLocator
        supervised = False
        if self.chaos is not None:
            self._retry_rng = self.chaos.rng("retry", run_seed)
            if self.chaos.io_faults:
                self._faulty = FaultyIO(self.chaos.io_faults)
            if self.chaos.degrades_sources():
                self._health = SourceHealthTracker(self.chaos)
            if self.chaos.shard_crashes:
                self._pending_crashes = tuple(
                    sorted(
                        self.chaos.shard_crashes,
                        key=lambda c: (c.at, c.shard),
                    )
                )
            if self.chaos.correlated_crashes:
                self._pending_correlated = tuple(
                    sorted(
                        self.chaos.correlated_crashes,
                        key=lambda c: (c.at, c.shards),
                    )
                )
            supervised = self.chaos.crashes_shards()
        if supervised:
            locator = (
                MPSupervisedLocator(topology, self.config)
                if backend == "mp"
                else SupervisedLocator(topology, self.config)
            )
        elif backend == "mp":
            locator = MPShardedLocator(topology, self.config)
        else:
            locator = ShardedLocator(topology, self.config)
        pipeline_observer: PipelineObserver = self.observer
        if self.tap is not None:
            pipeline_observer = _FanoutObserver((self.observer, self.tap))
        self.pipeline = SkyNet(
            topology,
            config=self.config,
            state=state,
            locator=locator,
            observer=pipeline_observer,
        )
        if self._health is not None:
            self.pipeline.health = self._health
        self.directory = pathlib.Path(directory) if directory is not None else None
        self.journal: Optional[AlertJournal] = None
        self.checkpoints: Optional[CheckpointStore] = None
        if self.directory is not None:
            self.journal = AlertJournal(
                self.directory / JOURNAL_SUBDIR, params.journal_segment_records
            )
            self.checkpoints = CheckpointStore(self.directory / CHECKPOINT_SUBDIR)
        self.recovery: Optional[RecoveryReport] = None
        self._seq = 0
        self._last_checkpoint_t = float("-inf")

    # -- ingest ------------------------------------------------------------

    @property
    def shards(self) -> int:
        locator = self.pipeline.locator
        return locator.shards if isinstance(locator, ShardedLocator) else 1

    def ingest(self, raw: RawAlert) -> List:
        """Offer one raw alert: journal, admission, pipeline, checkpoint.

        Write-ahead discipline: the admission decision is *derived*
        first, the journal entry (which records it) is written second,
        and only then is any state mutated.  If the journal write sheds
        after exhausting its retry budget, the alert is refused whole --
        counted, but with controller, pipeline and sequence untouched --
        so the journal on disk always describes exactly the alerts the
        service acted on and a resumed run replays to the same state.
        """
        if self._pending_crashes or self._pending_correlated:
            self._fire_shard_crashes(raw.delivered_at)
        decision = self.admission.decide(raw)
        if self.journal is not None:
            journal = self.journal
            seq = self._seq
            appended = self._io_attempt(
                "journal_append",
                raw.delivered_at,
                lambda: journal.append(
                    raw, seq, admitted=decision.admit, rung=decision.rung
                ),
            )
            if not appended:
                return []
        self.admission.apply(raw, decision)
        self._seq += 1
        if not decision.admit:
            return []
        emitted = self.pipeline.feed(raw)
        self._maybe_checkpoint(raw.delivered_at)
        self._update_gauges()
        return emitted

    def run(self, raws: Iterable[RawAlert]) -> "RuntimeService":
        for raw in raws:
            self.ingest(raw)
        return self

    def finish(self) -> None:
        """Close out the stream; final state is checkpointed if persisting."""
        self.pipeline.finish()
        self._update_gauges()
        if self.checkpoints is not None:
            self.checkpoint()

    # -- results -----------------------------------------------------------

    def reports(self) -> List[IncidentReport]:
        return self.pipeline.reports()

    def shed_counts(self) -> Dict[str, int]:
        return dict(self.admission.sheds)

    def degraded_sources(self) -> FrozenSet[str]:
        """Tools currently considered degraded (empty without a chaos plan)."""
        if self._health is None:
            return frozenset()
        return self._health.degraded_sources(self.pipeline.now)

    def _update_gauges(self) -> None:
        self.metrics.gauge(
            "runtime_open_incidents", "incident trees currently open"
        ).set(len(self.pipeline.locator.open_incidents))
        self.metrics.gauge(
            "runtime_live_locations", "alerting locations in the main tree"
        ).set(len(self.pipeline.locator.main_tree))
        self.metrics.gauge(
            "runtime_sim_time_seconds", "alert time the pipeline has reached"
        ).set(max(self.pipeline.now, 0.0))
        if self._health is not None:
            self.metrics.gauge(
                "runtime_degraded_sources",
                "monitoring tools currently past their staleness deadline",
            ).set(len(self.degraded_sources()))
        locator = self.pipeline.locator
        if isinstance(locator, MPShardedLocator):
            # per-worker counters are shipped at sweep barriers (with
            # each partition reply); aggregate the latest snapshots
            for key, value in locator.worker_counters().items():
                self.metrics.gauge(
                    f"runtime_worker_{key}",
                    f"worker-process {key.replace('_', ' ')} "
                    "(summed over shards, as of the last sweep barrier)",
                ).set(value)
            self.metrics.gauge(
                "runtime_workers_alive", "live locator worker processes"
            ).set(locator.workers_alive())

    # -- chaos: I/O retries and shard supervision ---------------------------

    def _io_attempt(
        self, op: str, now: float, fn: Callable[[], None]
    ) -> bool:
        """Run one I/O operation under the bounded retry policy.

        Without a chaos plan this is a direct call -- no wrapping, no
        counters, byte-identical to the pre-chaos service.  With one,
        each attempt first consults the :class:`FaultyIO` oracle and any
        ``OSError`` (injected or real) is retried with sim-clock
        exponential backoff, recorded as accounting in the metrics
        registry.  Returns ``False`` -- and counts a shed -- once the
        budget is exhausted; the caller decides the terminal fallback.
        """
        if self.chaos is None:
            fn()
            return True
        assert self._retry_rng is not None
        policy = self._retry_policy
        for attempt in range(policy.max_attempts):
            try:
                if self._faulty is not None:
                    self._faulty.check(op, now, attempt)
                fn()
                return True
            except OSError:
                self.metrics.counter(
                    "runtime_io_errors_total", "failed I/O attempts"
                ).inc()
                if attempt + 1 < policy.max_attempts:
                    self.metrics.counter(
                        "runtime_io_retries_total", "I/O attempts retried"
                    ).inc()
                    self.metrics.histogram(
                        "runtime_io_backoff_seconds",
                        "simulated backoff before each I/O retry",
                    ).observe(policy.backoff_s(attempt, self._retry_rng))
        self.metrics.counter(
            f"runtime_io_shed_{op}_total",
            f"{op} operations abandoned after exhausting the retry budget",
        ).inc()
        return False

    def _fire_shard_crashes(self, now: float) -> None:
        """Fire due planned shard crashes, then heal them immediately.

        A crash is due once stream time reaches its instant; the
        supervisor heals it in the same ingest -- before the pipeline
        touches the tree again -- so siblings and open incidents never
        observe the dead shard.  Fired crashes are remembered (and
        checkpointed) so kill-and-resume re-derives the same schedule.

        Correlated crashes additionally destroy the recovery snapshot of
        their ``lose_snapshots`` subset.  Those shards are rebuilt from
        the durable checkpoint + journal tail (:meth:`_rebuild_lost_shards`,
        exact, so the heal is indistinguishable from a local one); only
        when that second recovery tier is itself unavailable do they
        heal empty, with every open incident stamped at
        :data:`~repro.runtime.faults.DATA_LOSS_CONFIDENCE`.
        """
        locator = self.pipeline.locator
        if not isinstance(locator, ShardSupervision):
            return
        fired_any = False
        for crash in self._pending_crashes:
            key = (crash.at, crash.shard)
            if crash.at <= now and key not in self._fired_crashes:
                self._fired_crashes.add(key)
                locator.crash_shard(crash.shard)
                fired_any = True
                self.metrics.counter(
                    "runtime_shard_crashes_total",
                    "locator shards crashed by the chaos plan",
                ).inc()
        for event in self._pending_correlated:
            ckey = (event.at, event.shards)
            if event.at <= now and ckey not in self._fired_correlated:
                self._fired_correlated.add(ckey)
                fired_any = True
                self.metrics.counter(
                    "runtime_correlated_crashes_total",
                    "correlated multi-shard crash events fired",
                ).inc()
                for shard in event.shards:
                    locator.crash_shard(shard)
                    self.metrics.counter(
                        "runtime_shard_crashes_total",
                        "locator shards crashed by the chaos plan",
                    ).inc()
                for shard in event.lose_snapshots:
                    locator.invalidate_snapshot(shard)
                    self.metrics.counter(
                        "runtime_shard_snapshots_lost_total",
                        "per-shard recovery snapshots destroyed by the plan",
                    ).inc()
        if not fired_any:
            return
        lost = locator.lost_snapshots()
        rebuilt: Dict[int, bytes] = {}
        if lost:
            rebuilt = self._rebuild_lost_shards(lost, now)
            for index in sorted(rebuilt):
                locator.install_base(index, rebuilt[index])
                self.metrics.counter(
                    "runtime_shard_rebuilds_total",
                    "lost shards rebuilt from checkpoint + journal tail",
                ).inc()
        before_ops = locator.replayed_ops
        before_degraded = locator.degraded_heals
        restored = locator.heal_crashed()
        self.metrics.counter(
            "runtime_shard_restores_total",
            "crashed locator shards restored by the supervisor",
        ).inc(restored)
        self.metrics.counter(
            "runtime_shard_replayed_ops_total",
            "tree operations replayed while healing crashed shards",
        ).inc(locator.replayed_ops - before_ops)
        degraded = locator.degraded_heals - before_degraded
        if degraded:
            self.metrics.counter(
                "runtime_shard_degraded_heals_total",
                "shards healed empty after losing every recovery source",
            ).inc(degraded)
            self._stamp_data_loss(sorted(lost - set(rebuilt)))

    def _rebuild_lost_shards(
        self, lost: Set[int], now: float
    ) -> Dict[int, bytes]:
        """Rebuild lost shards' trees from checkpoint + journal, exactly.

        A scratch in-process pipeline is restored from the newest durable
        checkpoint and fed the journal tail up to (not including) the
        alert being ingested -- crashes fire before the current alert's
        append, so the scratch state is precisely the live pre-insert
        state and the extracted shard trees are what the dead shards
        held.  Returns ``{}`` (caller degrades) when there is no
        persistence directory, the ``journal_read`` scan is
        fault-exhausted, or the journal is corrupted/truncated short of
        the live frontier.

        The scratch never touches live state: the journal reader is a
        fresh handle-free instance (segments are only created on append),
        the checkpoint payload is unpickled from disk, and the global
        incident-id counter -- which scratch replay advances -- is
        restored to the live value on every exit path.
        """
        if (
            self.directory is None
            or self.checkpoints is None
            or self.journal is None
        ):
            return {}
        after_seq = -1
        payload: Optional[Dict[str, object]] = None
        found = self.checkpoints.latest()
        if found is not None:
            _ckpt_seq, payload = found
            after_seq = int(payload["seq"]) - 1  # type: ignore[arg-type]
        limit = self._seq - 1
        reader = AlertJournal(
            self.directory / JOURNAL_SUBDIR,
            self.config.runtime.journal_segment_records,
        )
        entries: List = []

        def _scan() -> None:
            del entries[:]
            for entry in reader.replay(after_seq=after_seq):
                if entry.seq > limit:
                    break
                entries.append(entry)

        if not self._io_attempt("journal_read", now, _scan):
            return {}
        last_seq = entries[-1].seq if entries else after_seq
        if last_seq != limit:
            # the journal cannot reach the live frontier: a rebuild from
            # it would be silently stale, so admit the loss instead (a
            # defect replay continued past does not stop it short)
            return {}
        live_next_id = _next_incident_id(self.pipeline.locator)
        try:
            scratch = SkyNet(
                self._topology,
                config=self.config,
                state=self._net_state,
                locator=ShardedLocator(self._topology, self.config),
            )
            if payload is not None:
                restore_pipeline_state(
                    scratch, payload["pipeline"]  # type: ignore[arg-type]
                )
            for entry in entries:
                if entry.admitted:
                    scratch.feed(entry.raw)
            trees = scratch.locator.main_tree.shard_trees
            return {
                index: pickle.dumps(
                    trees[index], protocol=pickle.HIGHEST_PROTOCOL
                )
                for index in sorted(lost)
            }
        finally:
            set_incident_counter(live_next_id)

    def _stamp_data_loss(self, shards: List[int]) -> None:
        """Annotate every open incident with the admitted shard loss."""
        tags = [f"shard{index}-data-loss" for index in shards]
        stamped = 0
        for incident in self.pipeline.locator.open_incidents:
            incident.note_degradation(DATA_LOSS_CONFIDENCE, tags)
            stamped += 1
        if stamped:
            self.metrics.counter(
                "runtime_data_loss_stamped_incidents_total",
                "open incidents stamped with data-loss confidence",
            ).inc(stamped)

    # -- checkpointing -----------------------------------------------------

    def _maybe_checkpoint(self, now: float) -> None:
        interval = self.config.runtime.checkpoint_interval_s
        if self.checkpoints is None or interval <= 0:
            return
        if now - self._last_checkpoint_t >= interval:
            self.checkpoint(now)

    def checkpoint(self, now: Optional[float] = None) -> None:
        """Snapshot everything needed to resume at the current seq.

        Under a chaos plan both the journal fsync and the checkpoint
        save run inside the bounded retry policy; if either sheds, the
        checkpoint is skipped (counted, retried at the next cadence
        tick) -- the journal already holds every alert, so a later
        resume just replays a longer tail.  Nothing is ever lost to a
        failed checkpoint."""
        if self.checkpoints is None:
            raise RuntimeError("service has no persistence directory")
        when = now if now is not None else self.pipeline.now
        if self.journal is not None:
            if not self._io_attempt("journal_sync", when, self.journal.sync):
                self.metrics.counter(
                    "runtime_checkpoints_skipped_total",
                    "checkpoints skipped after I/O retry exhaustion",
                ).inc()
                return
        state: Dict[str, object] = {
            "seq": self._seq,
            "sim_now": self.pipeline.now,
            "pipeline": pipeline_state_dict(self.pipeline),
            "admission": self.admission.state_dict(),
            "metrics": self.metrics,
        }
        if self._health is not None:
            state["health"] = self._health.state_dict()
        if self._pending_crashes or self._pending_correlated:
            state["chaos"] = {
                "fired_crashes": sorted(self._fired_crashes),
                "fired_correlated": sorted(self._fired_correlated),
            }
        if self.checkpoint_extras is not None:
            state["extras"] = self.checkpoint_extras()
        checkpoints = self.checkpoints
        seq = self._seq
        saved = self._io_attempt(
            "checkpoint_save", when, lambda: checkpoints.save(seq, state)
        )
        if not saved:
            self.metrics.counter(
                "runtime_checkpoints_skipped_total",
                "checkpoints skipped after I/O retry exhaustion",
            ).inc()
            return
        locator = self.pipeline.locator
        if isinstance(locator, ShardSupervision):
            # refresh shard recovery bases only once the checkpoint is
            # durable, keeping both recovery sources aligned
            locator.snapshot_shards()
        self._last_checkpoint_t = when
        self.metrics.counter(
            "runtime_checkpoints_total", "snapshot checkpoints written"
        ).inc()
        if (
            self.config.runtime.journal_compaction
            and self.journal is not None
        ):
            listing = self.checkpoints.list()
            if listing:
                removed = self.journal.compact(listing[0].seq)
                if removed:
                    self.metrics.counter(
                        "runtime_journal_segments_compacted_total",
                        "journal segments deleted by checkpoint compaction",
                    ).inc(removed)

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def resume(
        cls,
        topology: Topology,
        directory: pathlib.Path,
        config: Optional[SkyNetConfig] = None,
        state: Optional[NetworkState] = None,
        chaos: Optional[ChaosPlan] = None,
        run_seed: int = 0,
        tap: Optional[PipelineObserver] = None,
        extras_hook: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> "RuntimeService":
        """Rebuild a service from its journal + checkpoints directory.

        Loads the newest loadable checkpoint (if any), replays the
        journal tail through the same code paths the live run used, and
        returns a service ready to ingest new alerts.  Replay reads only
        the segments from the checkpoint's onwards.  Journal corruption
        stops the replay at the last valid record -- unless an earlier
        resume already recovered from it, in which case replay follows
        that resume's segment (see ``journal.py``) -- and is surfaced in
        ``service.recovery``; recovery proceeds, it does not crash.

        ``extras_hook`` receives the checkpoint's ``extras`` payload (see
        ``checkpoint_extras``) *between* the snapshot restore and the
        journal-tail replay, so a layered service (the gateway) can
        rebuild its own state before the replay drives its ``tap``.

        A chaos run must be resumed with the *same* plan and run seed it
        started with (the caller owns that invariant, exactly as for
        topology and config); planned shard crashes already past replay
        re-fire and re-heal deterministically, which is a no-op on the
        tree by the supervisor's exactness guarantee."""
        service = cls(
            topology,
            config=config,
            state=state,
            directory=directory,
            chaos=chaos,
            run_seed=run_seed,
            tap=tap,
        )
        if service.journal is None or service.checkpoints is None:
            raise RuntimeError("resume requires a persistence directory")

        checkpoint_seq: Optional[int] = None
        after_seq = -1
        found = service.checkpoints.latest()
        if found is not None:
            seq, payload = found
            checkpoint_seq = seq
            restore_pipeline_state(
                service.pipeline, payload["pipeline"]  # type: ignore[arg-type]
            )
            restored_metrics = payload.get("metrics")
            if isinstance(restored_metrics, MetricsRegistry):
                service._rebind_metrics(restored_metrics)
            service.admission.load_state_dict(
                payload["admission"]  # type: ignore[arg-type]
            )
            health_state = payload.get("health")
            if service._health is not None and isinstance(health_state, dict):
                service._health.load_state_dict(health_state)
            chaos_state = payload.get("chaos")
            if isinstance(chaos_state, dict):
                service._fired_crashes = {
                    (float(at), int(shard))
                    for at, shard in chaos_state.get("fired_crashes", [])
                }
                service._fired_correlated = {
                    (float(at), tuple(int(s) for s in shards))
                    for at, shards in chaos_state.get("fired_correlated", [])
                }
            service._seq = int(payload["seq"])  # type: ignore[arg-type]
            service._last_checkpoint_t = float(
                payload.get("sim_now", service.pipeline.now)  # type: ignore[arg-type]
            )
            after_seq = service._seq - 1
            extras = payload.get("extras")
            if extras_hook is not None and isinstance(extras, dict):
                extras_hook(extras)

        replayed = 0
        for entry in service.journal.replay(after_seq=after_seq):
            service._fire_shard_crashes(entry.raw.delivered_at)
            service.admission.replay(entry.raw, entry.admitted, entry.rung)
            if entry.admitted:
                service.pipeline.feed(entry.raw)
            service._seq = entry.seq + 1
            replayed += 1
        service._update_gauges()
        service.recovery = RecoveryReport(
            checkpoint_seq=checkpoint_seq,
            replayed_records=replayed,
            corruptions=tuple(service.journal.corruptions),
            skipped_segments=service.journal.skipped_segments,
            read_records=service.journal.read_records,
            unloadable_checkpoints=tuple(service.checkpoints.unloadable),
        )
        for corruption in service.recovery.corruptions:
            service.metrics.counter(
                "runtime_journal_corruptions_total",
                "journal defects detected during recovery",
            ).inc()
        if service.recovery.unloadable_checkpoints:
            service.metrics.counter(
                "runtime_checkpoint_fallbacks_total",
                "unloadable checkpoints recovery skipped for an older one",
            ).inc(len(service.recovery.unloadable_checkpoints))
        return service

    def _rebind_metrics(self, metrics: MetricsRegistry) -> None:
        """Swap in a restored registry and re-point every handle holder."""
        self.metrics = metrics
        self.observer = RuntimeObserver(metrics)
        self.pipeline.observer = (
            self.observer
            if self.tap is None
            else _FanoutObserver((self.observer, self.tap))
        )
        self.admission._metrics = metrics
