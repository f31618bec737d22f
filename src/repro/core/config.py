"""SkyNet configuration: every tunable the paper names, in one place.

The incident thresholds use the Figure 9 ``A/B+C/D`` convention:
an incident fires for a candidate alert group when

* distinct **failure**-level alert types ``>= A``, or
* failure types ``>= B`` **and** other types ``>= C``, or
* distinct alert types of **any** level ``>= D``;

a clause with any member set to ``0`` is disabled.  Production runs
``2/1+2/5`` (§4.2, §6.3).
"""

from __future__ import annotations

import dataclasses
from typing import Any


@dataclasses.dataclass(frozen=True)
class IncidentThresholds:
    """The A/B+C/D incident-generation thresholds."""

    failure_only: int = 2  # A
    failure_combo: int = 1  # B
    other_combo: int = 2  # C
    any_level: int = 5  # D

    @classmethod
    def parse(cls, text: str) -> "IncidentThresholds":
        """Parse Figure 9's ``A/B+C/D`` label, e.g. ``"2/1+2/5"``."""
        try:
            a, rest = text.split("/", 1)
            bc, d = rest.rsplit("/", 1)
            b, c = bc.split("+")
            return cls(int(a), int(b), int(c), int(d))
        except ValueError as exc:
            raise ValueError(f"bad threshold spec {text!r}, want 'A/B+C/D'") from exc

    def label(self) -> str:
        return (
            f"{self.failure_only}/{self.failure_combo}"
            f"+{self.other_combo}/{self.any_level}"
        )

    def triggered(self, failure_types: int, other_types: int) -> bool:
        """Apply the three clauses to per-level distinct type counts."""
        total = failure_types + other_types
        if self.failure_only > 0 and failure_types >= self.failure_only:
            return True
        if (
            self.failure_combo > 0
            and self.other_combo > 0
            and failure_types >= self.failure_combo
            and other_types >= self.other_combo
        ):
            return True
        if self.any_level > 0 and total >= self.any_level:
            return True
        return False


@dataclasses.dataclass(frozen=True)
class SeverityParams:
    """Constants of Equations 1-3 (§4.3, Table 3).

    ``Sig`` is the logistic ``sig_scale / (1 + exp(-(U - sig_midpoint) /
    sig_steepness))``: a handful of important customers moves severity a
    lot, large counts saturate ("significantly influences severity when
    only a few key users are affected but stabilizes when many important
    users are impacted").
    """

    sig_scale: float = 600.0
    sig_midpoint: float = 3.0
    sig_steepness: float = 1.0
    #: overall gain on the time factor, calibrated so customer-impacting
    #: failures clear the alerting threshold while short noise blips do not
    time_factor_scale: float = 5.5
    #: loss-rate clamps keeping log_{1/R} finite
    min_rate: float = 1e-4
    max_rate: float = 0.99
    #: minimum ΔT so the log argument stays above 1
    min_duration_s: float = 2.0
    #: reporting cap (Figure 10a caps displayed scores at 100)
    score_cap: float = 100.0
    #: evaluator alerting threshold (§6.4: "we set the severity threshold
    #: score to 10")
    alert_threshold: float = 10.0


@dataclasses.dataclass(frozen=True)
class RuntimeParams:
    """Knobs for the ``repro.runtime`` online service (sharding, journal,
    checkpoints, admission control).

    These govern *how* the pipeline is hosted, never *what* it computes:
    any shard count and any checkpoint cadence must produce byte-identical
    incident reports (pinned by ``tests/runtime/``), and admission-control
    shedding is off unless ``backpressure`` is set.
    """

    #: locator shards the alert tree is partitioned over (by Region
    #: subtree; cross-region alert groups are merged exactly, see
    #: ``repro.runtime.sharding``)
    shards: int = 1
    #: journal segment rotation threshold (records per JSONL segment)
    journal_segment_records: int = 2000
    #: sim-time seconds between snapshot checkpoints (0 disables)
    checkpoint_interval_s: float = 600.0
    #: admission-control backpressure: when the ingest window overflows,
    #: shed load along the §4.1 consolidation ladder (dedup -> single-source
    #: suppression -> cross-source combination), counting every shed
    backpressure: bool = False
    #: rolling window the admission controller measures inflow over
    admission_window_s: float = 10.0
    #: raw alerts per window above which shedding starts (ladder rung 1);
    #: rungs 2 and 3 engage at 2x and 4x the watermark
    admission_watermark: int = 400
    #: opt-in journal segment compaction: at checkpoint time, delete
    #: closed segments fully covered by the oldest retained checkpoint
    #: (bounds disk across long runs; default off keeps journals strictly
    #: append-only so crashed-run evidence is never destroyed)
    journal_compaction: bool = False
    #: locator execution backend: ``"inproc"`` runs every shard on the
    #: service thread; ``"mp"`` runs each shard in a long-lived spawned
    #: worker process (``repro.runtime.workers``) fed alert batches over
    #: pickled pipes, with the cross-shard merge and incident-id
    #: assignment staying in the parent.  Both backends are byte-identical
    #: to the unsharded reference (pinned by
    #: ``tests/runtime/test_shard_invariance.py``).
    backend: str = "inproc"
    #: bounded retry budget for journal/checkpoint I/O failures; attempt
    #: counts above this shed the write (visible in metrics, never silent)
    io_max_attempts: int = 4
    #: first-retry backoff (sim-clock accounting, doubled per attempt and
    #: capped at ``io_max_backoff_s``; jittered from the run seed)
    io_base_backoff_s: float = 0.5
    io_max_backoff_s: float = 30.0


@dataclasses.dataclass(frozen=True)
class SkyNetConfig:
    """Top-level configuration for the whole pipeline."""

    thresholds: IncidentThresholds = IncidentThresholds()
    severity: SeverityParams = SeverityParams()
    runtime: RuntimeParams = RuntimeParams()
    #: main-tree alert timeout (§4.2: 5 minutes, sized by SNMP delays)
    node_timeout_s: float = 300.0
    #: incident-tree idle timeout (§4.2: "the threshold is set to 15 minutes")
    incident_timeout_s: float = 900.0
    #: count duplicate alert types once (False = Figure 9's "type+location")
    count_by_type: bool = True
    #: device-graph hops within which alerting devices share a root cause
    connectivity_max_hops: int = 2
    #: how often the locator sweeps trees for generation/expiry
    sweep_interval_s: float = 10.0
    # -- preprocessor knobs (§4.1) --
    #: identical alerts arriving within this window merge into one
    merge_window_s: float = 300.0
    #: re-emit an ongoing aggregated alert at most this often
    refresh_interval_s: float = 60.0
    #: occurrences before a sporadic-prone alert type is believed
    persistence_occurrences: int = 2
    #: ...and the occurrences must span at least this long: "sporadic packet
    #: loss is ignored, while persistent packet loss is recorded" (§4.1)
    persistence_min_span_s: float = 60.0
    #: window for persistence counting and cross-source correlation
    correlation_window_s: float = 120.0

    def replace(self, **kwargs: Any) -> "SkyNetConfig":
        return dataclasses.replace(self, **kwargs)


#: The settings SkyNet runs with in production.
PRODUCTION_CONFIG = SkyNetConfig()
