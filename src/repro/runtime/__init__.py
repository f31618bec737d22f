"""repro.runtime: the paper's pipeline as a resumable online service.

The reproduction's core (``repro.core``) is a faithful batch rendering of
§4's algorithms; this package is the serving layer a production SkyNet
needs around them (§2's operational setting -- 12+ monitor feeds, severe
floods, no downtime):

* :mod:`sharding` -- the alert tree partitioned over N Region-subtree
  shards with an exact cross-shard merge; byte-identical to the
  unsharded reference at every shard count.
* :mod:`journal` -- write-ahead JSONL alert journal with rotation and
  loud, non-fatal corruption reporting.
* :mod:`checkpoint` -- periodic snapshots of all mutable pipeline state;
  restore + journal replay reproduces the uninterrupted run exactly.
* :mod:`admission` -- watermark backpressure shedding along §4.1's
  consolidation ladder, every shed counted.
* :mod:`metrics` -- sim-clock counters/gauges/histograms threaded
  through the stages via the pipeline observer hook.
* :mod:`faults` / :mod:`health` / :mod:`supervisor` -- the chaos layer:
  seeded :class:`ChaosPlan` fault injection (source outages/brownouts,
  shard crashes, journal/checkpoint I/O faults), per-source staleness
  tracking feeding §4.3 degraded-mode fallback and incident confidence,
  and exact crash-and-heal shard supervision.  Entirely opt-in: with no
  plan the runtime is byte-identical to a chaos-free build.
* :mod:`workers` -- the multiprocess execution backend
  (``backend="mp"``): each shard tree owned by a long-lived spawned
  worker process behind a :class:`RemoteAlertTree` proxy, so the
  sharded tree, cross-shard merge, incident-id assignment and
  supervision (real SIGKILLed processes healed from snapshot+oplog) are
  the in-process code.  Byte-identical to ``inproc`` at every shard
  count.
* :mod:`service` / :mod:`cli` -- composition plus the
  ``python -m repro.runtime`` entry point.
"""

from .admission import AdmissionController, AdmissionDecision
from .checkpoint import CheckpointStore, pipeline_state_dict, restore_pipeline_state
from .faults import (
    DATA_LOSS_CONFIDENCE,
    ChaosPlan,
    CorrelatedCrash,
    FaultInjectedIOError,
    FaultyIO,
    IOFault,
    PerturbResult,
    RetryPolicy,
    ShardCrash,
    SourceBrownout,
    SourceOutage,
    chaos_or_none,
    empty_plan,
)
from .health import SourceHealthTracker
from .journal import AlertJournal, JournalCorruption, JournalEntry
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .service import BACKENDS, RecoveryReport, RuntimeObserver, RuntimeService
from .sharding import (
    ShardedAlertTree,
    ShardedLocator,
    ShardRouter,
    frontier_devices,
    merge_shard_partitions,
)
from .supervisor import SupervisedAlertTree, SupervisedLocator
from .workers import (
    MPShardedLocator,
    MPSupervisedLocator,
    RemoteAlertTree,
    WorkerCrashed,
    WorkerError,
    WorkerPool,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AlertJournal",
    "BACKENDS",
    "ChaosPlan",
    "CheckpointStore",
    "CorrelatedCrash",
    "Counter",
    "DATA_LOSS_CONFIDENCE",
    "FaultInjectedIOError",
    "FaultyIO",
    "Gauge",
    "Histogram",
    "IOFault",
    "JournalCorruption",
    "JournalEntry",
    "MPShardedLocator",
    "MPSupervisedLocator",
    "MetricsRegistry",
    "PerturbResult",
    "RecoveryReport",
    "RemoteAlertTree",
    "RetryPolicy",
    "RuntimeObserver",
    "RuntimeService",
    "ShardCrash",
    "ShardRouter",
    "ShardedAlertTree",
    "ShardedLocator",
    "SourceBrownout",
    "SourceHealthTracker",
    "SourceOutage",
    "SupervisedAlertTree",
    "SupervisedLocator",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "chaos_or_none",
    "empty_plan",
    "frontier_devices",
    "merge_shard_partitions",
    "pipeline_state_dict",
    "restore_pipeline_state",
]
