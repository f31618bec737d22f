"""Incidents: alert clusters sharing a time window and location (§3, §4.2).

An incident tree is a replicated subtree of the main tree, rooted at the
location whose alert group crossed the generation thresholds.  Its report
(Figure 6) lists the grouped alerts by level -- failure / abnormal /
root-cause -- which is the distilled view operators actually read.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..topology.hierarchy import LocationPath
from .alert import AlertLevel, AlertTypeKey, StructuredAlert
from .alert_tree import TreeRecord, record_from

# Process-global by design: incident ids must be dense and stable across
# checkpoint/resume, so the counter is checkpointed (set_incident_counter)
# and rebound on restore.  The multiprocess-shard port must replace this
# with ids minted by the owning shard (ROADMAP "multiprocess shards").
_incident_counter = itertools.count(1)  # lint: allow REP014

#: Report ordering of levels, matching Figure 6's sections.
LEVEL_ORDER = (AlertLevel.FAILURE, AlertLevel.ABNORMAL, AlertLevel.ROOT_CAUSE)


class IncidentStatus(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"  # idle past the incident timeout (Algorithm 3)
    SUPERSEDED = "superseded"  # absorbed into a wider incident (Algorithm 2)


@dataclasses.dataclass
class SeverityBreakdown:
    """The evaluator's output for one incident (Equations 1-3)."""

    impact_factor: float  # I_k
    time_factor: float  # T_k
    score: float  # y_k = I_k * T_k
    capped_score: float  # min(score, cap) -- what reports display
    ping_loss_rate: float  # R_k
    sla_excess_rate: float  # L_k
    duration_s: float  # ΔT_k
    important_customers: int  # U_k
    circuit_sets_considered: int

    def exceeds(self, threshold: float) -> bool:
        return self.score >= threshold


class Incident:
    """One alert cluster: a replicated location subtree plus its records."""

    def __init__(self, root: LocationPath, created_at: float,
                 seed_nodes: Dict[LocationPath, List[TreeRecord]]) -> None:
        self.incident_id = f"incident-{next(_incident_counter):05d}"
        self.root = root
        self.created_at = created_at
        self.update_time = created_at
        self.status = IncidentStatus.OPEN
        self.closed_at: Optional[float] = None
        self.refined_location: Optional[LocationPath] = None  # zoom-in result
        self.severity: Optional[SeverityBreakdown] = None
        #: assessment confidence in [0, 1]; None until a degraded data
        #: source touches this incident (the evaluator stamps it), so
        #: healthy runs carry -- and render -- no confidence annotation
        self.confidence: Optional[float] = None
        #: degraded sources that affected this incident's assessment
        self.degraded_sources: Tuple[str, ...] = ()
        self._nodes: Dict[LocationPath, Dict[AlertTypeKey, TreeRecord]] = {}
        for location, records in seed_nodes.items():
            node = self._nodes.setdefault(location, {})
            for record in records:
                existing = node.get(record.type_key)
                if existing is None:
                    node[record.type_key] = record
                else:
                    _merge_records(existing, record)
        if seed_nodes:
            self.update_time = max(
                r.last_seen for recs in seed_nodes.values() for r in recs
            )
        #: least ``first_seen`` of any record (None while there are none)
        self._first_seen = self._least_first_seen()

    def __setstate__(self, state: Dict[str, object]) -> None:
        # incidents pickled before the running minimum existed lack it
        self.__dict__.update(state)
        if "_first_seen" not in state:
            self._first_seen = self._least_first_seen()

    def _least_first_seen(self) -> Optional[float]:
        return min((r.first_seen for r in self.records()), default=None)

    def _saw(self, first_seen: float) -> None:
        if self._first_seen is None or first_seen < self._first_seen:
            self._first_seen = first_seen

    # -- growth --------------------------------------------------------------

    def covers(self, location: LocationPath) -> bool:
        return self.root.contains(location)

    def add(self, alert: StructuredAlert) -> None:
        """Algorithm 1 lines 2-9: attach an alert inside the incident scope."""
        if not self.covers(alert.location):
            raise ValueError(
                f"{alert.location} is outside incident root {self.root}"
            )
        node = self._nodes.setdefault(alert.location, {})
        record = node.get(alert.type_key)
        if record is None:
            node[alert.type_key] = record_from(alert)
        else:
            record.absorb(alert)
        self._saw(alert.first_seen)
        self.update_time = max(self.update_time, alert.last_seen)

    def absorb_incident(self, other: "Incident") -> None:
        """Merge a narrower incident this one supersedes (Algorithm 2 l.7-9)."""
        for location, node in other._nodes.items():
            mine = self._nodes.setdefault(location, {})
            for key, record in node.items():
                if key in mine:
                    _merge_records(mine[key], record)
                else:
                    mine[key] = record.clone()
                self._saw(record.first_seen)
        self.created_at = min(self.created_at, other.created_at)
        self.update_time = max(self.update_time, other.update_time)

    def close(self, now: float, status: IncidentStatus = IncidentStatus.CLOSED) -> None:
        self.status = status
        self.closed_at = now

    def note_degradation(
        self, confidence: float, degraded: Iterable[str]
    ) -> None:
        """Record that degraded sources touched this assessment.

        Confidence keeps its in-flight *minimum* (mirroring how severity
        keeps its peak: the report must not forget how blind the system
        was at the worst moment) and the degraded-source list is the
        union over the incident's lifetime."""
        if self.confidence is None or confidence < self.confidence:
            self.confidence = confidence
        self.degraded_sources = tuple(
            sorted(set(self.degraded_sources) | set(degraded))
        )

    # -- queries ----------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self.status is IncidentStatus.OPEN

    @property
    def location(self) -> LocationPath:
        """Most precise known location (zoom-in result when available)."""
        return self.refined_location or self.root

    @property
    def start_time(self) -> float:
        if self._first_seen is None:
            return self.created_at
        return self._first_seen

    @property
    def end_time(self) -> float:
        return self.update_time

    def records(self) -> Iterator[TreeRecord]:
        for node in self._nodes.values():
            yield from node.values()

    def nodes(self) -> Dict[LocationPath, List[TreeRecord]]:
        return {loc: list(n.values()) for loc, n in self._nodes.items()}

    def alert_counts_by_level(self) -> Dict[AlertLevel, List[Tuple[AlertTypeKey, int]]]:
        """Per level: the distinct alert types present with raw counts
        (Figure 6's per-incident listing)."""
        buckets: Dict[AlertLevel, Dict[AlertTypeKey, int]] = {}
        for record in self.records():
            buckets.setdefault(record.level, {})
            buckets[record.level][record.type_key] = (
                buckets[record.level].get(record.type_key, 0) + record.count
            )
        return {
            level: sorted(types.items(), key=lambda kv: str(kv[0]))
            for level, types in buckets.items()
        }

    def distinct_type_count(self, level: Optional[AlertLevel] = None) -> int:
        keys = {
            r.type_key for r in self.records() if level is None or r.level is level
        }
        return len(keys)

    def total_alert_count(self) -> int:
        return sum(r.count for r in self.records())

    def devices_involved(self) -> List[str]:
        return sorted({r.device for r in self.records() if r.device})

    def max_metric(self, name: str, level: Optional[AlertLevel] = None) -> float:
        values = [
            r.worst_metrics.get(name, 0.0)
            for r in self.records()
            if level is None or r.level is level
        ]
        return max(values, default=0.0)

    def mean_metric(self, name: str, level: Optional[AlertLevel] = None) -> float:
        values = [
            r.worst_metrics[name]
            for r in self.records()
            if name in r.worst_metrics and (level is None or r.level is level)
        ]
        return sum(values) / len(values) if values else 0.0

    # -- rendering -----------------------------------------------------------------

    def render(self) -> str:
        """Figure 6-style incident report."""
        lines = [f"{self.incident_id}:"]
        score = f"  severity {self.severity.capped_score:.1f}" if self.severity else ""
        lines.append(
            f"[{self.location}][{self.start_time:.0f}s - {self.end_time:.0f}s]"
            f"{score}"
        )
        # only degraded runs annotate confidence: healthy renders stay
        # byte-identical to the pre-chaos report format
        if self.degraded_sources:
            assert self.confidence is not None
            lines.append(
                f"confidence {self.confidence:.2f}"
                f" (degraded: {', '.join(self.degraded_sources)})"
            )
        by_level = self.alert_counts_by_level()
        titles = {
            AlertLevel.FAILURE: "Failure alerts",
            AlertLevel.ABNORMAL: "Abnormal alerts",
            AlertLevel.ROOT_CAUSE: "Root cause alerts",
        }
        for level in LEVEL_ORDER:
            types = by_level.get(level)
            if not types:
                continue
            lines.append(titles[level])
            by_tool: Dict[str, List[Tuple[str, int]]] = {}
            for key, count in types:
                by_tool.setdefault(key.tool, []).append((key.name, count))
            for tool in sorted(by_tool):
                lines.append(f"  {tool}")
                entries = by_tool[tool]
                for i, (name, count) in enumerate(entries):
                    branch = "└-" if i == len(entries) - 1 else "|-"
                    lines.append(f"  {branch} {name} ({count})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Incident({self.incident_id}, root={self.root}, "
            f"types={self.distinct_type_count()}, status={self.status.value})"
        )


def _merge_records(into: TreeRecord, other: TreeRecord) -> None:
    """Merge two *overlapping views* of the same (location, type) record --
    e.g. a superseded incident's copy and the fresh main-tree snapshot.
    Counts are cumulative totals in both views, so take the larger rather
    than summing."""
    into.first_seen = min(into.first_seen, other.first_seen)
    into.last_seen = max(into.last_seen, other.last_seen)
    into.count = max(into.count, other.count)
    for key, value in other.worst_metrics.items():
        into.worst_metrics[key] = max(into.worst_metrics.get(key, value), value)
