"""The hierarchical alert tree ("main tree") of §4.2 / Figure 5c.

Nodes are location paths; each node holds the alert types currently alive
there.  Alerts expire ``node_timeout_s`` after their last occurrence
(Algorithm 3 line 2), a threshold sized so delayed SNMP counters from
CPU-starved devices still join their incident.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..topology.hierarchy import LocationPath
from .alert import AlertLevel, AlertTypeKey, StructuredAlert

#: A connectivity partition of alerting locations (the locator's rules).
Partitioner = Callable[[List[LocationPath]], List[List[LocationPath]]]


@dataclasses.dataclass
class TreeRecord:
    """One alert type alive at one tree node."""

    type_key: AlertTypeKey
    level: AlertLevel
    location: LocationPath
    first_seen: float
    last_seen: float
    count: int
    device: Optional[str] = None
    worst_metrics: Dict[str, float] = dataclasses.field(default_factory=dict)

    def absorb(self, alert: StructuredAlert) -> None:
        """Fold a new emission of the same (type, location) into the record."""
        self.first_seen = min(self.first_seen, alert.first_seen)
        self.last_seen = max(self.last_seen, alert.last_seen)
        self.count += alert.count
        for key, value in alert.metrics.items():
            self.worst_metrics[key] = max(self.worst_metrics.get(key, value), value)

    def expired(self, now: float, timeout_s: float) -> bool:
        return now > self.last_seen + timeout_s

    def clone(self) -> "TreeRecord":
        return dataclasses.replace(self, worst_metrics=dict(self.worst_metrics))


def record_from(alert: StructuredAlert) -> TreeRecord:
    return TreeRecord(
        type_key=alert.type_key,
        level=alert.level,
        location=alert.location,
        first_seen=alert.first_seen,
        last_seen=alert.last_seen,
        count=alert.count,
        device=alert.device,
        worst_metrics=dict(alert.metrics),
    )


class AlertTree:
    """Location-indexed alert storage with expiry (the "main tree").

    ``nodes`` maps each alerting location to its live records by type;
    structural bookkeeping is implicit in the location paths, so subtree
    queries are containment scans over the (small) set of alerting nodes.

    A lazy min-heap over record freshness lets :meth:`expire` visit only
    the records that are actually due instead of walking the whole tree
    every sweep (the walk survives as the test oracle,
    ``tests/reference_oracle.py``).

    Two cheap indices are maintained for incremental consumers:
    :attr:`structure_version` changes whenever the *set of live
    locations* changes (node created or dropped), and
    :meth:`consume_dirty` drains the locations touched since last asked.
    The connectivity partition of the live locations is memoised on the
    former (:meth:`partition`).
    """

    def __init__(self) -> None:
        self._nodes: Dict[LocationPath, Dict[AlertTypeKey, TreeRecord]] = {}
        #: bumped whenever a location node appears or disappears
        self.structure_version = 0
        self._dirty: Set[LocationPath] = set()
        # lazy expiry heap: (last_seen at push time, tiebreak, location, type)
        self._expiry_heap: List[Tuple[float, int, LocationPath, AlertTypeKey]] = []
        self._heap_seq = itertools.count()
        #: (structure_version, components) of the last :meth:`partition`
        self.partition_memo: Optional[Tuple[int, List[List[LocationPath]]]] = None

    def __getstate__(self) -> Dict[str, object]:
        # the partition memo is derived state: checkpoints stay as before
        state = dict(self.__dict__)
        state.pop("partition_memo", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Checkpoints pickle live trees and carry no version.  A tree
        written while the expiry heap was optional has a ``_fast`` flag
        and, where that was off, an empty heap: rebuild the heap from the
        live records, or none of them would ever expire."""
        heap_was_kept = state.pop("_fast", True)
        self.partition_memo = None
        self.__dict__.update(state)
        if not heap_was_kept:
            for location, node in self._nodes.items():
                for key, record in node.items():
                    self._push_expiry(location, key, record.last_seen)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, location: LocationPath) -> bool:
        return location in self._nodes

    def consume_dirty(self) -> Set[LocationPath]:
        """Locations touched since the previous call (then reset)."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def insert(self, alert: StructuredAlert) -> TreeRecord:
        """Algorithm 1's node insertion: create-or-update the record for the
        alert's (location, type)."""
        record = self._insert_one(alert)
        self._push_expiry(alert.location, alert.type_key, record.last_seen)
        return record

    def insert_batch(self, alerts: Iterable[StructuredAlert]) -> int:
        """Insert a sweep-interval's worth of alerts in one pass.

        State-equivalent to calling :meth:`insert` per alert in the same
        order, but pushes at most one expiry-heap entry per touched
        (location, type) pair -- under a flood most alerts refresh the
        same few records, so this keeps the heap near the live-record
        count instead of the alert count."""
        touched: Dict[Tuple[LocationPath, AlertTypeKey], TreeRecord] = {}
        count = 0
        for alert in alerts:
            record = self._insert_one(alert)
            touched[(alert.location, alert.type_key)] = record
            count += 1
        for (location, key), record in touched.items():
            self._push_expiry(location, key, record.last_seen)
        return count

    def _insert_one(self, alert: StructuredAlert) -> TreeRecord:
        node = self._nodes.get(alert.location)
        if node is None:
            node = self._nodes[alert.location] = {}
            self.structure_version += 1
        self._dirty.add(alert.location)
        record = node.get(alert.type_key)
        if record is None:
            record = record_from(alert)
            node[alert.type_key] = record
        else:
            record.absorb(alert)
        return record

    def _push_expiry(
        self, location: LocationPath, key: AlertTypeKey, last_seen: float
    ) -> None:
        heapq.heappush(
            self._expiry_heap, (last_seen, next(self._heap_seq), location, key)
        )

    def expire(self, now: float, timeout_s: float) -> int:
        """Algorithm 3 lines 1-3: drop stale records and empty nodes.

        Pops heap entries whose pushed freshness is past the timeout; a
        record refreshed since its entry was pushed fails the live
        ``expired`` re-check and survives (its refresh pushed a newer
        entry, so it will be revisited when that one is due)."""
        removed = 0
        heap = self._expiry_heap
        while heap and now > heap[0][0] + timeout_s:
            _, _, location, key = heapq.heappop(heap)
            node = self._nodes.get(location)
            if node is None:
                continue
            record = node.get(key)
            if record is None or not record.expired(now, timeout_s):
                continue
            del node[key]
            removed += 1
            if not node:
                del self._nodes[location]
                self.structure_version += 1
                self._dirty.discard(location)
        return removed

    # -- queries ---------------------------------------------------------------

    def locations(self) -> List[LocationPath]:
        return list(self._nodes)

    def partition(self, partitioner: Partitioner) -> List[List[LocationPath]]:
        """The live locations split by ``partitioner``, memoised until the
        location set changes (:attr:`structure_version`).

        The partition depends on the set of live locations alone, so a
        sweep that only refreshed records reuses the last one."""
        memo = self.partition_memo
        if memo is None or memo[0] != self.structure_version:
            memo = (self.structure_version, partitioner(self.locations()))
            self.partition_memo = memo
        return memo[1]

    def records_at(self, location: LocationPath) -> List[TreeRecord]:
        return list(self._nodes.get(location, {}).values())

    def iter_records_at(self, location: LocationPath) -> Iterator[TreeRecord]:
        """Like :meth:`records_at` without the defensive copy (hot path)."""
        node = self._nodes.get(location)
        if node is not None:
            yield from node.values()

    def records_under(self, root: LocationPath) -> Iterator[TreeRecord]:
        """All live records in the subtree of ``root`` (root included)."""
        for location, node in self._nodes.items():
            if root.contains(location):
                yield from node.values()

    def locations_under(self, root: LocationPath) -> List[LocationPath]:
        return [loc for loc in self._nodes if root.contains(loc)]

    def total_records(self) -> int:
        return sum(len(node) for node in self._nodes.values())

    def snapshot_under(
        self, root: LocationPath
    ) -> Dict[LocationPath, List[TreeRecord]]:
        """Deep-copied subtree, used when an incident tree is replicated
        from the main tree (§4.2)."""
        out: Dict[LocationPath, List[TreeRecord]] = {}
        for location, node in self._nodes.items():
            if root.contains(location):
                out[location] = [r.clone() for r in node.values()]
        return out
