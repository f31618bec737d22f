"""The hierarchical alert tree ("main tree") of §4.2 / Figure 5c.

Nodes are location paths; each node holds the alert types currently alive
there.  Alerts expire ``node_timeout_s`` after their last occurrence
(Algorithm 3 line 2), a threshold sized so delayed SNMP counters from
CPU-starved devices still join their incident.

The tree also keeps the connectivity partition of its live locations
(Algorithm 2's "area connected to the root node") alive between sweeps:
the locator states its edge rules as per-location :data:`Links`, and
:meth:`AlertTree.partition` applies only the locations created or
dropped since the previous call.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..topology.hierarchy import LocationPath
from .alert import AlertLevel, AlertTypeKey, StructuredAlert

#: One location's edges under the connectivity rules, as match keys:
#: ``(claim, hubs, owns, seeks)``.  Two live locations are linked when
#: they share a hub, or when one owns a key the other seeks.  Hubs only
#: count for the newest live location holding a given (non-None) claim.
Links = Tuple[
    Optional[Hashable],
    Tuple[Hashable, ...],
    Tuple[Hashable, ...],
    Tuple[Hashable, ...],
]

#: The connectivity rules: a location's :data:`Links` (the locator's).
Linker = Callable[[LocationPath], Links]


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


def lca_prefix(members: Sequence[LocationPath]) -> LocationPath:
    """A group's lowest common ancestor via one common-prefix computation.

    The structural LCA is the longest common prefix of all members'
    structural segments, and the common prefix of a set of tuples equals
    the common prefix of its lexicographic min and max."""
    if len(members) == 1:
        return members[0]
    seglists = [_structural(loc) for loc in members]
    return _common_prefix(min(seglists), max(seglists))


def _structural(location: LocationPath) -> Tuple[str, ...]:
    segments = location.segments
    return segments[:-1] if location.is_device else segments


def _common_prefix(lo: Tuple[str, ...], hi: Tuple[str, ...]) -> LocationPath:
    common = 0
    for a, b in zip(lo, hi):
        if a != b:
            break
        common += 1
    return LocationPath(lo[:common])


class Component(List[LocationPath]):
    """One connected group of live locations, never mutated once built.

    Carries the two facts every consumer sorts and roots it by: ``root``
    (the group's lowest common ancestor) and ``least`` (its least
    member).  A tree hands back the same object until the group gains
    or loses a member, so these are computed once per change."""

    __slots__ = ("root", "least")

    def __init__(
        self, members: Iterable[LocationPath], root: LocationPath, least: LocationPath
    ) -> None:
        super().__init__(members)
        self.root = root
        self.least = least


class _LivePartition:
    """Connected components of a tree's live locations, kept across sweeps.

    A created location is linked to its live neighbours and merges their
    components (the smaller relabelled into the largest).  Dropped
    locations are handled locally: every piece a component C splits into
    after losing the set R holds a surviving neighbour of R (C was
    connected), so one search per such neighbour, run in lockstep and
    fused whenever two meet, finds each split-off piece by running dry
    -- and stops as soon as a single search is left, which is the rest.

    Placed locations are numbered in placement order, which is the
    tree's node order; everything inside works on those numbers.
    """

    def __init__(self, linker: Linker) -> None:
        self.linker = linker
        self._numbers = itertools.count()
        self.number: Dict[LocationPath, int] = {}
        self.location: Dict[int, LocationPath] = {}
        self.links: Dict[int, Links] = {}
        #: per number: the path's order key, and its structural segments
        self.order_key: Dict[int, Tuple[Tuple[str, ...], bool]] = {}
        self.structural: Dict[int, Tuple[str, ...]] = {}
        self.hubs: Dict[Hashable, Set[int]] = {}
        self.owners: Dict[Hashable, Set[int]] = {}
        self.seekers: Dict[Hashable, Set[int]] = {}
        self.claims: Dict[Hashable, int] = {}
        self.label: Dict[int, int] = {}
        self.members: Dict[int, Set[int]] = {}
        self._labels = itertools.count()
        self.changed: Set[int] = set()
        #: label -> (its least number, its component); :meth:`components`
        #: rebuilds the entries of the labels in :attr:`changed`
        self.snapshots: Dict[int, Tuple[int, Component]] = {}
        self.result: List[Component] = []
        #: the tree's structure version when :attr:`result` was built
        self.version = -1

    # -- the match-key indexes ----------------------------------------------

    def _index(self, location: LocationPath, links: Links) -> int:
        n = next(self._numbers)
        self.number[location] = n
        self.location[n] = location
        self.links[n] = links
        self.order_key[n] = (location.segments, location.is_device)
        self.structural[n] = _structural(location)
        claim, hubs, owns, seeks = links
        if claim is not None:
            self.claims[claim] = self.claims.get(claim, 0) + 1
        for index, keys in ((self.hubs, hubs), (self.owners, owns), (self.seekers, seeks)):
            for key in keys:
                held = index.get(key)
                if held is None:
                    index[key] = {n}
                else:
                    held.add(n)
        return n

    def _unindex(self, location: LocationPath) -> int:
        n = self.number.pop(location)
        del self.location[n], self.order_key[n], self.structural[n]
        claim, hubs, owns, seeks = self.links[n]
        if claim is not None:
            left = self.claims[claim] - 1
            if left:
                self.claims[claim] = left
            else:
                del self.claims[claim]
        for index, keys in ((self.hubs, hubs), (self.owners, owns), (self.seekers, seeks)):
            for key in keys:
                held = index[key]
                held.discard(n)
                if not held:
                    del index[key]
        return n

    def _linked(self, links: Links) -> List[Set[int]]:
        """The placed numbers a location with ``links`` is linked to, as
        one set per key it meets (its own number too, once placed: it
        shares its own hubs)."""
        _, hubs, owns, seeks = links
        found = []
        for index, keys in ((self.hubs, hubs), (self.seekers, owns), (self.owners, seeks)):
            for key in keys:
                held = index.get(key)
                if held:
                    found.append(held)
        return found

    # -- building ----------------------------------------------------------

    def fill(self, locations: Iterable[LocationPath]) -> None:
        """Place ``locations`` (a tree's nodes, in order) from scratch."""
        order = list(locations)
        links = [self.linker(location) for location in order]
        holder = {ln[0]: loc for loc, ln in zip(order, links) if ln[0] is not None}
        for location, ln in zip(order, links):
            claim = ln[0]
            if claim is not None and holder[claim] is not location:
                ln = (claim, (), ln[2], ln[3])  # an older holder: no hubs
            self._add(location, ln)

    def apply(self, born: Iterable[LocationPath], died: Iterable[LocationPath]) -> bool:
        """Remove ``died``, then place ``born`` (in node order).

        Returns False, changing nothing, when a claim is or was held
        twice: which holder keeps its hubs depends on node order, and a
        rebuild (:meth:`fill`) is the one place that order is applied."""
        born_links = {location: self.linker(location) for location in born}
        counts: Dict[Hashable, int] = {}
        for location in died:
            claim = self.links[self.number[location]][0]
            if claim is not None:
                counts[claim] = counts.get(claim, self.claims[claim]) - 1
        for links in born_links.values():
            claim = links[0]
            if claim is not None:
                counts[claim] = counts.get(claim, self.claims.get(claim, 0)) + 1
        for claim, count in counts.items():
            if count > 1 or self.claims.get(claim, 0) > 1:
                return False
        self._remove(died)
        for location, links in born_links.items():
            self._add(location, links)
        return True

    def _add(self, location: LocationPath, links: Links) -> None:
        label = self.label
        near = {label[m] for held in self._linked(links) for m in held}
        n = self._index(location, links)
        if not near:
            keep = next(self._labels)
            self.members[keep] = set()
        else:
            keep = max(near, key=lambda lab: len(self.members[lab]))
            near.discard(keep)
            kept = self.members[keep]
            for other in near:
                moved = self.members.pop(other)
                for m in moved:
                    label[m] = keep
                kept |= moved
                self.changed.add(other)
        self.members[keep].add(n)
        label[n] = keep
        self.changed.add(keep)

    def _remove(self, died: Iterable[LocationPath]) -> None:
        gone = [self._unindex(location) for location in died]
        seeds: Dict[int, Dict[int, None]] = {}
        for n in gone:
            lab = self.label.pop(n)
            self.members[lab].discard(n)
            self.changed.add(lab)
            seeds.setdefault(lab, {})
        for n in gone:
            for held in self._linked(self.links.pop(n)):
                for near in held:
                    seeds[self.label[near]][near] = None
        for lab, starts in seeds.items():
            if not self.members[lab]:
                del self.members[lab]
            elif len(starts) > 1:
                self._split(lab, list(starts))

    def _split(self, lab: int, starts: List[int]) -> None:
        """Relabel the pieces of component ``lab`` that split off."""
        owner: Dict[int, int] = {s: i for i, s in enumerate(starts)}
        fused = list(range(len(starts)))  # union-find over the searches
        seen = [[s] for s in starts]  # each search's nodes, in visit order
        head = [0] * len(starts)  # seen[i][head[i]:] is left to expand

        def find(i: int) -> int:
            while fused[i] != i:
                fused[i] = fused[fused[i]]
                i = fused[i]
            return i

        remaining = len(starts)
        while remaining > 1:
            for i in range(len(starts)):
                if fused[i] != i or remaining == 1:
                    continue
                if head[i] == len(seen[i]):  # ran dry: a piece of its own
                    self._detach(lab, seen[i])
                    fused[i] = -1
                    remaining -= 1
                    continue
                node = seen[i][head[i]]
                head[i] += 1
                me = i
                for held in self._linked(self.links[node]):
                    for near in held:
                        other = owner.get(near)
                        if other is None:
                            owner[near] = me
                            seen[me].append(near)
                            continue
                        other = find(other)
                        if other == me:
                            continue
                        # two searches met: one piece, led by the larger
                        big, small = (me, other)
                        if len(seen[big]) < len(seen[small]):
                            big, small = small, big
                        done = seen[small][: head[small]]
                        seen[big][head[big] : head[big]] = done
                        head[big] += len(done)
                        seen[big].extend(seen[small][head[small] :])
                        fused[small] = big
                        remaining -= 1
                        me = big

    def _detach(self, lab: int, piece: List[int]) -> None:
        new = next(self._labels)
        moved = set(piece)
        self.members[lab] -= moved
        self.members[new] = moved
        for n in piece:
            self.label[n] = new
        self.changed.add(new)

    def components(self) -> List[Component]:
        """The partition, members and groups in placement order."""
        if self.changed:
            for lab in self.changed:
                numbers = self.members.get(lab)
                if numbers is None:
                    self.snapshots.pop(lab, None)
                    continue
                ordered = sorted(numbers)
                members = list(map(self.location.__getitem__, ordered))
                least = self.location[min(ordered, key=self.order_key.__getitem__)]
                if len(ordered) == 1:
                    root = members[0]
                else:
                    segs = list(map(self.structural.__getitem__, ordered))
                    root = _common_prefix(min(segs), max(segs))
                self.snapshots[lab] = (ordered[0], Component(members, root, least))
            self.changed.clear()
            ordered_snapshots = sorted(self.snapshots.values(), key=itemgetter(0))
            self.result = [comp for _, comp in ordered_snapshots]
        return self.result


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
    The connectivity partition of the live locations is kept alive
    across sweeps (:meth:`partition`): derived state, left out of
    pickles and rebuilt by the first call after a load.
    """

    def __init__(self) -> None:
        self._nodes: Dict[LocationPath, Dict[AlertTypeKey, TreeRecord]] = {}
        #: bumped whenever a location node appears or disappears
        self.structure_version = 0
        self._dirty: Set[LocationPath] = set()
        # lazy expiry heap: (last_seen at push time, tiebreak, location, type)
        self._expiry_heap: List[Tuple[float, int, LocationPath, AlertTypeKey]] = []
        self._heap_seq = itertools.count()
        self._reset_partition()

    def _reset_partition(self) -> None:
        self._live: Optional[_LivePartition] = None
        # nodes created / dropped since the live partition last caught up
        self._born: Dict[LocationPath, None] = {}
        self._died: Set[LocationPath] = set()

    def __getstate__(self) -> Dict[str, object]:
        # the live partition is derived state: checkpoints stay as before
        state = dict(self.__dict__)
        for key in ("_live", "_born", "_died"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Checkpoints pickle live trees and carry no version.  A tree
        written while the expiry heap was optional has a ``_fast`` flag
        and, where that was off, an empty heap: rebuild the heap from the
        live records, or none of them would ever expire."""
        heap_was_kept = state.pop("_fast", True)
        self.__dict__.update(state)
        self._reset_partition()
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
            if self._live is not None:
                self._born[alert.location] = None
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
                self._drop_node(location)
        return removed

    def _drop_node(self, location: LocationPath) -> None:
        del self._nodes[location]
        self.structure_version += 1
        self._dirty.discard(location)
        if self._live is not None:
            if location in self._born:
                del self._born[location]
            else:
                self._died.add(location)

    # -- queries ---------------------------------------------------------------

    def locations(self) -> List[LocationPath]:
        return list(self._nodes)

    @property
    def partition_stale(self) -> bool:
        """Whether the location set changed since the last :meth:`partition`."""
        live = self._live
        return live is None or live.version != self.structure_version

    def partition(self, linker: Linker) -> List[Component]:
        """The live locations split into ``linker``-connected components.

        Catches up on the nodes created and dropped since the previous
        call; the first call (or one with other rules, or after a load)
        builds from scratch.  Components come back in node order, each
        listing its members in node order, and an unchanged one is the
        same object as last time.  Callers must not mutate the result."""
        live = self._live
        if live is None or live.linker != linker or not live.apply(self._born, self._died):
            live = self._live = _LivePartition(linker)
            live.fill(self._nodes)
        self._born, self._died = {}, set()
        live.version = self.structure_version
        return live.components()

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
