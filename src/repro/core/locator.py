"""The locator (§4.2): incident discovery over the hierarchical alert tree.

Implements the paper's Algorithms 1-3:

* **Algorithm 1** (:meth:`Locator.feed`): every structured alert is added
  to the main tree, and to any open incident whose scope contains it.
* **Algorithm 2** (:meth:`Locator.sweep`): candidate alert groups are
  formed from the live main-tree nodes, restricted by topological
  connectivity ("the algorithm only considers alerts within the area
  connected to the root node"); a group crossing the ``A/B+C/D``
  thresholds spawns an incident tree replicated from the main tree, and
  narrower incidents inside the new scope are superseded.
* **Algorithm 3** (also in :meth:`sweep`): main-tree records expire after
  the 5-minute node timeout; incident trees close after 15 idle minutes.

Counting semantics (§4.2): duplicate alert *types* inside one group count
once ("we consolidate alarms of the same type from different devices into
a single alert"), unless ``config.count_by_type`` is off -- that is the
Figure 9 "type+location" ablation, which explodes false positives.

Flood scale: §6.2 promises end-to-end locating in seconds under
production floods, so :meth:`Locator.feed` only buffers -- the open-
incident set changes at sweeps alone, and :meth:`Locator.flush` applies
a sweep interval's alerts in one pass; main-tree records expire through
a freshness heap; connectivity grouping is a prefix-indexed union-find
(every containment edge runs through a registered ancestor prefix, so
walking each location's ancestor prefixes finds every edge a pairwise
containment scan would); and candidate groups are memoised on the
tree's structure version between sweeps.  The straight-from-the-paper
quadratic version lives on as ``tests/reference_oracle.py``, which
``tests/test_equivalence_flood.py`` holds bit-for-bit equal to this
module over a battery of seeded failure floods.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..topology.hierarchy import Level, LocationPath
from ..topology.network import Topology
from .alert import AlertLevel, StructuredAlert
from .alert_tree import AlertTree
from .config import SkyNetConfig
from .incident import Incident, IncidentStatus

#: One candidate alert group: (root = the group's LCA, member locations).
CandidateGroup = Tuple[LocationPath, List[LocationPath]]


@dataclasses.dataclass
class SweepResult:
    """What one locator sweep changed."""

    opened: List[Incident]
    closed: List[Incident]
    expired_records: int


class Locator:
    """Streaming incident discovery (main tree + incident trees)."""

    def __init__(self, topology: Topology, config: Optional[SkyNetConfig] = None) -> None:
        self._topo = topology
        self._config = config or SkyNetConfig()
        self.main_tree = AlertTree()
        self._open: List[Incident] = []
        self._finished: List[Incident] = []
        # alerts buffered between sweeps (drained by flush())
        self._pending: List[StructuredAlert] = []
        # candidate groups memoised on the tree structure version
        self._groups_cache: Optional[List[CandidateGroup]] = None
        self._groups_version = -1

    @property
    def config(self) -> SkyNetConfig:
        return self._config

    @property
    def open_incidents(self) -> List[Incident]:
        return list(self._open)

    @property
    def finished_incidents(self) -> List[Incident]:
        return list(self._finished)

    def all_incidents(self) -> List[Incident]:
        return self._finished + self._open

    # -- checkpoint hooks --------------------------------------------------------------

    def restore_tree(self, tree: AlertTree) -> None:
        """Load a checkpointed main tree back into this locator.

        Resets the derived grouping memo; subclasses extend this to
        rebuild whatever execution state (worker-process trees) hangs
        off the main tree."""
        self.main_tree = tree
        self._groups_cache = None
        self._groups_version = -1

    # -- Algorithm 1: alert insertion ------------------------------------------------

    def feed(self, alert: StructuredAlert) -> None:
        """Accept one structured alert for the main and incident trees.

        The alert is buffered and applied by :meth:`flush` (called at
        sweep time and by readers): the open-incident set only changes at
        sweeps, so batching a sweep-interval's worth of alerts reaches
        exactly the tree and incident state per-alert insertion would."""
        self._pending.append(alert)

    def feed_many(self, alerts: Iterable[StructuredAlert]) -> None:
        """Feed a batch of structured alerts (order within the batch is
        preserved, matching repeated :meth:`feed` calls)."""
        self._pending.extend(alerts)

    def flush(self) -> None:
        """Drain buffered alerts into the main tree and open incidents.

        Alerts are applied in arrival order; incident-coverage checks
        collapse to one containment test per (incident, location) pair."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if self._open:
            covered: Dict[Tuple[int, LocationPath], bool] = {}
            for alert in pending:
                for incident in self._open:
                    key = (id(incident), alert.location)
                    hit = covered.get(key)
                    if hit is None:
                        hit = covered[key] = incident.covers(alert.location)
                    if hit:
                        incident.add(alert)
        self.main_tree.insert_batch(pending)

    # -- Algorithms 2 + 3: sweep --------------------------------------------------------

    def sweep(self, now: float) -> SweepResult:
        """Expire stale state, then try to generate new incident trees."""
        self.flush()
        expired = self.main_tree.expire(now, self._config.node_timeout_s)
        closed = self._close_idle(now)
        opened = self._generate(now)
        return SweepResult(opened=opened, closed=closed, expired_records=expired)

    def _close_idle(self, now: float) -> List[Incident]:
        closed: List[Incident] = []
        still_open: List[Incident] = []
        for incident in self._open:
            if now > incident.update_time + self._config.incident_timeout_s:
                incident.close(now)
                self._finished.append(incident)
                closed.append(incident)
            else:
                still_open.append(incident)
        self._open = still_open
        return closed

    def _generate(self, now: float) -> List[Incident]:
        opened: List[Incident] = []
        for root, component in self._candidate_groups():
            if self._inside_open_incident(root):
                continue  # an incident tree for this area already exists
            failure_types, other_types = self._count_types(component)
            if not self._config.thresholds.triggered(failure_types, other_types):
                continue
            incident = Incident(
                root=root,
                created_at=now,
                seed_nodes=self.main_tree.snapshot_under(root),
            )
            # Algorithm 2 lines 7-9: swallow narrower incidents in scope
            for old in list(self._open):
                if root.contains(old.root):
                    incident.absorb_incident(old)
                    old.close(now, IncidentStatus.SUPERSEDED)
                    self._open.remove(old)
                    self._finished.append(old)
            self._open.append(incident)
            opened.append(incident)
        return opened

    def _inside_open_incident(self, root: LocationPath) -> bool:
        return any(inc.covers(root) for inc in self._open)

    # -- connectivity grouping ------------------------------------------------------------

    def _candidate_groups(self) -> List[CandidateGroup]:
        """Rooted candidate groups for this sweep, :func:`widest_first`,
        memoised between sweeps.

        The extension hook for alternative grouping engines (the sharded
        locator in ``repro.runtime`` overrides this with a per-shard
        partition plus an exact cross-shard merge).  The partition only
        depends on the *set* of alerting locations, so the memo stays
        valid until the tree gains or loses a node
        (``structure_version``)."""
        version = self.main_tree.structure_version
        if self._groups_cache is not None and self._groups_version == version:
            return self._groups_cache
        components = self._indexed_partition(self.main_tree.locations())
        groups = widest_first([(_lca_prefix(comp), comp) for comp in components])
        self._groups_cache, self._groups_version = groups, version
        return groups

    def _device_components(
        self, device_names: Tuple[str, ...]
    ) -> List[List[str]]:
        """Hop-connectivity device partition, computed via ball midpoints.

        Same partition as :meth:`Topology.connected_device_components`
        over the same name set (the edge relation -- graph distance
        ``<= connectivity_max_hops`` -- is identical), computed without
        materialising the max_hops fan-out per device."""
        max_hops = self._config.connectivity_max_hops
        current = [n for n in device_names if n in self._topo.devices]
        parent = {n: n for n in current}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        if max_hops > 0 and max_hops % 2 == 0:
            # midpoint decomposition: dist(a, b) <= 2k iff some device c
            # (a shortest-path midpoint) has dist(a, c) <= k and
            # dist(c, b) <= k, so devices sharing any radius-k ball are
            # unioned through that ball's anchor.  Cost is sum of
            # radius-k ball sizes -- for the default max_hops=2 that is
            # the plain adjacency degree, not the 2-hop fan-out.
            half = max_hops // 2
            anchor: Dict[str, str] = {}
            for name in current:
                mine = anchor.setdefault(name, name)
                if mine != name:
                    union(name, mine)
                for center in self._topo.hop_neighbourhood(name, half):
                    other = anchor.setdefault(center, name)
                    if other != name:
                        union(name, other)
        else:
            name_set = set(current)
            for name in current:
                for hit in self._topo.hop_neighbourhood(name, max_hops) & name_set:
                    union(name, hit)
        groups: Dict[str, List[str]] = {}
        for name in current:
            groups.setdefault(find(name), []).append(name)
        return list(groups.values())

    def _indexed_partition(
        self, locations: List[LocationPath]
    ) -> List[List[LocationPath]]:
        """Partition alerting locations into topology-connected groups.

        Rules (see DESIGN.md):

        * two alerting *devices* join when within ``connectivity_max_hops``
          of each other in the device graph;
        * two structural locations join on containment;
        * a device joins a structural location when it sits inside it, or
          when the structural location sits inside the device's parent
          (an aggregation device glues the area it serves).  The downward
          glue only applies to devices attached at logic-site level or
          deeper: a backbone router's alert must not claim every alert in
          its region, or concurrent scenes would merge into one blob.

        Every containment edge joins a location to one of its ancestor
        prefixes, so an ancestor-prefix walk over a segments index finds
        the edge set in O(locations x depth) instead of O(locations^2)
        pairwise containment tests."""
        if not locations:
            return []
        # integer-indexed union-find: find/union are pure list ops, no
        # LocationPath hashing on the O(n alpha(n)) inner loops
        index = {loc: i for i, loc in enumerate(locations)}
        parent = list(range(len(locations)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        device_locs = [loc for loc in locations if loc.is_device]
        struct_locs = [loc for loc in locations if not loc.is_device]

        # alerting devices within connectivity_max_hops share a group
        by_name = {loc.name: index[loc] for loc in device_locs}
        for group in self._device_components(tuple(by_name)):
            members = [by_name[n] for n in group if n in by_name]
            for other in members[1:]:
                union(members[0], other)

        # structural containment: every contained pair meets at a
        # registered ancestor prefix of the deeper location
        by_segments = {loc.segments: index[loc] for loc in struct_locs}
        for loc in struct_locs:
            segments = loc.segments
            own = index[loc]
            for depth in range(len(segments)):
                ancestor = by_segments.get(segments[:depth])
                if ancestor is not None:
                    union(ancestor, own)

        # device-structure glue: enclosing structural prefixes upward, and
        # (for devices attached at logic-site level or deeper) the
        # structural locations inside the device's parent downward
        glue_parents: Dict[Tuple[str, ...], List[int]] = {}
        min_glue_depth = Level.LOGIC_SITE.value  # parent level as a depth check
        for dev in device_locs:
            dev_segments = dev.segments
            own = index[dev]
            for depth in range(len(dev_segments) + 1):
                struct = by_segments.get(dev_segments[:depth])
                if struct is not None:
                    union(own, struct)
            if len(dev_segments) - 1 >= min_glue_depth:
                glue_parents.setdefault(dev_segments[:-1], []).append(own)
        if glue_parents:
            min_depth = min(len(segs) for segs in glue_parents)
            for struct in struct_locs:
                segments = struct.segments
                own = index[struct]
                for depth in range(min_depth, len(segments) + 1):
                    for dev in glue_parents.get(segments[:depth], ()):
                        union(dev, own)

        grouped: Dict[int, List[LocationPath]] = {}
        for i, loc in enumerate(locations):
            grouped.setdefault(find(i), []).append(loc)
        return list(grouped.values())

    # -- counting ------------------------------------------------------------------

    def _count_types(self, component: Sequence[LocationPath]) -> Tuple[int, int]:
        """Distinct (or per-location, in the ablation) type counts by level."""
        failure_keys: Set = set()
        other_keys: Set = set()
        for location in component:
            for record in self.main_tree.iter_records_at(location):
                if self._config.count_by_type:
                    key = record.type_key
                else:
                    key = (record.type_key, location)
                if record.level is AlertLevel.FAILURE:
                    failure_keys.add(key)
                else:
                    other_keys.add(key)
        return len(failure_keys), len(other_keys)


def widest_first(groups: List[CandidateGroup]) -> List[CandidateGroup]:
    """Candidate groups in the one total order every grouping engine uses.

    Widest root first, so a broad incident supersedes narrow ones; ties
    break on the root itself and then on the group's least member
    (groups are disjoint, so no two share one).  The order -- and with
    it the incident ids -- therefore depends on the set of groups alone,
    never on the order a tree or its shards listed them in."""

    def key(group: CandidateGroup) -> Tuple[int, Tuple[str, ...], bool, LocationPath]:
        root, members = group
        return len(root.segments), root.segments, root.is_device, min(members)

    return sorted(groups, key=key)


def _lca_prefix(component: Sequence[LocationPath]) -> LocationPath:
    """A group's lowest common ancestor via one common-prefix computation.

    The structural LCA is the longest common prefix of all members'
    structural segments, and the common prefix of a set of tuples equals
    the common prefix of its lexicographic min and max."""
    if len(component) == 1:
        return component[0]
    seglists = [
        loc.segments[:-1] if loc.is_device else loc.segments for loc in component
    ]
    lo, hi = min(seglists), max(seglists)
    common = 0
    for a, b in zip(lo, hi):
        if a != b:
            break
        common += 1
    return LocationPath(lo[:common])
