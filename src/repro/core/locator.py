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
a freshness heap; and connectivity grouping is incremental.  This module
states the three edge rules as per-location match keys
(:meth:`Locator.links`: device-ball hubs, ancestor prefixes, glue
parents), and the main tree keeps the partition they induce alive
across sweeps (:meth:`AlertTree.partition`), so a sweep pays for the
locations created or dropped since the last one, not for every live
location.  The straight-from-the-paper quadratic version lives on as
``tests/reference_oracle.py``, which ``tests/test_equivalence_flood.py``
holds bit-for-bit equal to this module over a battery of seeded failure
floods.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from ..topology.hierarchy import Level, LocationPath
from ..topology.network import Topology
from .alert import AlertLevel, StructuredAlert
from .alert_tree import AlertTree, Component, Links
from .config import SkyNetConfig
from .incident import Incident, IncidentStatus

#: One candidate alert group: (root = the group's LCA, member locations).
CandidateGroup = Tuple[LocationPath, Component]

#: Devices whose parent sits at logic-site depth or deeper glue the area
#: they serve (DESIGN.md's third edge rule).
_GLUE_DEPTH = Level.LOGIC_SITE.value


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

        The tree rebuilds its connectivity partition at the next sweep;
        subclasses extend this to rebuild whatever execution state
        (worker-process trees) hangs off the main tree."""
        self.main_tree = tree

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
        """Rooted candidate groups for this sweep, :func:`widest_first`.

        The extension hook for alternative grouping engines (the sharded
        locator in ``repro.runtime`` overrides this with a per-shard
        partition plus an exact cross-shard merge)."""
        components = self.main_tree.partition(self.links)
        return widest_first([(comp.root, comp) for comp in components])

    def links(self, location: LocationPath) -> Links:
        """``location``'s edges under the connectivity rules, as the match
        keys :meth:`AlertTree.partition` links live locations by.

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

        Keys: a structural location owns its segments and seeks its
        ancestors' (containment) and the glue key of each enclosing
        area at logic-site depth or deeper; a device seeks every
        enclosing structural prefix (upward glue), owns its parent's
        glue key when that is deep enough, and shares the hubs of
        :meth:`_device_hubs`, claimed by its name (of two live device
        paths with one name, only the newer one's hubs count)."""
        segments = location.segments
        if not location.is_device:
            seeks: List[Hashable] = [segments[:depth] for depth in range(len(segments))]
            seeks += [
                ("glue", segments[:depth])
                for depth in range(_GLUE_DEPTH, len(segments) + 1)
            ]
            return None, (), (segments,), tuple(seeks)
        name = location.name
        upward = tuple(segments[:depth] for depth in range(len(segments) + 1))
        owns = (("glue", segments[:-1]),) if len(segments) - 1 >= _GLUE_DEPTH else ()
        if name not in self._topo.devices:
            return None, (), owns, upward
        return name, self._device_hubs(name), owns, upward

    def _device_hubs(self, name: str) -> Tuple[Hashable, ...]:
        """Hubs two devices share exactly when within ``max_hops``.

        Midpoint decomposition: ``dist(a, b) <= 2k`` iff some device lies
        within ``k`` of both, so the radius-``k`` ball's members are the
        hubs; for ``2k + 1`` the middle edge of a shortest path joins
        the two radius-``k`` balls, so every edge touching the ball is a
        hub too.  For the default ``max_hops = 2`` that is the device and
        its plain adjacency, not the 2-hop fan-out."""
        max_hops = self._config.connectivity_max_hops
        if max_hops <= 0:
            return ()
        ball = self._topo.hop_neighbourhood(name, max_hops // 2) | {name}
        if max_hops % 2 == 0:
            return tuple(ball)
        graph = self._topo.device_graph()
        edges = {
            (a, b) if a < b else (b, a) for a in ball for b in graph[a]
        }
        return (*ball, *edges)

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
        return len(root.segments), root.segments, root.is_device, members.least

    return sorted(groups, key=key)
