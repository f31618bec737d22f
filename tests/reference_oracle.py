"""The straight-from-the-paper locator, kept as a test oracle.

Until the flood-scale implementation became the only one in ``src``,
these bodies lived beside it behind ``SkyNetConfig.fast_path``: the
per-alert ``feed`` of Algorithm 1, the pairwise-scan connectivity
partition, the walk-every-record expiry of Algorithm 3 and the
unmemoised circuit-set lookup.  They are moved here verbatim --
quadratic in alerting locations per sweep, and obviously right -- so the
differential suites (``test_equivalence_flood``, the alert-tree property
tests, ``runtime/test_shard_invariance``) keep comparing production
against an implementation that shares none of its indexing, batching,
heap or memo logic.  The one thing they share on purpose is
:func:`repro.core.locator.widest_first`: the group order decides
incident ids, which are part of the contract.

:func:`reference_skynet` assembles the whole reference pipeline;
:class:`ReferenceShardedLocator` is what ``ShardedLocator`` was with the
option off, for suites that pin sharding on its own.
"""

from __future__ import annotations

import copyreg
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.alert import StructuredAlert
from repro.core.alert_tree import AlertTree, TreeRecord
from repro.core.config import SkyNetConfig
from repro.core.evaluator import Evaluator
from repro.core.incident import Incident
from repro.core.locator import CandidateGroup, Locator, widest_first
from repro.core.pipeline import SkyNet
from repro.runtime.sharding import ShardedAlertTree, ShardedLocator
from repro.topology.hierarchy import Level, LocationPath, lowest_common_ancestor
from repro.topology.network import Topology


class ReferenceAlertTree(AlertTree):
    """``AlertTree(fast=False)``: no expiry heap, :meth:`expire` walks."""

    def __reduce__(self) -> Tuple[Any, ...]:
        # pickles as the plain AlertTree earlier commits wrote under the
        # default config (``_fast`` False, heap empty), so suites can
        # produce a legacy checkpoint and load it with production code
        state = {**self.__dict__, "_fast": False}
        return copyreg._reconstructor, (AlertTree, object, None), state  # type: ignore[attr-defined]

    def insert(self, alert: StructuredAlert) -> TreeRecord:
        return self._insert_one(alert)

    def insert_batch(self, alerts: Iterable[StructuredAlert]) -> int:
        count = 0
        for alert in alerts:
            self._insert_one(alert)
            count += 1
        return count

    def expire(self, now: float, timeout_s: float) -> int:
        """Algorithm 3 lines 1-3: drop stale records and empty nodes."""
        removed = 0
        for location in list(self._nodes):
            node = self._nodes[location]
            for key in list(node):
                if node[key].expired(now, timeout_s):
                    del node[key]
                    removed += 1
            if not node:
                del self._nodes[location]
                self.structure_version += 1
                self._dirty.discard(location)
        return removed


class _ReferenceRules(Locator):
    """Algorithm 1 per alert, and the pairwise-scan partition."""

    def feed(self, alert: StructuredAlert) -> None:
        """Insert one structured alert into the main and incident trees."""
        for incident in self._open:
            if incident.covers(alert.location):
                incident.add(alert)
        self.main_tree.insert(alert)

    def feed_many(self, alerts: Iterable[StructuredAlert]) -> None:
        for alert in alerts:
            self.feed(alert)

    def _component_partition(
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
        """
        if not locations:
            return []
        parent: Dict[LocationPath, LocationPath] = {loc: loc for loc in locations}

        def find(x: LocationPath) -> LocationPath:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: LocationPath, b: LocationPath) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        device_locs = [loc for loc in locations if loc.is_device]
        struct_locs = [loc for loc in locations if not loc.is_device]

        by_name = {loc.name: loc for loc in device_locs}
        for group in self._topo.connected_device_components(
            list(by_name), max_hops=self._config.connectivity_max_hops
        ):
            members = [by_name[n] for n in group if n in by_name]
            for other in members[1:]:
                union(members[0], other)

        for i, a in enumerate(struct_locs):
            for b in struct_locs[i + 1 :]:
                if a.contains(b) or b.contains(a):
                    union(a, b)

        for dev in device_locs:
            dev_parent = dev.parent
            glues_down = dev_parent.level.value >= Level.LOGIC_SITE.value
            for struct in struct_locs:
                if struct.contains(dev) or (
                    glues_down and dev_parent.contains(struct)
                ):
                    union(dev, struct)

        groups: Dict[LocationPath, List[LocationPath]] = {}
        for loc in locations:
            groups.setdefault(find(loc), []).append(loc)
        return list(groups.values())

    def _indexed_partition(
        self, locations: List[LocationPath]
    ) -> List[List[LocationPath]]:
        # the seam the sharded locator partitions each shard tree through
        return self._component_partition(locations)


def _lca(component: Sequence[LocationPath]) -> LocationPath:
    if len(component) == 1:
        return component[0]
    return lowest_common_ancestor(list(component))


class ReferenceLocator(_ReferenceRules):
    """``Locator`` as it ran with ``fast_path`` off."""

    def __init__(self, topology: Topology, config: Optional[SkyNetConfig] = None) -> None:
        super().__init__(topology, config)
        self.main_tree = ReferenceAlertTree()

    def _candidate_groups(self) -> List[CandidateGroup]:
        components = self._component_partition(self.main_tree.locations())
        return widest_first([(_lca(comp), comp) for comp in components])


class ReferenceShardedLocator(_ReferenceRules, ShardedLocator):
    """``ShardedLocator`` as it ran with ``fast_path`` off: reference
    feed, reference trees, reference partition per shard."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        shards: Optional[int] = None,
    ) -> None:
        super().__init__(topology, config, shards)
        tree: ShardedAlertTree = self.main_tree  # type: ignore[assignment]
        tree.shard_trees = [ReferenceAlertTree() for _ in tree.shard_trees]
        tree.root_tree = ReferenceAlertTree()


class ReferenceEvaluator(Evaluator):
    """The evaluator without its circuit-set memo."""

    def _related_circuit_sets(self, incident: Incident) -> List[str]:
        return self._lookup_circuit_sets(incident.location)


def reference_skynet(
    topology: Topology, config: Optional[SkyNetConfig] = None, **kwargs: Any
) -> SkyNet:
    """``SkyNet`` over the reference locator, tree and evaluator."""
    net = SkyNet(
        topology,
        config=config,
        locator=ReferenceLocator(topology, config),
        **kwargs,
    )
    net.evaluator = ReferenceEvaluator(
        topology,
        net.config,
        state=kwargs.get("state"),
        traffic=kwargs.get("traffic"),
    )
    return net
