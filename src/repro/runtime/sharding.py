"""Location-sharded locating: N independent alert-tree shards, one answer.

The main tree is partitioned by Region subtree, so one shard is the unit
that can crash and be healed (``supervisor.py``) or live in its own
worker process (``workers.py``) without touching its siblings.  It is a
fault-isolation unit, not a throughput lever: the grouping it divides is
near-linear in alerting locations, and the benchmark of record measures
four shards at 0.98-1.06x of one.

Naive region sharding is **not** output-equivalent, and this module does
not pretend it is.  The backbone connects DCBRs across regions, so the
unsharded grouping routinely produces cross-region (even ``<root>``-
rooted) incidents; a partition that never looked across shards would
miss them.  Instead the sharded locator computes each shard's partition
independently -- with exactly the unsharded locator's rules -- and then
runs an **exact cross-shard merge** over the only two edge classes that
can span shards:

* **frontier devices** -- a grouping edge between locations in different
  Region subtrees is necessarily a device-to-device hop edge (structural
  containment and device-structure glue never cross region boundaries
  below the root), and a device with a neighbour in another region within
  ``connectivity_max_hops`` is, by definition, in the precomputed
  frontier set.  Scanning alerting frontier-device pairs across shards
  recovers every such edge;
* **the root shard** -- a root-located alert's node contains every other
  location, so any live root node merges all components, exactly as
  the unsharded containment rule would.

Each shard tree (and the root tree) keeps its own partition alive
across sweeps (:meth:`AlertTree.partition`), and hands back unchanged
components as the same objects with their root and least member
already computed, so the merge costs one step per component: with one
regular shard there is no cross-shard edge to look for, and a
component that merges with nothing is passed on as it is.

Everything else about incident generation (thresholds, supersession,
snapshots, counting) is inherited unchanged from :class:`Locator` by
swapping the main tree for a :class:`ShardedAlertTree`, so shard-count
invariance reduces to the partition argument above --
``tests/runtime/test_shard_invariance.py`` pins it byte-for-byte against
the unsharded locator across the flood scenario battery.
"""

from __future__ import annotations

import collections
import functools
import zlib
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..core.alert import StructuredAlert
from ..core.alert_tree import AlertTree, Component, TreeRecord, lca_prefix
from ..core.config import SkyNetConfig
from ..core.locator import CandidateGroup, Locator, widest_first
from ..topology.hierarchy import LocationPath
from ..topology.network import Topology

if TYPE_CHECKING:
    from .workers import RemoteAlertTree

#: A shard's tree: in-process, or a proxy for one a worker process owns.
ShardTree = Union[AlertTree, "RemoteAlertTree"]

#: Shard index of the tree holding root-located alerts (no Region prefix).
ROOT_SHARD = -1


class ShardRouter:
    """Deterministic Region-subtree -> shard assignment.

    Known regions are assigned round-robin over their sorted names rather
    than hashed: the benchmark fabric has three regions, and hashing three
    labels onto four shards risks a collision that halves the effective
    parallelism.  Unknown top-level segments (a region added after the
    router was built) fall back to a stable crc32 hash.  Root-located
    paths route to the dedicated :data:`ROOT_SHARD`.
    """

    def __init__(self, topology: Topology, shards: int) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = int(shards)
        regions = sorted(
            {
                device.location.segments[0]
                for device in topology.devices.values()
                if device.location.segments
            }
        )
        self.assignment: Dict[str, int] = {
            name: i % self.shards for i, name in enumerate(regions)
        }

    def shard_of(self, location: LocationPath) -> int:
        segments = location.segments
        if not segments:
            return ROOT_SHARD
        index = self.assignment.get(segments[0])
        if index is None:
            # surrogatepass: a corrupt region name (unpaired surrogate
            # from a garbled upstream) must still route, not crash
            digest = segments[0].encode("utf-8", "surrogatepass")
            index = zlib.crc32(digest) % self.shards
        return index


class ShardedAlertTree:
    """The :class:`AlertTree` interface over per-region shard trees.

    Presents the same queries and mutations as a single main tree while
    storing records in ``router.shards`` shard trees plus a root tree.
    A global insertion-ordered location index keeps :meth:`locations` and
    :meth:`snapshot_under` iterating in exactly the order one unsharded
    tree would, so downstream consumers cannot observe the sharding.

    A shard tree is a plain :class:`AlertTree` or, on the ``mp``
    backend, a :class:`~repro.runtime.workers.RemoteAlertTree` proxy for
    the tree a worker process owns; this class is the same either way.
    Calls that touch every shard go out through :meth:`fan_out`, so they
    cost one round trip per shard, not one per location.  The root tree
    always stays in-process.
    """

    def __init__(self, router: ShardRouter) -> None:
        self.router = router
        self.shard_trees: List[ShardTree] = [
            AlertTree() for _ in range(router.shards)
        ]
        self.root_tree = AlertTree()
        #: location -> shard index, in global first-insertion order
        self._order: Dict[LocationPath, int] = {}

    # -- routing -----------------------------------------------------------

    def tree_at(self, index: int) -> ShardTree:
        return self.root_tree if index == ROOT_SHARD else self.shard_trees[index]

    def tree_for(self, location: LocationPath) -> ShardTree:
        return self.tree_at(self.router.shard_of(location))

    def trees(self) -> Iterator[Tuple[int, ShardTree]]:
        """All shard trees plus the root tree, stable order."""
        for index, tree in enumerate(self.shard_trees):
            yield index, tree
        yield ROOT_SHARD, self.root_tree

    def fan_out(
        self, method: str, *args: Any, only: Optional[Set[int]] = None
    ) -> List[Any]:
        """``method(*args)`` on each tree of :meth:`trees` (those in
        ``only``, if given), results in that order.

        A remote shard tree's ``begin`` only sends the call, so every
        worker has its request before the first reply is awaited and the
        workers run the call side by side.  Every reply is collected
        before an error is raised, so no worker is left a reply ahead of
        its proxy."""
        waits: List[Callable[[], Any]] = []
        for index, tree in self.trees():
            if only is not None and index not in only:
                continue
            if isinstance(tree, AlertTree):
                waits.append(functools.partial(getattr(tree, method), *args))
            else:
                waits.append(tree.begin(method, *args))
        results: List[Any] = []
        failure: Optional[Exception] = None
        for wait in waits:
            try:
                results.append(wait())
            except Exception as exc:  # re-raised once every reply is in
                failure = failure or exc
        if failure is not None:
            raise failure
        return results

    # -- AlertTree interface: mutation -------------------------------------

    def insert(self, alert: StructuredAlert) -> TreeRecord:
        index = self.router.shard_of(alert.location)
        record = self.tree_at(index).insert(alert)
        # Insertion-order map spans all shards by design: report order must
        # match the unsharded tree byte-for-byte.
        self._order.setdefault(alert.location, index)  # lint: allow REP014
        return record

    def insert_batch(self, alerts: List[StructuredAlert]) -> int:
        buckets: Dict[int, List[StructuredAlert]] = {}
        for alert in alerts:
            index = self.router.shard_of(alert.location)
            # Same cross-shard order map as insert().
            self._order.setdefault(alert.location, index)  # lint: allow REP014
            buckets.setdefault(index, []).append(alert)
        count = 0
        for index, batch in buckets.items():
            count += self.tree_at(index).insert_batch(batch)
        return count

    def expire(self, now: float, timeout_s: float) -> int:
        removed = self._expire_trees(now, timeout_s)
        if sum(len(tree) for _, tree in self.trees()) != len(self._order):
            # nodes expired: drop their order entries, asking each shard
            # that shrank for its live locations once
            held = collections.Counter(self._order.values())
            shrunk = {
                index for index, tree in self.trees() if len(tree) != held[index]
            }
            live: Set[LocationPath] = set()
            for locations in self.fan_out("locations", only=shrunk):
                live.update(locations)
            self._order = {  # lint: allow REP014
                location: index
                for location, index in self._order.items()
                if index not in shrunk or location in live
            }
        return removed

    def _expire_trees(self, now: float, timeout_s: float) -> int:
        return sum(self.fan_out("expire", now, timeout_s))

    # -- AlertTree interface: queries --------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, location: LocationPath) -> bool:
        return location in self._order

    @property
    def structure_version(self) -> int:
        return sum(tree.structure_version for _, tree in self.trees())

    def consume_dirty(self) -> Set[LocationPath]:
        return set().union(*self.fan_out("consume_dirty"))

    def locations(self) -> List[LocationPath]:
        return list(self._order)

    def records_at(self, location: LocationPath) -> List[TreeRecord]:
        return self.tree_for(location).records_at(location)

    def iter_records_at(self, location: LocationPath) -> Iterator[TreeRecord]:
        return self.tree_for(location).iter_records_at(location)

    def records_under(self, root: LocationPath) -> Iterator[TreeRecord]:
        for location in self.locations_under(root):
            yield from self.iter_records_at(location)

    def locations_under(self, root: LocationPath) -> List[LocationPath]:
        return [loc for loc in self._order if root.contains(loc)]

    def total_records(self) -> int:
        return sum(self.fan_out("total_records"))

    def snapshot_under(
        self, root: LocationPath
    ) -> Dict[LocationPath, List[TreeRecord]]:
        found: Dict[LocationPath, List[TreeRecord]] = {}
        for part in self.fan_out("snapshot_under", root):
            found.update(part)
        return {loc: found[loc] for loc in self._order if loc in found}


def merge_shard_partitions(
    topology: Topology,
    max_hops: int,
    frontier: FrozenSet[str],
    shard_parts: List[Tuple[int, List[Component]]],
) -> List[CandidateGroup]:
    """Exact cross-shard merge of per-shard partitions (module docstring).

    ``shard_parts`` must enumerate shards in the canonical tree order --
    worker shards ``0..N-1`` then :data:`ROOT_SHARD` -- with each shard's
    components in its own partition order; the merged groups come back
    :func:`~repro.core.locator.widest_first`, the same total order the
    unsharded locator uses, so incident ids do not depend on the shard
    count or on where the per-shard partitions were computed.

    The work per call is one step per component, not per location: a
    component that merges with nothing is passed on as it is, with its
    cached root and least member, and frontier devices are only scanned
    when two regular shards hold alerts (a cross-shard edge needs both).
    """
    components: List[Component] = []
    shard_of: List[int] = []
    for index, parts in shard_parts:
        components.extend(parts)
        shard_of.extend([index] * len(parts))
    if not components:
        return []

    parent = list(range(len(components)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    if len(set(shard_of) - {ROOT_SHARD}) > 1:
        # cross-shard device edges: alerting frontier pairs within max_hops
        frontier_hits = [
            (shard_of[comp_id], location.name, comp_id)
            for comp_id, component in enumerate(components)
            if shard_of[comp_id] != ROOT_SHARD
            for location in component
            if location.is_device and location.name in frontier
        ]
        for i, (shard_a, name_a, comp_a) in enumerate(frontier_hits):
            hood = topology.hop_neighbourhood(name_a, max_hops)
            for shard_b, name_b, comp_b in frontier_hits[i + 1 :]:
                if shard_a != shard_b and name_b in hood:
                    union(comp_a, comp_b)

    # a live root-located node contains -- and therefore joins -- all
    if ROOT_SHARD in shard_of:
        anchor = shard_of.index(ROOT_SHARD)
        for other in range(len(components)):
            union(anchor, other)

    merged: Dict[int, List[Component]] = {}
    for comp_id, component in enumerate(components):
        merged.setdefault(find(comp_id), []).append(component)
    groups: List[CandidateGroup] = []
    for parts in merged.values():
        if len(parts) == 1:
            groups.append((parts[0].root, parts[0]))
            continue
        root = lca_prefix([part.root for part in parts])
        least = min(part.least for part in parts)
        members = Component(
            (location for part in parts for location in part), root, least
        )
        groups.append((root, members))
    return widest_first(groups)


def frontier_devices(topology: Topology, max_hops: int) -> FrozenSet[str]:
    """Devices with a neighbour in another Region within ``max_hops``.

    Every cross-region device-to-device grouping edge has both endpoints
    in this set (the edge relation *is* "graph distance <= max_hops"), so
    the cross-shard merge only ever needs to look at alerting frontier
    devices.  On hierarchical fabrics this is a thin layer -- backbone
    and border routers -- independent of flood size.
    """
    frontier: Set[str] = set()
    for name, device in topology.devices.items():
        segments = device.location.segments
        if not segments:
            frontier.add(name)
            continue
        region = segments[0]
        for neighbour in topology.hop_neighbourhood(name, max_hops):
            other = topology.devices.get(neighbour)
            if other is None or not other.location.segments:
                continue
            if other.location.segments[0] != region:
                frontier.add(name)
                break
    return frozenset(frontier)


class ShardedLocator(Locator):
    """§4.2 locating over N region shards with an exact cross-shard merge.

    Inherits every algorithm from :class:`Locator` -- feeds, sweeps,
    thresholds, supersession, type counting -- and overrides only the
    candidate-group computation: each shard tree is partitioned
    independently (:meth:`AlertTree.partition`, kept alive by the tree
    across sweeps; on the ``mp`` backend the worker that owns the tree
    runs it), then components are unioned across shards along alerting
    frontier-device edges and through any live root-shard node.
    See the module docstring for why that merge is exact.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        shards: Optional[int] = None,
    ) -> None:
        super().__init__(topology, config)
        count = shards if shards is not None else self._config.runtime.shards
        self.router = ShardRouter(topology, count)
        self.main_tree = ShardedAlertTree(self.router)  # type: ignore[assignment]
        self._frontier = frontier_devices(
            topology, self._config.connectivity_max_hops
        )

    @property
    def shards(self) -> int:
        return self.router.shards

    @property
    def sharded_tree(self) -> ShardedAlertTree:
        tree: ShardedAlertTree = self.main_tree  # type: ignore[assignment]
        return tree

    def _candidate_groups(self) -> List[CandidateGroup]:
        tree = self.sharded_tree
        parts = tree.fan_out("partition", self.links)
        return merge_shard_partitions(
            self._topo,
            self._config.connectivity_max_hops,
            self._frontier,
            [(index, part) for (index, _), part in zip(tree.trees(), parts)],
        )
