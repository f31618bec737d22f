"""The tree-owned live connectivity partition against the quadratic oracle.

:meth:`AlertTree.partition` keeps its components alive across sweeps and
re-splits them locally when locations expire.  These tests drive random
insert/expire sequences -- with pickle round trips and
``Locator.restore_tree`` in between, which throw the live state away --
and compare every step with the pairwise-scan partition of
``tests/reference_oracle.py``, for odd and even ``connectivity_max_hops``
and through the sharded merge.  A second test pins the bound on the
per-location link state under a stream of never-repeating locations.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from typing import FrozenSet, List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.alert_tree import AlertTree, Component
from repro.core.config import SkyNetConfig
from repro.core.locator import Locator
from repro.runtime.sharding import ShardedLocator
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.hierarchy import LocationPath

from ..reference_oracle import ReferenceLocator

TOPO = build_topology(TopologySpec.tiny())
_DEVICE_LOCS = [TOPO.device(name).location for name in sorted(TOPO.devices)]
_STRUCT_LOCS = sorted({a for loc in _DEVICE_LOCS for a in loc.ancestors()})
#: the odd ones: a known device name under a second path (a claim held
#: twice), and a device the topology does not know
_ODD_LOCS = [
    LocationPath(_STRUCT_LOCS[-1].segments + (_DEVICE_LOCS[0].name,), True),
    LocationPath(_STRUCT_LOCS[3].segments + (_DEVICE_LOCS[-1].name,), True),
    LocationPath(("ghost-region", "ghost-device"), True),
]
TIMEOUT = 2.0

Partition = Set[FrozenSet[LocationPath]]


def _alert(location: LocationPath, now: float) -> StructuredAlert:
    return StructuredAlert(
        type_key=AlertTypeKey("ping", "end_to_end_icmp_loss"),
        level=AlertLevel.FAILURE,
        location=location,
        first_seen=now,
        last_seen=now,
    )


def _as_sets(groups: List[List[LocationPath]]) -> Partition:
    return {frozenset(group) for group in groups}


def _check_canonical(tree: AlertTree, parts: List[Component]) -> None:
    """Components in node order, members in node order, facts cached."""
    order = {loc: i for i, loc in enumerate(tree.locations())}
    firsts = [order[comp[0]] for comp in parts]
    assert firsts == sorted(firsts)
    for comp in parts:
        assert [order[loc] for loc in comp] == sorted(order[loc] for loc in comp)
        assert comp.least == min(comp)
        assert all(comp.root.contains(loc) or comp.root == loc for loc in comp)


def _script(rng: random.Random) -> List[Tuple[str, List[LocationPath], float]]:
    """Mostly feeds of a few locations each, devices most often; time
    advances so that a location not fed for two or three steps expires."""
    script = []
    for _ in range(rng.randrange(20, 60)):
        action = rng.choices(["feed", "pickle", "restore"], [10, 1, 1])[0]
        picks = []
        for _ in range(rng.randrange(0, 6)):
            pool = rng.choices([_DEVICE_LOCS, _STRUCT_LOCS, _ODD_LOCS], [14, 3, 2])[0]
            picks.append(rng.choice(pool))
        script.append((action, picks, rng.uniform(0.0, 1.5)))
    return script


@settings(max_examples=30, deadline=None)
@given(max_hops=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_live_partition_equals_oracle_through_every_path(max_hops, seed):
    config = dataclasses.replace(SkyNetConfig(), connectivity_max_hops=max_hops)
    oracle = ReferenceLocator(TOPO, config)
    bare = Locator(TOPO, config)
    sharded = [ShardedLocator(TOPO, config, shards=n) for n in (1, 2)]
    now = 0.0
    for action, picks, advance in _script(random.Random(seed)):
        now += advance
        if action == "pickle":
            bare.main_tree = pickle.loads(pickle.dumps(bare.main_tree))
        elif action == "restore":
            for locator in sharded:
                locator.restore_tree(pickle.loads(pickle.dumps(locator.main_tree)))
        else:
            batch = [_alert(location, now) for location in picks]
            for locator in [bare, *sharded]:
                locator.main_tree.insert_batch(batch)
                locator.main_tree.expire(now, TIMEOUT)
        live = bare.main_tree.locations()
        expected = _as_sets(oracle._component_partition(live))
        parts = bare.main_tree.partition(bare.links)
        assert _as_sets(parts) == expected
        assert not bare.main_tree.partition_stale
        _check_canonical(bare.main_tree, parts)
        for locator in sharded:
            assert set(locator.main_tree.locations()) == set(live)
            groups = locator._candidate_groups()
            assert _as_sets([members for _, members in groups]) == expected


def test_link_state_stays_bounded_by_live_locations():
    """Garbled sources invent locations that never repeat; the link
    state must track live locations, never every location ever seen."""
    locator = Locator(TOPO)
    tree = locator.main_tree
    now = 0.0
    peak = 0
    for sweep in range(200):
        now += 1.0
        batch = [
            _alert(LocationPath((f"garbled-{sweep}-{i}", "x"), i % 2 == 0), now)
            for i in range(5)
        ]
        tree.insert_batch(batch)
        tree.expire(now, TIMEOUT)
        tree.partition(locator.links)
        live = tree._live
        assert live is not None
        # the stated bound: one link entry per live location
        assert len(live.links) == len(tree) <= 5 * (TIMEOUT + 1)
        assert len(live.hubs) + len(live.owners) + len(live.seekers) <= 8 * len(tree)
        peak = max(peak, len(live.links))
    assert 0 < peak <= 15
