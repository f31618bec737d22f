"""Differential gate: sharded locating must be byte-identical to the
unsharded reference, for every shard count and every execution backend.

This is the contract that lets ``repro.runtime`` shard the alert tree at
all: the same raw stream is run through the unsharded reference pipeline
(``tests/reference_oracle.py``) and through the sharded locator at shard
counts {1, 2, 4}, and the complete incident output (scopes, times,
statuses, contents, severities, renders with ids normalised) must
match.  Every scenario runs on both backends: ``inproc``
(:class:`ShardedLocator`, every shard on the caller's thread -- plus the
oracle's own sharded locator, reference rules per shard) and ``mp``
(:class:`MPShardedLocator`, each shard in a spawned worker process).

Two layers of coverage:

* the hard scenarios below (cross-region and dense benchmark-fabric
  floods whose groups genuinely span Region subtrees -- the case naive
  region sharding gets wrong) run at every (shards, rules, backend)
  combination;
* the *full* flood battery of ``tests/test_equivalence_flood.py`` --
  every registry scenario -- runs through the ``mp`` backend at 1/2/4
  shards with the incident counter reset before each run, so the
  comparison is byte-identical **including incident ids**, the strongest
  form of the contract.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Tuple

import pytest

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.config import PRODUCTION_CONFIG
from repro.core.locator import Locator
from repro.core.pipeline import SkyNet
from repro.monitors import build_monitors
from repro.monitors.base import RawAlert
from repro.monitors.stream import AlertStream
from repro.runtime.checkpoint import set_incident_counter
from repro.runtime.sharding import ShardedLocator, ShardRouter, frontier_devices
from repro.runtime.workers import MPShardedLocator
from repro.simulation.conditions import Condition, ConditionKind
from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.hierarchy import LocationPath

from ..reference_oracle import (
    ReferenceLocator,
    ReferenceShardedLocator,
    reference_skynet,
)
from ..test_equivalence_flood import (
    SCENARIO_IDS,
    SCENARIOS,
    FloodScenario,
    _assert_equal,
    _device_down,
    _fingerprint,
    _stream,
)

SHARD_COUNTS = (1, 2, 4)
BACKENDS = ("inproc", "mp")


def _sharded_config(shards: int, backend: str = "inproc"):
    return dataclasses.replace(
        PRODUCTION_CONFIG,
        runtime=dataclasses.replace(
            PRODUCTION_CONFIG.runtime, shards=shards, backend=backend
        ),
    )


def _make_locator(topo, config, fast: bool = True):
    """``fast=False`` is the oracle's sharded locator (in-process only:
    worker processes run production rules)."""
    if config.runtime.backend == "mp":
        return MPShardedLocator(topo, config)
    if not fast:
        return ReferenceShardedLocator(topo, config)
    return ShardedLocator(topo, config)


def _run_reference(topo, state, raws: List[RawAlert]) -> List[Tuple]:
    net = reference_skynet(topo, config=PRODUCTION_CONFIG, state=state)
    net.process(raws)
    return _fingerprint(net)


def _run_sharded(
    topo, state, raws: List[RawAlert], shards: int, fast: bool, backend: str
) -> List[Tuple]:
    config = _sharded_config(shards, backend)
    locator = _make_locator(topo, config, fast)
    try:
        net = SkyNet(topo, config=config, state=state, locator=locator)
        net.process(raws)
        return _fingerprint(net)
    finally:
        if isinstance(locator, MPShardedLocator):
            locator.close()


def _check_all_shard_counts(topo, state, raws: List[RawAlert], backend: str) -> None:
    reference = _run_reference(topo, state, raws)
    for shards in SHARD_COUNTS:
        for fast in (False, True) if backend == "inproc" else (True,):
            sharded = _run_sharded(topo, state, raws, shards, fast, backend)
            assert len(sharded) == len(reference), (
                f"backend={backend} shards={shards} fast={fast}: incident "
                f"count {len(sharded)} != reference {len(reference)}"
            )
            _assert_equal(reference, sharded)


# ---------------------------------------------------------------------------
# hard scenarios: every (shards, rules, backend) combination


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed,n_down", [(7, 3), (2, 5), (4, 20), (5, 40)])
def test_device_down_flood_shard_invariance(seed, n_down, backend):
    """Seeds 4 and 5 produce ``<root>``-scoped incidents spanning every
    region -- the exact case that breaks naive per-region sharding."""
    topo = build_topology(TopologySpec())
    state = NetworkState(topo)
    rng = random.Random(seed)
    devices = sorted(topo.devices)
    rng.shuffle(devices)
    for cond in _device_down(devices[:n_down], start=40.0, duration=400.0):
        state.add_condition(cond)
    raws = _stream(topo, state, 600.0, seed)
    _check_all_shard_counts(topo, state, raws, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [31, 32])
def test_concurrent_cross_region_shard_invariance(seed, backend):
    topo = build_topology(TopologySpec())
    state = NetworkState(topo)
    rng = random.Random(seed)
    by_region = {}
    for name in sorted(topo.devices):
        region = topo.device(name).location.segments[0]
        by_region.setdefault(region, []).append(name)
    for names in by_region.values():
        rng.shuffle(names)
        for cond in _device_down(names[:4], start=45.0, duration=380.0):
            state.add_condition(cond)
    raws = _stream(topo, state, 600.0, seed)
    _check_all_shard_counts(topo, state, raws, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_circuit_break_shard_invariance(backend):
    topo = build_topology(TopologySpec())
    state = NetworkState(topo)
    rng = random.Random(12)
    sets = sorted(topo.circuit_sets)
    rng.shuffle(sets)
    for set_id in sets[:6]:
        state.add_condition(
            Condition(
                kind=ConditionKind.CIRCUIT_BREAK,
                target=set_id,
                start=60.0,
                end=500.0,
                params={"broken_circuits": 4.0},
            )
        )
    raws = _stream(topo, state, 600.0, 12)
    _check_all_shard_counts(topo, state, raws, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_benchmark_fabric_dense_flood_shard_invariance(backend):
    """Three-region benchmark fabric under a 50-device failure wave."""
    topo = build_topology(TopologySpec.benchmark())
    state = NetworkState(topo)
    rng = random.Random(61)
    devices = sorted(topo.devices)
    rng.shuffle(devices)
    for name in devices[:50]:
        state.add_condition(
            Condition(
                kind=ConditionKind.DEVICE_DOWN,
                target=name,
                start=60.0 + rng.uniform(0.0, 240.0),
                end=700.0,
            )
        )
    raws = _stream(topo, state, 800.0, 61)
    _check_all_shard_counts(topo, state, raws, backend)


# ---------------------------------------------------------------------------
# the full battery through the mp backend, ids included
#
# Incident ids come from a global counter; resetting it before each run
# makes the id sequence part of the contract.  (The oracle and unsharded
# production produce identical ids after a reset -- the reference gate in
# tests/test_equivalence_flood.py guarantees identical incident *order* --
# so comparing against unsharded production is comparing against the
# oracle, without paying its quadratic sweep 27 more times.)


def _fingerprint_exact(net: SkyNet) -> List[Tuple]:
    """Like ``_fingerprint`` but with incident ids left intact."""
    out = []
    for incident in sorted(
        net.incidents(include_superseded=True),
        key=lambda i: (i.start_time, str(i.location)),
    ):
        severity = incident.severity
        out.append(
            (
                incident.incident_id,
                str(incident.location),
                incident.status.name,
                incident.start_time,
                incident.end_time,
                incident.total_alert_count(),
                incident.distinct_type_count(),
                sorted(incident.devices_involved()),
                (severity.score, severity.impact_factor, severity.time_factor)
                if severity
                else None,
                incident.render(),
            )
        )
    return out


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_full_battery_mp_exact_ids(scenario: FloodScenario):
    topo, state, raws = scenario.build()

    set_incident_counter(1)
    reference_net = SkyNet(topo, config=PRODUCTION_CONFIG, state=state)
    reference_net.process(raws)
    reference = _fingerprint_exact(reference_net)
    if scenario.require_incidents:
        assert reference, "scenario produced no incidents -- not a useful gate"

    for shards in SHARD_COUNTS:
        set_incident_counter(1)
        mp_config = _sharded_config(shards, backend="mp")
        locator = MPShardedLocator(topo, mp_config)
        try:
            net = SkyNet(topo, config=mp_config, state=state, locator=locator)
            net.process(raws)
            sharded = _fingerprint_exact(net)
        finally:
            locator.close()
        assert len(sharded) == len(reference), (
            f"mp shards={shards}: incident count {len(sharded)} != "
            f"reference {len(reference)}"
        )
        for ref_item, mp_item in zip(reference, sharded):
            assert ref_item == mp_item, f"mp shards={shards}"


def test_permanent_wave_storm_exact_ids():
    """The benchmark of record's ``flood_ingest`` storm (a fifth of the
    benchmark fabric down for good, cut to 8k raws): same-depth groups
    open in the same sweep in different regions, so incident ids only
    agree across shard counts under one total group order."""
    topo = build_topology(TopologySpec.benchmark())
    state = NetworkState(topo)
    rng = random.Random(2025)
    devices = sorted(topo.devices)
    rng.shuffle(devices)
    for name in devices[: len(devices) // 5]:
        start = 60.0 + rng.uniform(0.0, 240.0)
        state.add_condition(
            Condition(
                kind=ConditionKind.DEVICE_DOWN,
                target=name,
                start=start,
                end=start + 86_400.0,
            )
        )
    monitors = build_monitors(state, seed=2025)
    raws = list(AlertStream(state, monitors).run(86_400.0, limit=8_000))

    prints = []
    for shards in (None,) + SHARD_COUNTS:
        set_incident_counter(1)
        config = _sharded_config(shards or 1)
        locator = None if shards is None else ShardedLocator(topo, config)
        net = SkyNet(topo, config=config, state=state, locator=locator)
        net.process(raws)
        prints.append(_fingerprint_exact(net))
    assert len(prints[0]) >= 10, "storm too quiet to exercise id ties"
    for shards, sharded in zip(SHARD_COUNTS, prints[1:]):
        assert sharded == prints[0], f"shards={shards}"


# ---------------------------------------------------------------------------
# incremental API equivalence through mp: feed/feed_many/mid-stream reads
# (the two interleaving scenarios of the flood battery, through workers)


def test_incremental_feed_interleavings_mp():
    topo = build_topology(TopologySpec())
    state = NetworkState(topo)
    for cond in _device_down(sorted(topo.devices)[:6], 40.0, 300.0):
        state.add_condition(cond)
    raws = _stream(topo, state, 420.0, seed=5)

    config = _sharded_config(2, backend="mp")
    batch_locator = MPShardedLocator(topo, config)
    feed_locator = MPShardedLocator(topo, config)
    try:
        batch_net = SkyNet(topo, config=config, state=state, locator=batch_locator)
        batch_net.process(raws)

        reference = reference_skynet(topo, state=state)
        net = SkyNet(topo, config=config, state=state, locator=feed_locator)
        for i, raw in enumerate(raws):
            net.feed(raw)
            reference.feed(raw)
            if i % 500 == 0:
                # mid-stream reads reach the worker trees and must neither
                # change eventual output nor diverge from the reference
                assert len(net.incidents()) == len(reference.incidents())
        net.finish()
        reference.finish()
        _assert_equal(_fingerprint(reference), _fingerprint(net))
        _assert_equal(_fingerprint(batch_net), _fingerprint(net))
    finally:
        batch_locator.close()
        feed_locator.close()


# ---------------------------------------------------------------------------
# locator-level: root-located alerts and frontier mechanics


def _alert(
    tool: str,
    name: str,
    location: LocationPath,
    t: float,
    level: AlertLevel = AlertLevel.FAILURE,
    device=None,
) -> StructuredAlert:
    return StructuredAlert(
        type_key=AlertTypeKey(tool, name),
        level=level,
        location=location,
        first_seen=t,
        last_seen=t,
        device=device,
    )


def _locator_prints(locator: Locator) -> List[str]:
    import re

    return sorted(
        re.sub(r"incident-\d+", "incident-N", incident.render())
        for incident in locator.all_incidents()
    )


def test_root_located_alert_merges_all_shards():
    """A live root node joins every component, exactly like the reference
    containment scan (root contains everything)."""
    topo = build_topology(TopologySpec())
    root = LocationPath(())
    regions = sorted(
        {d.location.segments[0] for d in topo.devices.values()}
    )
    feeds = []
    t = 0.0
    for i, region in enumerate(regions):
        dev = next(
            d for d in sorted(topo.devices)
            if topo.device(d).location.segments[0] == region
        )
        loc = topo.device(dev).location
        feeds.append(_alert("ping", f"loss_{i}", loc, 10.0 + i, device=dev))
        feeds.append(
            _alert("syslog", f"err_{i}", loc, 11.0 + i, device=dev)
        )
    feeds.append(_alert("traceroute", "path_loss", root, 12.0))
    feeds.append(
        _alert("internet", "wide_loss", root, 13.0, level=AlertLevel.ABNORMAL)
    )

    prints = []
    for build in (
        lambda: ReferenceLocator(topo, PRODUCTION_CONFIG),
        lambda: Locator(topo, PRODUCTION_CONFIG),
        lambda: ReferenceShardedLocator(topo, _sharded_config(4)),
        lambda: ShardedLocator(topo, _sharded_config(2)),
        lambda: MPShardedLocator(topo, _sharded_config(4, "mp")),
        lambda: MPShardedLocator(topo, _sharded_config(2, "mp")),
    ):
        locator = build()
        try:
            for alert in feeds:
                locator.feed(alert)
            locator.sweep(t + 20.0)
            locator.sweep(t + 5000.0)
            prints.append(_locator_prints(locator))
        finally:
            if isinstance(locator, MPShardedLocator):
                locator.close()
    assert all(p == prints[0] for p in prints[1:])
    assert any("<root>" in p for p in prints[0])


def test_incident_ids_do_not_depend_on_shard_count():
    """Two same-depth groups in different regions, fed later-region
    first, open in one sweep: insertion order and shard order disagree
    about which comes first, :func:`widest_first` does not."""
    topo = build_topology(TopologySpec())
    regions = sorted({d.location.segments[0] for d in topo.devices.values()})
    feeds = []
    t = 10.0
    for region in reversed(regions[:2]):
        dev = max(
            (
                d for d in sorted(topo.devices)
                if topo.device(d).location.segments[0] == region
            ),
            key=lambda d: len(topo.device(d).location.segments),
        )
        loc = topo.device(dev).location
        for name in ("loss", "err"):
            feeds.append(_alert("ping", name, loc, t, device=dev))
            t += 1.0
    assert len(feeds) == 4
    assert len({len(alert.location.segments) for alert in feeds}) == 1

    opened = []
    for build in (
        lambda: Locator(topo, PRODUCTION_CONFIG),
        lambda: ShardedLocator(topo, _sharded_config(1)),
        lambda: ShardedLocator(topo, _sharded_config(2)),
        lambda: ShardedLocator(topo, _sharded_config(4)),
    ):
        set_incident_counter(1)
        locator = build()
        locator.feed_many(feeds)
        opened.append(
            [(i.incident_id, str(i.root)) for i in locator.sweep(20.0).opened]
        )
    assert len(opened[0]) == 2
    assert all(ids == opened[0] for ids in opened[1:]), opened


def test_router_is_deterministic_and_balanced():
    topo = build_topology(TopologySpec.benchmark())
    router = ShardRouter(topo, 4)
    regions = sorted(
        {d.location.segments[0] for d in topo.devices.values()}
    )
    # round-robin over sorted region names: distinct shards while they last
    assert [router.assignment[r] for r in regions] == [
        i % 4 for i in range(len(regions))
    ]
    # root-located paths go to the dedicated root shard
    assert router.shard_of(LocationPath(())) == -1
    # unknown top-level segments still route deterministically
    ghost = LocationPath(("no-such-region", "x"))
    assert router.shard_of(ghost) == router.shard_of(ghost)
    assert 0 <= router.shard_of(ghost) < 4


def test_frontier_devices_cross_region_neighbours():
    topo = build_topology(TopologySpec())
    frontier = frontier_devices(topo, max_hops=2)
    assert frontier, "expected a non-empty cross-region frontier"
    # every frontier device really has a cross-region neighbour in range
    for name in frontier:
        region = topo.device(name).location.segments[0]
        assert any(
            topo.device(n).location.segments[0] != region
            for n in topo.hop_neighbourhood(name, 2)
            if n in topo.devices
        )
    # and every cross-region pair within range is frontier on both ends
    for name in sorted(topo.devices):
        region = topo.device(name).location.segments[0]
        for other in topo.hop_neighbourhood(name, 2):
            if other in topo.devices and (
                topo.device(other).location.segments[0] != region
            ):
                assert name in frontier and other in frontier
