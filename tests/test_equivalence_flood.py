"""Differential suite: the production locator/evaluator must be
behaviourally identical to the reference implementation.

Every scenario here is run twice over the *same* raw alert stream -- once
with the straight-from-the-paper pipeline of ``tests/reference_oracle.py``
and once with the production one -- and the complete incident output is
compared: incident set, scopes, open/close times, status, alert contents
and severity scores.  Incident
ids come from a global counter and legitimately differ between runs, so
renders are compared with ids normalised; every other byte must match.

The scenarios live in a module-level registry (:data:`SCENARIOS`) so the
sharding and multiprocess invariance suites under ``tests/runtime`` can
replay the *same* floods through their backends instead of copying the
definitions (see ``tests/runtime/test_shard_invariance.py``).

This is the gate that lets ``core/locator.py`` batch, index and memoise
at all: any optimisation that changes output fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random
import re
from typing import Callable, Dict, List, Sequence, Set, Tuple

import pytest

from repro.core.config import PRODUCTION_CONFIG
from repro.core.pipeline import SkyNet
from repro.monitors import build_monitors
from repro.monitors.base import RawAlert
from repro.monitors.stream import AlertStream
from repro.simulation import scenarios as sc
from repro.simulation.conditions import Condition, ConditionKind
from repro.simulation.failures import sample_campaign
from repro.simulation.injector import FailureInjector
from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.hierarchy import Level
from repro.topology.network import Topology

from .reference_oracle import reference_skynet

# ---------------------------------------------------------------------------
# harness


def _stream(
    topo: Topology, state: NetworkState, horizon: float, seed: int
) -> List[RawAlert]:
    return AlertStream(state, build_monitors(state, seed=seed)).collect(horizon)


def _fingerprint(net: SkyNet) -> List[Tuple]:
    """Everything observable about a run's incidents, ids normalised."""
    out = []
    for incident in sorted(
        net.incidents(include_superseded=True),
        key=lambda i: (i.start_time, str(i.location)),
    ):
        severity = incident.severity
        out.append(
            (
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
                re.sub(r"incident-\d+", "incident-N", incident.render()),
            )
        )
    return out


def _assert_equal(reference: List[Tuple], fast: List[Tuple]) -> None:
    assert len(reference) == len(fast), (
        f"incident count differs: reference={len(reference)} fast={len(fast)}"
    )
    for ref_fp, fast_fp in zip(reference, fast):
        assert ref_fp == fast_fp
    assert reference, "scenario produced no incidents -- not a useful gate"


def _device_down(
    devices: Sequence[str], start: float, duration: float
) -> List[Condition]:
    return [
        Condition(
            kind=ConditionKind.DEVICE_DOWN,
            target=name,
            start=start + 5.0 * i,
            end=start + 5.0 * i + duration,
        )
        for i, name in enumerate(devices)
    ]


# ---------------------------------------------------------------------------
# the scenario registry
#
# Each entry is a self-contained flood: building it yields a topology, the
# network state that produced the stream, and the raw alert stream itself.
# Both the reference gate below and the runtime invariance suites iterate
# this registry, so adding a scenario here widens every differential gate
# at once.


Built = Tuple[Topology, NetworkState, List[RawAlert]]

#: scenario name -> (its built inputs, their fingerprint): four batteries
#: iterate the registry, and the dense flood alone takes seconds to build
_BUILT: Dict[str, Tuple[Built, str]] = {}
#: names handed out since the last :func:`check_built_inputs_unchanged`
_HANDED_OUT: Set[str] = set()


def _inputs_fingerprint(built: Built) -> str:
    _, state, raws = built
    digest = hashlib.sha256(pickle.dumps(raws, protocol=pickle.HIGHEST_PROTOCOL))
    digest.update(repr((state.now, state._conditions)).encode())
    return digest.hexdigest()


def check_built_inputs_unchanged() -> None:
    """Fail when a test changed the raws or the state it was handed.

    Builds are shared for the whole session, so a test that sorted the
    raws or added a condition would silently change every later test's
    inputs; ``tests/conftest.py`` runs this after each test."""
    for name in sorted(_HANDED_OUT):
        built, fingerprint = _BUILT[name]
        assert _inputs_fingerprint(built) == fingerprint, (
            f"a test changed the shared inputs of scenario {name!r}"
        )
    _HANDED_OUT.clear()


@dataclasses.dataclass(frozen=True)
class FloodScenario:
    """A named, reproducible flood for differential testing."""

    name: str
    make: Callable[[], Built]
    #: synthetic floods must produce incidents to be a useful gate; the
    #: paper's named scenarios may legitimately be quiet on the small fabric
    require_incidents: bool = True

    def build(self) -> Built:
        """The scenario's topology, state and raws, built once per
        session and shared: callers must not change them."""
        if self.name not in _BUILT:
            built = self.make()
            _BUILT[self.name] = (built, _inputs_fingerprint(built))
        _HANDED_OUT.add(self.name)
        return _BUILT[self.name][0]


def _conditions_scenario(
    name: str,
    conditions_for: Callable[[Topology, random.Random], Sequence[Condition]],
    *,
    spec: Callable[[], TopologySpec] = TopologySpec,
    horizon: float = 600.0,
    seed: int = 0,
    require_incidents: bool = True,
) -> FloodScenario:
    def build() -> Tuple[Topology, NetworkState, List[RawAlert]]:
        topo = build_topology(spec())
        state = NetworkState(topo)
        rng = random.Random(seed)
        for cond in conditions_for(topo, rng):
            state.add_condition(cond)
        return topo, state, _stream(topo, state, horizon, seed)

    return FloodScenario(name=name, make=build, require_incidents=require_incidents)


def _device_down_conditions(n_down: int):
    def conditions(topo: Topology, rng: random.Random) -> List[Condition]:
        devices = sorted(topo.devices)
        rng.shuffle(devices)
        return _device_down(devices[:n_down], start=40.0, duration=400.0)

    return conditions


def _link_failure_conditions(n_sets: int):
    def conditions(topo: Topology, rng: random.Random) -> List[Condition]:
        sets = sorted(topo.circuit_sets)
        rng.shuffle(sets)
        return [
            Condition(
                kind=ConditionKind.CIRCUIT_BREAK,
                target=set_id,
                start=60.0,
                end=500.0,
                params={"broken_circuits": 4.0},
            )
            for set_id in sets[:n_sets]
        ]

    return conditions


def _site_isolation_conditions(topo: Topology, rng: random.Random):
    """Every device of one site down at once: one wide incident scope."""
    sites = sorted(
        (loc for loc in topo.locations() if loc.level is Level.SITE), key=str
    )
    site = sites[rng.randrange(len(sites))]
    names = [d.name for d in topo.devices_at(site)]
    return _device_down(names, start=50.0, duration=420.0)


def _cross_region_conditions(topo: Topology, rng: random.Random):
    """Independent failures in different regions stay separate incidents."""
    by_region: dict = {}
    for name in sorted(topo.devices):
        region = topo.device(name).location.segments[0]
        by_region.setdefault(region, []).append(name)
    out = []
    for names in by_region.values():
        rng.shuffle(names)
        out.extend(_device_down(names[:4], start=45.0, duration=380.0))
    return out


def _mixed_kind_conditions(topo: Topology, rng: random.Random):
    """Loss, flapping, CPU and config faults interleaved."""
    kinds = [
        (ConditionKind.DEVICE_SILENT_LOSS, {"loss_rate": 0.3}),
        (ConditionKind.LINK_FLAPPING, {}),
        (ConditionKind.DEVICE_HIGH_CPU, {"utilization": 0.97}),
        (ConditionKind.CONFIG_ERROR, {}),
        (ConditionKind.DEVICE_HARDWARE_ERROR, {"loss_rate": 0.2}),
    ]
    devices = sorted(topo.devices)
    sets = sorted(topo.circuit_sets)
    out = []
    for i, (kind, params) in enumerate(kinds * 2):
        if kind is ConditionKind.LINK_FLAPPING:
            target = sets[rng.randrange(len(sets))]
        else:
            target = devices[rng.randrange(len(devices))]
        start = 40.0 + 30.0 * i
        out.append(
            Condition(
                kind=kind,
                target=target,
                start=start,
                end=start + 360.0,
                params=dict(params),
            )
        )
    return out


def _benchmark_dense_conditions(topo: Topology, rng: random.Random):
    """The big fabric under a wide failure wave (the bench scenario)."""
    devices = sorted(topo.devices)
    rng.shuffle(devices)
    return [
        Condition(
            kind=ConditionKind.DEVICE_DOWN,
            target=name,
            start=60.0 + rng.uniform(0.0, 240.0),
            end=700.0,
        )
        for name in devices[:50]
    ]


def _campaign_scenario(seed: int) -> FloodScenario:
    """Failures drawn from the paper's root-cause distribution."""

    def build() -> Tuple[Topology, NetworkState, List[RawAlert]]:
        topo = build_topology(TopologySpec())
        state = NetworkState(topo)
        rng = random.Random(seed)
        injector = FailureInjector(state)
        injector.inject_all(
            sample_campaign(topo, rng, 10, 600.0, severe_fraction=0.3)
        )
        return topo, state, _stream(topo, state, 600.0, seed)

    return FloodScenario(name=f"campaign_s{seed}", make=build)


def _named_scenario(name: str, scenario_fn) -> FloodScenario:
    """One of the paper's named failure scenarios (§2/§5 case studies)."""

    def build() -> Tuple[Topology, NetworkState, List[RawAlert]]:
        topo = build_topology(TopologySpec())
        state = NetworkState(topo)
        injector = FailureInjector(state)
        for scenario in scenario_fn(topo):
            injector.inject(scenario)
        return topo, state, _stream(topo, state, 600.0, seed=7)

    # named scenarios are allowed to produce zero incidents on the small
    # fabric; the synthetic floods guarantee non-trivial coverage
    return FloodScenario(name=name, make=build, require_incidents=False)


_NAMED = [
    ("cable_cut", lambda topo: [sc.internet_entrance_cable_cut(topo, start=30.0)]),
    ("known_device", lambda topo: [sc.known_device_failure(topo, start=30.0)]),
    ("multi_ddos", lambda topo: sc.multi_site_ddos(topo, start=30.0, n_sites=3)),
    ("ranking_pair", lambda topo: list(sc.ranking_pair(topo, start=30.0))),
    ("reflector", lambda topo: [sc.reflector_failure(topo, start=30.0)]),
    ("blackhole", lambda topo: [sc.partial_route_blackhole(topo, start=30.0)]),
    ("silent_loss", lambda topo: [sc.silent_backbone_loss(topo, start=30.0)]),
    ("maintenance", lambda topo: [sc.maintenance_break_wave(topo, start=30.0)]),
    ("delayed_root", lambda topo: [sc.delayed_root_cause(topo, start=30.0)]),
]


SCENARIOS: List[FloodScenario] = (
    [
        _conditions_scenario(
            f"device_down_s{seed}_n{n_down}",
            _device_down_conditions(n_down),
            seed=seed,
        )
        for seed, n_down in [(7, 3), (2, 5), (3, 8), (4, 20), (5, 40)]
    ]
    + [
        _conditions_scenario(
            f"link_failure_s{seed}_n{n_sets}",
            _link_failure_conditions(n_sets),
            seed=seed,
        )
        for seed, n_sets in [(11, 2), (12, 6), (13, 15)]
    ]
    + [
        _conditions_scenario(
            f"site_isolation_s{seed}", _site_isolation_conditions, seed=seed
        )
        for seed in (21, 22)
    ]
    + [
        _conditions_scenario(
            f"cross_region_s{seed}", _cross_region_conditions, seed=seed
        )
        for seed in (31, 32)
    ]
    + [
        _conditions_scenario(
            f"mixed_kind_s{seed}", _mixed_kind_conditions, seed=seed
        )
        for seed in (41, 42, 43)
    ]
    + [_campaign_scenario(seed) for seed in (51, 52)]
    + [
        _conditions_scenario(
            "benchmark_dense_flood",
            _benchmark_dense_conditions,
            spec=TopologySpec.benchmark,
            horizon=800.0,
            seed=61,
        )
    ]
    + [_named_scenario(name, fn) for name, fn in _NAMED]
)

SCENARIO_IDS = [scenario.name for scenario in SCENARIOS]

assert len(SCENARIOS) == len(set(SCENARIO_IDS)), "scenario names must be unique"


# ---------------------------------------------------------------------------
# the reference gate: every registry scenario, oracle vs production


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_fast_path_equivalence(scenario: FloodScenario):
    topo, state, raws = scenario.build()
    prints = []
    for build in (reference_skynet, SkyNet):
        net = build(topo, config=PRODUCTION_CONFIG, state=state)
        net.process(raws)
        prints.append(_fingerprint(net))
    reference, fast_fp = prints
    assert len(reference) == len(fast_fp), (
        f"incident count differs: reference={len(reference)} fast={len(fast_fp)}"
    )
    for ref_item, fast_item in zip(reference, fast_fp):
        assert ref_item == fast_item
    if scenario.require_incidents:
        assert reference, "scenario produced no incidents -- not a useful gate"


# ---------------------------------------------------------------------------
# incremental API equivalence: feed/feed_many/flush interleavings


def test_feed_many_matches_feed():
    topo = build_topology(TopologySpec())
    state = NetworkState(topo)
    for cond in _device_down(sorted(topo.devices)[:5], 40.0, 300.0):
        state.add_condition(cond)
    raws = _stream(topo, state, 420.0, seed=3)

    config = PRODUCTION_CONFIG
    one = SkyNet(topo, config=config, state=state)
    for raw in raws:
        one.feed(raw)
    one.finish()

    many = SkyNet(topo, config=config, state=state)
    batch: List = []
    for raw in raws:
        many._now = max(many._now, raw.delivered_at)
        many.zoom.observe(raw)
        batch.extend(many.preprocessor.feed(raw))
        if len(batch) >= 50:
            many.locator.feed_many(batch)
            batch = []
        if many._now - many._last_sweep >= config.sweep_interval_s:
            many.locator.feed_many(batch)
            batch = []
            many.sweep(many._now)
    many.locator.feed_many(batch)
    many.finish()

    assert _fingerprint(one) == _fingerprint(many)


def test_mid_stream_reads_see_flushed_state():
    """pipeline.incidents() must reflect buffered alerts (flush-on-read)."""
    topo = build_topology(TopologySpec())
    state = NetworkState(topo)
    for cond in _device_down(sorted(topo.devices)[:6], 40.0, 300.0):
        state.add_condition(cond)
    raws = _stream(topo, state, 420.0, seed=5)
    net = SkyNet(topo, state=state)
    reference = reference_skynet(topo, state=state)
    for i, raw in enumerate(raws):
        net.feed(raw)
        reference.feed(raw)
        if i % 500 == 0:
            # reading mid-stream must not change eventual output, and the
            # flushed view matches the reference incident set
            assert len(net.incidents()) == len(reference.incidents())
    net.finish()
    reference.finish()
    assert _fingerprint(reference) == _fingerprint(net)
