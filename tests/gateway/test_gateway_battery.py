"""The gateway's flagship differential gate: online == offline, ids included.

Every scenario of the flood battery is pushed through a
:class:`~repro.gateway.service.GatewayService` over the loopback
transport -- so each alert round-trips the real wire encoding -- and the
served incident reports must be **byte-identical, incident ids
included**, to an offline :class:`~repro.runtime.service.RuntimeService`
replay of the same admitted stream.  The comparison runs at shard counts
{1, 2, 4}; the ``inproc`` backend covers the full battery in tier 1 and
the ``mp`` backend covers two hard cross-region floods in tier 1 plus
the full battery under ``-m slow`` (CI runs it).

The gateway-specific half of the claim -- release order is independent
of how source submissions *interleave* -- is pinned here at service
level too: a per-source round-robin arrival produces the same reports
and the same subscription event log as the merged arrival.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core.config import PRODUCTION_CONFIG
from repro.gateway import GatewayParams, GatewayService, LoopbackTransport
from repro.gateway.cli import _substreams
from repro.gateway.sources import SOURCE_PRIORITY
from repro.monitors.base import RawAlert
from repro.runtime.checkpoint import set_incident_counter
from repro.runtime.journal import raw_to_json
from repro.runtime.service import RuntimeService
from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology

from ..test_equivalence_flood import (
    SCENARIO_IDS,
    SCENARIOS,
    FloodScenario,
    _device_down,
    _stream,
)

SHARD_COUNTS = (1, 2, 4)

#: Identity requires zero queue sheds (a shed alert is absent offline),
#: so the battery runs the gateway effectively unbounded.
UNBOUNDED = GatewayParams(queue_limit=10**9)

Report = Tuple[str, float, bool, str]


def _config(shards: int, backend: str):
    return dataclasses.replace(
        PRODUCTION_CONFIG,
        runtime=dataclasses.replace(
            PRODUCTION_CONFIG.runtime, shards=shards, backend=backend
        ),
    )


def _merged(raws: Sequence[RawAlert]) -> Tuple[Dict[str, List[RawAlert]], List[RawAlert]]:
    """Per-source substreams + their deterministic merged order."""
    split = _substreams(list(raws))
    merged = [
        raw
        for _t, _p, raw in heapq.merge(
            *(
                ((r.timestamp, SOURCE_PRIORITY[tool], r) for r in substream)
                for tool, substream in sorted(split.items())
            )
        )
    ]
    return split, merged


def _offline_reference(topo, state: NetworkState, merged: Sequence[RawAlert]) -> List[Report]:
    """The ground truth: an unsharded offline runtime fed the same order."""
    set_incident_counter(1)
    runtime = RuntimeService(topo, config=PRODUCTION_CONFIG, state=state)
    for raw in merged:
        runtime.ingest(raw)
    runtime.pipeline.finish()
    return [
        (r.incident.incident_id, r.score, r.urgent, r.render())
        for r in runtime.reports()
    ]


def _gateway_run(
    topo,
    state: NetworkState,
    split: Dict[str, List[RawAlert]],
    merged: Sequence[RawAlert],
    shards: int,
    backend: str,
) -> Tuple[List[Report], List[Dict[str, object]], int]:
    """Serve the flood through loopback; return (reports, events, #online)."""
    set_incident_counter(1)
    service = GatewayService(
        topo, config=_config(shards, backend), state=state, params=UNBOUNDED
    )
    transport = LoopbackTransport(service.handle)
    try:
        for tool in sorted(SOURCE_PRIORITY):
            if tool not in split:
                assert transport.request({"op": "eof", "source": tool})["ok"]
        online = 0
        for raw in merged:
            reply = transport.request({"op": "submit", "raw": raw_to_json(raw)})
            assert reply["ok"] and reply["admitted"], reply
            online += int(reply["released"])  # type: ignore[arg-type]
        for tool in sorted(split):
            assert transport.request({"op": "eof", "source": tool})["ok"]
        assert transport.request({"op": "finish"})["ok"]
        reports = transport.request({"op": "reports"})["reports"]
        events = transport.request({"op": "history"})["events"]
        return (
            [
                (r["incident_id"], r["score"], r["urgent"], r["render"])
                for r in reports  # type: ignore[union-attr]
            ],
            events,  # type: ignore[return-value]
            online,
        )
    finally:
        service.shutdown()


def _check_battery(scenario: FloodScenario, backend: str) -> None:
    topo, state, raws = scenario.build()
    split, merged = _merged(raws)
    reference = _offline_reference(topo, state, merged)
    if scenario.require_incidents:
        assert reference, "scenario produced no incidents -- not a useful gate"
    events0 = None
    for shards in SHARD_COUNTS:
        reports, events, online = _gateway_run(
            topo, state, split, merged, shards, backend
        )
        assert reports == reference, f"backend={backend} shards={shards}"
        # with >1 live source the watermark frontier streams most of the
        # flood online, before the end-of-stream flush
        if len(split) > 1 and len(merged) > 10:
            assert online > 0, "nothing released before finish"
        if events0 is None:
            events0 = events
        else:
            assert events == events0, f"backend={backend} shards={shards}"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_full_battery_loopback_inproc(scenario: FloodScenario):
    _check_battery(scenario, "inproc")


@pytest.mark.slow
@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_full_battery_loopback_mp(scenario: FloodScenario):
    _check_battery(scenario, "mp")


# ---------------------------------------------------------------------------
# tier-1 mp coverage: the hard cross-region floods through worker processes


def _hard_flood(seed: int, n_down: int):
    import random

    topo = build_topology(TopologySpec())
    state = NetworkState(topo)
    rng = random.Random(seed)
    devices = sorted(topo.devices)
    rng.shuffle(devices)
    for cond in _device_down(devices[:n_down], start=40.0, duration=400.0):
        state.add_condition(cond)
    return topo, state, _stream(topo, state, 600.0, seed)


@pytest.mark.parametrize("seed,n_down", [(7, 3), (4, 20)])
def test_hard_flood_loopback_mp(seed, n_down):
    topo, state, raws = _hard_flood(seed, n_down)
    split, merged = _merged(raws)
    reference = _offline_reference(topo, state, merged)
    assert reference
    for shards in SHARD_COUNTS:
        reports, _events, _online = _gateway_run(
            topo, state, split, merged, shards, "mp"
        )
        assert reports == reference, f"mp shards={shards}"


# ---------------------------------------------------------------------------
# arrival-interleaving invariance at service level


def test_round_robin_arrival_matches_merged_arrival():
    """A per-source round-robin arrival (each source submitting its own
    substream in its own clock order) serves the same reports *and* the
    same subscription event log as the merged arrival."""
    topo, state, raws = _hard_flood(seed=7, n_down=3)
    split, merged = _merged(raws)
    ref_reports, ref_events, _ = _gateway_run(
        topo, state, split, merged, shards=2, backend="inproc"
    )

    set_incident_counter(1)
    service = GatewayService(
        topo, config=_config(2, "inproc"), state=state, params=UNBOUNDED
    )
    transport = LoopbackTransport(service.handle)
    try:
        for tool in sorted(SOURCE_PRIORITY):
            if tool not in split:
                transport.request({"op": "eof", "source": tool})
        cursors = {tool: 0 for tool in split}
        remaining = sum(len(s) for s in split.values())
        while remaining:
            for tool in sorted(split):
                i = cursors[tool]
                if i >= len(split[tool]):
                    continue
                cursors[tool] = i + 1
                remaining -= 1
                reply = transport.request(
                    {"op": "submit", "raw": raw_to_json(split[tool][i])}
                )
                assert reply["ok"] and reply["admitted"], reply
        for tool in sorted(split):
            transport.request({"op": "eof", "source": tool})
        transport.request({"op": "finish"})
        reports = [
            (r["incident_id"], r["score"], r["urgent"], r["render"])
            for r in transport.request({"op": "reports"})["reports"]  # type: ignore[union-attr]
        ]
        events = transport.request({"op": "history"})["events"]
    finally:
        service.shutdown()

    assert reports == ref_reports
    assert events == ref_events
