"""End-to-end fault tolerance gate: chaos on the wire AND in the shards.

The flagship robustness battery: every flood scenario is served through
the *real socket transport* while a seeded
:class:`~repro.gateway.netchaos.ChaosTransport` injects connection
resets, stalled sends, torn frames, stale re-deliveries, duplicated
submissions and dropped replies -- all below the client's retry budget
-- and a :class:`~repro.runtime.faults.ChaosPlan` simultaneously fires a
correlated multi-shard crash that destroys part of the per-shard
recovery snapshots.  The served incident reports must still be
**byte-identical, ids included**, to a fault-free offline replay: the
resilient client retries/reconnects, the service dedupes replays on
per-source seqs, and the runtime rebuilds snapshot-less shards from the
durable checkpoint + journal tail.

Alongside the battery: the empty-plan inertness proof (no chaos
machinery, zero RNG draws, zero counters), the session-resume contract
(a reconnecting ingestor re-offers only what the gateway never took),
and the degraded tier (journal fault-exhausted -> empty heal with
confidence-stamped incidents -- loud, deterministic, still serving).
"""

from __future__ import annotations

import dataclasses
import pathlib
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.config import PRODUCTION_CONFIG
from repro.gateway import (
    ChaosTransport,
    GatewayClient,
    GatewayIngestSession,
    GatewayParams,
    GatewayService,
    GatewaySocketServer,
    NetChaosPlan,
    SOURCE_PRIORITY,
    empty_net_plan,
    net_chaos_or_none,
)
from repro.monitors.base import RawAlert
from repro.runtime.checkpoint import set_incident_counter
from repro.runtime.faults import ChaosPlan, CorrelatedCrash, IOFault
from repro.runtime.service import RuntimeService
from repro.simulation.state import NetworkState

from ..test_equivalence_flood import SCENARIO_IDS, SCENARIOS, FloodScenario
from .test_gateway_battery import SHARD_COUNTS, Report, _hard_flood, _merged

#: Every wire fault class at once, each below the retry budget: with
#: five attempts per request, even the hard-failure classes (reset,
#: stall, torn, drop_reply; ~8% combined) cannot plausibly exhaust it.
NET_PLAN = NetChaosPlan(
    reset_rate=0.02,
    stall_rate=0.02,
    torn_rate=0.02,
    stale_rate=0.04,
    duplicate_rate=0.04,
    drop_reply_rate=0.02,
    seed=13,
)

#: Unbounded queues (identity needs zero sheds) + near-zero wall-clock
#: backoff so injected faults cost microseconds, not test minutes.
CHAOS_PARAMS = GatewayParams(
    queue_limit=10**9,
    client_backoff_base_s=0.0005,
    client_backoff_max_s=0.005,
)


def _config(shards: int, backend: str):
    return dataclasses.replace(
        PRODUCTION_CONFIG,
        runtime=dataclasses.replace(
            PRODUCTION_CONFIG.runtime,
            shards=shards,
            backend=backend,
            checkpoint_interval_s=120.0,
        ),
    )


def _offline_reference(
    topo, state: NetworkState, merged: Sequence[RawAlert]
) -> List[Report]:
    """Ground truth: unsharded, chaos-free, offline."""
    set_incident_counter(1)
    runtime = RuntimeService(topo, config=PRODUCTION_CONFIG, state=state)
    for raw in merged:
        runtime.ingest(raw)
    runtime.pipeline.finish()
    return [
        (r.incident.incident_id, r.score, r.urgent, r.render())
        for r in runtime.reports()
    ]


def _correlated_plan(shards: int, at: float) -> ChaosPlan:
    """Kill a majority of the shards together; lose every snapshot."""
    victims = tuple(range(max(1, shards - 1)))
    return ChaosPlan(
        correlated_crashes=(
            CorrelatedCrash(at=at, shards=victims, lose_snapshots=victims),
        )
    )


def _socket_run(
    topo,
    state: Optional[NetworkState],
    split: Dict[str, List[RawAlert]],
    merged: Sequence[RawAlert],
    shards: int,
    backend: str,
    net_plan: Optional[NetChaosPlan] = None,
    chaos: Optional[ChaosPlan] = None,
    directory: Optional[pathlib.Path] = None,
    run_seed: int = 0,
) -> Tuple[List[Report], Dict[str, object]]:
    """Serve one flood over a real socket; return (reports, telemetry)."""
    set_incident_counter(1)
    service = GatewayService(
        topo,
        config=_config(shards, backend),
        state=state,
        directory=directory,
        chaos=chaos,
        run_seed=run_seed,
        params=CHAOS_PARAMS,
    )
    server = GatewaySocketServer(service.handle, CHAOS_PARAMS)
    server.start()
    wire = (
        ChaosTransport(net_plan, run_seed=run_seed)
        if net_chaos_or_none(net_plan) is not None
        else None
    )
    try:
        host, port = server.address
        with GatewayClient(
            host,
            port,
            timeout_s=10.0,
            params=CHAOS_PARAMS,
            run_seed=run_seed,
            net_chaos=wire,
        ) as client:
            session = GatewayIngestSession(client)
            session.resync()
            for tool in sorted(SOURCE_PRIORITY):
                if tool not in split:
                    session.eof(tool)
            for raw in merged:
                reply = session.submit(raw)
                assert reply["ok"] and reply["admitted"], reply
            for tool in sorted(split):
                session.eof(tool)
            session.finish()
            reports = client.request({"op": "reports"})["reports"]
            metrics = client.request({"op": "metrics"})["metrics"]
            telemetry: Dict[str, object] = {
                "retries": client.retries,
                "reconnects": client.reconnects,
                "duplicates_acked": session.duplicates,
                "injected": wire.injected() if wire is not None else 0,
                "counters": metrics["counters"],  # type: ignore[index]
            }
        return (
            [
                (r["incident_id"], r["score"], r["urgent"], r["render"])
                for r in reports  # type: ignore[union-attr]
            ],
            telemetry,
        )
    finally:
        server.stop()
        service.shutdown()


def _check_chaos_battery(scenario: FloodScenario, backend: str) -> None:
    """Net faults on the wire + a correlated crash in the shards, and the
    served reports must still match the fault-free offline reference."""
    topo, state, raws = scenario.build()
    split, merged = _merged(raws)
    reference = _offline_reference(topo, state, merged)
    if scenario.require_incidents:
        assert reference, "scenario produced no incidents -- not a useful gate"
    mid = merged[len(merged) // 2].delivered_at if merged else 0.0
    for shards in SHARD_COUNTS:
        with tempfile.TemporaryDirectory() as tmp:
            reports, telemetry = _socket_run(
                topo,
                state,
                split,
                merged,
                shards,
                backend,
                net_plan=NET_PLAN,
                chaos=_correlated_plan(shards, at=mid),
                directory=pathlib.Path(tmp),
            )
        assert reports == reference, f"backend={backend} shards={shards}"
        counters = telemetry["counters"]
        if merged:
            assert counters.get("runtime_correlated_crashes_total", 0) >= 1  # type: ignore[union-attr]
        if len(merged) > 100:
            # a real flood must actually see faults, or the gate is a
            # placebo; duplicates acked proves the dedupe path fired
            assert telemetry["injected"] > 0  # type: ignore[operator]
        # a degraded heal would mean the rebuild silently failed
        assert not counters.get("runtime_shard_degraded_heals_total")  # type: ignore[union-attr]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_full_battery_socket_chaos_inproc(scenario: FloodScenario):
    _check_chaos_battery(scenario, "inproc")


@pytest.mark.slow
@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_full_battery_socket_chaos_mp(scenario: FloodScenario):
    _check_chaos_battery(scenario, "mp")


def test_hard_flood_socket_chaos_mp():
    """Tier-1 mp coverage: worker processes really die (SIGKILL) and the
    lost shards are rebuilt from checkpoint + journal, under net chaos."""
    topo, state, raws = _hard_flood(seed=7, n_down=3)
    split, merged = _merged(raws)
    reference = _offline_reference(topo, state, merged)
    assert reference
    mid = merged[len(merged) // 2].delivered_at
    for shards in (2, 4):
        with tempfile.TemporaryDirectory() as tmp:
            reports, telemetry = _socket_run(
                topo,
                state,
                split,
                merged,
                shards,
                "mp",
                net_plan=NET_PLAN,
                chaos=_correlated_plan(shards, at=mid),
                directory=pathlib.Path(tmp),
            )
        assert reports == reference, f"mp shards={shards}"
        assert telemetry["injected"] > 0  # type: ignore[operator]


# ---------------------------------------------------------------------------
# empty-plan inertness: no machinery, no draws, no counters


def test_empty_net_plan_normalises_to_none():
    assert empty_net_plan().is_empty()
    assert net_chaos_or_none(empty_net_plan()) is None
    assert net_chaos_or_none(None) is None
    plan = NetChaosPlan(reset_rate=0.1)
    assert net_chaos_or_none(plan) is plan


def test_empty_plan_transport_is_pure_passthrough():
    wire = ChaosTransport(empty_net_plan())
    assert wire._rng is None  # no RNG even exists: zero draws possible
    sent: List[bytes] = []
    reply = wire.exchange(sent.append, lambda: b'{"ok":true}\n', b"frame\n", True)
    assert sent == [b"frame\n"] and reply == b'{"ok":true}\n'
    assert wire.injected() == 0 and all(v == 0 for v in wire.counts.values())


def test_chaos_free_socket_run_touches_no_resilience_paths():
    """Without a net plan the full serving path runs fault-free: zero
    retries, zero reconnects, zero duplicate acks, no chaos counters."""
    topo, state, raws = _hard_flood(seed=7, n_down=3)
    split, merged = _merged(raws)
    reference = _offline_reference(topo, state, merged)
    reports, telemetry = _socket_run(
        topo, state, split, merged, shards=2, backend="inproc"
    )
    assert reports == reference
    assert telemetry["retries"] == 0
    assert telemetry["reconnects"] == 0
    assert telemetry["duplicates_acked"] == 0
    assert "gateway_duplicates_total" not in telemetry["counters"]  # type: ignore[operator]


# ---------------------------------------------------------------------------
# session resume: a restarted ingestor re-offers only what was never taken


@pytest.mark.parametrize("mode", ["resync_skip", "replay_from_start"])
def test_session_resume_never_double_ingests(mode: str):
    """A producer that dies mid-flood and restarts must end byte-identical.

    Two legal resume protocols: ``resync_skip`` learns each source's
    consumed frontier and skips exactly that substream prefix (zero
    duplicates on the wire -- what the ingest CLI does);
    ``replay_from_start`` resends everything with fresh counters and
    relies on the server draining the consumed prefix as duplicate acks.
    """
    topo, state, raws = _hard_flood(seed=7, n_down=3)
    split, merged = _merged(raws)
    reference = _offline_reference(topo, state, merged)
    cut = len(merged) // 2

    set_incident_counter(1)
    service = GatewayService(
        topo, config=_config(2, "inproc"), state=state, params=CHAOS_PARAMS
    )
    server = GatewaySocketServer(service.handle, CHAOS_PARAMS)
    server.start()
    try:
        host, port = server.address
        with GatewayClient(host, port, timeout_s=10.0) as first:
            session = GatewayIngestSession(first)
            for tool in sorted(SOURCE_PRIORITY):
                if tool not in split:
                    session.eof(tool)
            for raw in merged[:cut]:
                assert session.submit(raw)["admitted"]
        # the ingestor dies; a fresh one must finish the flood without
        # double-ingesting the half the gateway already consumed
        with GatewayClient(host, port, timeout_s=10.0) as second:
            session = GatewayIngestSession(second)
            if mode == "resync_skip":
                frontiers = session.resync()
                assert sum(frontiers.values()) == cut
                trimmed = {
                    tool: substream[frontiers.get(tool, 0):]
                    for tool, substream in split.items()
                }
                _split2, replay = _merged(
                    [raw for s in trimmed.values() for raw in s]
                )
            else:
                replay = list(merged)  # fresh counters, full resend
            for raw in replay:
                reply = session.submit(raw)
                assert reply["ok"] and reply["admitted"], reply
            if mode == "resync_skip":
                assert session.duplicates == 0
                assert session.submitted == len(merged) - cut
            else:
                assert session.duplicates == cut
                assert session.submitted == len(merged) - cut
            for tool in sorted(split):
                session.eof(tool)
            session.finish()
            reports = [
                (r["incident_id"], r["score"], r["urgent"], r["render"])
                for r in second.request({"op": "reports"})["reports"]  # type: ignore[union-attr]
            ]
            counters = second.request({"op": "metrics"})["metrics"]["counters"]  # type: ignore[index]
    finally:
        server.stop()
        service.shutdown()
    assert reports == reference
    if mode == "replay_from_start":
        assert counters.get("gateway_duplicates_total", 0) == cut  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# the degraded tier: journal fault-exhausted -> loud, stamped, serving


def test_degraded_heal_stamps_confidence_and_keeps_serving():
    topo, state, raws = _hard_flood(seed=7, n_down=3)
    split, merged = _merged(raws)
    mid = merged[len(merged) // 2].delivered_at
    chaos = ChaosPlan(
        correlated_crashes=(
            CorrelatedCrash(at=mid, shards=(0, 1), lose_snapshots=(0, 1)),
        ),
        # the rebuild's journal scan is fault-exhausted: recovery must
        # fall through to the admitted-data-loss tier
        io_faults=(
            IOFault(op="journal_read", start=0.0, end=10**9, permanent=True),
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        reports, telemetry = _socket_run(
            topo,
            state,
            split,
            merged,
            shards=2,
            backend="inproc",
            chaos=chaos,
            directory=pathlib.Path(tmp),
        )
    counters = telemetry["counters"]
    assert counters.get("runtime_shard_degraded_heals_total") == 2  # type: ignore[union-attr]
    assert counters.get("runtime_data_loss_stamped_incidents_total", 0) >= 1  # type: ignore[union-attr]
    stamped = [r for r in reports if "degraded:" in r[3]]
    assert stamped, "data loss must be visible in the served renders"
    assert any("data-loss" in r[3] for r in stamped)
