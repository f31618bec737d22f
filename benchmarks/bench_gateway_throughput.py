"""Gateway serving benchmark: end-to-end ingestion throughput by
transport, execution backend and shard count -- with the identity gate
asserted on every cell.

Replays a seeded rolling severe-failure storm as *raw* alerts through a
full :class:`repro.gateway.GatewayService` -- registry validation,
deterministic sequencing, admission, journal-less runtime pipeline --
over both carriers (``loopback``: in-process, through the real frame
codec; ``socket``: framed JSONL over TCP with one request/reply
round-trip per alert), on both locator backends (``inproc``/``mp``) at
shard counts {1, 2, 4}.  Every cell's served incident reports are
asserted **byte-identical, incident ids included**, to an offline
:class:`repro.runtime.service.RuntimeService` replay of the same admitted
stream -- the ISSUE's signature property, re-checked at flood scale on
every tier -- so the alerts/sec numbers are for exactly equivalent work.

The committed ``BENCH_gateway_throughput.json`` documents what serving
costs on top of the bare pipeline: the loopback rows price the gateway
machinery itself (sequencer + registry + event log), the socket rows add
the wire (codec + TCP round-trip per alert), and the per-cell
``vs_loopback`` ratio isolates the transport tax from the pipeline work.

Environment knobs (same contract as bench_runtime_throughput):

* ``SKYNET_BENCH_TIERS`` -- comma list of tiers (``1k,10k`` or ``all``;
  default ``1k,10k``).  CI's gateway-smoke job runs ``1k``.
* ``SKYNET_BENCH_TINY`` -- miniature tier on the tiny topology for
  tests/test_bench_smoke.py.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import os
import pathlib
import random
import time
from typing import Dict, List, Tuple

from repro.core.config import PRODUCTION_CONFIG
from repro.gateway import (
    GatewayClient,
    GatewayParams,
    GatewayService,
    GatewaySocketServer,
    LoopbackTransport,
    SOURCE_PRIORITY,
)
from repro.gateway.cli import _substreams
from repro.monitors import build_monitors
from repro.monitors.base import RawAlert
from repro.monitors.stream import AlertStream
from repro.runtime.checkpoint import set_incident_counter
from repro.runtime.journal import raw_to_json
from repro.runtime.service import RuntimeService
from repro.simulation.conditions import Condition, ConditionKind
from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology

if os.environ.get("SKYNET_BENCH_TINY"):
    JSON_PATH = (
        pathlib.Path(__file__).parent
        / "results-tiny"
        / "BENCH_gateway_throughput.json"
    )
else:
    JSON_PATH = pathlib.Path(__file__).parent.parent / "BENCH_gateway_throughput.json"

_TIERS = {"1k": 1_000, "10k": 10_000}
SHARD_COUNTS = (1, 2, 4)
BACKENDS = ("inproc", "mp")
TRANSPORTS = ("loopback", "socket")

#: identity requires zero queue sheds; the bench prices ordering, not loss
PARAMS = GatewayParams(queue_limit=10**9)


def _selected_tiers() -> List[Tuple[str, int]]:
    if os.environ.get("SKYNET_BENCH_TINY"):
        return [("tiny", 300)]
    raw = os.environ.get("SKYNET_BENCH_TIERS", "1k,10k")
    if raw.strip().lower() == "all":
        return list(_TIERS.items())
    out = []
    for token in raw.split(","):
        token = token.strip()
        if token in _TIERS:
            out.append((token, _TIERS[token]))
    return out or [("1k", _TIERS["1k"])]


def _topology():
    if os.environ.get("SKYNET_BENCH_TINY"):
        return build_topology(TopologySpec.tiny())
    return build_topology(TopologySpec.benchmark())


def _flood(topo, n: int, seed: int):
    """Rolling severe-failure storm, capped at ``n`` raw alerts, split
    into per-source substreams plus their deterministic merged order."""
    rng = random.Random(seed)
    state = NetworkState(topo)
    devices = sorted(topo.devices)
    horizon = 7_200.0
    mean_outage = 900.0
    target_down = max(3, len(devices) // 5)
    for _ in range(int(target_down * horizon / mean_outage)):
        start = 60.0 + rng.uniform(0.0, horizon)
        state.add_condition(
            Condition(
                kind=ConditionKind.DEVICE_DOWN,
                target=rng.choice(devices),
                start=start,
                end=start + rng.uniform(600.0, 1_200.0),
            )
        )
    raws: List[RawAlert] = []
    for raw in AlertStream(state, build_monitors(state, seed=seed)).run(86_400.0):
        raws.append(raw)
        if len(raws) >= n:
            break
    split = _substreams(raws)
    merged = [
        raw
        for _t, _p, raw in heapq.merge(
            *(
                ((r.timestamp, SOURCE_PRIORITY[tool], r) for r in substream)
                for tool, substream in sorted(split.items())
            )
        )
    ]
    return state, split, merged


def _config(shards: int, backend: str):
    return dataclasses.replace(
        PRODUCTION_CONFIG,
        runtime=dataclasses.replace(
            PRODUCTION_CONFIG.runtime, shards=shards, backend=backend
        ),
    )


def _offline_reference(topo, state, merged) -> List[Tuple[str, str]]:
    set_incident_counter(1)
    runtime = RuntimeService(topo, config=PRODUCTION_CONFIG, state=state)
    for raw in merged:
        runtime.ingest(raw)
    runtime.pipeline.finish()
    return [
        (r.incident.incident_id, r.render()) for r in runtime.reports()
    ]


def _serve_flood(
    topo, state, split, merged, shards: int, backend: str, transport: str
) -> Tuple[float, List[Tuple[str, str]]]:
    """One timed run: submit the whole storm, eof, finish, fetch reports.

    The clock covers the full served path -- idle-source eofs, every
    submit round-trip, closing eofs and the finish flush -- because that
    is what a monitor fleet pays end to end.
    """
    set_incident_counter(1)
    service = GatewayService(
        topo, config=_config(shards, backend), state=state, params=PARAMS
    )
    server = None
    try:
        if transport == "socket":
            server = GatewaySocketServer(service.handle, PARAMS)
            server.start()
            host, port = server.address
            carrier = GatewayClient(host, port, timeout_s=60.0)
        else:
            carrier = LoopbackTransport(service.handle)
        start = time.perf_counter()
        for tool in sorted(SOURCE_PRIORITY):
            if tool not in split:
                carrier.request({"op": "eof", "source": tool})
        for raw in merged:
            reply = carrier.request({"op": "submit", "raw": raw_to_json(raw)})
            assert reply["ok"] and reply["admitted"], reply
        for tool in sorted(split):
            carrier.request({"op": "eof", "source": tool})
        assert carrier.request({"op": "finish"})["ok"]
        seconds = time.perf_counter() - start
        reports = carrier.request({"op": "reports"})["reports"]
        if transport == "socket":
            carrier.close()  # type: ignore[union-attr]
        return seconds, [
            (r["incident_id"], r["render"]) for r in reports  # type: ignore[union-attr]
        ]
    finally:
        if server is not None:
            server.stop()
        service.shutdown()


def test_gateway_throughput(emit):
    topo = _topology()
    seed = 2025
    report: Dict = {
        "bench": "gateway_throughput",
        "seed": seed,
        "cpu_count": os.cpu_count() or 1,
        "topology": topo.stats(),
        "shard_counts": list(SHARD_COUNTS),
        "backends": list(BACKENDS),
        "transports": list(TRANSPORTS),
        "tiers": [],
    }
    for name, n in _selected_tiers():
        state, split, merged = _flood(topo, n, seed)
        reference = _offline_reference(topo, state, merged)
        tier: Dict = {
            "name": name,
            "raw_alerts": len(merged),
            "sources": len(split),
            "incidents": len(reference),
            "rows": [],
        }
        loopback_s: Dict[Tuple[str, int], float] = {}
        for transport in TRANSPORTS:
            for backend in BACKENDS:
                for shards in SHARD_COUNTS:
                    seconds, served = _serve_flood(
                        topo, state, split, merged, shards, backend, transport
                    )
                    # the identity gate, ids included, on every cell
                    assert served == reference, (
                        f"tier {name}: {transport}/{backend} at {shards} "
                        f"shard(s) served a different incident stream than "
                        f"the offline replay"
                    )
                    throughput = len(merged) / seconds if seconds > 0 else 0.0
                    row = {
                        "transport": transport,
                        "backend": backend,
                        "shards": shards,
                        "serve_s": round(seconds, 4),
                        "alerts_per_s": round(throughput, 1),
                    }
                    if transport == "loopback":
                        loopback_s[(backend, shards)] = seconds
                    else:
                        base = loopback_s.get((backend, shards))
                        if base and seconds > 0:
                            row["vs_loopback"] = round(base / seconds, 2)
                    tier["rows"].append(row)
                    emit(
                        "gateway_throughput",
                        f"{name} {transport:8s} {backend:6s} shards={shards}: "
                        f"{seconds:.3f}s serve, {throughput:,.0f} alerts/s",
                    )
        report["tiers"].append(tier)

    JSON_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    emit("gateway_throughput", f"wrote {JSON_PATH.name}")
