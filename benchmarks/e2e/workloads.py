"""The four storm workloads of the end-to-end benchmark.

Each workload has a ``setup`` (seed -> generated inputs, plus an offline
reference where one exists) and a ``rep`` (drive the inputs through a
fresh service, time it, return what it produced).  ``rep`` takes an
optional :class:`tracer.Tracer`; given one, it installs the wrappers on
the service it builds -- otherwise no wrapper exists anywhere.

Ground rules (README.md has the long form): storm generators live here
and are never imported from ``benchmarks/bench_*.py``; the ``repro``
import surface is the short list below; layer objects are reached only
through service attributes; the configuration is ``PRODUCTION_CONFIG``
with the fast path switched on *if that field still exists*, one shard,
default locator backend.  Every loop is closed: one client thread, one
connection, the next request leaves only after the previous reply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import heapq
import json
import pathlib
import random
import shutil
import socket
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import PRODUCTION_CONFIG
from repro.gateway import (
    GatewayClient,
    GatewayParams,
    GatewayService,
    GatewaySocketServer,
    SOURCE_PRIORITY,
)
from repro.monitors import AlertStream, build_monitors
from repro.runtime.checkpoint import set_incident_counter
from repro.runtime.journal import raw_to_json
from repro.runtime.service import RuntimeService
from repro.simulation.conditions import Condition, ConditionKind
from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology

from tracer import Tracer

_clock = time.perf_counter_ns

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

Reports = List[Tuple[str, str]]

#: identity needs zero queue sheds: the benchmark prices serving, not loss
GATEWAY_PARAMS = GatewayParams(queue_limit=10**9)

#: the server-pair probe meshes: most of the flood's volume, and most of
#: the simulator's cost per simulated second
PROBE_MESHES = ("ping", "in_band_telemetry")

#: one ``active`` and one ``history`` query per this many submits
QUERY_EVERY = 500


def config(shards: int = 1) -> Any:
    """``PRODUCTION_CONFIG``, fast path on while that toggle exists."""
    changes: Dict[str, Any] = {}
    if any(f.name == "fast_path" for f in dataclasses.fields(PRODUCTION_CONFIG)):
        changes["fast_path"] = True
    if shards != 1:
        changes["runtime"] = dataclasses.replace(
            PRODUCTION_CONFIG.runtime, shards=shards
        )
    return dataclasses.replace(PRODUCTION_CONFIG, **changes)


# -- sizes ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``SMOKE`` only proves the
    code paths run (tiny fabric, <= 2 000 raws per workload)."""

    spec: TopologySpec
    flood_raws: int
    mixed_raws: int
    gateway_raws: int
    #: durable_resume is sized in checkpoint intervals of simulated time
    #: (see ``_setup_durable``); this only caps the raw count
    durable_raw_cap: Optional[int]


FULL = Scale(TopologySpec.benchmark(), 40_000, 40_000, 20_000, None)
SMOKE = Scale(TopologySpec.tiny(), 2_000, 2_000, 1_500, 2_000)


# -- storm generators (copied from the legacy benches, on purpose) ---------------


def permanent_wave(topo: Any, seed: int) -> NetworkState:
    """The Sec. 2.2 flood: ~20% of devices go down within four minutes and
    stay down."""
    rng = random.Random(seed)
    state = NetworkState(topo)
    devices = sorted(topo.devices)
    rng.shuffle(devices)
    for name in devices[: max(3, len(devices) // 5)]:
        start = 60.0 + rng.uniform(0.0, 240.0)
        state.add_condition(
            Condition(
                kind=ConditionKind.DEVICE_DOWN,
                target=name,
                start=start,
                end=start + 86_400.0,
            )
        )
    return state


def rolling_storm(topo: Any, seed: int) -> NetworkState:
    """Devices fail *and recover* continuously: 10-20 min outages over a
    2 h horizon, ~20% of the fabric down at any instant."""
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
    return state


def draw(
    state: NetworkState,
    seed: int,
    limit: Optional[int],
    exclude: Sequence[str] = (),
    duration_s: float = 86_400.0,
) -> List[Any]:
    monitors = build_monitors(state, exclude=exclude, seed=seed)
    return list(AlertStream(state, monitors).run(duration_s, limit=limit))


def merge_by_source(raws: Sequence[Any]) -> Tuple[List[str], List[Any]]:
    """Split a delivery-ordered stream per source (each re-sorted by its
    own observation clock, as a live monitor submits) and merge the
    substreams by ``(timestamp, SOURCE_PRIORITY)`` -- the gateway
    sequencer's total order."""
    split: Dict[str, List[Any]] = {}
    for raw in raws:
        split.setdefault(raw.tool, []).append(raw)
    for substream in split.values():
        substream.sort(key=lambda r: r.timestamp)
    merged = [
        raw
        for _t, _p, raw in heapq.merge(
            *(
                ((r.timestamp, SOURCE_PRIORITY[tool], r) for r in substream)
                for tool, substream in sorted(split.items())
            )
        )
    ]
    return sorted(split), merged


def sha256_lines(items: Sequence[Any]) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(item, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# -- inputs and results ----------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    topo: Any
    state: NetworkState
    raws: List[Any]
    input_sha256: str
    #: offline reference the served/resumed reports must equal; ``None``
    #: where the gate is identity across reps (flood_ingest, mixed_ingest)
    reference: Optional[Reports] = None
    #: gateway_socket: sources present, and one ready request per raw
    sources: List[str] = dataclasses.field(default_factory=list)
    requests: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: durable_resume: raws ingested before the crash
    cut: int = 0


@dataclasses.dataclass
class RepResult:
    wall_s: float  # the timed region (definition per workload, README.md)
    timed_alerts: int  # raws inside the timed region
    ready_s: float  # construct / connect / resume, until the first alert can go
    latencies_ns: List[int]  # caller-side, one per alert in the timed region
    reports: Reports
    incident_renders: List[str]
    ops: int  # every request or ingest attempted
    failed: int  # refused or errored ones
    problems: List[str] = dataclasses.field(default_factory=list)
    query_ns: List[int] = dataclasses.field(default_factory=list)
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    traced_ns: int = 0  # wall of the whole traced interval (traced reps only)


def _reports(service: RuntimeService) -> Reports:
    return [(r.incident.incident_id, r.render()) for r in service.reports()]


def _renders(service: RuntimeService) -> List[str]:
    return sorted(i.render() for i in service.pipeline.locator.all_incidents())


def _pipeline_counts(service: RuntimeService) -> Dict[str, float]:
    stats = service.pipeline.preprocessor.stats
    raw_in = max(stats.raw_in, 1)
    return {
        "core.preprocessor.reduction_ratio": raw_in / max(stats.emitted, 1),
        "core.preprocessor.merged_share": stats.merged / raw_in,
        "core.preprocessor.filtered_share": stats.filtered_info / raw_in,
        "core.locator.incidents.count": len(service.pipeline.locator.all_incidents()),
        "runtime.admission.shed.count": sum(service.shed_counts().values()),
    }


def _ingest_timed(service: RuntimeService, raws: Sequence[Any], out: List[int]) -> None:
    ingest = service.ingest
    record = out.append
    last = _clock()
    for raw in raws:
        ingest(raw)
        now = _clock()
        record(now - last)
        last = now


def offline_reference(topo: Any, state: NetworkState, raws: Sequence[Any]) -> Reports:
    set_incident_counter(1)
    service = RuntimeService(topo, config=config(), state=state)
    for raw in raws:
        service.ingest(raw)
    service.finish()
    return _reports(service)


# -- flood_ingest / mixed_ingest --------------------------------------------------


def _inputs(topo: Any, state: NetworkState, raws: List[Any]) -> Inputs:
    return Inputs(
        topo=topo,
        state=state,
        raws=raws,
        input_sha256=sha256_lines([raw_to_json(r) for r in raws]),
    )


def _setup_flood(seed: int, scale: Scale) -> Inputs:
    topo = build_topology(scale.spec)
    state = permanent_wave(topo, seed)
    return _inputs(topo, state, draw(state, seed, scale.flood_raws))


def _setup_mixed(seed: int, scale: Scale) -> Inputs:
    topo = build_topology(scale.spec)
    state = rolling_storm(topo, seed)
    return _inputs(topo, state, draw(state, seed, scale.mixed_raws, PROBE_MESHES))


def _rep_ingest(
    inputs: Inputs, tracer: Optional[Tracer] = None, shards: int = 1
) -> RepResult:
    """In-process: ``RuntimeService.ingest`` per raw, no persistence, then
    ``finish``.  Timed from the first ingest until finish returns."""
    set_incident_counter(1)
    begin = _clock()
    service = RuntimeService(inputs.topo, config=config(shards), state=inputs.state)
    ready_ns = _clock() - begin
    if tracer is not None:
        tracer.install_runtime(service)
    latencies: List[int] = []
    start = _clock()
    _ingest_timed(service, inputs.raws, latencies)
    service.finish()
    wall_ns = _clock() - start
    return RepResult(
        wall_s=wall_ns / 1e9,
        timed_alerts=len(inputs.raws),
        ready_s=ready_ns / 1e9,
        latencies_ns=latencies,
        reports=_reports(service),
        incident_renders=_renders(service),
        ops=len(inputs.raws),
        failed=0,
        counts=_pipeline_counts(service),
        traced_ns=wall_ns,
    )


# -- gateway_socket ------------------------------------------------------------------


def _setup_gateway(seed: int, scale: Scale) -> Inputs:
    topo = build_topology(scale.spec)
    state = rolling_storm(topo, seed)
    sources, merged = merge_by_source(draw(state, seed, scale.gateway_raws))
    payloads = [raw_to_json(r) for r in merged]
    return Inputs(
        topo=topo,
        state=state,
        raws=merged,
        input_sha256=sha256_lines(payloads),
        reference=offline_reference(topo, state, merged),
        sources=sources,
        requests=[{"op": "submit", "raw": payload} for payload in payloads],
    )


@contextlib.contextmanager
def count_sent_bytes() -> Iterator[List[int]]:
    """While active, ``total[0]`` is what ``socket.sendall`` has carried
    (traced gateway rep only): codec-agnostic bytes on the wire, both
    peers."""
    total = [0]
    original = socket.socket.sendall

    def sendall(sock: socket.socket, data: Any, *flags: int) -> None:
        total[0] += len(data)
        original(sock, data, *flags)

    socket.socket.sendall = sendall  # type: ignore[method-assign, assignment]
    try:
        yield total
    finally:
        socket.socket.sendall = original  # type: ignore[method-assign]


def _rep_gateway(
    inputs: Inputs, tracer: Optional[Tracer] = None, shards: int = 1
) -> RepResult:
    """The served path: a real socket server, one client, one round trip
    per raw.  Timed from the first eof until the finish reply."""
    set_incident_counter(1)
    begin = _clock()
    gateway = GatewayService(
        inputs.topo, config=config(shards), state=inputs.state, params=GATEWAY_PARAMS
    )
    handle: Callable[..., Any] = gateway.handle
    released: List[int] = []
    pending_max = [0]
    if tracer is not None:

        def on_release(batch: List[Any]) -> None:
            if batch:
                released.append(len(batch))
            pending_max[0] = max(pending_max[0], gateway.sequencer.pending())

        handle = tracer.install_gateway(gateway, on_release)
    sent = [0]
    with contextlib.ExitStack() as stack:
        stack.callback(gateway.shutdown)
        server = GatewaySocketServer(handle, GATEWAY_PARAMS)
        stack.callback(server.stop)
        server.start()
        host, port = server.address
        client = GatewayClient(host, port, timeout_s=60.0)
        stack.callback(client.close)
        ready_ns = _clock() - begin
        request: Callable[..., Any] = client.request
        if tracer is not None:
            request = tracer.wrap("gateway.transport.request", request)
            sent = stack.enter_context(count_sent_bytes())
        latencies: List[int] = []
        queries: List[int] = []
        failed = 0
        ops = 0
        cursor = 0
        start = _clock()
        for tool in sorted(SOURCE_PRIORITY):
            if tool not in inputs.sources:
                ops += 1
                failed += not request({"op": "eof", "source": tool})["ok"]
        sent_before = sent[0]
        for index, message in enumerate(inputs.requests, 1):
            before = _clock()
            reply = request(message)
            latencies.append(_clock() - before)
            failed += not (reply["ok"] and reply.get("admitted"))
            if index % QUERY_EVERY == 0:
                before = _clock()
                active = request({"op": "active"})
                middle = _clock()
                history = request({"op": "history", "cursor": cursor})
                queries.append(middle - before)
                queries.append(_clock() - middle)
                failed += (not active["ok"]) + (not history["ok"])
                cursor = history.get("cursor", cursor)
                ops += 2
        submit_bytes = sent[0] - sent_before
        ops += len(inputs.requests)
        for tool in inputs.sources:
            ops += 1
            failed += not request({"op": "eof", "source": tool})["ok"]
        ops += 1
        failed += not request({"op": "finish"})["ok"]
        wall_ns = _clock() - start
        served = request({"op": "reports"})["reports"]
        traced_ns = _clock() - start
    counts = _pipeline_counts(gateway.runtime)
    if tracer is not None:
        released.sort()
        counts["gateway.transport.bytes_per_alert"] = submit_bytes / len(inputs.requests)
        counts["gateway.sequencer.release_batch.p50"] = (
            released[len(released) // 2] if released else 0
        )
        counts["gateway.sequencer.pending.max"] = pending_max[0]
    return RepResult(
        wall_s=wall_ns / 1e9,
        timed_alerts=len(inputs.requests),
        ready_s=ready_ns / 1e9,
        latencies_ns=latencies,
        reports=[(r["incident_id"], r["render"]) for r in served],
        incident_renders=_renders(gateway.runtime),
        ops=ops,
        failed=failed,
        query_ns=queries,
        counts=counts,
        traced_ns=traced_ns,
    )


# -- durable_resume -------------------------------------------------------------------

#: checkpoint intervals of simulated time before the crash, and in total:
#: the newest checkpoint is then always ~3/4 of an interval old, so the
#: journal tail ``resume`` replays has the same length on every seed
CRASH_AT_INTERVALS = 3.75
STREAM_INTERVALS = 4.1


def _setup_durable(seed: int, scale: Scale) -> Inputs:
    topo = build_topology(scale.spec)
    state = rolling_storm(topo, seed)
    interval = config().runtime.checkpoint_interval_s
    raws = draw(
        state,
        seed,
        scale.durable_raw_cap,
        PROBE_MESHES,
        duration_s=STREAM_INTERVALS * interval,
    )
    crash_at = raws[0].delivered_at + CRASH_AT_INTERVALS * interval
    cut = next(
        (i for i, raw in enumerate(raws) if raw.delivered_at >= crash_at),
        len(raws) * 4 // 5,
    )
    inputs = _inputs(topo, state, raws)
    inputs.reference = offline_reference(topo, state, raws)
    inputs.cut = cut
    return inputs


def _file_bytes(paths: Sequence[pathlib.Path]) -> List[int]:
    return [path.stat().st_size for path in paths]


def _rep_durable(
    inputs: Inputs, tracer: Optional[Tracer] = None, shards: int = 1
) -> RepResult:
    """Phase W: a persisting service ingests up to the crash point (journal
    append per alert, checkpoint per interval) and is dropped without
    ``finish``.  Phase R: ``RuntimeService.resume``.  Phase T: the rest,
    then ``finish``.  Timed: phase W (throughput) and phase R (ready)."""
    service_class: Any = RuntimeService
    if tracer is not None:
        # resume() builds its service inside a classmethod, so the wrappers
        # go on from a subclass constructor -- still no src edit
        installed = tracer

        class TracedRuntime(RuntimeService):
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                super().__init__(*args, **kwargs)
                installed.install_runtime(self)

        service_class = TracedRuntime
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix="durable-", dir=OUT_DIR))
    cfg = config(shards)
    problems: List[str] = []
    try:
        set_incident_counter(1)
        writer = service_class(
            inputs.topo, config=cfg, state=inputs.state, directory=directory
        )
        latencies: List[int] = []
        start = _clock()
        _ingest_timed(writer, inputs.raws[: inputs.cut], latencies)
        wall_ns = _clock() - start
        counts = {
            "runtime.journal.bytes_per_alert": sum(
                _file_bytes(writer.journal.segments())
            )
            / max(inputs.cut, 1),
            "runtime.checkpoint.bytes.max": max(
                _file_bytes([info.path for info in writer.checkpoints.list()]),
                default=0,
            ),
        }
        writer.journal.close()  # the crash: no finish(), no final checkpoint
        del writer

        begin = _clock()
        service = service_class.resume(
            inputs.topo, directory, config=cfg, state=inputs.state
        )
        ready_ns = _clock() - begin
        if service.recovery.corruptions:
            problems.append(f"journal corruptions: {service.recovery.corruptions}")
        counts["runtime.journal.replayed.count"] = service.recovery.replayed_records

        for raw in inputs.raws[inputs.cut :]:
            service.ingest(raw)
        service.finish()
        traced_ns = _clock() - start
        service.journal.close()
        counts.update(_pipeline_counts(service))
        return RepResult(
            wall_s=wall_ns / 1e9,
            timed_alerts=inputs.cut,
            ready_s=ready_ns / 1e9,
            latencies_ns=latencies,
            reports=_reports(service),
            incident_renders=_renders(service),
            ops=len(inputs.raws),
            failed=0,
            problems=problems,
            counts=counts,
            traced_ns=traced_ns,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# -- the table ------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Scale], Inputs]
    rep: Callable[..., RepResult]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("flood_ingest", _setup_flood, _rep_ingest),
        Workload("mixed_ingest", _setup_mixed, _rep_ingest),
        Workload("gateway_socket", _setup_gateway, _rep_gateway),
        Workload("durable_resume", _setup_durable, _rep_durable),
    )
}
