"""Runtime sharding benchmark: locate-stage throughput vs shard count
and execution backend.

Replays a seeded *rolling* severe-failure storm (continuous failures
and recoveries, ~20% of the fabric down at any instant) through the
sharded locator at shard counts {1, 2, 4} on both execution backends
-- ``inproc`` (:class:`repro.runtime.ShardedLocator`, all shards on one
thread) and ``mp`` (:class:`repro.runtime.MPShardedLocator`, one spawned
worker process per shard) -- and reports alerts/sec through the locate
stage.  Output identity across every (shards, backend) cell is asserted
on every tier (the differential gate of
``tests/runtime/test_shard_invariance.py``, re-checked here at flood
scale), so the throughput numbers are for *exactly equivalent* work.

The committed ``BENCH_runtime_throughput.json`` records what the cells
cost, with ``cpu_count`` beside them; it asserts no speed-up.  Grouping
is near-linear in live tree locations, so shards divide nothing worth
dividing (``speedup_vs_1_shard`` sits around 1.0) and a worker process
per shard pays pipe round trips for work that was already cheap
(``speedup_vs_inproc`` below 1.0): shards are the runtime's
fault-isolation unit, not a throughput lever.

Environment knobs:

* ``SKYNET_BENCH_TIERS`` -- comma list of tiers (``1k,10k,50k`` or
  ``all``; default ``1k,10k``).
* ``SKYNET_BENCH_TINY`` -- miniature tier on the tiny topology for
  tests/test_bench_smoke.py.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import random
import re
import time
from typing import Dict, List, Tuple

from repro.core.config import PRODUCTION_CONFIG
from repro.core.preprocessor import Preprocessor
from repro.monitors import build_monitors
from repro.monitors.stream import AlertStream
from repro.runtime.sharding import ShardedLocator
from repro.runtime.workers import MPShardedLocator
from repro.simulation.conditions import Condition, ConditionKind
from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology

if os.environ.get("SKYNET_BENCH_TINY"):
    JSON_PATH = (
        pathlib.Path(__file__).parent
        / "results-tiny"
        / "BENCH_runtime_throughput.json"
    )
else:
    JSON_PATH = pathlib.Path(__file__).parent.parent / "BENCH_runtime_throughput.json"

_TIERS = {"1k": 1_000, "10k": 10_000, "50k": 50_000}
SHARD_COUNTS = (1, 2, 4)
BACKENDS = ("inproc", "mp")


def _selected_tiers() -> List[Tuple[str, int]]:
    if os.environ.get("SKYNET_BENCH_TINY"):
        return [("tiny", 200)]
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


def _flood(topo, n: int, seed: int) -> List[Tuple[float, object]]:
    """Rolling severe-failure storm, pre-preprocessed to ``n`` structured
    alerts -- the locate stage's input unit.

    Devices fail *and recover* continuously (each outage 10-20 min,
    ~20% of the fabric down at any instant over a 2 h horizon).  That is
    the Sec. 2.2 regime the runtime targets: the alerting-location set
    keeps churning, so the grouping memo keeps being invalidated and
    every sweep pays for a fresh partition.
    """
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
    prep = Preprocessor(topo, PRODUCTION_CONFIG)
    structured: List[Tuple[float, object]] = []
    for raw in AlertStream(state, build_monitors(state, seed=seed)).run(86_400.0):
        for alert in prep.feed(raw):
            structured.append((raw.delivered_at, alert))
        if len(structured) >= n:
            break
    return structured


def _locate(
    topo, structured, shards: int, backend: str
) -> Tuple[float, ShardedLocator]:
    config = dataclasses.replace(
        PRODUCTION_CONFIG,
        runtime=dataclasses.replace(
            PRODUCTION_CONFIG.runtime, shards=shards, backend=backend
        ),
    )
    # workers are leased from the long-lived pool *before* the clock
    # starts: process spawn is a once-per-service cost, not per-alert
    if backend == "mp":
        locator: ShardedLocator = MPShardedLocator(topo, config)
    else:
        locator = ShardedLocator(topo, config)
    interval = config.sweep_interval_s
    start = time.perf_counter()
    last_sweep = float("-inf")
    now = float("-inf")
    for t, alert in structured:
        now = max(now, t)
        locator.feed(alert)
        if now - last_sweep >= interval:
            locator.sweep(now)
            last_sweep = now
    locator.sweep(now + 2 * PRODUCTION_CONFIG.incident_timeout_s)
    return time.perf_counter() - start, locator


def _fingerprint(locator: ShardedLocator) -> List[str]:
    return sorted(
        re.sub(r"incident-\d+", "incident-N", incident.render())
        for incident in locator.all_incidents()
    )


def test_runtime_throughput(emit):
    topo = _topology()
    seed = 2025
    cpu_count = os.cpu_count() or 1
    load = [round(x, 2) for x in os.getloadavg()]
    emit(
        "runtime_throughput",
        f"host: {cpu_count} cores, load average {load[0]} / {load[1]} / "
        f"{load[2]} (1 / 5 / 15 min) at start",
    )
    report: Dict = {
        "bench": "runtime_throughput",
        "seed": seed,
        "cpu_count": cpu_count,
        "load_average_at_start": load,
        "topology": topo.stats(),
        "shard_counts": list(SHARD_COUNTS),
        "backends": list(BACKENDS),
        "tiers": [],
    }
    for name, n in _selected_tiers():
        structured = _flood(topo, n, seed)
        tier: Dict = {
            "name": name,
            "structured_alerts": len(structured),
            "rows": [],
        }
        expected = None
        inproc_s = {}  # shards -> in-process locate seconds
        for backend in BACKENDS:
            base_s = None
            for shards in SHARD_COUNTS:
                seconds, locator = _locate(topo, structured, shards, backend)
                fp = _fingerprint(locator)
                if isinstance(locator, MPShardedLocator):
                    locator.close()
                if expected is None:
                    expected = fp
                    tier["incidents"] = len(fp)
                assert fp == expected, (
                    f"tier {name}: {backend} backend at {shards} shard(s) "
                    f"diverged from the 1-shard in-process output"
                )
                if base_s is None:
                    base_s = seconds
                speedup = base_s / seconds if seconds > 0 else float("inf")
                throughput = len(structured) / seconds if seconds > 0 else 0.0
                row = {
                    "backend": backend,
                    "shards": shards,
                    "locate_s": round(seconds, 4),
                    "alerts_per_s": round(throughput, 1),
                    "speedup_vs_1_shard": round(speedup, 2),
                }
                if backend == "inproc":
                    inproc_s[shards] = seconds
                elif seconds > 0:
                    row["speedup_vs_inproc"] = round(inproc_s[shards] / seconds, 2)
                tier["rows"].append(row)
                emit(
                    "runtime_throughput",
                    f"{name} {backend:6s} shards={shards}: "
                    f"{seconds:.3f}s locate, {throughput:,.0f} alerts/s "
                    f"({speedup:.2f}x vs 1 shard)",
                )
        report["tiers"].append(tier)

    JSON_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    emit("runtime_throughput", f"wrote {JSON_PATH.name}")
