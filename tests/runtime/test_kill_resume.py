"""Crash-recovery gate: kill the service mid-flood, resume, and the
incident stream must be identical to the uninterrupted run.

The write-ahead journal plus snapshot checkpoints are only worth having
if restore + replay reproduces *exactly* what a never-killed service
would have produced -- same incident scopes, contents, severities,
renders, and (because the global id counter is checkpointed and rewound)
the very same incident ids.  These tests cut the same seeded flood at
several points, abandon the first service without any shutdown grace,
resume from its directory in a simulated fresh process, and diff the
final state against the uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Tuple

import pytest

from repro.core.config import PRODUCTION_CONFIG, SkyNetConfig
from repro.monitors.base import RawAlert
from repro.runtime import RuntimeService
from repro.runtime.checkpoint import set_incident_counter
from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.network import Topology

from ..reference_oracle import ReferenceShardedLocator
from ..test_equivalence_flood import _assert_equal, _device_down, _fingerprint, _stream


BACKENDS = ("inproc", "mp")


def runtime_config(
    shards: int = 2,
    checkpoint_every: float = 60.0,
    segment_records: int = 100,
    backpressure: bool = False,
    watermark: int = 400,
    backend: str = "inproc",
) -> SkyNetConfig:
    return dataclasses.replace(
        PRODUCTION_CONFIG,
        runtime=dataclasses.replace(
            PRODUCTION_CONFIG.runtime,
            shards=shards,
            checkpoint_interval_s=checkpoint_every,
            journal_segment_records=segment_records,
            backpressure=backpressure,
            admission_watermark=watermark,
            backend=backend,
        ),
    )


def flood_fixture(
    seed: int = 7, n_down: int = 4, duration: float = 600.0
) -> Tuple[Topology, NetworkState, List[RawAlert]]:
    topo = build_topology(TopologySpec())
    state = NetworkState(topo)
    rng = random.Random(seed)
    devices = sorted(topo.devices)
    rng.shuffle(devices)
    for cond in _device_down(devices[:n_down], start=40.0, duration=400.0):
        state.add_condition(cond)
    raws = _stream(topo, state, duration, seed)
    assert len(raws) > 100, "flood fixture too small to cut meaningfully"
    return topo, state, raws


def uninterrupted_run(topo, state, raws, config) -> Tuple[List[Tuple], List[str]]:
    set_incident_counter(1)
    service = RuntimeService(topo, config=config, state=state)
    service.run(raws)
    service.finish()
    return _fingerprint(service.pipeline), _incident_ids(service)


def _incident_ids(service: RuntimeService) -> List[str]:
    return sorted(
        i.incident_id
        for i in service.pipeline.incidents(include_superseded=True)
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cut", [0.3, 0.7])
def test_kill_and_resume_reproduces_incident_stream(tmp_path, cut, backend):
    topo, state, raws = flood_fixture()
    config = runtime_config(backend=backend)
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    k = int(len(raws) * cut)
    set_incident_counter(1)
    first = RuntimeService(topo, config=config, state=state, directory=tmp_path)
    for raw in raws[:k]:
        first.ingest(raw)
    # crash: no finish(), no graceful shutdown -- just abandon the handle
    del first

    set_incident_counter(1)  # a fresh process starts its counter over
    resumed = RuntimeService.resume(topo, tmp_path, config=config, state=state)
    assert resumed.recovery is not None
    assert resumed.recovery.corruptions == ()
    # every pre-crash alert is accounted for: checkpoint state + journal tail
    assert resumed.admission.offered == k
    assert resumed.metrics.counter_value("runtime_raw_alerts_total") == k

    for raw in raws[k:]:
        resumed.ingest(raw)
    resumed.finish()

    _assert_equal(expected, _fingerprint(resumed.pipeline))
    assert _incident_ids(resumed) == expected_ids
    assert resumed.metrics.counter_value("runtime_raw_alerts_total") == len(raws)


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_without_any_checkpoint_replays_full_journal(tmp_path, backend):
    """Checkpointing disabled: recovery must rebuild from the journal alone."""
    topo, state, raws = flood_fixture()
    config = runtime_config(checkpoint_every=0.0, backend=backend)
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    k = len(raws) // 2
    set_incident_counter(1)
    first = RuntimeService(topo, config=config, state=state, directory=tmp_path)
    for raw in raws[:k]:
        first.ingest(raw)
    del first

    set_incident_counter(1)
    resumed = RuntimeService.resume(topo, tmp_path, config=config, state=state)
    assert resumed.recovery is not None
    assert resumed.recovery.checkpoint_seq is None
    assert resumed.recovery.replayed_records == k

    for raw in raws[k:]:
        resumed.ingest(raw)
    resumed.finish()
    _assert_equal(expected, _fingerprint(resumed.pipeline))
    assert _incident_ids(resumed) == expected_ids


def test_resumed_writer_opens_a_fresh_segment(tmp_path):
    """Append-only discipline: a resumed journal never touches old files."""
    topo, state, raws = flood_fixture()
    config = runtime_config(segment_records=50)

    set_incident_counter(1)
    first = RuntimeService(topo, config=config, state=state, directory=tmp_path)
    k = 120
    for raw in raws[:k]:
        first.ingest(raw)
    segments_before = {
        p.name: p.stat().st_size for p in first.journal.segments()
    }
    del first

    set_incident_counter(1)
    resumed = RuntimeService.resume(topo, tmp_path, config=config, state=state)
    for raw in raws[k : k + 10]:
        resumed.ingest(raw)
    resumed.journal.sync()
    after = {p.name: p.stat().st_size for p in resumed.journal.segments()}
    for name, size in segments_before.items():
        assert after[name] == size, f"pre-crash segment {name} was modified"
    assert len(after) > len(segments_before)


@pytest.mark.parametrize("backend", BACKENDS)
def test_double_kill_still_converges(tmp_path, backend):
    """Two crashes (one mid-replay-tail) still land on the reference run."""
    topo, state, raws = flood_fixture()
    config = runtime_config(checkpoint_every=45.0, backend=backend)
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    a, b = len(raws) // 3, (2 * len(raws)) // 3
    set_incident_counter(1)
    first = RuntimeService(topo, config=config, state=state, directory=tmp_path)
    for raw in raws[:a]:
        first.ingest(raw)
    del first

    set_incident_counter(1)
    second = RuntimeService.resume(topo, tmp_path, config=config, state=state)
    for raw in raws[a:b]:
        second.ingest(raw)
    del second

    set_incident_counter(1)
    third = RuntimeService.resume(topo, tmp_path, config=config, state=state)
    assert third.admission.offered == b
    for raw in raws[b:]:
        third.ingest(raw)
    third.finish()
    _assert_equal(expected, _fingerprint(third.pipeline))
    assert _incident_ids(third) == expected_ids


@pytest.mark.parametrize(
    "first_backend,second_backend", [("inproc", "mp"), ("mp", "inproc")]
)
def test_checkpoints_are_backend_portable(tmp_path, first_backend, second_backend):
    """A checkpoint written under one backend resumes under the other.

    Snapshots serialise the locator state as plain (backend-neutral)
    sharded trees, so a deployment can switch between in-process and
    multiprocess execution across restarts without replaying history.
    """
    topo, state, raws = flood_fixture()
    expected, expected_ids = uninterrupted_run(
        topo, state, raws, runtime_config()
    )

    k = len(raws) // 2
    set_incident_counter(1)
    first = RuntimeService(
        topo,
        config=runtime_config(backend=first_backend),
        state=state,
        directory=tmp_path,
    )
    for raw in raws[:k]:
        first.ingest(raw)
    del first  # crash: no finish, no graceful shutdown

    set_incident_counter(1)
    resumed = RuntimeService.resume(
        topo, tmp_path, config=runtime_config(backend=second_backend), state=state
    )
    assert resumed.recovery is not None
    assert resumed.recovery.corruptions == ()
    for raw in raws[k:]:
        resumed.ingest(raw)
    resumed.finish()

    _assert_equal(expected, _fingerprint(resumed.pipeline))
    assert _incident_ids(resumed) == expected_ids


def test_resume_from_checkpoint_written_without_expiry_heaps(tmp_path):
    """Checkpoints carry no version.  One written while the tree's expiry
    heap was optional (and off: the reference locator of
    ``tests/reference_oracle.py`` pickles exactly that state) must resume
    into the same incident stream; if the loaded trees kept their empty
    heaps, nothing in them would expire and the final sweeps would open
    incidents over stale records."""
    topo, state, raws = flood_fixture()
    config = runtime_config()
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    k = int(len(raws) * 0.7)
    set_incident_counter(1)
    first = RuntimeService(topo, config=config, state=state, directory=tmp_path)
    first.pipeline.locator = ReferenceShardedLocator(topo, config)
    for raw in raws[:k]:
        first.ingest(raw)
    assert first.checkpoints is not None
    found = first.checkpoints.latest()
    assert found is not None, "cut too early: no checkpoint to resume from"
    trees = found[1]["pipeline"]["locator"]["main_tree"].shard_trees
    assert any(len(tree) for tree in trees), "checkpointed trees are empty"
    del first

    set_incident_counter(1)
    resumed = RuntimeService.resume(topo, tmp_path, config=config, state=state)
    assert resumed.recovery is not None
    assert resumed.recovery.checkpoint_seq is not None
    for raw in raws[k:]:
        resumed.ingest(raw)
    resumed.finish()

    _assert_equal(expected, _fingerprint(resumed.pipeline))
    assert _incident_ids(resumed) == expected_ids
