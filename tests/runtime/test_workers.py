"""Unit coverage for the multiprocess worker layer (`repro.runtime.workers`).

The differential batteries (``test_shard_invariance``, ``test_chaos``,
``test_kill_resume``) prove end-to-end byte-identity; these tests pin the
mechanics underneath: the long-lived worker pool, the request/reply
protocol's failure modes, the sharded tree over remote shard proxies,
and the pickle round trip that makes checkpoints backend-portable.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import signal
import time
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.config import PRODUCTION_CONFIG
from repro.core.locator import Locator
from repro.runtime.sharding import ROOT_SHARD, ShardedAlertTree, ShardRouter
from repro.runtime.supervisor import SupervisedAlertTree, SupervisedLocator
from repro.runtime.workers import (
    MPShardedLocator,
    MPSupervisedLocator,
    WorkerCrashed,
    WorkerError,
)
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.hierarchy import LocationPath

SHARDS = 2


def _config():
    return dataclasses.replace(
        PRODUCTION_CONFIG,
        runtime=dataclasses.replace(
            PRODUCTION_CONFIG.runtime, shards=SHARDS, backend="mp"
        ),
    )


@pytest.fixture(scope="module")
def topo():
    return build_topology(TopologySpec())


def _mp_locator(topo, supervised: bool = False) -> MPShardedLocator:
    kind = MPSupervisedLocator if supervised else MPShardedLocator
    return kind(topo, _config())


def _tree(locator: MPShardedLocator) -> ShardedAlertTree:
    tree = locator.main_tree
    assert isinstance(tree, ShardedAlertTree)
    return tree


def _alerts(topo, n: int, t0: float = 10.0) -> List[StructuredAlert]:
    out = []
    for i, name in enumerate(sorted(topo.devices)[:n]):
        loc = topo.device(name).location
        out.append(
            StructuredAlert(
                type_key=AlertTypeKey("ping", f"loss_{i}"),
                level=AlertLevel.FAILURE,
                location=loc,
                first_seen=t0 + i,
                last_seen=t0 + i,
                device=name,
            )
        )
    return out


def _wait_dead(locator: MPShardedLocator, was_alive: int) -> None:
    deadline = time.monotonic() + 30.0
    while locator.workers_alive() == was_alive:
        assert time.monotonic() < deadline, "worker did not die after SIGKILL"
        time.sleep(0.01)


# -- pool --------------------------------------------------------------------


def test_pool_reuses_processes_and_rearm_isolates_state(topo):
    first = _mp_locator(topo)
    first_pids = {first.worker_pid(i) for i in range(SHARDS)}
    for alert in _alerts(topo, 8):
        _tree(first).insert(alert)
    assert _tree(first).total_records() == 8
    first.close()

    # the released workers are still running and get leased again ...
    second = _mp_locator(topo)
    try:
        second_pids = {second.worker_pid(i) for i in range(SHARDS)}
        assert second_pids == first_pids, "pool should reuse live processes"
        # ... but the init epoch barrier re-armed them with empty state
        tree = _tree(second)
        assert tree.total_records() == 0
        assert tree.locations() == []
        assert len(tree) == 0
    finally:
        second.close()


def test_close_is_idempotent(topo):
    locator = _mp_locator(topo)
    locator.close()
    locator.close()


# -- protocol failure modes --------------------------------------------------


def test_unknown_command_raises_worker_error_and_process_survives(topo):
    locator = _mp_locator(topo)
    try:
        pid = locator.worker_pid(0)
        # the dispatch is an allow-list: private state, dunders and the
        # pickling hooks are as unknown as a made-up name
        for name in (
            "no-such-op",
            "_nodes",
            "_insert_one",
            "__class__",
            "__reduce_ex__",
            "__init__",
            "__dict__",
        ):
            with pytest.raises(WorkerError, match="unknown command"):
                locator.remote_trees[0]._call(name)
        # a protocol error is the worker *answering*, not dying: the same
        # process keeps serving
        assert locator.worker_pid(0) == pid
        assert locator.workers_alive() == SHARDS
        assert _tree(locator).total_records() == 0
    finally:
        locator.close()


@pytest.mark.slow
def test_dead_worker_raises_worker_crashed_when_unsupervised(topo):
    locator = _mp_locator(topo, supervised=False)
    tree = _tree(locator)
    try:
        for alert in _alerts(topo, 6):
            tree.insert(alert)
        assert tree.total_records() == 6
        alive = locator.workers_alive()
        os.kill(locator.worker_pid(0), signal.SIGKILL)
        _wait_dead(locator, alive)
        with pytest.raises(WorkerCrashed):
            tree.total_records()
    finally:
        locator.close()


@pytest.mark.slow
def test_supervised_tree_heals_sigkilled_worker_exactly(topo):
    locator = _mp_locator(topo, supervised=True)
    tree = _tree(locator)
    assert isinstance(tree, SupervisedAlertTree)
    try:
        alerts = _alerts(topo, 10)
        for alert in alerts[:6]:
            tree.insert(alert)
        before = sorted(str(loc) for loc in tree.locations())
        alive = locator.workers_alive()
        victim = locator.worker_pid(0)
        os.kill(victim, signal.SIGKILL)
        _wait_dead(locator, alive)

        # the next reply-bearing op detects the EOF, replays the op log
        # into a fresh process, and answers as if nothing happened
        assert tree.total_records() == 6
        assert sorted(str(loc) for loc in tree.locations()) == before
        assert locator.worker_pid(0) != victim
        assert tree.crashes == 1 and tree.restores == 1
        assert tree.replayed_ops > 0

        for alert in alerts[6:]:
            tree.insert(alert)
        assert tree.total_records() == 10
    finally:
        locator.close()


# -- the sharded tree over remote shards, and the backend bridge -------------


def test_parent_mirrors_track_worker_state(topo):
    locator = _mp_locator(topo)
    tree = _tree(locator)
    reference = ShardedAlertTree(ShardRouter(topo, SHARDS))
    try:
        alerts = _alerts(topo, 12)
        for alert in alerts:
            tree.insert(alert)
            reference.insert(alert)
        assert len(tree) == len(reference)
        assert tree.locations() == reference.locations()
        assert tree.structure_version == reference.structure_version
        assert tree.consume_dirty() == reference.consume_dirty()
        for loc in reference.locations():
            assert loc in tree
            assert [
                (r.type_key, r.level) for r in tree.iter_records_at(loc)
            ] == [(r.type_key, r.level) for r in reference.iter_records_at(loc)]

        # expiry mirrors removals and version bumps exactly
        removed_mp = tree.expire(now=5000.0, timeout_s=300.0)
        removed_ref = reference.expire(now=5000.0, timeout_s=300.0)
        assert removed_mp == removed_ref
        assert tree.locations() == reference.locations()
        assert tree.structure_version == reference.structure_version
    finally:
        locator.close()


def test_materialize_load_round_trip(topo):
    locator = _mp_locator(topo)
    other = _mp_locator(topo)
    tree = _tree(locator)
    try:
        for alert in _alerts(topo, 9):
            tree.insert(alert)
        # a remote shard pickles as its worker's plain AlertTree, so a
        # pickled mp tree loads as an in-process one
        plain = pickle.loads(pickle.dumps(tree))
        assert isinstance(plain, ShardedAlertTree)
        assert plain.locations() == tree.locations()
        assert plain.total_records() == tree.total_records()
        assert plain.structure_version == tree.structure_version

        # ... and restoring it ships the shard trees into the workers
        other.restore_tree(plain)
        restored = _tree(other)
        assert restored.shard_trees == other.remote_trees
        assert restored.locations() == tree.locations()
        assert restored.total_records() == tree.total_records()
        assert restored.structure_version == tree.structure_version
    finally:
        locator.close()
        other.close()


def test_worker_counters_aggregate_at_partition_barrier(topo):
    locator = _mp_locator(topo)
    try:
        for alert in _alerts(topo, 7):
            _tree(locator).insert(alert)
        # counters ride on the replies of the partition barrier
        locator._candidate_groups()
        counters = locator.worker_counters()
        assert counters["inserts_applied"] == 7
        assert counters["ops_applied"] >= 1
        assert counters["partitions_computed"] >= 1
    finally:
        locator.close()


# -- model-based: the mp backend against the in-process one ------------------


@functools.lru_cache(maxsize=1)
def _tiny():
    """The tiny fabric plus a location pool spread over both shards.

    The tiny fabric has one region, ``RG01``.  Every location is paired
    with a twin in ``RG02``, a region the router does not know and so
    hashes -- onto the other shard of two."""
    topo = build_topology(TopologySpec.tiny())
    real = [*topo.locations(), *(d.location for d in topo.devices.values())]
    twins = [
        LocationPath(
            tuple(seg.replace("RG01", "RG02") for seg in loc.segments),
            is_device=loc.is_device,
        )
        for loc in real
        if loc.segments
    ]
    pool = [LocationPath.root(), *real, *twins]
    router = ShardRouter(topo, SHARDS)
    assert {router.shard_of(loc) for loc in twins} == {1}
    assert {router.shard_of(loc) for loc in real if loc.segments} == {0}
    return topo, pool


_ALERT = st.tuples(
    st.integers(0, 10_000),  # location (modulo the pool)
    st.sampled_from(["loss", "down", "crc", "bgp"]),
    st.sampled_from([AlertLevel.FAILURE, AlertLevel.ABNORMAL]),
    st.integers(0, 60),  # seconds before now
)
_INSERT = st.tuples(st.just("insert"), st.lists(_ALERT, min_size=1, max_size=8))
_EXPIRE = st.tuples(st.just("expire"), st.sampled_from([150, 320]))
#: a crash kills a real worker process and a heal spawns its successor
#: (~0.15 s each), so crashes are drawn less often than the other steps
_STEP = st.one_of(
    _INSERT,
    _INSERT,
    _EXPIRE,
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash"), st.sets(st.integers(0, SHARDS - 1), min_size=1)),
)


def _state(locator):
    tree = locator.main_tree
    # the version first: a remote shard must not answer it from a reply
    # older than the inserts it was sent since
    return (
        tree.structure_version,
        len(tree),
        tree.locations(),
        {loc: tree.records_at(loc) for loc in tree.locations()},
        tree.total_records(),
    )


def _counts(locator):
    return locator.crashes, locator.restores, locator.replayed_ops


@given(steps=st.lists(_STEP, min_size=3, max_size=10))
@example(  # every pool location, all expired, then both shards healed
    steps=[
        ("insert", [(at, "loss", AlertLevel.FAILURE, 0) for at in range(64)]),
        ("expire", 320),
        ("crash", {0, 1}),
    ]
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_mp_and_inproc_supervised_trees_agree_step_by_step(steps):
    """Random inserts, expiries, snapshots, crash + heal and checkpoint +
    restore leave the in-process and the mp supervised locator in one
    state -- the state of an unsharded locator that saw the same inserts
    and expiries and never crashed.  Checkpoints are restored
    crosswise (each backend loads the other's), so portability is
    checked in both directions every time."""
    topo, pool = _tiny()
    config = dataclasses.replace(
        _config(), runtime=dataclasses.replace(_config().runtime, backend="inproc")
    )
    model = Locator(topo, config)
    inproc = SupervisedLocator(topo, config)
    mp = MPSupervisedLocator(topo, _config())
    now = 100.0
    try:
        for step in steps:
            if step[0] == "insert":
                batch = [
                    StructuredAlert(
                        type_key=AlertTypeKey("ping", kind),
                        level=level,
                        location=pool[at % len(pool)],
                        first_seen=now - ago,
                        last_seen=now - ago,
                    )
                    for at, kind, level, ago in step[1]
                ]
                for locator in (model, inproc, mp):
                    locator.feed_many(batch)
                    locator.flush()
            elif step[0] == "expire":
                now += step[1]
                removed = {
                    locator.main_tree.expire(now, 300.0)
                    for locator in (model, inproc, mp)
                }
                assert len(removed) == 1, removed
            elif step[0] == "snapshot":
                inproc.snapshot_shards()
                mp.snapshot_shards()
            elif step[0] == "crash":
                for shard in sorted(step[1]):
                    inproc.crash_shard(shard)
                    mp.crash_shard(shard)
                assert inproc.heal_crashed() == mp.heal_crashed() == len(step[1])
            else:
                in_blob = pickle.dumps(inproc.main_tree)
                mp_blob = pickle.dumps(mp.main_tree)
                inproc.restore_tree(pickle.loads(mp_blob))
                mp.restore_tree(pickle.loads(in_blob))
            assert _state(mp) == _state(inproc) == _state(model), step
            assert _counts(mp) == _counts(inproc), step
            assert mp.sharded_tree.shard_trees == mp.remote_trees
        groups = mp._candidate_groups()
        assert groups == inproc._candidate_groups()
        # the cross-shard merge lists a group's members shard by shard
        assert [(root, set(members)) for root, members in groups] == [
            (root, set(members)) for root, members in model._candidate_groups()
        ]
    finally:
        mp.close()
