"""Unit coverage for the multiprocess worker layer (`repro.runtime.workers`).

The differential batteries (``test_shard_invariance``, ``test_chaos``,
``test_kill_resume``) prove end-to-end byte-identity; these tests pin the
mechanics underneath: the long-lived worker pool, the request/reply
protocol's failure modes, parent-side mirrors, and the materialize/load
bridge that makes checkpoints backend-portable.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from typing import List

import pytest

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.config import PRODUCTION_CONFIG
from repro.runtime.sharding import ShardedAlertTree, ShardRouter
from repro.runtime.workers import (
    MPShardedAlertTree,
    WorkerCrashed,
    WorkerError,
)
from repro.topology.builder import TopologySpec, build_topology

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


def _mp_tree(topo, supervised: bool = False) -> MPShardedAlertTree:
    config = _config()
    return MPShardedAlertTree(
        ShardRouter(topo, SHARDS), topo, config, supervised=supervised
    )


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


def _wait_dead(tree: MPShardedAlertTree, was_alive: int) -> None:
    deadline = time.monotonic() + 30.0
    while tree.workers_alive() == was_alive:
        assert time.monotonic() < deadline, "worker did not die after SIGKILL"
        time.sleep(0.01)


# -- pool --------------------------------------------------------------------


def test_pool_reuses_processes_and_rearm_isolates_state(topo):
    first = _mp_tree(topo)
    first_pids = {first.worker_pid(i) for i in range(SHARDS)}
    for alert in _alerts(topo, 8):
        first.insert(alert)
    assert first.total_records() == 8
    first.close()

    # the released workers are still running and get leased again ...
    second = _mp_tree(topo)
    try:
        second_pids = {second.worker_pid(i) for i in range(SHARDS)}
        assert second_pids == first_pids, "pool should reuse live processes"
        # ... but the init epoch barrier re-armed them with empty state
        assert second.total_records() == 0
        assert second.locations() == []
        assert len(second) == 0
    finally:
        second.close()


def test_close_is_idempotent(topo):
    tree = _mp_tree(topo)
    tree.close()
    tree.close()


# -- protocol failure modes --------------------------------------------------


def test_unknown_command_raises_worker_error_and_process_survives(topo):
    tree = _mp_tree(topo)
    try:
        pid = tree.worker_pid(0)
        with pytest.raises(WorkerError, match="unknown command"):
            tree._roundtrip(0, ("no-such-op",))
        # a protocol error is the worker *answering*, not dying: the same
        # process keeps serving
        assert tree.worker_pid(0) == pid
        assert tree.workers_alive() == SHARDS
        assert tree.total_records() == 0
    finally:
        tree.close()


@pytest.mark.slow
def test_dead_worker_raises_worker_crashed_when_unsupervised(topo):
    tree = _mp_tree(topo, supervised=False)
    try:
        for alert in _alerts(topo, 6):
            tree.insert(alert)
        assert tree.total_records() == 6
        alive = tree.workers_alive()
        os.kill(tree.worker_pid(0), signal.SIGKILL)
        _wait_dead(tree, alive)
        with pytest.raises(WorkerCrashed):
            tree.total_records()
    finally:
        tree.close()


@pytest.mark.slow
def test_supervised_tree_heals_sigkilled_worker_exactly(topo):
    tree = _mp_tree(topo, supervised=True)
    try:
        alerts = _alerts(topo, 10)
        for alert in alerts[:6]:
            tree.insert(alert)
        before = sorted(str(loc) for loc in tree.locations())
        alive = tree.workers_alive()
        victim = tree.worker_pid(0)
        os.kill(victim, signal.SIGKILL)
        _wait_dead(tree, alive)

        # the next reply-bearing op detects the EOF, replays the op log
        # into a fresh process, and answers as if nothing happened
        assert tree.total_records() == 6
        assert sorted(str(loc) for loc in tree.locations()) == before
        assert tree.worker_pid(0) != victim
        assert tree.crashes == 1 and tree.restores == 1
        assert tree.replayed_ops > 0

        for alert in alerts[6:]:
            tree.insert(alert)
        assert tree.total_records() == 10
    finally:
        tree.close()


# -- mirrors and the backend bridge ------------------------------------------


def test_parent_mirrors_track_worker_state(topo):
    tree = _mp_tree(topo)
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
        tree.close()


def test_materialize_load_round_trip(topo):
    tree = _mp_tree(topo)
    other = _mp_tree(topo)
    try:
        for alert in _alerts(topo, 9):
            tree.insert(alert)
        plain = tree.materialize()
        assert isinstance(plain, ShardedAlertTree)
        assert plain.locations() == tree.locations()
        assert plain.total_records() == tree.total_records()
        assert plain.structure_version == tree.structure_version

        other.load(plain)
        assert other.locations() == tree.locations()
        assert other.total_records() == tree.total_records()
        assert other.structure_version == tree.structure_version
    finally:
        tree.close()
        other.close()


def test_worker_counters_aggregate_at_partition_barrier(topo):
    tree = _mp_tree(topo)
    try:
        for alert in _alerts(topo, 7):
            tree.insert(alert)
        # counters ship with partition replies (the sweep barrier)
        tree.partition_all()
        counters = tree.worker_counters()
        assert counters["inserts_applied"] == 7
        assert counters["ops_applied"] >= 1
        assert counters["partitions_computed"] >= 1
    finally:
        tree.close()
