"""Chaos battery: injected faults must be survivable, loud, and exact.

Each test runs the same seeded flood through :class:`RuntimeService`
with a :class:`ChaosPlan` and checks the recovery contract the chaos
layer promises:

* an empty plan is inert -- not "roughly the same output", the *same
  list object* through :meth:`ChaosPlan.perturb` and a byte-identical
  incident stream through the service;
* chaos runs are a pure function of (plan, seed): rerunning a faulted
  run reproduces the incident stream *and* the retry/shed counters;
* a shard that crashes mid-storm and is healed from its last snapshot
  plus oplog replay yields exactly the uncrashed incident stream,
  incident ids included;
* I/O faults below the retry budget cost retries, never incidents;
  an exhausted budget sheds visibly (metrics) and degrades to exactly
  the output of a stream that never contained the shed alerts;
* killing and resuming a *faulted* run reproduces the uninterrupted
  faulted run, because fault decisions depend only on sim time;
* silencing sources degrades accuracy monotonically (the Figure 8a
  ablation, run as outages) and stamps surviving incidents with a
  reduced confidence naming the dark sources.
"""

from __future__ import annotations

import os
import random
import signal
import time
from typing import List, Sequence, Set

import pytest

from repro.monitors.base import RawAlert
from repro.monitors.registry import COVERAGE_ORDER
from repro.runtime import RuntimeService
from repro.runtime.checkpoint import set_incident_counter
from repro.runtime.faults import (
    ChaosPlan,
    CorrelatedCrash,
    IOFault,
    ShardCrash,
    SourceBrownout,
    SourceOutage,
    chaos_or_none,
    empty_plan,
)
from repro.runtime.supervisor import SupervisedLocator
from repro.runtime.workers import MPSupervisedLocator

from ..test_equivalence_flood import _assert_equal, _fingerprint
from .test_kill_resume import (
    BACKENDS,
    _incident_ids,
    flood_fixture,
    runtime_config,
    uninterrupted_run,
)

RUN_SEED = 7


def chaos_run(
    topo, state, raws, config, chaos, run_seed: int = RUN_SEED, directory=None
) -> RuntimeService:
    set_incident_counter(1)
    service = RuntimeService(
        topo, config=config, state=state, directory=directory,
        chaos=chaos, run_seed=run_seed,
    )
    service.run(raws)
    service.finish()
    return service


# -- inertness ---------------------------------------------------------------


def test_empty_plan_is_inert():
    assert chaos_or_none(None) is None
    assert chaos_or_none(empty_plan()) is None
    assert chaos_or_none(ChaosPlan(seed=99)) is None
    plan = empty_plan()
    raws: List[RawAlert] = []
    result = plan.perturb(raws)
    assert result.raws is raws  # the same object, not a copy
    assert result.counts() == {
        "dropped": 0, "delayed": 0, "duplicated": 0, "skewed": 0,
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_out_of_window_plan_is_byte_identical(shards, backend):
    """A plan whose windows never intersect the run leaves it untouched.

    Stronger than the empty-plan case: here the whole chaos machinery is
    armed (FaultyIO consulted per append, the supervised locator logging
    ops, crash schedule pending) and must still change nothing.
    """
    topo, state, raws = flood_fixture()
    config = runtime_config(shards=shards, backend=backend)
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    horizon = max(r.delivered_at for r in raws)
    plan = ChaosPlan(
        shard_crashes=(ShardCrash(at=horizon + 100.0, shard=0),),
        io_faults=(
            IOFault("journal_append", horizon + 100.0, horizon + 200.0),
        ),
    )
    service = chaos_run(topo, state, raws, config, plan)
    assert isinstance(service.pipeline.locator, SupervisedLocator)
    _assert_equal(expected, _fingerprint(service.pipeline))
    assert _incident_ids(service) == expected_ids
    assert service.metrics.counter_value("runtime_shard_crashes_total") == 0
    assert service.metrics.counter_value("runtime_io_errors_total") == 0


# -- determinism -------------------------------------------------------------


def _noisy_plan() -> ChaosPlan:
    return ChaosPlan(
        brownouts=(
            SourceBrownout(
                "syslog", 60.0, 400.0,
                delay_s=5.0, delay_jitter_s=20.0,
                duplicate_rate=0.2, drop_rate=0.1,
            ),
        ),
        shard_crashes=(ShardCrash(at=250.0, shard=1),),
        io_faults=(IOFault("journal_append", 100.0, 180.0, fail_count=2),),
        seed=3,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_chaos_runs_are_seed_deterministic(tmp_path, backend):
    topo, state, raws = flood_fixture()
    config = runtime_config(backend=backend)
    plan = _noisy_plan()

    perturbed = plan.perturb(raws, run_seed=RUN_SEED)
    assert perturbed.dropped > 0 and perturbed.delayed > 0
    assert perturbed.duplicated > 0
    again = plan.perturb(raws, run_seed=RUN_SEED)
    assert [r.delivered_at for r in again.raws] == [
        r.delivered_at for r in perturbed.raws
    ]
    assert again.counts() == perturbed.counts()
    # a different run seed draws a different perturbation
    other = plan.perturb(raws, run_seed=RUN_SEED + 1)
    assert [r.delivered_at for r in other.raws] != [
        r.delivered_at for r in perturbed.raws
    ]

    counters = (
        "runtime_io_errors_total",
        "runtime_io_retries_total",
        "runtime_io_shed_journal_append_total",
        "runtime_shard_crashes_total",
        "runtime_shard_restores_total",
        "runtime_shard_replayed_ops_total",
    )
    runs = []
    for attempt in range(2):
        service = chaos_run(
            topo, state, list(perturbed.raws), config, plan,
            directory=tmp_path / f"run-{attempt}",
        )
        runs.append(
            (
                _fingerprint(service.pipeline),
                _incident_ids(service),
                {c: service.metrics.counter_value(c) for c in counters},
            )
        )
    _assert_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]
    assert runs[0][2]["runtime_io_retries_total"] > 0
    assert runs[0][2]["runtime_shard_crashes_total"] == 1


# -- shard crash + restore ---------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", [2, 4])
def test_shard_crash_and_restore_mid_storm_is_exact(shards, backend):
    """Under ``mp`` the crash is real: the worker process is SIGKILLed
    and a replacement is re-armed from snapshot + oplog replay."""
    topo, state, raws = flood_fixture()
    config = runtime_config(shards=shards, backend=backend)
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    plan = ChaosPlan(
        shard_crashes=(
            ShardCrash(at=200.0, shard=0),
            ShardCrash(at=300.0, shard=shards - 1),
        ),
    )
    service = chaos_run(topo, state, raws, config, plan)
    _assert_equal(expected, _fingerprint(service.pipeline))
    assert _incident_ids(service) == expected_ids
    assert service.metrics.counter_value("runtime_shard_crashes_total") == 2
    assert service.metrics.counter_value("runtime_shard_restores_total") == 2
    assert service.metrics.counter_value("runtime_shard_replayed_ops_total") > 0


@pytest.mark.slow
def test_unplanned_sigkill_of_real_worker_heals_exactly():
    """An *unscheduled* SIGKILL of a live worker process, from outside the
    chaos plan, is detected at the next pipe operation (mid-sweep) and
    healed transparently -- the final incident stream, ids included, must
    equal the run that was never killed.
    """
    topo, state, raws = flood_fixture()
    config = runtime_config(backend="mp")
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    # arm supervision with a crash scheduled far beyond the horizon: the
    # plan never fires, so every crash observed below is the real SIGKILL
    horizon = max(r.delivered_at for r in raws)
    plan = ChaosPlan(shard_crashes=(ShardCrash(at=horizon + 1e9, shard=0),))
    set_incident_counter(1)
    service = RuntimeService(
        topo, config=config, state=state, chaos=plan, run_seed=RUN_SEED
    )
    locator = service.pipeline.locator
    assert isinstance(locator, MPSupervisedLocator)

    k = len(raws) // 2
    for raw in raws[:k]:
        service.ingest(raw)

    n_workers = locator.workers_alive()
    victim = locator.worker_pid(0)
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while locator.workers_alive() == n_workers:
        assert time.monotonic() < deadline, "worker did not die after SIGKILL"
        time.sleep(0.01)

    for raw in raws[k:]:
        service.ingest(raw)
    service.finish()

    assert locator.worker_pid(0) != victim, "shard 0 must run in a new process"
    assert locator.crashes >= 1
    assert locator.restores >= 1
    assert locator.replayed_ops > 0
    _assert_equal(expected, _fingerprint(service.pipeline))
    assert _incident_ids(service) == expected_ids


# -- I/O faults and the retry budget ----------------------------------------


def test_transient_io_faults_below_budget_lose_nothing(tmp_path):
    topo, state, raws = flood_fixture()
    config = runtime_config()
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    plan = ChaosPlan(
        io_faults=(
            IOFault("journal_append", 100.0, 200.0, fail_count=2),
            IOFault("checkpoint_save", 0.0, 600.0, fail_count=1),
        ),
    )
    service = chaos_run(
        topo, state, raws, config, plan, directory=tmp_path / "chaos"
    )
    _assert_equal(expected, _fingerprint(service.pipeline))
    assert _incident_ids(service) == expected_ids
    assert service.metrics.counter_value("runtime_io_retries_total") > 0
    for op in ("journal_append", "journal_sync", "checkpoint_save"):
        assert (
            service.metrics.counter_value(f"runtime_io_shed_{op}_total") == 0
        )


def test_exhausted_io_budget_sheds_loudly_and_exactly(tmp_path):
    """A permanent journal fault degrades to 'those alerts never happened'.

    Admission shedding is the terminal fallback: an alert whose journal
    append cannot be made durable is dropped *before* touching pipeline
    state, so the run must equal a run over the stream with the faulted
    window filtered out -- and the sheds must be visible in metrics, not
    silent.
    """
    topo, state, raws = flood_fixture()
    config = runtime_config()
    window = (100.0, 200.0)
    in_window = [r for r in raws if window[0] <= r.delivered_at < window[1]]
    filtered = [r for r in raws if not window[0] <= r.delivered_at < window[1]]
    assert in_window, "fault window must actually cover part of the flood"

    expected, expected_ids = uninterrupted_run(topo, state, filtered, config)

    plan = ChaosPlan(
        io_faults=(IOFault("journal_append", *window, permanent=True),),
    )
    service = chaos_run(
        topo, state, raws, config, plan, directory=tmp_path / "chaos"
    )
    _assert_equal(expected, _fingerprint(service.pipeline))
    assert _incident_ids(service) == expected_ids
    shed = service.metrics.counter_value("runtime_io_shed_journal_append_total")
    assert shed == len(in_window)


# -- correlated crashes + partial snapshot loss ------------------------------


def test_correlated_crash_validates_its_shape():
    with pytest.raises(ValueError):
        CorrelatedCrash(at=1.0, shards=())
    with pytest.raises(ValueError):
        CorrelatedCrash(at=1.0, shards=(0, 0))
    with pytest.raises(ValueError):
        CorrelatedCrash(at=1.0, shards=(0,), lose_snapshots=(1,))
    plan = ChaosPlan(
        correlated_crashes=(
            CorrelatedCrash(at=1.0, shards=(2, 0), lose_snapshots=(0,)),
        ),
    )
    assert not plan.is_empty()
    assert plan.crashes_shards()
    assert chaos_or_none(plan) is plan


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", [2, 4])
def test_correlated_crash_with_snapshot_loss_rebuilds_exactly(
    tmp_path, shards, backend
):
    """A majority of shards die together and their snapshots are gone:
    recovery must rebuild them from durable checkpoint + journal tail and
    end byte-identical, ids included, with zero degraded heals."""
    topo, state, raws = flood_fixture()
    config = runtime_config(shards=shards, backend=backend)
    expected, expected_ids = uninterrupted_run(topo, state, raws, config)

    victims = tuple(range(shards - 1)) or (0,)
    plan = ChaosPlan(
        correlated_crashes=(
            CorrelatedCrash(at=250.0, shards=victims, lose_snapshots=victims),
        ),
    )
    service = chaos_run(
        topo, state, raws, config, plan, directory=tmp_path / "chaos"
    )
    _assert_equal(expected, _fingerprint(service.pipeline))
    assert _incident_ids(service) == expected_ids
    counters = service.metrics
    assert counters.counter_value("runtime_correlated_crashes_total") == 1
    assert counters.counter_value("runtime_shard_crashes_total") == len(victims)
    assert (
        counters.counter_value("runtime_shard_snapshots_lost_total")
        == len(victims)
    )
    assert counters.counter_value("runtime_shard_rebuilds_total") == len(victims)
    assert counters.counter_value("runtime_shard_degraded_heals_total") == 0
    assert counters.counter_value("runtime_data_loss_stamped_incidents_total") == 0


def test_snapshot_loss_without_durability_degrades_loudly(tmp_path):
    """No durable journal to rebuild from (journal_read fault-exhausted):
    the lost shards heal empty, the heal is counted as degraded, and every
    open incident is stamped with the data-loss confidence."""
    topo, state, raws = flood_fixture()
    config = runtime_config(shards=2)
    plan = ChaosPlan(
        correlated_crashes=(
            CorrelatedCrash(at=250.0, shards=(0, 1), lose_snapshots=(0, 1)),
        ),
        io_faults=(
            IOFault("journal_read", 0.0, 10**9, permanent=True),
        ),
    )
    service = chaos_run(
        topo, state, raws, config, plan, directory=tmp_path / "chaos"
    )
    counters = service.metrics
    assert counters.counter_value("runtime_shard_degraded_heals_total") == 2
    assert counters.counter_value("runtime_shard_rebuilds_total") == 0
    assert counters.counter_value("runtime_data_loss_stamped_incidents_total") > 0
    stamped = [
        i
        for i in service.pipeline.incidents(include_superseded=True)
        if any("data-loss" in s for s in i.degraded_sources)
    ]
    assert stamped, "data loss must be stamped on the open incidents"
    for incident in stamped:
        assert incident.confidence is not None
        assert incident.confidence <= 0.5
        assert "degraded: " in incident.render()


def test_snapshot_loss_without_run_directory_degrades_loudly():
    """An ephemeral run (no --dir) has no rebuild tier at all: snapshot
    loss must fall straight through to the degraded heal, never crash."""
    topo, state, raws = flood_fixture()
    config = runtime_config(shards=2)
    plan = ChaosPlan(
        correlated_crashes=(
            CorrelatedCrash(at=250.0, shards=(0,), lose_snapshots=(0,)),
        ),
    )
    service = chaos_run(topo, state, raws, config, plan, directory=None)
    assert service.metrics.counter_value("runtime_shard_degraded_heals_total") == 1
    assert (
        service.metrics.counter_value("runtime_data_loss_stamped_incidents_total")
        > 0
    )


# -- kill/resume under chaos -------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cut", [0.4, 0.7])
def test_chaos_kill_and_resume_reproduces_faulted_run(tmp_path, cut, backend):
    """Fault decisions depend only on sim time, so resume re-derives them."""
    topo, state, raws = flood_fixture()
    config = runtime_config(backend=backend)
    plan = ChaosPlan(
        shard_crashes=(
            ShardCrash(at=200.0, shard=0),
            ShardCrash(at=300.0, shard=1),
        ),
        io_faults=(IOFault("journal_append", 100.0, 180.0, fail_count=2),),
    )
    reference = chaos_run(topo, state, raws, config, plan)
    expected = _fingerprint(reference.pipeline)
    expected_ids = _incident_ids(reference)

    k = int(len(raws) * cut)
    set_incident_counter(1)
    first = RuntimeService(
        topo, config=config, state=state, directory=tmp_path,
        chaos=plan, run_seed=RUN_SEED,
    )
    for raw in raws[:k]:
        first.ingest(raw)
    del first  # crash: no finish, no graceful shutdown

    set_incident_counter(1)
    resumed = RuntimeService.resume(
        topo, tmp_path, config=config, state=state,
        chaos=plan, run_seed=RUN_SEED,
    )
    assert resumed.recovery is not None
    assert resumed.recovery.corruptions == ()
    for raw in raws[k:]:
        resumed.ingest(raw)
    resumed.finish()

    _assert_equal(expected, _fingerprint(resumed.pipeline))
    assert _incident_ids(resumed) == expected_ids
    assert (
        resumed.metrics.counter_value("runtime_shard_crashes_total")
        + 0  # crashes before the cut happened in the killed process...
        <= 2
    )
    # ...but the full schedule fired exactly once across the two lives
    fired = resumed.metrics.counter_value("runtime_shard_restores_total")
    assert fired == resumed.metrics.counter_value("runtime_shard_crashes_total")


@pytest.mark.parametrize("backend", BACKENDS)
def test_correlated_crash_fires_once_across_kill_and_resume(tmp_path, backend):
    """The fired-correlated set rides the checkpoint: a crash event that
    already fired in the killed process must not refire after resume."""
    topo, state, raws = flood_fixture()
    config = runtime_config(shards=2, backend=backend)
    plan = ChaosPlan(
        correlated_crashes=(
            CorrelatedCrash(at=200.0, shards=(0, 1), lose_snapshots=(0,)),
        ),
    )
    reference = chaos_run(
        topo, state, raws, config, plan, directory=tmp_path / "ref"
    )
    expected = _fingerprint(reference.pipeline)
    expected_ids = _incident_ids(reference)

    # kill well after the crash fired, then resume the same plan
    k = next(
        i for i, raw in enumerate(raws) if raw.delivered_at > 350.0
    )
    rundir = tmp_path / "killed"
    set_incident_counter(1)
    first = RuntimeService(
        topo, config=config, state=state, directory=rundir,
        chaos=plan, run_seed=RUN_SEED,
    )
    for raw in raws[:k]:
        first.ingest(raw)
    assert first.metrics.counter_value("runtime_correlated_crashes_total") == 1
    first.checkpoint()
    del first  # crash: no finish, no graceful shutdown

    set_incident_counter(1)
    resumed = RuntimeService.resume(
        topo, rundir, config=config, state=state,
        chaos=plan, run_seed=RUN_SEED,
    )
    for raw in raws[k:]:
        resumed.ingest(raw)
    resumed.finish()
    _assert_equal(expected, _fingerprint(resumed.pipeline))
    assert _incident_ids(resumed) == expected_ids
    # the metrics registry rides the checkpoint, so the resumed life
    # inherits the first life's count -- and must not add a refire
    assert resumed.metrics.counter_value("runtime_correlated_crashes_total") == 1


# -- source degradation (Figure 8a as outages) -------------------------------


def _down_devices(seed: int = 7, n_down: int = 4) -> List[str]:
    """The same choice ``flood_fixture`` makes, recomputed."""
    from repro.topology.builder import TopologySpec, build_topology

    topo = build_topology(TopologySpec())
    rng = random.Random(seed)
    devices = sorted(topo.devices)
    rng.shuffle(devices)
    return devices[:n_down]


def _recall(service: RuntimeService, down: Sequence[str]) -> float:
    detected: Set[str] = set()
    for incident in service.pipeline.incidents(include_superseded=True):
        detected |= set(incident.devices_involved())
    return len(detected & set(down)) / len(down)


def test_source_outage_stamps_confidence(tmp_path):
    topo, state, raws = flood_fixture()
    config = runtime_config()
    plan = ChaosPlan(outages=(SourceOutage("ping", 0.0, 700.0),))
    perturbed = plan.perturb(raws, run_seed=RUN_SEED)
    assert perturbed.dropped > 0
    service = chaos_run(topo, state, perturbed.raws, config, plan)

    incidents = service.pipeline.incidents(include_superseded=True)
    assert incidents
    stamped = [i for i in incidents if i.confidence is not None]
    assert stamped, "ping outage must reduce confidence in some incident"
    for incident in stamped:
        assert 0.0 <= incident.confidence < 1.0
        assert "ping" in incident.degraded_sources
        assert "degraded: " in incident.render()
        assert f"confidence {incident.confidence:.2f}" in incident.render()


def test_source_outages_degrade_accuracy_monotonically():
    """Figure 8a as chaos: silencing sources (low coverage first) can only
    hurt, and silencing everything detects nothing."""
    topo, state, raws = flood_fixture()
    config = runtime_config()
    down = _down_devices()

    recalls = []
    for k in (0, 4, 8, len(COVERAGE_ORDER)):
        silenced = COVERAGE_ORDER[:k]
        plan = chaos_or_none(
            ChaosPlan(
                outages=tuple(
                    SourceOutage(tool, 0.0, 700.0) for tool in silenced
                )
            )
        )
        stream = raws
        if plan is not None:
            stream = plan.perturb(raws, run_seed=RUN_SEED).raws
        service = chaos_run(topo, state, stream, config, plan)
        recalls.append(_recall(service, down))

    assert recalls[0] > 0.0, "the unablated run must detect the failure"
    for better, worse in zip(recalls, recalls[1:]):
        assert worse <= better, f"ablation improved recall: {recalls}"
    assert recalls[-1] == 0.0, "with every source dark nothing is detectable"
