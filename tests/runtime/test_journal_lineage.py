"""Replay follows the journal's lineage past defects earlier resumes
already recovered from.

A resume that stops at a torn or garbled record hands out the next seq
again, in a fresh segment; the crashed life's records after the defect
are superseded.  Every later resume must read *through* the old defect
into that segment -- otherwise one recovered torn tail silently drops
everything written since.  Each scenario here ends equal to the
uninterrupted run over the stream minus the lost alert, incident ids
included; the Hypothesis battery checks the recovered frontier against a
model after every resume of random ingest / crash / resume sequences.
"""

from __future__ import annotations

import functools
import pathlib
import tempfile
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitors.base import RawAlert
from repro.runtime import RuntimeService
from repro.runtime.checkpoint import set_incident_counter
from repro.runtime.faults import ChaosPlan, CorrelatedCrash

from ..test_equivalence_flood import _assert_equal, _fingerprint
from .test_journal import _truncate_last_line
from .test_kill_resume import (
    _incident_ids,
    flood_fixture,
    runtime_config,
    uninterrupted_run,
)

#: small segments and a 45 s cadence: the flood fixture writes ~36
#: segments and ~13 checkpoints, so kills land between both kinds
CONFIG = runtime_config(checkpoint_every=45.0, segment_records=50)


def _start(topo, state, directory, chaos=None) -> RuntimeService:
    set_incident_counter(1)
    return RuntimeService(
        topo, config=CONFIG, state=state, directory=directory, chaos=chaos
    )


def _resume(topo, state, directory, chaos=None) -> RuntimeService:
    set_incident_counter(1)  # a fresh process starts its counter over
    return RuntimeService.resume(
        topo, directory, config=CONFIG, state=state, chaos=chaos
    )


def _latest_checkpoint(service: RuntimeService) -> int:
    assert service.checkpoints is not None
    listing = service.checkpoints.list()
    assert listing, "no checkpoint written yet"
    return listing[-1].seq


def _garble_seq(directory: pathlib.Path, seq: int) -> None:
    """Overwrite the live copy of record ``seq`` (the newest segment
    holding it) with bytes that are not JSON."""
    prefix = b'{"seq":%d,' % seq
    for path in sorted((directory / "journal").glob("segment-*.jsonl"))[::-1]:
        lines = path.read_bytes().splitlines(keepends=True)
        for index, line in enumerate(lines):
            if line.startswith(prefix):
                lines[index] = b"\x00garbled{{{\n"
                path.write_bytes(b"".join(lines))
                return
    raise AssertionError(f"no record with seq {seq}")


def _assert_matches(service: RuntimeService, topo, state, stream: List[RawAlert]):
    expected, expected_ids = uninterrupted_run(topo, state, stream, CONFIG)
    _assert_equal(expected, _fingerprint(service.pipeline))
    assert _incident_ids(service) == expected_ids


def _torn_first_life(topo, state, raws, directory, cut, chaos=None):
    first = _start(topo, state, directory, chaos=chaos)
    for raw in raws[:cut]:
        first.ingest(raw)
    segments = first.journal.segments()
    del first  # crash mid-write: the last record is torn
    _truncate_last_line(segments[-1])


# -- regressions: each loses records at the parent ---------------------------


def test_recovered_torn_tail_then_kill_after_a_new_checkpoint(tmp_path):
    topo, state, raws = flood_fixture()
    a, b = len(raws) // 3, (2 * len(raws)) // 3
    _torn_first_life(topo, state, raws, tmp_path, a)

    second = _resume(topo, state, tmp_path)
    assert second.admission.offered == a - 1
    for raw in raws[a:b]:
        second.ingest(raw)
    assert _latest_checkpoint(second) > a
    del second

    third = _resume(topo, state, tmp_path)
    assert third.admission.offered == b - 1
    # the defect sits behind the new checkpoint: never read, never counted
    assert third.recovery is not None and third.recovery.corruptions == ()
    assert third.recovery.skipped_segments > 0
    for raw in raws[b:]:
        third.ingest(raw)
    third.finish()
    _assert_matches(third, topo, state, raws[: a - 1] + raws[a:])
    assert third.metrics.counter_value("runtime_journal_corruptions_total") == 1


def test_recovered_torn_tail_then_kill_before_the_next_checkpoint(tmp_path):
    topo, state, raws = flood_fixture()
    a = len(raws) // 3
    _torn_first_life(topo, state, raws, tmp_path, a)

    second = _resume(topo, state, tmp_path)
    before = _latest_checkpoint(second)
    for raw in raws[a : a + 40]:
        second.ingest(raw)
    assert _latest_checkpoint(second) == before < a
    del second

    third = _resume(topo, state, tmp_path)
    assert third.admission.offered == a - 1 + 40
    # replay read through the old defect into the segment the second
    # life opened, and re-derives the same corruption count
    recovery = third.recovery
    assert recovery is not None
    (corruption,) = recovery.corruptions
    assert corruption.continued_at is not None
    assert third.metrics.counter_value("runtime_journal_corruptions_total") == 1
    for raw in raws[a + 40 :]:
        third.ingest(raw)
    third.finish()
    _assert_matches(third, topo, state, raws[: a - 1] + raws[a:])


def test_garbled_mid_segment_record_then_resume_and_a_later_kill(tmp_path):
    topo, state, raws = flood_fixture()
    a, b = len(raws) // 3, (2 * len(raws)) // 3
    first = _start(topo, state, tmp_path)
    for raw in raws[:a]:
        first.ingest(raw)
    g = next(
        seq
        for seq in range(_latest_checkpoint(first) + 1, a)
        if 10 <= seq % CONFIG.runtime.journal_segment_records <= 40
    )
    del first
    _garble_seq(tmp_path, g)

    second = _resume(topo, state, tmp_path)
    assert second.admission.offered == g
    for raw in raws[g + 1 : b]:  # the garbled alert is lost for good
        second.ingest(raw)
    del second

    third = _resume(topo, state, tmp_path)
    assert third.admission.offered == b - 1
    for raw in raws[b:]:
        third.ingest(raw)
    third.finish()
    _assert_matches(third, topo, state, raws[:g] + raws[g + 1 :])


def test_correlated_crash_rebuilds_exactly_after_a_recovered_defect(tmp_path):
    """The rebuild replays checkpoint + journal up to the live frontier;
    a defect an earlier resume recovered from lies on that path and must
    not force a degraded heal."""
    topo, state, raws = flood_fixture()
    a = len(raws) // 3
    victims = (0, 1)
    plan = ChaosPlan(
        correlated_crashes=(
            CorrelatedCrash(
                at=raws[a + 10].delivered_at,
                shards=victims,
                lose_snapshots=victims,
            ),
        ),
    )
    _torn_first_life(topo, state, raws, tmp_path, a, chaos=plan)

    second = _resume(topo, state, tmp_path, chaos=plan)
    for raw in raws[a : a + 10]:
        second.ingest(raw)
    # the rebuild (next ingest) starts from a checkpoint behind the defect
    assert _latest_checkpoint(second) < a - 1
    for raw in raws[a + 10 :]:
        second.ingest(raw)
    second.finish()
    counters = second.metrics
    assert counters.counter_value("runtime_correlated_crashes_total") == 1
    assert counters.counter_value("runtime_shard_rebuilds_total") == len(victims)
    assert counters.counter_value("runtime_shard_degraded_heals_total") == 0
    assert counters.counter_value("runtime_data_loss_stamped_incidents_total") == 0
    _assert_matches(second, topo, state, raws[: a - 1] + raws[a:])


# -- the recovery report -----------------------------------------------------


def test_recovery_report_renders_skips_reads_and_continued_defects(tmp_path):
    topo, state, raws = flood_fixture()
    a = len(raws) // 3
    _torn_first_life(topo, state, raws, tmp_path, a)
    second = _resume(topo, state, tmp_path)
    for raw in raws[a : a + 40]:
        second.ingest(raw)
    assert second.journal is not None
    continuation = second.journal.segments()[-1].name
    del second

    recovery = _resume(topo, state, tmp_path).recovery
    assert recovery is not None
    assert recovery.skipped_segments > 0
    assert recovery.read_records > recovery.replayed_records
    text = recovery.render()
    assert f"replayed {recovery.replayed_records} journal record(s)" in text
    assert f"of {recovery.read_records} read" in text
    assert f"{recovery.skipped_segments} older segment(s) skipped unread" in text
    assert "recovered by an earlier resume" in text
    assert f"replay continued at {continuation}" in text


# -- model-based battery -----------------------------------------------------

#: a tighter config for the battery: rotations every 16 records and a
#: checkpoint every ~30 raws, so short runs cross both boundaries
BATTERY_CONFIG = runtime_config(checkpoint_every=10.0, segment_records=16)


@functools.lru_cache(maxsize=1)
def _battery_fixture():
    return flood_fixture()


_STEPS = st.lists(
    st.tuples(
        st.integers(0, 60),  # raws to ingest in this life
        st.sampled_from(["clean", "torn", "garbled"]),  # how it dies
        st.integers(0, 10**6),  # which record a garble hits
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS)
def test_random_crash_sequences_resume_to_the_model_frontier(steps):
    """Model: the durable lineage is the list of alerts every resume must
    account for.  A clean kill keeps it, a torn tail drops its last alert,
    a garbled record truncates it there.  Only defects a real crash (or
    bit rot) can produce are injected: nothing the newest checkpoint
    already covers, since that record was fsynced before it was taken."""
    topo, state, raws = _battery_fixture()
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        set_incident_counter(1)
        service = RuntimeService(
            topo, config=BATTERY_CONFIG, state=state, directory=directory
        )
        lineage: List[RawAlert] = []
        cursor = 0
        for count, crash, pick in steps:
            appended = 0
            for raw in raws[cursor : cursor + count]:
                service.ingest(raw)
                lineage.append(raw)
                appended += 1
            cursor += count
            listing = service.checkpoints.list() if service.checkpoints else []
            covered = listing[-1].seq if listing else 0
            segments = service.journal.segments() if service.journal else []
            del service
            if crash == "torn" and appended and len(lineage) - 1 >= covered:
                _truncate_last_line(segments[-1])
                lineage.pop()
            elif crash == "garbled" and len(lineage) > covered:
                seq = covered + pick % (len(lineage) - covered)
                _garble_seq(directory, seq)
                del lineage[seq:]
            set_incident_counter(1)
            service = RuntimeService.resume(
                topo, directory, config=BATTERY_CONFIG, state=state
            )
            assert service.admission.offered == len(lineage)
        service.finish()
        expected, expected_ids = uninterrupted_run(
            topo, state, lineage, BATTERY_CONFIG
        )
        # short lineages may open no incident: compare, don't demand one
        assert _fingerprint(service.pipeline) == expected
        assert _incident_ids(service) == expected_ids
