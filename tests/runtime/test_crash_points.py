"""Enumerated crash points: kill after *every* journal append, not a
sampled few, and resume exactly.

One short stream crosses several segment rotations and checkpoints.  The
on-disk state after each append is exactly what a process killed at that
instant leaves behind (every append is flushed), so it is copied aside
and resumed twice: as written (a clean kill) and with its last line torn
(a kill mid-write).  A third kill dies between a checkpoint's fsync and
its rename, leaving ``checkpoint-*.pkl.tmp`` behind.  Every resume must
account for exactly the alerts it should, and -- with the caller
re-offering ``raws[admission.offered:]`` -- finish equal to the
uninterrupted run, incident ids included.
"""

from __future__ import annotations

import os
import pathlib
import shutil
from typing import List, Optional
from unittest import mock

from repro.monitors.base import RawAlert
from repro.runtime import RuntimeService
from repro.runtime.checkpoint import set_incident_counter

from ..test_equivalence_flood import _assert_equal, _fingerprint
from .test_journal import _truncate_last_line
from .test_kill_resume import (
    _incident_ids,
    flood_fixture,
    runtime_config,
    uninterrupted_run,
)

RAWS = 120
#: 20-record segments rotate 5 times over 120 raws; a 10 s cadence
#: checkpoints every ~30 raws of the flood fixture
CONFIG = runtime_config(checkpoint_every=10.0, segment_records=20)


class _Killed(Exception):
    """The process dies here."""


def _finish_and_compare(
    service: RuntimeService, raws: List[RawAlert], expected
) -> None:
    for raw in raws[service.admission.offered :]:
        service.ingest(raw)
    service.finish()
    fingerprint, ids = expected
    _assert_equal(fingerprint, _fingerprint(service.pipeline))
    assert _incident_ids(service) == ids


def _resume(topo, state, directory: pathlib.Path) -> RuntimeService:
    set_incident_counter(1)
    return RuntimeService.resume(topo, directory, config=CONFIG, state=state)


def test_kill_after_every_journal_append_resumes_exactly(tmp_path):
    topo, state, raws = flood_fixture()
    raws = raws[:RAWS]
    expected = uninterrupted_run(topo, state, raws, CONFIG)

    # the writer runs alone first: resumes share the global incident-id
    # counter, so none may interleave with it
    live = tmp_path / "live"
    set_incident_counter(1)
    writer = RuntimeService(topo, config=CONFIG, state=state, directory=live)
    assert writer.checkpoints is not None and writer.journal is not None
    newest: List[Optional[int]] = []  # newest checkpoint seq after k appends
    for k in range(RAWS + 1):
        if k:
            writer.ingest(raws[k - 1])
        shutil.copytree(live, tmp_path / f"after-{k}")
        listing = writer.checkpoints.list()
        newest.append(listing[-1].seq if listing else None)
    assert len(writer.journal.segments()) >= 6, "fewer than 5 rotations"
    assert len(set(newest) - {None}) >= 3, "fewer than 3 checkpoints"
    del writer

    for k in range(RAWS + 1):
        snapshot = tmp_path / f"after-{k}"
        for torn in (False, True) if k else (False,):
            killed = tmp_path / "killed"
            shutil.copytree(snapshot, killed)
            offered = k
            if torn:
                _truncate_last_line(sorted(killed.glob("journal/segment-*"))[-1])
                # a record a checkpoint covers was fsynced before it: only
                # bit rot can tear it, and the checkpoint still holds it
                offered = k if newest[k] == k else k - 1
            resumed = _resume(topo, state, killed)
            assert resumed.admission.offered == offered, (k, torn)
            assert resumed.recovery is not None
            assert len(resumed.recovery.corruptions) == int(torn)
            _finish_and_compare(resumed, raws, expected)
            del resumed
            shutil.rmtree(killed)


def test_kill_between_checkpoint_fsync_and_rename_resumes_exactly(tmp_path):
    topo, state, raws = flood_fixture()
    raws = raws[:RAWS]
    expected = uninterrupted_run(topo, state, raws, CONFIG)

    set_incident_counter(1)
    writer = RuntimeService(topo, config=CONFIG, state=state, directory=tmp_path)
    real_replace = os.replace
    saves = []

    def replace(src, dst):
        saves.append(dst)
        if len(saves) == 3:  # the temporary file is written and fsynced
            raise _Killed(dst)
        real_replace(src, dst)

    killed_at: Optional[int] = None
    with mock.patch("repro.runtime.checkpoint.os.replace", side_effect=replace):
        for k, raw in enumerate(raws):
            try:
                writer.ingest(raw)
            except _Killed:
                killed_at = k + 1
                break
    assert killed_at is not None, "the third checkpoint never started"
    del writer
    assert list(tmp_path.glob("checkpoints/checkpoint-*.pkl.tmp"))

    resumed = _resume(topo, state, tmp_path)
    assert resumed.recovery is not None
    # the unrenamed snapshot is ignored; the previous one plus a longer
    # tail covers every journaled alert
    assert resumed.recovery.checkpoint_seq is not None
    assert resumed.recovery.checkpoint_seq < killed_at
    assert resumed.admission.offered == killed_at
    _finish_and_compare(resumed, raws, expected)
