"""Snapshot checkpoints for the streaming pipeline.

A checkpoint is a pickle of the pipeline's *mutable* state only: the
preprocessor's aggregation windows, the locator's trees and incidents,
the zoom-in ping window, the admission controller's window, the metrics
registry and the clock fields.  Topology, configuration and the
evaluator's memo caches are deliberately excluded -- they are either
reconstructed from code or rebuilt lazily, and excluding them keeps
checkpoints small and forward-portable.

This module intentionally reaches into the pipeline components' private
attributes (``_aggregates``, ``_open``, ``_latest``, ...): it is the one
sanctioned serialisation point for that state, and keeping the knowledge
here beats scattering ``state_dict`` plumbing through the paper-faithful
core modules.  ``tests/runtime/test_kill_resume.py`` holds the contract:
restore + journal replay must reproduce the uninterrupted run exactly.

Incident identifiers come from a process-global counter, so a restore
also rewinds that counter to just past the highest checkpointed id --
a resumed run then hands out the very same ids the original would have.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pathlib
import pickle
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core import incident as incident_module
from ..core.pipeline import SkyNet

if TYPE_CHECKING:
    from .sharding import ShardedLocator

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".pkl"

#: What ``pickle.load`` raises on a damaged file: truncation (EOF), bad
#: opcodes, a garbled protocol byte or literal (``ValueError``, incl.
#: undecodable strings), a garbled class reference (``ImportError``,
#: ``AttributeError``), opcodes applied to the wrong object (``TypeError``,
#: ``KeyError``, ``IndexError``) and garbled length prefixes
#: (``OverflowError``, ``MemoryError``).
DAMAGED_PICKLE_ERRORS = (
    OSError,
    EOFError,
    pickle.UnpicklingError,
    ValueError,
    ImportError,
    AttributeError,
    TypeError,
    KeyError,
    IndexError,
    OverflowError,
    MemoryError,
)


def pipeline_state_dict(net: SkyNet) -> Dict[str, object]:
    """All mutable pipeline state, as one picklable dict."""
    locator = net.locator
    return {
        "preprocessor": {
            "aggregates": net.preprocessor._aggregates,
            "corroboration": net.preprocessor._corroboration,
            "stats": net.preprocessor.stats,
        },
        "locator": {
            "main_tree": locator.main_tree,
            "open": locator._open,
            "finished": locator._finished,
            "pending": locator._pending,
        },
        "zoom_ping_latest": net.zoom.ping_window._latest,
        "now": net._now,
        "last_sweep": net._last_sweep,
        "incident_next_id": _next_incident_id(locator),
    }


def restore_pipeline_state(net: SkyNet, state: Dict[str, object]) -> None:
    """Load a :func:`pipeline_state_dict` back into a fresh pipeline.

    The pipeline must have been built against the same topology and
    configuration (including shard count) as the checkpointed one; the
    caller owns that invariant."""
    prep = state["preprocessor"]
    net.preprocessor._aggregates = prep["aggregates"]  # type: ignore[index]
    net.preprocessor._corroboration = prep["corroboration"]  # type: ignore[index]
    net.preprocessor.stats = prep["stats"]  # type: ignore[index]

    loc_state = state["locator"]
    locator = net.locator
    # restore_tree also drops the derived grouping memo (and, on the
    # multiprocess backend, ships the shard trees into the workers)
    locator.restore_tree(loc_state["main_tree"])  # type: ignore[index]
    locator._open = loc_state["open"]  # type: ignore[index]
    locator._finished = loc_state["finished"]  # type: ignore[index]
    locator._pending = loc_state["pending"]  # type: ignore[index]

    net.zoom.ping_window._latest = state["zoom_ping_latest"]  # type: ignore[assignment]
    net._now = state["now"]  # type: ignore[assignment]
    net._last_sweep = state["last_sweep"]  # type: ignore[assignment]
    set_incident_counter(int(state["incident_next_id"]))  # type: ignore[arg-type]


def _next_incident_id(locator: "ShardedLocator") -> int:
    highest = 0
    for incident in locator.all_incidents():
        try:
            highest = max(highest, int(incident.incident_id.rsplit("-", 1)[1]))
        except (IndexError, ValueError):
            continue
    return highest + 1


def set_incident_counter(next_value: int) -> None:
    """Rewind/advance the global incident-id counter (resume and tests)."""
    incident_module._incident_counter = itertools.count(next_value)


@dataclasses.dataclass(frozen=True)
class CheckpointInfo:
    seq: int  # journal sequence number the snapshot is consistent with
    path: pathlib.Path


class CheckpointStore:
    """Atomic pickle snapshots named by journal sequence number.

    ``save`` writes to a temporary file and renames into place, so a
    crash mid-write never produces a half checkpoint under the real
    name; ``latest`` walks candidates newest-first and skips any that
    fail to unpickle (:data:`DAMAGED_PICKLE_ERRORS`), so a corrupted
    newest checkpoint degrades to the previous one instead of aborting
    recovery.  Damage that still unpickles -- a garbled value, or a
    renamed key or attribute deep in the snapshot -- is invisible here:
    the format carries no checksum.
    """

    def __init__(self, directory: pathlib.Path, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        #: checkpoints the most recent :meth:`latest` skipped as
        #: unloadable, newest first, each as ``"<name> (<error type>)"``
        self.unloadable: List[str] = []

    def _path_for(self, seq: int) -> pathlib.Path:
        return self.directory / f"{CHECKPOINT_PREFIX}{seq:010d}{CHECKPOINT_SUFFIX}"

    def list(self) -> List[CheckpointInfo]:
        out: List[CheckpointInfo] = []
        for path in sorted(self.directory.iterdir()):
            name = path.name
            if not (
                name.startswith(CHECKPOINT_PREFIX)
                and name.endswith(CHECKPOINT_SUFFIX)
            ):
                continue
            stem = name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)]
            try:
                out.append(CheckpointInfo(seq=int(stem), path=path))
            except ValueError:
                continue
        return out

    def save(self, seq: int, state: Dict[str, object]) -> pathlib.Path:
        path = self._path_for(seq)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._prune()
        return path

    def _prune(self) -> None:
        existing = self.list()
        for info in existing[: -self.keep]:
            try:
                info.path.unlink()
            except OSError:
                continue

    def latest(self) -> Optional[Tuple[int, Dict[str, object]]]:
        """Newest loadable checkpoint as ``(seq, state)``, or ``None``.

        Every newer checkpoint it skips is named in :attr:`unloadable`
        with the error that rejected it, so a fallback -- whether from
        disk damage or from a bug in some ``__setstate__`` -- is visible
        in the recovery report rather than only as a longer replay.
        """
        self.unloadable = []
        for info in reversed(self.list()):
            try:
                with open(info.path, "rb") as handle:
                    state = pickle.load(handle)
            except DAMAGED_PICKLE_ERRORS as exc:
                self.unloadable.append(f"{info.path.name} ({type(exc).__name__})")
                continue
            if isinstance(state, dict):
                return info.seq, state
            self.unloadable.append(f"{info.path.name} (not a dict)")
        return None
