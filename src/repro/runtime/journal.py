"""Write-ahead alert journal: append-only JSONL segments.

Every raw alert offered to the runtime is journaled *before* it is
processed, together with its sequence number and the admission decision
it received.  A killed run therefore loses nothing: resume loads the
last snapshot checkpoint and replays the journal tail -- re-applying the
*recorded* admission decisions, so even load-shed alerts are accounted
for identically the second time around.

Segments rotate every ``segment_records`` lines and are strictly
append-only; a resuming journal always opens a fresh segment rather than
appending after a possibly torn tail.  Corruption handling is explicit:
a truncated, garbled, undecodable or wrongly typed record stops replay
at the last valid line and surfaces a :class:`JournalCorruption` report
(segment, line, reason, records discarded) instead of crashing -- the §4
requirement that a flood-scale service degrades loudly, never silently.

**Lineage.**  Sequence numbers are contiguous within one process life.
A resume that stopped at a defect resumes numbering at the next expected
seq, in the fresh segment it opens, so the records written after the
defect by the crashed life are superseded by that segment.  Replay
follows this lineage: at a defect it continues at the *oldest* later
segment whose first record is exactly the next expected seq (the segment
the recovering resume wrote), and stops only when no such segment
exists -- a defect no resume has recovered from yet.  Every defect in
the range read is reported, continued or terminal, so a resume from a
pre-defect checkpoint re-derives the same corruption count as the
resume that first met it.

**Cost.**  Replay reads one line of every segment to learn its first
seq, then starts at the newest segment whose first record parses with a
seq at or below the checkpoint's position (the first segment if none
does) -- segments wholly behind the checkpoint are never decoded, so
recovery costs O(segments + tail), not O(history).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
from typing import Dict, Iterator, List, Mapping, Optional, TextIO, Tuple, Union

from ..monitors.base import RawAlert
from ..topology.hierarchy import LocationPath

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"


@dataclasses.dataclass(frozen=True)
class JournalCorruption:
    """One detected defect in the journal, reported on replay."""

    segment: str
    line_number: int  # 1-based line within the segment
    reason: str
    discarded_records: int  # valid-looking lines skipped after the defect
    #: segment replay continued at because an earlier resume already
    #: recovered from this defect; ``None`` = replay stopped here
    continued_at: Optional[str] = None

    def render(self) -> str:
        where = f"journal corruption in {self.segment}:{self.line_number}"
        if self.continued_at is not None:
            return (
                f"{where}: {self.reason} (recovered by an earlier resume; "
                f"{self.discarded_records} superseded record(s) skipped, "
                f"replay continued at {self.continued_at})"
            )
        return (
            f"{where}: {self.reason} ({self.discarded_records} later "
            f"record(s) discarded; resuming from last valid state)"
        )


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """One journaled raw alert plus its admission decision."""

    seq: int
    admitted: bool
    rung: Optional[str]  # admission ladder rung that shed it, if any
    raw: RawAlert


def raw_to_json(raw: RawAlert) -> Dict[str, object]:
    """Lossless, schema-stable encoding of a :class:`RawAlert`."""
    out: Dict[str, object] = {
        "tool": raw.tool,
        "raw_type": raw.raw_type,
        "timestamp": raw.timestamp,
        "delivered_at": raw.delivered_at,
    }
    if raw.message:
        out["message"] = raw.message
    if raw.device is not None:
        out["device"] = raw.device
    if raw.endpoints is not None:
        out["endpoints"] = list(raw.endpoints)
    if raw.location_hint is not None:
        # segments + device flag, never the rendered string: "<root>" is a
        # display form, not a parseable path (REP002's whole point)
        out["location"] = {
            "segments": list(raw.location_hint.segments),
            "is_device": raw.location_hint.is_device,
        }
    if raw.metrics:
        out["metrics"] = dict(raw.metrics)
    return out


def raw_from_json(data: object) -> RawAlert:
    """Decode the :func:`raw_to_json` form -- strictly.

    The one decoder for journal lines and gateway ``submit`` frames
    alike, so the gateway journals exactly what replay will accept.  A
    field of any type ``raw_to_json`` never writes is rejected, not
    coerced: ``KeyError`` for a missing field, ``TypeError`` /
    ``ValueError`` for a wrongly typed one (``true`` is not a number).
    """
    if not isinstance(data, dict):
        raise _wrong("raw", data, "an object")
    location = None
    loc = data.get("location")
    if loc is not None:
        if not isinstance(loc, dict):
            raise _wrong("location", loc, "an object")
        is_device = loc["is_device"]
        if not isinstance(is_device, bool):
            raise _wrong("is_device", is_device, "a boolean")
        location = LocationPath(_strings(loc, "segments"), is_device)
    endpoints = None
    if data.get("endpoints") is not None:
        pair = _strings(data, "endpoints")
        if len(pair) != 2:
            raise ValueError("'endpoints' must name exactly two servers")
        endpoints = (pair[0], pair[1])
    metrics = data.get("metrics", {})
    if not isinstance(metrics, dict) or not all(
        _is_number(v) for v in metrics.values()
    ):
        raise _wrong("metrics", metrics, "an object of numbers")
    device = data.get("device")
    if device is not None and not isinstance(device, str):
        raise _wrong("device", device, "a string")
    return RawAlert(
        tool=_string(data, "tool"),
        raw_type=_string(data, "raw_type"),
        timestamp=_time(data, "timestamp"),
        message=_string(data, "message") if "message" in data else "",
        device=device,
        endpoints=endpoints,
        location_hint=location,
        metrics=dict(metrics),
        delivered_at=_time(data, "delivered_at"),
    )


def _wrong(key: str, value: object, want: str) -> TypeError:
    return TypeError(f"{key!r} is {type(value).__name__}, want {want}")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _string(data: Mapping[str, object], key: str) -> str:
    value = data[key]
    if not isinstance(value, str):
        raise _wrong(key, value, "a string")
    return value


def _strings(data: Mapping[str, object], key: str) -> Tuple[str, ...]:
    value = data[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _wrong(key, value, "a list of strings")
    return tuple(value)


def _time(data: Mapping[str, object], key: str) -> float:
    value = data[key]
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    ):
        return float(value)
    raise _wrong(key, value, "a finite number")


class AlertJournal:
    """Append-only JSONL journal over a directory of rotating segments."""

    def __init__(
        self, directory: pathlib.Path, segment_records: int = 2000
    ) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be positive")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        # never append to an existing segment: a fresh writer starts its
        # own file so a torn tail from a crash stays frozen as evidence
        self._next_segment = self._max_segment_index() + 1
        self._handle: Optional[TextIO] = None
        self._current_path: Optional[pathlib.Path] = None
        self._current_lines = 0
        #: corruption reports collected by the most recent :meth:`replay`
        self.corruptions: List[JournalCorruption] = []
        #: segments that replay never decoded (wholly behind its start)
        self.skipped_segments = 0
        #: valid records the most recent replay decoded, replayed or not
        self.read_records = 0

    # -- writing -----------------------------------------------------------

    def append(
        self,
        raw: RawAlert,
        seq: int,
        admitted: bool = True,
        rung: Optional[str] = None,
    ) -> None:
        if self._handle is None or self._current_lines >= self.segment_records:
            self._rotate()
        entry: Dict[str, object] = {"seq": seq, "admitted": admitted}
        if rung is not None:
            entry["rung"] = rung
        entry["raw"] = raw_to_json(raw)
        assert self._handle is not None
        self._handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._handle.flush()
        self._current_lines += 1

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
        path = self.directory / (
            f"{SEGMENT_PREFIX}{self._next_segment:08d}{SEGMENT_SUFFIX}"
        )
        self._next_segment += 1
        self._handle = open(path, "w", encoding="utf-8")
        self._current_path = path
        self._current_lines = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._current_path = None

    def sync(self) -> None:
        """Force the current segment to stable storage."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    # -- compaction ---------------------------------------------------------

    def compact(self, before_seq: int) -> int:
        """Delete closed segments fully covered by a durable checkpoint.

        A segment may go only when *every* line parses and its highest
        sequence number is below ``before_seq`` (the oldest retained
        checkpoint's position): replay will never need it again.  The
        active segment and any segment containing an unparseable line --
        crash evidence -- are always kept.  Returns the number of
        segments removed.  This is the ROADMAP's segment-compaction item;
        the service only calls it when ``runtime.journal_compaction`` is
        opted into, so default journals remain strictly append-only.
        """
        removed = 0
        for path in self.segments():
            if path == self._current_path:
                continue
            last_seq = self._segment_max_seq(path)
            if last_seq is not None and last_seq < before_seq:
                path.unlink()
                removed += 1
        return removed

    def _segment_max_seq(self, path: pathlib.Path) -> Optional[int]:
        """Highest seq in a fully-parseable segment, else ``None``."""
        try:
            lines = _read_lines(path)
        except OSError:
            return None
        highest: Optional[int] = None
        for line in lines:
            entry, _ = self._parse_line(line)
            if entry is None:
                return None
            if highest is None or entry.seq > highest:
                highest = entry.seq
        return highest

    # -- reading -----------------------------------------------------------

    def segments(self) -> List[pathlib.Path]:
        return sorted(
            p
            for p in self.directory.iterdir()
            if p.name.startswith(SEGMENT_PREFIX)
            and p.name.endswith(SEGMENT_SUFFIX)
        )

    def _max_segment_index(self) -> int:
        highest = 0
        for path in self.segments():
            stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
            try:
                highest = max(highest, int(stem))
            except ValueError:
                continue
        return highest

    def _first_seq(self, path: pathlib.Path) -> Optional[int]:
        """Seq of a segment's first record, ``None`` if it does not parse."""
        with open(path, "rb") as handle:
            entry, _ = self._parse_line(handle.readline())
        return None if entry is None else entry.seq

    def replay(self, after_seq: int = -1) -> Iterator[JournalEntry]:
        """Yield the journal's lineage past ``after_seq``, in seq order.

        Starts at the newest segment whose first record has a seq at or
        below ``after_seq + 1`` (else the first segment).  At a defect --
        recorded as a :class:`JournalCorruption` -- it continues at the
        oldest later segment whose first record is exactly the next
        expected seq, the one the resume that recovered from the defect
        opened.  Without one, everything after the defect is discarded
        and replay stops: entries are causally ordered, so replaying past
        a hole could interleave alerts out of sequence and silently
        diverge from the original run.  ``skipped_segments`` and
        ``read_records`` describe the read afterwards.
        """
        self.corruptions = []
        self.read_records = 0
        segments = self.segments()
        firsts = [self._first_seq(path) for path in segments]
        starts = [
            i
            for i, first in enumerate(firsts)
            if first is not None and first <= after_seq + 1
        ]
        index = starts[-1] if starts else 0
        self.skipped_segments = index
        # the seq a resume stopping here would hand out next
        next_seq = after_seq + 1
        while index < len(segments):
            path = segments[index]
            lines = _read_lines(path)
            index += 1
            for line_index, line in enumerate(lines):
                entry, reason = self._parse_line(line)
                if entry is None:
                    # the segment a resume that stopped here opened, if any
                    successor = next(
                        (
                            i
                            for i in range(index, len(segments))
                            if firsts[i] == next_seq
                        ),
                        None,
                    )
                    discarded = len(lines) - line_index - 1 + sum(
                        len(_read_lines(p)) for p in segments[index:successor]
                    )
                    self.corruptions.append(
                        JournalCorruption(
                            path.name,
                            line_index + 1,
                            reason,
                            discarded,
                            continued_at=(
                                None
                                if successor is None
                                else segments[successor].name
                            ),
                        )
                    )
                    if successor is None:
                        return
                    index = successor
                    break
                self.read_records += 1
                next_seq = max(next_seq, entry.seq + 1)
                if entry.seq > after_seq:
                    yield entry

    @staticmethod
    def _parse_line(
        line: Union[str, bytes],
    ) -> Tuple[Optional[JournalEntry], str]:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                reason = f"{exc.reason} at byte {exc.start}"
                return None, f"undecodable record ({reason})"
        stripped = line.strip()
        if not stripped:
            return None, "blank record"
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            return None, f"unparseable JSON ({exc.msg})"
        if not isinstance(data, dict):
            return None, "record is not an object"
        try:
            seq, admitted, rung = data["seq"], data["admitted"], data.get("rung")
            if not isinstance(seq, int) or isinstance(seq, bool):
                raise _wrong("seq", seq, "an integer")
            if not isinstance(admitted, bool):
                raise _wrong("admitted", admitted, "a boolean")
            if rung is not None and not isinstance(rung, str):
                raise _wrong("rung", rung, "a string")
            return (
                JournalEntry(
                    seq=seq,
                    admitted=admitted,
                    rung=rung,
                    raw=raw_from_json(data["raw"]),
                ),
                "",
            )
        except (KeyError, TypeError, ValueError) as exc:
            return None, f"malformed record ({exc!r})"


def _read_lines(path: pathlib.Path) -> List[bytes]:
    """A segment's lines as bytes: each is decoded on its own, so one bad
    byte is one defective record, not an unreadable segment."""
    with open(path, "rb") as handle:
        return handle.read().splitlines()
