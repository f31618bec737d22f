"""Location hierarchy of the cloud network (paper Figure 5b).

The whole network -- WAN plus data centers -- is organised as a strict
hierarchy::

    Root -> Region -> City -> Logic site -> Site -> Cluster -> Device

Every alert SkyNet processes is indexed by a :class:`LocationPath`, a path
from the root to some node of this hierarchy.  Devices may be attached at
*any* level (paper Figure 6 attaches Device iii directly to ``Logic site 2``),
so a device path is simply its parent location plus the device name as the
final segment.

Paths are immutable and hashable so they can key dictionaries and populate
sets; the locator's alert tree is indexed entirely by them.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple


class Level(enum.IntEnum):
    """Depth of a node in the location hierarchy.

    The integer value equals the number of path segments, so ``Level(len(
    segments))`` recovers the level of a pure (device-free) location path.
    """

    ROOT = 0
    REGION = 1
    CITY = 2
    LOGIC_SITE = 3
    SITE = 4
    CLUSTER = 5
    DEVICE = 6

    @property
    def child(self) -> "Level":
        """The next level down; raises ``ValueError`` below DEVICE."""
        if self is Level.DEVICE:
            raise ValueError("DEVICE is the lowest level")
        return Level(self.value + 1)

    @property
    def parent(self) -> "Level":
        """The next level up; raises ``ValueError`` above ROOT."""
        if self is Level.ROOT:
            raise ValueError("ROOT is the highest level")
        return Level(self.value - 1)


#: Maximum number of segments in a structural (non-device) path.
MAX_STRUCTURAL_DEPTH = Level.CLUSTER.value

#: Separator used by the paper's rendering, e.g.
#: ``Region A|City a|Logic site 2|Site I|Cluster ii``.
PATH_SEPARATOR = "|"


class LocationPath:
    """An immutable path from the hierarchy root to one location node.

    ``LocationPath(("RegionA", "CityA"))`` denotes a city; the empty path
    denotes the root.  Device paths carry the device name as their last
    segment and are flagged with ``is_device=True`` because a device may be
    attached at any structural level and depth alone cannot distinguish,
    say, a device attached to a site from a cluster.
    """

    __slots__ = ("_segments", "_is_device", "_hash")

    def __init__(self, segments: Sequence[str] = (), is_device: bool = False) -> None:
        segments = tuple(segments)
        for seg in segments:
            if not seg:
                raise ValueError("location segments must be non-empty strings")
            if PATH_SEPARATOR in seg:
                raise ValueError(
                    f"segment {seg!r} contains the path separator {PATH_SEPARATOR!r}"
                )
        if is_device and not segments:
            raise ValueError("a device path needs at least the device segment")
        structural_depth = len(segments) - (1 if is_device else 0)
        if structural_depth > MAX_STRUCTURAL_DEPTH:
            raise ValueError(
                f"path {segments!r} deeper than the {MAX_STRUCTURAL_DEPTH}-level hierarchy"
            )
        self._segments = segments
        self._is_device = is_device
        self._hash = hash((segments, is_device))

    # -- constructors ------------------------------------------------------

    @classmethod
    def root(cls) -> "LocationPath":
        """The hierarchy root (ancestor of every location)."""
        return _ROOT

    @classmethod
    def parse(cls, text: str, is_device: bool = False) -> "LocationPath":
        """Parse the paper's ``A|B|C`` rendering back into a path."""
        text = text.strip()
        if not text:
            return _ROOT
        return cls(tuple(seg.strip() for seg in text.split(PATH_SEPARATOR)), is_device)

    # -- basic accessors ---------------------------------------------------

    @property
    def segments(self) -> Tuple[str, ...]:
        return self._segments

    @property
    def is_device(self) -> bool:
        return self._is_device

    @property
    def is_root(self) -> bool:
        return not self._segments

    @property
    def name(self) -> str:
        """The final segment (the node's own name); '<root>' for the root."""
        return self._segments[-1] if self._segments else "<root>"

    @property
    def depth(self) -> int:
        return len(self._segments)

    @property
    def level(self) -> Level:
        """Hierarchy level of this node.

        Devices always report :attr:`Level.DEVICE` regardless of where they
        attach, matching the paper's treatment of device-level alerts.
        """
        if self._is_device:
            return Level.DEVICE
        return Level(len(self._segments))

    @property
    def structural_level(self) -> Level:
        """Level of the structural node this path lives under.

        For a device attached to a cluster this is CLUSTER; for a pure
        location it equals :attr:`level`.
        """
        if self._is_device:
            return Level(len(self._segments) - 1)
        return Level(len(self._segments))

    # -- navigation --------------------------------------------------------

    @property
    def parent(self) -> "LocationPath":
        """The immediately enclosing location; the root's parent is itself."""
        if not self._segments:
            return self
        return LocationPath(self._segments[:-1], is_device=False)

    def ancestors(self, include_self: bool = False) -> Iterator["LocationPath"]:
        """Yield enclosing locations from the root down to (optionally) self."""
        for depth in range(len(self._segments)):
            yield LocationPath(self._segments[:depth], is_device=False)
        if include_self:
            yield self

    def child(self, name: str, is_device: bool = False) -> "LocationPath":
        """Extend this path by one segment."""
        if self._is_device:
            raise ValueError("devices have no children in the location hierarchy")
        return LocationPath(self._segments + (name,), is_device=is_device)

    def truncate(self, level: Level) -> "LocationPath":
        """The enclosing location at ``level`` (must not be below this node)."""
        if level.value > self.structural_level.value:
            raise ValueError(f"cannot truncate {self} down to deeper level {level.name}")
        return LocationPath(self._segments[: level.value], is_device=False)

    def contains(self, other: "LocationPath") -> bool:
        """True when ``other`` lies in the subtree rooted at this node.

        A node contains itself.  A device contains only itself.
        """
        if self._is_device:
            return self == other
        if len(other._segments) < len(self._segments):
            return False
        return other._segments[: len(self._segments)] == self._segments

    def common_ancestor(self, other: "LocationPath") -> "LocationPath":
        """Deepest structural location containing both paths."""
        mine = self._segments if not self._is_device else self._segments[:-1]
        theirs = other._segments if not other._is_device else other._segments[:-1]
        common = 0
        for a, b in zip(mine, theirs):
            if a != b:
                break
            common += 1
        return LocationPath(mine[:common], is_device=False)

    # -- dunder protocol ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocationPath):
            return NotImplemented
        return self._segments == other._segments and self._is_device == other._is_device

    def __hash__(self) -> int:
        return self._hash

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        # a pickle carries the writing process's cached hash, but str hashes
        # are salted per process: a checkpoint resumed elsewhere must
        # rehash, or its paths miss the equal keys the new process builds
        slots = state[1]
        self._segments = slots["_segments"]
        self._is_device = slots["_is_device"]
        self._hash = hash((self._segments, self._is_device))

    def __lt__(self, other: "LocationPath") -> bool:
        if not isinstance(other, LocationPath):
            return NotImplemented
        return (self._segments, self._is_device) < (other._segments, other._is_device)

    def __len__(self) -> int:
        return len(self._segments)

    def __str__(self) -> str:
        return PATH_SEPARATOR.join(self._segments) if self._segments else "<root>"

    def __repr__(self) -> str:
        kind = "device" if self._is_device else "location"
        return f"LocationPath({str(self)!r}, {kind})"


_ROOT = LocationPath(())


def lowest_common_ancestor(paths: Sequence[LocationPath]) -> LocationPath:
    """Deepest structural location containing every path in ``paths``."""
    if not paths:
        raise ValueError("need at least one path")
    acc: Optional[LocationPath] = None
    for path in paths:
        acc = path if acc is None else acc.common_ancestor(path)
        if acc.is_root:
            break
    assert acc is not None
    return acc
