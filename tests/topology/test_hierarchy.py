"""Unit tests for the location hierarchy (LocationPath and Level)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.topology.hierarchy import (
    Level,
    LocationPath,
    lowest_common_ancestor,
)


def path(*segments, device=False):
    return LocationPath(segments, is_device=device)


class TestLevel:
    def test_values_match_depth(self):
        assert Level.ROOT.value == 0
        assert Level.REGION.value == 1
        assert Level.CLUSTER.value == 5
        assert Level.DEVICE.value == 6

    def test_child_of_region_is_city(self):
        assert Level.REGION.child is Level.CITY

    def test_parent_of_city_is_region(self):
        assert Level.CITY.parent is Level.REGION

    def test_device_has_no_child(self):
        with pytest.raises(ValueError):
            Level.DEVICE.child

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            Level.ROOT.parent


class TestConstruction:
    def test_root_is_empty(self):
        assert LocationPath.root().is_root
        assert LocationPath.root().depth == 0

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            path("a", "")

    def test_separator_in_segment_rejected(self):
        with pytest.raises(ValueError):
            path("a|b")

    def test_device_needs_segments(self):
        with pytest.raises(ValueError):
            LocationPath((), is_device=True)

    def test_too_deep_structural_path_rejected(self):
        with pytest.raises(ValueError):
            path("a", "b", "c", "d", "e", "f")

    def test_device_at_max_depth_allowed(self):
        p = path("a", "b", "c", "d", "e", "dev", device=True)
        assert p.level is Level.DEVICE

    def test_parse_round_trips(self):
        p = LocationPath.parse("Region A|City a|Logic site 2")
        assert p.segments == ("Region A", "City a", "Logic site 2")
        assert str(p) == "Region A|City a|Logic site 2"

    def test_parse_empty_gives_root(self):
        assert LocationPath.parse("") == LocationPath.root()


class TestNavigation:
    def test_level_of_structural_path(self):
        assert path("r").level is Level.REGION
        assert path("r", "c").level is Level.CITY
        assert path("r", "c", "l", "s", "cl").level is Level.CLUSTER

    def test_device_level_is_device_regardless_of_depth(self):
        assert path("r", "dev", device=True).level is Level.DEVICE
        assert path("r", "c", "l", "dev", device=True).level is Level.DEVICE

    def test_structural_level_of_device(self):
        assert path("r", "c", "dev", device=True).structural_level is Level.CITY

    def test_parent(self):
        assert path("r", "c").parent == path("r")
        assert path("r", "c", "dev", device=True).parent == path("r", "c")

    def test_root_parent_is_itself(self):
        assert LocationPath.root().parent == LocationPath.root()

    def test_ancestors_order(self):
        p = path("r", "c", "l")
        assert list(p.ancestors()) == [LocationPath.root(), path("r"), path("r", "c")]

    def test_ancestors_include_self(self):
        p = path("r", "c")
        assert list(p.ancestors(include_self=True))[-1] == p

    def test_child_extends(self):
        assert path("r").child("c") == path("r", "c")

    def test_device_has_no_children(self):
        with pytest.raises(ValueError):
            path("r", "dev", device=True).child("x")

    def test_truncate(self):
        p = path("r", "c", "l", "s")
        assert p.truncate(Level.CITY) == path("r", "c")
        assert p.truncate(Level.SITE) == p

    def test_truncate_below_raises(self):
        with pytest.raises(ValueError):
            path("r").truncate(Level.CITY)

    def test_truncate_device_to_parent_levels(self):
        p = path("r", "c", "dev", device=True)
        assert p.truncate(Level.CITY) == path("r", "c")


class TestContainment:
    def test_contains_self(self):
        p = path("r", "c")
        assert p.contains(p)

    def test_contains_descendant(self):
        assert path("r").contains(path("r", "c", "l"))

    def test_not_contains_sibling(self):
        assert not path("r", "c1").contains(path("r", "c2"))

    def test_root_contains_everything(self):
        assert LocationPath.root().contains(path("x", "y"))

    def test_device_contains_only_itself(self):
        d = path("r", "dev", device=True)
        assert d.contains(d)
        assert not d.contains(path("r", "dev"))

    def test_structural_contains_device_inside(self):
        assert path("r").contains(path("r", "dev", device=True))

    def test_common_ancestor(self):
        a = path("r", "c", "l1")
        b = path("r", "c", "l2")
        assert a.common_ancestor(b) == path("r", "c")

    def test_common_ancestor_disjoint_is_root(self):
        assert path("r1").common_ancestor(path("r2")).is_root

    def test_common_ancestor_of_devices_is_structural(self):
        a = path("r", "c", "d1", device=True)
        b = path("r", "c", "d2", device=True)
        assert a.common_ancestor(b) == path("r", "c")

    def test_lowest_common_ancestor_multi(self):
        paths = [path("r", "c", "l1"), path("r", "c", "l2"), path("r", "c")]
        assert lowest_common_ancestor(paths) == path("r", "c")

    def test_lowest_common_ancestor_single(self):
        assert lowest_common_ancestor([path("r", "c")]) == path("r", "c")

    def test_lowest_common_ancestor_empty_raises(self):
        with pytest.raises(ValueError):
            lowest_common_ancestor([])


class TestDunder:
    def test_equality_and_hash(self):
        assert path("r", "c") == path("r", "c")
        assert hash(path("r", "c")) == hash(path("r", "c"))

    def test_device_flag_distinguishes(self):
        assert path("r", "x") != path("r", "x", device=True)

    def test_ordering(self):
        assert path("a") < path("b")
        assert path("a") < path("a", "b")

    def test_len_is_depth(self):
        assert len(path("a", "b")) == 2

    def test_repr_mentions_kind(self):
        assert "device" in repr(path("r", "d", device=True))

    def test_unpickled_path_rehashes_in_the_reading_process(self):
        """A checkpoint pickles each path with its cached hash, but str
        hashes are salted per process: a resume in a new process must
        rehash or its restored paths miss the equal keys it builds."""
        written = path("r", "c", "d", device=True)
        written._hash ^= 1  # as cached under another process's salt
        restored = pickle.loads(pickle.dumps(written))
        fresh = path("r", "c", "d", device=True)
        assert hash(restored) == hash(fresh)
        assert {restored: "found"}[fresh] == "found"


# -- property-based ---------------------------------------------------------

segment = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=8,
)
segments = st.lists(segment, min_size=0, max_size=5)


@given(segments)
def test_prop_ancestors_all_contain(segs):
    p = LocationPath(segs)
    for anc in p.ancestors(include_self=True):
        assert anc.contains(p)


@given(segments, segments)
def test_prop_common_ancestor_contains_both(a, b):
    pa, pb = LocationPath(a), LocationPath(b)
    ca = pa.common_ancestor(pb)
    assert ca.contains(pa) and ca.contains(pb)


@given(segments, segments)
def test_prop_common_ancestor_commutes(a, b):
    pa, pb = LocationPath(a), LocationPath(b)
    assert pa.common_ancestor(pb) == pb.common_ancestor(pa)


@given(segments)
def test_prop_truncate_to_own_level_is_identity(segs):
    p = LocationPath(segs)
    assert p.truncate(p.level if not p.is_device else p.structural_level) == p


@given(segments, segments)
def test_prop_containment_antisymmetric_unless_equal(a, b):
    pa, pb = LocationPath(a), LocationPath(b)
    if pa.contains(pb) and pb.contains(pa):
        assert pa == pb
