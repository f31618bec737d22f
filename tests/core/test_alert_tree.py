"""Tests for the main alert tree, including hypothesis invariants."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.alert_tree import AlertTree, record_from
from repro.topology.hierarchy import LocationPath

from ..reference_oracle import ReferenceAlertTree


def alert(loc=("r", "c"), name="link_down", t=0.0, count=1, level=AlertLevel.ROOT_CAUSE,
          device=None, is_device=False):
    return StructuredAlert(
        type_key=AlertTypeKey("snmp", name),
        level=level,
        location=LocationPath(loc, is_device=is_device),
        first_seen=t,
        last_seen=t,
        count=count,
        device=device,
    )


class TestInsertAndExpire:
    def test_insert_creates_node(self):
        tree = AlertTree()
        tree.insert(alert())
        assert LocationPath(("r", "c")) in tree
        assert len(tree) == 1

    def test_same_type_absorbs(self):
        tree = AlertTree()
        tree.insert(alert(t=0.0))
        record = tree.insert(alert(t=50.0, count=3))
        assert record.count == 4
        assert record.first_seen == 0.0
        assert record.last_seen == 50.0
        assert tree.total_records() == 1

    def test_different_types_coexist(self):
        tree = AlertTree()
        tree.insert(alert(name="link_down"))
        tree.insert(alert(name="port_down"))
        assert tree.total_records() == 2

    def test_expiry_removes_stale_records(self):
        tree = AlertTree()
        tree.insert(alert(t=0.0))
        tree.insert(alert(loc=("r", "x"), t=200.0))
        removed = tree.expire(now=400.0, timeout_s=300.0)
        assert removed == 1
        assert LocationPath(("r", "c")) not in tree
        assert LocationPath(("r", "x")) in tree

    def test_absorbing_refreshes_expiry(self):
        tree = AlertTree()
        tree.insert(alert(t=0.0))
        tree.insert(alert(t=250.0))
        assert tree.expire(now=400.0, timeout_s=300.0) == 0

    def test_pickle_written_without_expiry_heap_still_expires(self):
        """Checkpoints carry no version: a tree pickled while the heap
        was optional (and off) must get one on load, or nothing in it
        would ever expire."""
        walk = ReferenceAlertTree()  # pickles as that legacy AlertTree
        for i in range(12):
            walk.insert(alert(loc=("r", f"c{i % 5}"), name=f"t{i % 3}", t=40.0 * i))
        loaded = pickle.loads(pickle.dumps(walk))
        assert type(loaded) is AlertTree
        assert not hasattr(loaded, "_fast")
        for now in (350.0, 500.0, 640.0, 2000.0):
            assert loaded.expire(now, 300.0) == walk.expire(now, 300.0)
            assert loaded.locations() == walk.locations()
            assert loaded.structure_version == walk.structure_version
        assert len(loaded) == 0

    def test_empty_nodes_removed(self):
        tree = AlertTree()
        tree.insert(alert(t=0.0))
        tree.expire(now=1000.0, timeout_s=300.0)
        assert len(tree) == 0


class TestQueries:
    def test_records_under_subtree(self):
        tree = AlertTree()
        tree.insert(alert(loc=("r", "c", "l")))
        tree.insert(alert(loc=("r", "c"), name="port_down"))
        tree.insert(alert(loc=("r", "z"), name="rx_errors"))
        under = list(tree.records_under(LocationPath(("r", "c"))))
        assert {r.type_key.name for r in under} == {"link_down", "port_down"}

    def test_locations_under(self):
        tree = AlertTree()
        tree.insert(alert(loc=("r", "c", "l")))
        tree.insert(alert(loc=("r", "z")))
        assert tree.locations_under(LocationPath(("r", "c"))) == [
            LocationPath(("r", "c", "l"))
        ]

    def test_snapshot_is_deep_copy(self):
        tree = AlertTree()
        tree.insert(alert(t=0.0))
        snap = tree.snapshot_under(LocationPath(("r",)))
        tree.insert(alert(t=10.0))  # mutate the original
        record = snap[LocationPath(("r", "c"))][0]
        assert record.count == 1
        assert record.last_seen == 0.0

    def test_record_from_copies_metrics(self):
        a = alert()
        a.metrics["x"] = 1.0
        record = record_from(a)
        a.metrics["x"] = 9.0
        assert record.worst_metrics["x"] == 1.0


# -- property-based -----------------------------------------------------------

type_names = st.sampled_from(["a", "b", "c", "d"])
locs = st.sampled_from(
    [("r",), ("r", "c"), ("r", "c", "l"), ("r", "z"), ("q",)]
)
alerts = st.builds(
    alert,
    loc=locs,
    name=type_names,
    t=st.floats(min_value=0, max_value=1000),
    count=st.integers(min_value=1, max_value=5),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(alerts, max_size=40))
def test_prop_total_count_equals_sum_of_inserted(batch):
    tree = AlertTree()
    for a in batch:
        tree.insert(a)
    total = sum(r.count for loc in tree.locations() for r in tree.records_at(loc))
    assert total == sum(a.count for a in batch)


@settings(max_examples=60, deadline=None)
@given(st.lists(alerts, max_size=40), st.floats(min_value=0, max_value=2000))
def test_prop_expire_keeps_only_fresh(batch, now):
    tree = AlertTree()
    for a in batch:
        tree.insert(a)
    tree.expire(now, timeout_s=300.0)
    for loc in tree.locations():
        for record in tree.records_at(loc):
            assert now <= record.last_seen + 300.0


@settings(max_examples=60, deadline=None)
@given(st.lists(alerts, max_size=40))
def test_prop_records_under_root_is_everything(batch):
    tree = AlertTree()
    for a in batch:
        tree.insert(a)
    assert len(list(tree.records_under(LocationPath.root()))) == tree.total_records()
