"""Unit tests for devices, circuit sets and the Topology container."""

import pytest

from repro.topology.hierarchy import Level, LocationPath
from repro.topology.network import (
    INTERNET,
    Circuit,
    CircuitSet,
    Device,
    DeviceRole,
    Server,
    Topology,
)


def loc(*segs):
    return LocationPath(segs)


def make_device(name, parent, role=DeviceRole.CLUSTER_SWITCH, group="g"):
    return Device(
        name=name, role=role, location=parent.child(name, is_device=True), group=group
    )


@pytest.fixture()
def small_topo():
    topo = Topology()
    cluster = loc("r", "c", "l", "s", "cl")
    site = loc("r", "c", "l", "s")
    topo.add_device(make_device("sw1", cluster))
    topo.add_device(make_device("sw2", cluster))
    topo.add_device(make_device("agg1", site, role=DeviceRole.SITE_AGGREGATION))
    topo.add_circuit_set(
        CircuitSet("cs1", "sw1", "agg1", [Circuit("cs1/c1"), Circuit("cs1/c2")])
    )
    topo.add_circuit_set(CircuitSet("cs2", "sw2", "agg1", [Circuit("cs2/c1")]))
    topo.add_circuit_set(CircuitSet("inet", "agg1", INTERNET, [Circuit("inet/c1")]))
    topo.add_server(Server("srv1", cluster, "sw1"))
    return topo


class TestDevice:
    def test_requires_device_flagged_path(self):
        with pytest.raises(ValueError):
            Device("d", DeviceRole.CLUSTER_SWITCH, loc("r", "d"))

    def test_path_must_end_with_name(self):
        with pytest.raises(ValueError):
            Device(
                "d",
                DeviceRole.CLUSTER_SWITCH,
                loc("r").child("other", is_device=True),
            )

    def test_parent_location(self, small_topo):
        assert small_topo.device("sw1").parent_location == loc("r", "c", "l", "s", "cl")

    def test_role_levels(self):
        assert DeviceRole.REGION_BACKBONE.level is Level.REGION
        assert DeviceRole.CLUSTER_SWITCH.level is Level.CLUSTER


class TestServer:
    def test_server_must_live_in_cluster(self):
        with pytest.raises(ValueError):
            Server("s", loc("r", "c"), "sw1")

    def test_server_switch_must_exist(self, small_topo):
        with pytest.raises(KeyError):
            small_topo.add_server(Server("s2", loc("r", "c", "l", "s", "cl"), "nope"))


class TestCircuitSet:
    def test_needs_circuits(self):
        with pytest.raises(ValueError):
            CircuitSet("x", "a", "b", [])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            CircuitSet("x", "a", "a", [Circuit("c")])

    def test_total_capacity(self):
        cs = CircuitSet(
            "x", "a", "b", [Circuit("c1", 10.0), Circuit("c2", 30.0)]
        )
        assert cs.total_capacity_gbps == 40.0

    def test_other_end(self, small_topo):
        cs = small_topo.circuit_set("cs1")
        assert cs.other_end("sw1") == "agg1"
        assert cs.other_end("agg1") == "sw1"
        with pytest.raises(KeyError):
            cs.other_end("zzz")


class TestTopology:
    def test_duplicate_device_rejected(self, small_topo):
        with pytest.raises(ValueError):
            small_topo.add_device(make_device("sw1", loc("r", "c", "l", "s", "cl")))

    def test_internet_name_reserved(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_device(make_device(INTERNET, loc("r")))

    def test_circuit_set_unknown_endpoint(self, small_topo):
        with pytest.raises(KeyError):
            small_topo.add_circuit_set(
                CircuitSet("bad", "sw1", "ghost", [Circuit("b/c1")])
            )

    def test_devices_at_exact_location(self, small_topo):
        names = {d.name for d in small_topo.devices_at(loc("r", "c", "l", "s", "cl"))}
        assert names == {"sw1", "sw2"}

    def test_devices_under_subtree(self, small_topo):
        names = {d.name for d in small_topo.devices_under(loc("r", "c", "l", "s"))}
        assert names == {"sw1", "sw2", "agg1"}

    def test_devices_under_device_path(self, small_topo):
        dev = small_topo.device("sw1")
        assert [d.name for d in small_topo.devices_under(dev.location)] == ["sw1"]

    def test_neighbors_skip_internet(self, small_topo):
        assert set(small_topo.neighbors("agg1")) == {"sw1", "sw2"}

    def test_internet_gateways(self, small_topo):
        assert [d.name for d in small_topo.internet_gateways()] == ["agg1"]

    def test_circuit_sets_under(self, small_topo):
        ids = {cs.set_id for cs in small_topo.circuit_sets_under(loc("r"))}
        assert ids == {"cs1", "cs2", "inet"}

    def test_locations_iterates_top_down(self, small_topo):
        locations = list(small_topo.locations())
        assert locations[0].is_root
        seen = set()
        for location in locations:
            if not location.is_root:
                assert location.parent in seen
            seen.add(location)

    def test_servers_in(self, small_topo):
        assert [s.name for s in small_topo.servers_in(loc("r", "c", "l", "s", "cl"))] == [
            "srv1"
        ]

    def test_device_graph_excludes_internet(self, small_topo):
        graph = small_topo.device_graph()
        assert INTERNET not in graph
        assert all(INTERNET not in nbrs for nbrs in graph.values())
        assert "agg1" in graph["sw1"] and "sw1" in graph["agg1"]

    def test_stats(self, small_topo):
        stats = small_topo.stats()
        assert stats["devices"] == 3
        assert stats["circuit_sets"] == 3
        assert stats["circuits"] == 4


class TestConnectedComponents:
    def test_adjacent_devices_group(self, small_topo):
        groups = small_topo.connected_device_components(["sw1", "agg1"])
        assert groups == [frozenset({"sw1", "agg1"})]

    def test_two_hop_devices_group(self, small_topo):
        # sw1 -- agg1 -- sw2: two hops
        groups = small_topo.connected_device_components(["sw1", "sw2"], max_hops=2)
        assert groups == [frozenset({"sw1", "sw2"})]

    def test_one_hop_limit_splits(self, small_topo):
        groups = small_topo.connected_device_components(["sw1", "sw2"], max_hops=1)
        assert len(groups) == 2

    def test_unknown_devices_ignored(self, small_topo):
        groups = small_topo.connected_device_components(["sw1", "ghost"])
        assert groups == [frozenset({"sw1"})]

    def test_isolated_device_in_real_fabric(self, default_topology):
        # a cluster switch in one region vs one in another: never connected
        switches = sorted(
            d.name
            for d in default_topology.devices.values()
            if d.role is DeviceRole.CLUSTER_SWITCH
        )
        a, b = switches[0], switches[-1]
        groups = default_topology.connected_device_components([a, b])
        assert len(groups) == 2
