"""Tests for the synthetic topology generator."""

import pytest

from repro.topology.builder import TopologySpec, build_topology
from repro.topology.hierarchy import Level
from repro.topology.network import INTERNET, DeviceRole


class TestSpecValidation:
    def test_rejects_zero_regions(self):
        with pytest.raises(ValueError):
            TopologySpec(regions=0)

    def test_rejects_negative_servers(self):
        with pytest.raises(ValueError):
            TopologySpec(servers_per_cluster=-1)

    def test_tiny_and_benchmark_build(self):
        assert build_topology(TopologySpec.tiny()).stats()["devices"] > 0
        assert build_topology(TopologySpec.benchmark()).stats()["devices"] > 100


class TestStructure:
    @pytest.fixture(scope="class")
    def topo(self):
        return build_topology(TopologySpec())

    def test_location_counts(self, topo):
        spec = TopologySpec()
        regions = [l for l in topo.locations() if l.level is Level.REGION]
        clusters = [l for l in topo.locations() if l.level is Level.CLUSTER]
        assert len(regions) == spec.regions
        expected_clusters = (
            spec.regions
            * spec.cities_per_region
            * spec.logic_sites_per_city
            * spec.sites_per_logic_site
            * spec.clusters_per_site
        )
        assert len(clusters) == expected_clusters

    def test_redundant_devices_per_level(self, topo):
        spec = TopologySpec()
        for loc in topo.locations():
            if loc.level is Level.SITE:
                csrs = [
                    d
                    for d in topo.devices_at(loc)
                    if d.role is DeviceRole.SITE_AGGREGATION
                ]
                assert len(csrs) == spec.router_redundancy

    def test_every_cluster_has_servers_and_switches(self, topo):
        spec = TopologySpec()
        for loc in topo.locations():
            if loc.level is Level.CLUSTER:
                assert len(topo.servers_in(loc)) == spec.servers_per_cluster
                switches = [
                    d
                    for d in topo.devices_at(loc)
                    if d.role is DeviceRole.CLUSTER_SWITCH
                ]
                assert len(switches) == spec.switches_per_cluster

    def test_internet_entrances_per_logic_site(self, topo):
        spec = TopologySpec()
        logic_sites = [l for l in topo.locations() if l.level is Level.LOGIC_SITE]
        gateways = topo.internet_gateways()
        assert len(gateways) == len(logic_sites) * spec.internet_gateways_per_logic_site

    def test_internet_circuit_sizing(self, topo):
        spec = TopologySpec()
        for cs in topo.circuit_sets.values():
            if INTERNET in cs.endpoints:
                assert len(cs.circuits) == spec.internet_circuits_per_gateway
                assert cs.circuits[0].capacity_gbps == spec.internet_circuit_capacity_gbps
            else:
                assert cs.circuits[0].capacity_gbps == spec.circuit_capacity_gbps

    def test_wan_mesh_connects_all_region_pairs(self, topo):
        backbones = {
            d.name: d.parent_location
            for d in topo.devices.values()
            if d.role is DeviceRole.REGION_BACKBONE
        }
        region_pairs = set()
        for cs in topo.circuit_sets.values():
            ends = sorted(cs.endpoints)
            if all(e in backbones for e in ends):
                ra, rb = backbones[ends[0]], backbones[ends[1]]
                if ra != rb:
                    region_pairs.add(frozenset((ra, rb)))
        regions = sorted(set(backbones.values()), key=str)
        expected = {
            frozenset((a, b))
            for i, a in enumerate(regions)
            for b in regions[i + 1 :]
        }
        assert region_pairs == expected

    def test_device_graph_is_connected(self, topo):
        graph = topo.device_graph()
        start = next(iter(graph))
        seen, frontier = {start}, [start]
        while frontier:
            for nbr in graph[frontier.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        assert seen == set(topo.devices)

    def test_deterministic_for_same_spec(self):
        a = build_topology(TopologySpec())
        b = build_topology(TopologySpec())
        assert sorted(a.devices) == sorted(b.devices)
        assert sorted(a.circuit_sets) == sorted(b.circuit_sets)

    def test_devices_grouped_for_redundancy(self, topo):
        for device in topo.devices.values():
            peers = topo.devices_in_group(device.group)
            assert device in peers
            for peer in peers:
                assert peer.role is device.role
                assert peer.parent_location == device.parent_location
