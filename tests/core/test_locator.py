"""Tests for the locator: Algorithms 1-3 and connectivity grouping."""

import pytest

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.config import IncidentThresholds, SkyNetConfig
from repro.core.incident import IncidentStatus
from repro.core.locator import Locator
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.hierarchy import Level, LocationPath
from repro.topology.network import DeviceRole


@pytest.fixture(scope="module")
def topo():
    return build_topology(TopologySpec())


@pytest.fixture()
def locator(topo):
    return Locator(topo, SkyNetConfig())


def structured(location, name, tool="snmp", level=AlertLevel.ROOT_CAUSE, t=0.0,
               device=None):
    return StructuredAlert(
        type_key=AlertTypeKey(tool, name),
        level=level,
        location=location,
        first_seen=t,
        last_seen=t,
        count=1,
        device=device,
    )


def device_alerts(topo, device_name, names, t=0.0, level=AlertLevel.ROOT_CAUSE):
    location = topo.device(device_name).location
    return [
        structured(location, name, level=level, t=t, device=device_name)
        for name in names
    ]


def a_switch(topo, index=0):
    return sorted(
        d.name for d in topo.devices.values() if d.role is DeviceRole.CLUSTER_SWITCH
    )[index]


class TestThresholdTriggering:
    def test_no_incident_below_threshold(self, topo, locator):
        for alert in device_alerts(topo, a_switch(topo), ["link_down"], t=1.0):
            locator.feed(alert)
        result = locator.sweep(5.0)
        assert result.opened == []

    def test_five_any_types_trigger(self, topo, locator):
        names = ["t1", "t2", "t3", "t4", "t5"]
        for alert in device_alerts(topo, a_switch(topo), names, t=1.0):
            locator.feed(alert)
        result = locator.sweep(5.0)
        assert len(result.opened) == 1
        assert result.opened[0].root == topo.device(a_switch(topo)).location

    def test_two_failures_trigger(self, topo, locator):
        alerts = device_alerts(
            topo, a_switch(topo), ["f1", "f2"], t=1.0, level=AlertLevel.FAILURE
        )
        for alert in alerts:
            locator.feed(alert)
        assert len(locator.sweep(5.0).opened) == 1

    def test_one_failure_two_other_trigger(self, topo, locator):
        dev = a_switch(topo)
        locator.feed(
            device_alerts(topo, dev, ["f1"], t=1.0, level=AlertLevel.FAILURE)[0]
        )
        for alert in device_alerts(topo, dev, ["o1", "o2"], t=1.0):
            locator.feed(alert)
        assert len(locator.sweep(5.0).opened) == 1

    def test_duplicate_types_counted_once(self, topo, locator):
        dev = a_switch(topo)
        # the same type arriving five times is ONE type
        for t in range(5):
            locator.feed(
                device_alerts(topo, dev, ["same"], t=float(t))[0]
            )
        assert locator.sweep(10.0).opened == []

    def test_type_location_ablation_counts_per_location(self, topo):
        config = SkyNetConfig(count_by_type=False)
        locator = Locator(topo, config)
        # same type at five nearby devices: triggers only in ablation mode
        switches = sorted(
            d.name
            for d in topo.devices.values()
            if d.role in (DeviceRole.CLUSTER_SWITCH, DeviceRole.SITE_AGGREGATION)
        )[:5]
        for name in switches:
            locator.feed(device_alerts(topo, name, ["same"], t=1.0)[0])
        assert len(locator.sweep(5.0).opened) >= 1


class TestConnectivitySplit:
    def test_far_apart_groups_make_separate_incidents(self, topo, locator):
        switches = sorted(
            d.name
            for d in topo.devices.values()
            if d.role is DeviceRole.CLUSTER_SWITCH
        )
        near, far = switches[0], switches[-1]  # different regions
        for alert in device_alerts(topo, near, ["a", "b", "c", "d", "e"], t=1.0):
            locator.feed(alert)
        for alert in device_alerts(topo, far, ["a", "b", "c", "d", "e"], t=1.0):
            locator.feed(alert)
        opened = locator.sweep(5.0).opened
        assert len(opened) == 2
        roots = {i.root for i in opened}
        assert topo.device(near).location in roots
        assert topo.device(far).location in roots

    def test_adjacent_devices_group_into_one(self, topo, locator):
        dev = a_switch(topo)
        neighbour = topo.neighbors(dev)[0]
        for alert in device_alerts(topo, dev, ["a", "b", "c"], t=1.0):
            locator.feed(alert)
        for alert in device_alerts(topo, neighbour, ["d", "e"], t=1.0):
            locator.feed(alert)
        opened = locator.sweep(5.0).opened
        assert len(opened) == 1
        root = opened[0].root
        assert root.contains(topo.device(dev).location)
        assert root.contains(topo.device(neighbour).location)

    def test_structural_alerts_glued_by_parent_device(self, topo, locator):
        # internet-telemetry style: structural alerts at two sibling clusters
        # plus a device alert at their logic site -> one incident
        logic_site = next(
            l for l in topo.locations() if l.level is Level.LOGIC_SITE
        )
        clusters = [
            l
            for l in topo.locations()
            if l.level is Level.CLUSTER and logic_site.contains(l)
        ][:2]
        gateway = next(
            d
            for d in topo.devices_at(logic_site)
            if d.role is DeviceRole.INTERNET_GATEWAY
        )
        # two failure types across the clusters (the same type at both
        # clusters would count once, §4.2), plus a root-cause at the gateway
        locator.feed(
            structured(clusters[0], "internet_unreachable", tool="internet_telemetry",
                       level=AlertLevel.FAILURE, t=1.0)
        )
        locator.feed(
            structured(clusters[1], "internet_packet_loss", tool="internet_telemetry",
                       level=AlertLevel.FAILURE, t=1.0)
        )
        locator.feed(
            structured(gateway.location, "link_down", tool="snmp", t=1.0,
                       device=gateway.name)
        )
        opened = locator.sweep(5.0).opened
        assert len(opened) == 1
        assert opened[0].root == logic_site

    def test_disconnected_structural_clusters_stay_separate(self, topo, locator):
        clusters = [l for l in topo.locations() if l.level is Level.CLUSTER]
        a, b = clusters[0], clusters[-1]  # different regions
        for cluster in (a, b):
            for name in ("t1", "t2", "t3", "t4", "t5"):
                locator.feed(structured(cluster, name, t=1.0))
        assert len(locator.sweep(5.0).opened) == 2


class TestIncidentLifecycle:
    def _open_one(self, topo, locator, t=1.0):
        dev = a_switch(topo)
        for alert in device_alerts(topo, dev, ["a", "b", "c", "d", "e"], t=t):
            locator.feed(alert)
        opened = locator.sweep(t + 1).opened
        assert len(opened) == 1
        return opened[0], dev

    def test_followup_alerts_join_open_incident(self, topo, locator):
        incident, dev = self._open_one(topo, locator)
        locator.feed(device_alerts(topo, dev, ["late"], t=30.0)[0])
        locator.flush()  # feeds are buffered until a sweep or a read
        assert incident.update_time == 30.0
        assert incident.distinct_type_count() == 6

    def test_no_duplicate_incident_for_same_area(self, topo, locator):
        incident, dev = self._open_one(topo, locator)
        locator.feed(device_alerts(topo, dev, ["x"], t=40.0)[0])
        assert locator.sweep(45.0).opened == []

    def test_incident_closes_after_idle_timeout(self, topo, locator):
        incident, _ = self._open_one(topo, locator)
        timeout = locator.config.incident_timeout_s
        closed = locator.sweep(incident.update_time + timeout + 1).closed
        assert closed == [incident]
        assert incident.status is IncidentStatus.CLOSED

    def test_wider_incident_supersedes_narrow(self, topo, locator):
        incident, dev = self._open_one(topo, locator)
        # now alerts on a device two hops away but same site raise a wider group
        site_peer = next(
            n for n in topo.neighbors(dev)
            if topo.device(n).role is DeviceRole.SITE_AGGREGATION
        )
        for alert in device_alerts(topo, site_peer, ["p1", "p2", "p3", "p4", "p5"],
                                   t=20.0):
            locator.feed(alert)
        opened = locator.sweep(25.0).opened
        assert len(opened) == 1
        wider = opened[0]
        assert wider.root.contains(incident.root)
        assert incident.status is IncidentStatus.SUPERSEDED
        # alerts from the superseded incident were carried over
        assert wider.distinct_type_count() >= 10

    def test_expired_alerts_leave_main_tree(self, topo, locator):
        dev = a_switch(topo)
        locator.feed(device_alerts(topo, dev, ["a"], t=0.0)[0])
        result = locator.sweep(locator.config.node_timeout_s + 1)
        assert result.expired_records == 1
        assert len(locator.main_tree) == 0

    def test_incident_retrigger_after_everything_expires(self, topo, locator):
        incident, dev = self._open_one(topo, locator)
        horizon = incident.update_time + locator.config.incident_timeout_s + 1
        locator.sweep(horizon)
        assert not locator.open_incidents
        # a fresh burst opens a fresh incident
        for alert in device_alerts(topo, dev, ["a", "b", "c", "d", "e"], t=horizon + 10):
            locator.feed(alert)
        assert len(locator.sweep(horizon + 15).opened) == 1
