"""An executable reading of the paper that is not our own code.

Every other differential suite compares production against the moved
reference implementation (``tests/reference_oracle.py``) -- our code
against our code.  This module is a brute-force transcription of §4.2's
Algorithms 1-3 (insert, generate under the ``2/1+2/5`` clauses within
the connected area, 5- and 15-minute timeouts) written from the paper
and DESIGN.md's connectivity rules alone: flat dicts and sets, no tree,
no heap, no memo, O(n^2) everywhere.  Hypothesis drives it and the
production :class:`Locator` over the same small alert streams and the
incident roots, member sets and open/close times must agree.  Equations
1-3 are checked against two Table-3-style cases worked by hand.
"""

from __future__ import annotations

import types
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.evaluator import Evaluator
from repro.core.incident import Incident
from repro.core.locator import Locator
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.hierarchy import LocationPath

NODE_TIMEOUT_S = 300.0  # §4.2: main-tree alerts live five minutes
INCIDENT_TIMEOUT_S = 900.0  # §4.2: incident trees close after fifteen idle
SWEEP_EVERY_S = 10.0
MAX_HOPS = 2
GLUE_MIN_DEPTH = 3  # devices at logic-site level or deeper glue their area

Member = Tuple[LocationPath, AlertTypeKey]
Print = Tuple[LocationPath, str, float, float, Optional[float], FrozenSet[Member]]


def _inside(outer: LocationPath, inner: LocationPath) -> bool:
    """``inner`` lies in ``outer``'s subtree; a device holds only itself."""
    if outer.is_device:
        return outer == inner
    return inner.segments[: len(outer.segments)] == outer.segments


class SpecIncident:
    def __init__(self, root: LocationPath, now: float, seeds: Dict[Member, float]) -> None:
        self.root, self.created, self.status = root, now, "OPEN"
        self.members: Set[Member] = set(seeds)
        self.updated = max(seeds.values())
        self.closed: Optional[float] = None


class SpecLocator:
    """Algorithms 1-3 over ``live``: (location, type) -> (level, last seen)."""

    def __init__(self, topo) -> None:
        self.live: Dict[Member, Tuple[AlertLevel, float]] = {}
        self.open: List[SpecIncident] = []
        self.done: List[SpecIncident] = []
        self.near: Dict[str, Set[str]] = {}  # device -> devices within MAX_HOPS
        for name in topo.devices:
            reach, edge = {name}, {name}
            for _ in range(MAX_HOPS):
                edge = {n for d in edge for n in topo.neighbors(d)} - reach
                reach |= edge
            self.near[name] = reach

    def feed(self, alert: StructuredAlert) -> None:  # Algorithm 1
        key = (alert.location, alert.type_key)
        for incident in self.open:
            if _inside(incident.root, alert.location):
                incident.members.add(key)
                incident.updated = max(incident.updated, alert.last_seen)
        seen = self.live.get(key, (alert.level, alert.last_seen))[1]
        self.live[key] = (alert.level, max(seen, alert.last_seen))

    def _linked(self, a: LocationPath, b: LocationPath) -> bool:
        if a.is_device and b.is_device:
            return b.name in self.near[a.name]
        if not a.is_device and not b.is_device:
            return _inside(a, b) or _inside(b, a)
        dev, area = (a, b) if a.is_device else (b, a)
        served = LocationPath(dev.segments[:-1])
        glues = len(served.segments) >= GLUE_MIN_DEPTH
        return _inside(area, dev) or (glues and _inside(served, area))

    def sweep(self, now: float) -> None:
        for key, (_, seen) in list(self.live.items()):  # Algorithm 3, nodes
            if now > seen + NODE_TIMEOUT_S:
                del self.live[key]
        for incident in list(self.open):  # Algorithm 3, incidents
            if now > incident.updated + INCIDENT_TIMEOUT_S:
                self._end(incident, now, "CLOSED")
        places = sorted({loc for loc, _ in self.live})  # Algorithm 2
        groups: List[Set[LocationPath]] = []
        for place in places:
            joined = [g for g in groups if any(self._linked(place, m) for m in g)]
            for g in joined:
                groups.remove(g)
            groups.append({place}.union(*joined))
        rooted = [(self._root(g), g) for g in groups]
        for root, group in sorted(rooted, key=lambda rg: (len(rg[0].segments), rg[0])):
            if any(_inside(inc.root, root) for inc in self.open):
                continue
            kinds = {(t, lvl) for (loc, t), (lvl, _) in self.live.items() if loc in group}
            failures = sum(1 for _, lvl in kinds if lvl is AlertLevel.FAILURE)
            others = len(kinds) - failures
            if not (failures >= 2 or (failures >= 1 and others >= 2) or len(kinds) >= 5):
                continue
            seeds = {k: seen for k, (_, seen) in self.live.items() if _inside(root, k[0])}
            incident = SpecIncident(root, now, seeds)
            for old in [i for i in self.open if _inside(root, i.root)]:
                incident.members |= old.members
                incident.created = min(incident.created, old.created)
                incident.updated = max(incident.updated, old.updated)
                self._end(old, now, "SUPERSEDED")
            self.open.append(incident)

    def _end(self, incident: SpecIncident, now: float, status: str) -> None:
        incident.status, incident.closed = status, now
        self.open.remove(incident)
        self.done.append(incident)

    @staticmethod
    def _root(group: Set[LocationPath]) -> LocationPath:
        if len(group) == 1:
            return next(iter(group))
        paths = [m.segments[:-1] if m.is_device else m.segments for m in group]
        depth = 0
        while all(len(p) > depth and p[depth] == paths[0][depth] for p in paths):
            depth += 1
        return LocationPath(paths[0][:depth])

    def prints(self) -> List[Print]:
        return sorted(
            (i.root, i.status, i.created, i.updated, i.closed, frozenset(i.members))
            for i in self.done + self.open
        )


def _production_prints(locator: Locator) -> List[Print]:
    return sorted(
        (
            i.root, i.status.name, i.created_at, i.update_time, i.closed_at,
            frozenset((r.location, r.type_key) for r in i.records()),
        )
        for i in locator.all_incidents()
    )


# -- Hypothesis: production vs the spec on tiny-fabric streams --------------------

_TOPO = build_topology(TopologySpec.tiny())
_PLACES = sorted(d.location for d in _TOPO.devices.values()) + sorted(_TOPO.locations())
_TYPES = [
    ("ping", "loss", AlertLevel.FAILURE),
    ("traceroute", "path_loss", AlertLevel.FAILURE),
    ("internet", "probe_loss", AlertLevel.FAILURE),
    ("snmp", "link_down", AlertLevel.ABNORMAL),
    ("syslog", "bgp_flap", AlertLevel.ABNORMAL),
    ("snmp", "crc_errors", AlertLevel.ABNORMAL),
    ("snmp", "cpu_high", AlertLevel.ABNORMAL),
    ("traffic_statistics", "rate_drop", AlertLevel.ABNORMAL),
    ("oob", "dev_down", AlertLevel.ROOT_CAUSE),
]


@st.composite
def _streams(draw):
    """<= 30 alerts, most of them on a few hot places: a stream spread
    evenly over the fabric never crosses a threshold."""
    hot = st.sampled_from(draw(st.lists(st.sampled_from(_PLACES), min_size=1, max_size=4)))
    step = st.tuples(
        st.sampled_from([0.0, 1.0, 4.0, 12.0, 12.0, 45.0, 280.0, 320.0, 950.0]),  # gap
        st.one_of(hot, hot, hot, st.sampled_from(_PLACES)),
        st.sampled_from(_TYPES),
        st.sampled_from([0.0, 0.0, 20.0, 250.0]),  # a delayed source reports late
    )
    return draw(st.lists(step, min_size=4, max_size=30))


def _burst(place: LocationPath, kinds: List[int], gap: float = 12.0):
    return [(gap, place, _TYPES[k], 0.0) for k in kinds]


_CLUSTER = next(p for p in _PLACES if not p.is_device and len(p.segments) == 5)
_SWITCH = next(p for p in _PLACES if p.is_device and _CLUSTER.contains(p))
_SITE_ROUTER = next(
    p for p in _PLACES if p.is_device and p.segments[:-1] == _CLUSTER.segments[:-1]
)


@settings(max_examples=200, deadline=None)
@given(steps=_streams())
# the clause boundaries random streams rarely sit on: four non-failure
# types stay quiet and the fifth opens ("/5"); one failure needs two
# others ("1+2"); a device incident is superseded by its site's
@example(steps=_burst(_CLUSTER, [3, 4, 5, 6]))
@example(steps=_burst(_CLUSTER, [3, 4, 5, 6, 7]))
@example(steps=_burst(_CLUSTER, [0, 3]))
@example(steps=_burst(_CLUSTER, [0, 3, 4]))
@example(steps=_burst(_SWITCH, [0, 1]) + _burst(_SITE_ROUTER, [2, 3]))
def test_locator_agrees_with_the_paper_spec(steps):
    production, spec = Locator(_TOPO), SpecLocator(_TOPO)
    now, last_sweep = 0.0, float("-inf")

    def sweep(t: float) -> None:
        production.sweep(t)
        spec.sweep(t)

    for gap, place, (tool, name, level), lag in steps:
        now += gap
        seen = max(0.0, now - lag)
        alert = StructuredAlert(
            type_key=AlertTypeKey(tool, name), level=level, location=place,
            first_seen=seen, last_seen=seen,
            device=place.name if place.is_device else None,
        )
        production.feed(alert)
        spec.feed(alert)
        if now - last_sweep >= SWEEP_EVERY_S:
            sweep(now)
            last_sweep = now
    sweep(now)
    sweep(now + INCIDENT_TIMEOUT_S + SWEEP_EVERY_S)
    assert _production_prints(production) == spec.prints()
    assert not spec.open and not spec.live


# -- Equations 1-3 against cases worked by hand -----------------------------------


def _incident(loss: float, duration: float) -> Incident:
    incident = Incident(root=LocationPath(("r",)), created_at=0.0, seed_nodes={})
    incident.add(
        StructuredAlert(
            type_key=AlertTypeKey("ping", "loss"), level=AlertLevel.FAILURE,
            location=LocationPath(("r",)), first_seen=0.0, last_seen=duration,
            metrics={"loss_rate": loss},
        )
    )
    return incident


def test_severity_without_traffic_data_by_hand():
    """R = 0.3, dT = 300 s, U = 0 and no circuit-set data, so I = 1.

    Sig(0) = 600 / (1 + e^3) = 28.4555;  T = 5.5 * ln(328.4555) / ln(1/0.3)
    = 5.5 * 5.79440 / 1.20397 = 26.4700;  y = I * T = 26.4700."""
    topo = types.SimpleNamespace(version=0, circuit_sets_under=lambda root: [])
    got = Evaluator(topo).evaluate(_incident(loss=0.3, duration=300.0))
    assert got.impact_factor == 1.0
    assert got.time_factor == pytest.approx(26.4700, abs=1e-3)
    assert got.score == pytest.approx(26.4700, abs=1e-3)


def test_severity_with_circuit_sets_by_hand():
    """Table 3 filled in for two circuit sets under the incident.

    A: 2 of 4 circuits broken (d = 0.5); 4 customers of mean importance 2
       (g = 2, u = 4), 2 of them important; 4 SLA flows of 10 Gbps limit
       10, two on routes losing 20% and 40% (l = 0.5, shortfalls 0.2, 0.4).
    B: d = 0.25; 2 customers of importance 1 (g = 1, u = 2), 1 important;
       no SLA flows (l = 0).
    Eq. 1: I = max(1, 0.5*2*4 + 0.5*2*4 + 0.25*1*2 + 0) = 8.5
    Eq. 2: R = 0.1, L = max(mean(0.2, 0.4), 0) = 0.3, dT = 600, U = 3,
           Sig(3) = 600 / (1 + e^0) = 300, argument = 900;
           T = 5.5 * max(ln 900 / ln 10, ln 900 / ln(1/0.3))
             = 5.5 * max(2.95424, 5.64996) = 31.0748
    Eq. 3: y = 8.5 * 31.0748 = 264.135"""
    ns = types.SimpleNamespace
    customers = {
        "A": [ns(customer_id=f"a{i}", importance=2.0, is_important=i < 2) for i in range(4)],
        "B": [ns(customer_id=f"b{i}", importance=1.0, is_important=i < 1) for i in range(2)],
    }
    flows = {
        "A": [ns(flow_id=f"f{i}", rate_gbps=10.0, sla_limit_gbps=10.0) for i in range(4)],
        "B": [],
    }
    route_loss = {"f0": 0.2, "f1": 0.4, "f2": 0.0, "f3": 0.0}
    placement = ns(routes={flow: flow for flow in route_loss})
    topo = ns(version=0, circuit_sets_under=lambda root: [ns(set_id="A"), ns(set_id="B")])
    state = ns(
        placement=lambda: placement,
        circuit_set_break_ratio={"A": 0.5, "B": 0.25}.__getitem__,
        circuit_set_loss_rate=lambda set_id: 0.0,
        route_loss_rate=route_loss.__getitem__,
    )
    traffic = ns(
        customers_on_circuit_set=lambda set_id, _: customers[set_id],
        sla_flows_on=lambda set_id, _: flows[set_id],
    )
    evaluator = Evaluator(topo, state=state, traffic=traffic)
    got = evaluator.evaluate(_incident(loss=0.1, duration=600.0))
    assert got.impact_factor == pytest.approx(8.5)
    assert got.sla_excess_rate == pytest.approx(0.3)
    assert got.important_customers == 3
    assert got.time_factor == pytest.approx(31.0748, abs=1e-3)
    assert got.score == pytest.approx(264.135, abs=1e-2)
