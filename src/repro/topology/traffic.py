"""Customers, SLA flows, and traffic placement.

The evaluator (§4.3, Equations 1-3, Table 3) consumes per-circuit-set
customer data gathered "via Netflow" in production:

* ``g_i`` -- importance factor of customers related to circuit set *i*;
* ``u_i`` -- number of customers related to circuit set *i*;
* ``l_i`` -- ratio of SLA flows beyond limit on circuit set *i*;
* ``U_k`` -- number of important customers affected by incident *k*.

Production NetFlow is proprietary, so this module synthesises customers
with tiered importance and places their flows onto the topology with the
hierarchical router.  Utilisation and congestion are then derived by the
simulator from this placement.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Sequence, Set

from .hierarchy import LocationPath
from .network import INTERNET, Topology
from .routing import ALL_HEALTHY, HealthView, HierarchicalRouter, RoutePath

#: Importance tiers (the factor ``g`` in Equation 1).
IMPORTANCE_STANDARD = 1.0
IMPORTANCE_PREMIUM = 5.0
IMPORTANCE_CRITICAL = 20.0

#: Customers at or above this importance count as "important" for ``U_k``.
IMPORTANT_CUSTOMER_THRESHOLD = IMPORTANCE_PREMIUM


@dataclasses.dataclass(frozen=True)
class Customer:
    """A cloud customer with an importance tier."""

    customer_id: str
    importance: float = IMPORTANCE_STANDARD

    @property
    def is_important(self) -> bool:
        return self.importance >= IMPORTANT_CUSTOMER_THRESHOLD


@dataclasses.dataclass(frozen=True)
class Flow:
    """A long-lived customer flow between two servers or to the Internet."""

    flow_id: str
    customer_id: str
    src_server: str
    dst: str  # server name, or network.INTERNET
    rate_gbps: float
    sla_limit_gbps: float = 0.0  # committed SLA rate; 0 means best-effort

    @property
    def has_sla(self) -> bool:
        return self.sla_limit_gbps > 0.0


@dataclasses.dataclass
class FlowPlacement:
    """Where every flow landed under one health state."""

    routes: Dict[str, RoutePath]
    flows_by_circuit_set: Dict[str, List[str]]
    unroutable: List[str]

    def flows_on(self, set_id: str) -> List[str]:
        return self.flows_by_circuit_set.get(set_id, [])


class TrafficModel:
    """Customers + flows over a topology, with placement and aggregation."""

    def __init__(self, topology: Topology, customers: Sequence[Customer],
                 flows: Sequence[Flow]) -> None:
        self._topo = topology
        self._router = HierarchicalRouter(topology)
        self._customers = {c.customer_id: c for c in customers}
        if len(self._customers) != len(customers):
            raise ValueError("duplicate customer ids")
        self._flows = {f.flow_id: f for f in flows}
        if len(self._flows) != len(flows):
            raise ValueError("duplicate flow ids")
        for flow in flows:
            if flow.customer_id not in self._customers:
                raise KeyError(f"flow {flow.flow_id} belongs to unknown customer")
            if flow.src_server not in topology.servers:
                raise KeyError(f"flow {flow.flow_id} sources from unknown server")
            if flow.dst != INTERNET and flow.dst not in topology.servers:
                raise KeyError(f"flow {flow.flow_id} targets unknown endpoint")

    # -- accessors -----------------------------------------------------------

    @property
    def topology(self) -> Topology:
        return self._topo

    @property
    def router(self) -> HierarchicalRouter:
        return self._router

    @property
    def customers(self) -> Dict[str, Customer]:
        return dict(self._customers)

    @property
    def flows(self) -> Dict[str, Flow]:
        return dict(self._flows)

    def customer(self, customer_id: str) -> Customer:
        return self._customers[customer_id]

    def flow(self, flow_id: str) -> Flow:
        return self._flows[flow_id]

    # -- placement -------------------------------------------------------------

    def place_flows(self, health: HealthView = ALL_HEALTHY) -> FlowPlacement:
        """Route every flow under ``health`` and index routes by circuit set."""
        routes: Dict[str, RoutePath] = {}
        by_set: Dict[str, List[str]] = {}
        unroutable: List[str] = []
        servers = self._topo.servers
        for flow in self._flows.values():
            src = servers[flow.src_server]
            if flow.dst == INTERNET:
                route = self._router.route_to_internet(src, health)
            else:
                route = self._router.route_servers(src, servers[flow.dst], health)
            routes[flow.flow_id] = route
            if not route.reachable:
                unroutable.append(flow.flow_id)
                continue
            for set_id in route.circuit_sets:
                by_set.setdefault(set_id, []).append(flow.flow_id)
        return FlowPlacement(routes=routes, flows_by_circuit_set=by_set,
                             unroutable=unroutable)

    # -- per-circuit-set aggregates (Equation 1 / Table 3 inputs) ---------------

    def customers_on_circuit_set(
        self, set_id: str, placement: FlowPlacement
    ) -> List[Customer]:
        ids: Set[str] = {
            self._flows[f].customer_id for f in placement.flows_on(set_id)
        }
        return [self._customers[c] for c in sorted(ids)]

    def importance_factor(self, set_id: str, placement: FlowPlacement) -> float:
        """``g_i``: mean importance of customers on the circuit set (0 if none)."""
        customers = self.customers_on_circuit_set(set_id, placement)
        if not customers:
            return 0.0
        return sum(c.importance for c in customers) / len(customers)

    def offered_load_gbps(self, set_id: str, placement: FlowPlacement) -> float:
        return sum(self._flows[f].rate_gbps for f in placement.flows_on(set_id))

    def sla_flows_on(self, set_id: str, placement: FlowPlacement) -> List[Flow]:
        return [
            self._flows[f]
            for f in placement.flows_on(set_id)
            if self._flows[f].has_sla
        ]

    def important_customers_in(
        self, location: LocationPath, placement: FlowPlacement
    ) -> Set[str]:
        """Important customers whose flows traverse circuit sets under a
        location -- feeds ``U_k`` for an incident scoped to that location."""
        sets_under = {cs.set_id for cs in self._topo.circuit_sets_under(location)}
        result: Set[str] = set()
        for set_id in sets_under:
            for flow_id in placement.flows_on(set_id):
                customer = self._customers[self._flows[flow_id].customer_id]
                if customer.is_important:
                    result.add(customer.customer_id)
        return result


def generate_traffic(
    topology: Topology,
    n_customers: int = 40,
    flows_per_customer: int = 3,
    premium_fraction: float = 0.2,
    critical_fraction: float = 0.05,
    internet_fraction: float = 0.4,
    mean_rate_gbps: float = 2.0,
    sla_fraction: float = 0.3,
    seed: int = 11,
) -> TrafficModel:
    """Synthesise a customer/flow population over ``topology``.

    Importance tiers follow a skewed distribution (most customers standard,
    a premium slice, a thin critical slice), mirroring the paper's point
    that a *small* incident can outrank a big one because of who it hits
    (§4.3 "Scene ranking" case).
    """
    if n_customers < 1:
        raise ValueError("need at least one customer")
    rng = random.Random(seed)
    server_names = sorted(topology.servers)
    if len(server_names) < 2:
        raise ValueError("topology needs at least two servers to carry traffic")

    customers: List[Customer] = []
    for i in range(n_customers):
        draw = rng.random()
        if draw < critical_fraction:
            importance = IMPORTANCE_CRITICAL
        elif draw < critical_fraction + premium_fraction:
            importance = IMPORTANCE_PREMIUM
        else:
            importance = IMPORTANCE_STANDARD
        customers.append(Customer(customer_id=f"cust-{i + 1:04d}", importance=importance))

    flows: List[Flow] = []
    for customer in customers:
        for j in range(flows_per_customer):
            src = rng.choice(server_names)
            if rng.random() < internet_fraction:
                dst = INTERNET
            else:
                dst = rng.choice([s for s in server_names if s != src])
            rate = max(0.1, rng.expovariate(1.0 / mean_rate_gbps))
            sla = rate * 0.8 if rng.random() < sla_fraction else 0.0
            flows.append(
                Flow(
                    flow_id=f"{customer.customer_id}/f{j + 1}",
                    customer_id=customer.customer_id,
                    src_server=src,
                    dst=dst,
                    rate_gbps=rate,
                    sla_limit_gbps=sla,
                )
            )
    return TrafficModel(topology, customers, flows)
