"""Network state: turns active failure conditions into observable behaviour.

This is the substrate the 12 monitoring tools "measure".  Given a topology,
a traffic model, and a set of active :class:`~repro.simulation.conditions.
Condition` objects, it answers the questions a real network would answer:

* is device X reachable?  (OOB monitoring)
* what is the loss rate between servers A and B?  (Ping, sFlow)
* how much traffic crosses circuit set Y right now vs. normally?  (SNMP)
* which syslog-visible faults are active on device X?  (Syslog)

Two views of health exist deliberately:

* the *actual* view (``device_up`` etc.) -- what is really broken;
* the *routing* view (``routing_health``) -- what the control plane has
  already converged around.  A fault is only routed around once it is
  older than ``convergence_s``; before that, flows still traverse the
  broken element and take loss.  This reproduces the paper's alert
  dynamics: an initial reachability-loss burst, then (if redundant
  capacity is insufficient) persistent congestion loss -- exactly the §2.2
  severe-failure story where loss was congestion, not dead cables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..topology.hierarchy import LocationPath
from ..topology.network import INTERNET, Topology
from ..topology.routing import (
    HealthView,
    HierarchicalRouter,
    ReachabilityCache,
    RoutePath,
)
from ..topology.traffic import FlowPlacement, TrafficModel
from .conditions import Condition, ConditionKind

#: Default loss rates at faulty elements, overridable per condition via params.
DEFAULT_LOSS_RATES = {
    ConditionKind.DEVICE_DOWN: 1.0,
    ConditionKind.DEVICE_HARDWARE_ERROR: 0.35,
    ConditionKind.DEVICE_SOFTWARE_ERROR: 0.05,
    ConditionKind.DEVICE_SILENT_LOSS: 0.15,
    ConditionKind.DEVICE_UNBALANCED_HASH: 0.08,
    ConditionKind.CONFIG_ERROR: 0.6,
    ConditionKind.LINK_FLAPPING: 0.10,
}


class _RoutingHealth(HealthView):
    """Health as the converged control plane sees it (see module docstring)."""

    def __init__(self, state: "NetworkState") -> None:
        self._state = state

    def device_up(self, device_name: str) -> bool:
        return not self._state._device_routed_around(device_name)

    def circuit_set_usable(self, set_id: str) -> bool:
        return not self._state._circuit_set_routed_around(set_id)

    def signature(self) -> Tuple[str, ...]:
        # the converged-routing view changes exactly when the set of
        # routing-affecting, converged conditions changes
        return self._state._placement_signature()


class NetworkState(HealthView):
    """Aggregate, time-aware view of the simulated network."""

    def __init__(
        self,
        topology: Topology,
        traffic: Optional[TrafficModel] = None,
        convergence_s: float = 45.0,
    ) -> None:
        self._topo = topology
        self._traffic = traffic
        self._router = HierarchicalRouter(topology)
        self.convergence_s = float(convergence_s)
        self._conditions: List[Condition] = []
        self._now = 0.0
        self._routing_health = _RoutingHealth(self)
        # memoised reachability queries, dropped when the converged
        # routing view (placement signature) changes
        self._reach_cache = ReachabilityCache(self._router)
        # caches, keyed by a signature of routing-visible conditions
        self._placement_key: Optional[Tuple[str, ...]] = None
        self._placement: Optional[FlowPlacement] = None
        self._ddos_routes: Dict[Tuple[str, Tuple[str, ...]], Optional[RoutePath]] = {}
        # baseline loads under full health (for SNMP rate-drop detection)
        self._baseline_placement = traffic.place_flows() if traffic else None
        # per-instant active-condition index (hot path for monitors)
        self._active_dirty = True
        self._active_list: List[Condition] = []
        self._active_by_target: Dict[object, List[Condition]] = {}
        self._active_sig: Tuple[str, ...] = ()
        # per-epoch derived caches
        self._loads_key: Optional[Tuple] = None
        self._offered_cache: Dict[str, float] = {}
        self._route_cache_key: Optional[Tuple] = None
        self._route_cache: Dict[Tuple[str, str], RoutePath] = {}
        # per-instant memos (now + condition set fixed => values fixed)
        self._sig_memo: Optional[Tuple[Tuple[str, ...], float]] = None
        self._break_cache: Dict[str, float] = {}
        self._setloss_cache: Dict[str, float] = {}
        self._util_cache: Dict[str, float] = {}

    # -- wiring ---------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        return self._topo

    @property
    def traffic(self) -> Optional[TrafficModel]:
        return self._traffic

    @property
    def router(self) -> HierarchicalRouter:
        return self._router

    @property
    def now(self) -> float:
        return self._now

    def set_time(self, t: float) -> None:
        if t < self._now:
            raise ValueError(f"time cannot rewind from {self._now} to {t}")
        if t != self._now:
            self._active_dirty = True
        self._now = t

    # -- condition management ---------------------------------------------------

    def add_condition(self, condition: Condition) -> None:
        self._conditions.append(condition)
        self._active_dirty = True

    def add_conditions(self, conditions: Iterable[Condition]) -> None:
        for cond in conditions:
            self.add_condition(cond)

    def end_condition(self, condition_id: str, at: Optional[float] = None) -> None:
        """Close an open-ended condition (mitigation happened)."""
        at = self._now if at is None else at
        for i, cond in enumerate(self._conditions):
            if cond.condition_id == condition_id:
                if cond.end is not None and cond.end <= at:
                    return
                import dataclasses as _dc

                self._conditions[i] = _dc.replace(cond, end=max(at, cond.start + 1e-9))
                self._active_dirty = True
                return
        raise KeyError(f"no condition {condition_id}")

    def _refresh_active(self) -> None:
        """Rebuild the active-condition index; monitors hit this constantly,
        so it is computed once per (time, condition-set) change."""
        if not self._active_dirty:
            return
        self._active_list = [c for c in self._conditions if c.active_at(self._now)]
        by_target: Dict[object, List[Condition]] = {}
        for cond in self._active_list:
            by_target.setdefault(cond.target, []).append(cond)
        self._active_by_target = by_target
        self._active_sig = tuple(sorted(c.condition_id for c in self._active_list))
        self._active_dirty = False
        # time or condition set moved: per-instant memos are stale
        self._sig_memo = None
        self._break_cache.clear()
        self._setloss_cache.clear()
        self._util_cache.clear()

    def active_conditions(
        self, kind: Optional[ConditionKind] = None
    ) -> List[Condition]:
        self._refresh_active()
        if kind is None:
            return list(self._active_list)
        return [c for c in self._active_list if c.kind is kind]

    def active_signature(self) -> Tuple[str, ...]:
        """Identifier of the exact set of active conditions (cache key)."""
        self._refresh_active()
        return self._active_sig

    def conditions_on_device(self, device_name: str) -> List[Condition]:
        self._refresh_active()
        return list(self._active_by_target.get(device_name, ()))

    def conditions_on_circuit_set(self, set_id: str) -> List[Condition]:
        self._refresh_active()
        return list(self._active_by_target.get(set_id, ()))

    # -- actual health (HealthView) ----------------------------------------------

    def device_up(self, device_name: str) -> bool:
        for cond in self.conditions_on_device(device_name):
            if cond.kind is ConditionKind.DEVICE_DOWN:
                return False
        return True

    def circuit_set_break_ratio(self, set_id: str) -> float:
        """``d_i`` in Equation 1: fraction of member circuits down."""
        self._refresh_active()
        cached = self._break_cache.get(set_id)
        if cached is not None:
            return cached
        cs = self._topo.circuit_sets.get(set_id)
        if cs is None:
            raise KeyError(f"unknown circuit set {set_id}")
        broken = 0.0
        if set_id in self._active_by_target:
            for cond in self._active_by_target[set_id]:
                if cond.kind is ConditionKind.CIRCUIT_BREAK:
                    broken += cond.param("broken_circuits", len(cs.circuits))
        ratio = min(1.0, broken / len(cs.circuits))
        self._break_cache[set_id] = ratio
        return ratio

    def circuit_set_usable(self, set_id: str) -> bool:
        return self.circuit_set_break_ratio(set_id) < 1.0

    # -- routing view --------------------------------------------------------------

    @property
    def routing_health(self) -> HealthView:
        return self._routing_health

    def _converged(self, cond: Condition) -> bool:
        return cond.age_at(self._now) >= self.convergence_s

    def _device_routed_around(self, device_name: str) -> bool:
        return any(
            c.kind is ConditionKind.DEVICE_DOWN and self._converged(c)
            for c in self.conditions_on_device(device_name)
        )

    def _circuit_set_routed_around(self, set_id: str) -> bool:
        cs = self._topo.circuit_sets.get(set_id)
        if cs is None:
            return False
        broken = 0.0
        for cond in self.conditions_on_circuit_set(set_id):
            if cond.kind is ConditionKind.CIRCUIT_BREAK and self._converged(cond):
                broken += cond.param("broken_circuits", len(cs.circuits))
        return broken >= len(cs.circuits)

    # -- traffic placement & loads ---------------------------------------------------

    def _placement_signature(self) -> Tuple[str, ...]:
        self._refresh_active()
        if self._sig_memo is not None and self._sig_memo[1] == self._now:
            return self._sig_memo[0]
        visible = tuple(
            sorted(
                c.condition_id
                for c in self._active_list
                if c.affects_routing and self._converged(c)
            )
        )
        self._sig_memo = (visible, self._now)
        return visible

    def placement(self) -> Optional[FlowPlacement]:
        """Current flow placement under the routing view (cached)."""
        if self._traffic is None:
            return None
        key = self._placement_signature()
        if key != self._placement_key:
            self._placement = self._traffic.place_flows(self._routing_health)
            self._placement_key = key
            self._ddos_routes.clear()
        return self._placement

    def _ddos_route(self, cond: Condition) -> Optional[RoutePath]:
        """Path attack traffic takes from the Internet to the victim cluster."""
        key = (cond.condition_id, self._placement_signature())
        if key not in self._ddos_routes:
            victim: LocationPath = cond.target  # type: ignore[assignment]
            servers = self._topo.servers_in(victim)
            route = None
            if servers:
                route = self._router.route_to_internet(servers[0], self._routing_health)
                if not route.reachable:
                    route = None
            self._ddos_routes[key] = route
        return self._ddos_routes[key]

    def ddos_extra_load_gbps(self, set_id: str) -> float:
        extra = 0.0
        for cond in self.active_conditions(ConditionKind.DDOS_ATTACK):
            route = self._ddos_route(cond)
            if route is not None and route.traverses_circuit_set(set_id):
                extra += cond.param("attack_gbps", 40.0)
        return extra

    def offered_load_gbps(self, set_id: str) -> float:
        key = (self._placement_signature(), self.active_signature())
        if key != self._loads_key:
            self._offered_cache.clear()
            self._loads_key = key
        if set_id not in self._offered_cache:
            load = self.ddos_extra_load_gbps(set_id)
            placement = self.placement()
            if placement is not None and self._traffic is not None:
                load += self._traffic.offered_load_gbps(set_id, placement)
            self._offered_cache[set_id] = load
        return self._offered_cache[set_id]

    def baseline_load_gbps(self, set_id: str) -> float:
        if self._baseline_placement is None or self._traffic is None:
            return 0.0
        cached = getattr(self, "_baseline_loads", None)
        if cached is None:
            cached = {
                sid: self._traffic.offered_load_gbps(sid, self._baseline_placement)
                for sid in self._topo.circuit_sets
            }
            self._baseline_loads = cached
        return cached.get(set_id, 0.0)

    def available_capacity_gbps(self, set_id: str) -> float:
        cs = self._topo.circuit_sets[set_id]
        return cs.total_capacity_gbps * (1.0 - self.circuit_set_break_ratio(set_id))

    def utilization(self, set_id: str) -> float:
        self._refresh_active()
        cached = self._util_cache.get(set_id)
        if cached is not None:
            return cached
        capacity = self.available_capacity_gbps(set_id)
        offered = self.offered_load_gbps(set_id)
        if capacity <= 0.0:
            value = float("inf") if offered > 0 else 0.0
        else:
            value = offered / capacity
        self._util_cache[set_id] = value
        return value

    def congestion_loss(self, set_id: str) -> float:
        """Loss from over-subscription: the excess fraction is dropped."""
        u = self.utilization(set_id)
        if u <= 1.0:
            return 0.0
        if u == float("inf"):
            return 1.0
        return 1.0 - 1.0 / u

    def delivered_rate_gbps(self, set_id: str) -> float:
        """What a traffic counter (SNMP/sFlow) reads on the circuit set."""
        return self.offered_load_gbps(set_id) * (1.0 - self.congestion_loss(set_id))

    # -- loss model -----------------------------------------------------------------

    def device_loss_rate(self, device_name: str, internet_bound: bool = False) -> float:
        """Probability a packet transiting ``device_name`` is dropped."""
        loss_keep = 1.0
        for cond in self.conditions_on_device(device_name):
            rate = 0.0
            if cond.kind in DEFAULT_LOSS_RATES:
                rate = cond.param("loss_rate", DEFAULT_LOSS_RATES[cond.kind])
            elif cond.kind is ConditionKind.ROUTE_LOSS and internet_bound:
                # lost default/aggregate route blackholes Internet-bound traffic
                rate = cond.param("loss_rate", 1.0)
            elif cond.kind in (ConditionKind.ROUTE_LEAK, ConditionKind.ROUTE_HIJACK):
                rate = cond.param("loss_rate", 0.0)  # control-plane only by default
            loss_keep *= 1.0 - min(1.0, max(0.0, rate))
        return 1.0 - loss_keep

    def circuit_set_loss_rate(self, set_id: str) -> float:
        """Loss on a circuit set: full break, flapping, and congestion."""
        self._refresh_active()
        cached = self._setloss_cache.get(set_id)
        if cached is not None:
            return cached
        if not self.circuit_set_usable(set_id):
            self._setloss_cache[set_id] = 1.0
            return 1.0
        keep = 1.0 - self.congestion_loss(set_id)
        if set_id in self._active_by_target:
            for cond in self._active_by_target[set_id]:
                if cond.kind is ConditionKind.LINK_FLAPPING:
                    keep *= 1.0 - cond.param(
                        "loss_rate", DEFAULT_LOSS_RATES[ConditionKind.LINK_FLAPPING]
                    )
        loss = 1.0 - keep
        self._setloss_cache[set_id] = loss
        return loss

    def circuit_set_corruption_rate(self, set_id: str) -> float:
        """Bit-flip / CRC error probability on a circuit set."""
        rate = 0.0
        for cond in self.conditions_on_circuit_set(set_id):
            if cond.kind is ConditionKind.LINK_CRC_ERRORS:
                rate = max(rate, cond.param("corruption_rate", 0.02))
        return rate

    def route_loss_rate(self, route: RoutePath) -> float:
        """End-to-end loss along a resolved route."""
        if not route.reachable:
            return 1.0
        internet_bound = route.dst == INTERNET
        keep = 1.0
        for dev in route.devices:
            keep *= 1.0 - self.device_loss_rate(dev, internet_bound=internet_bound)
        for set_id in route.circuit_sets:
            keep *= 1.0 - self.circuit_set_loss_rate(set_id)
        return 1.0 - keep

    def route_latency_ms(self, route: RoutePath) -> float:
        """Round-trip latency a probe measures: per-hop base plus queueing
        delay that climbs steeply once any traversed set nears saturation."""
        if not route.reachable:
            return float("inf")
        base = 1.0 + 0.2 * len(route.devices)
        queueing = 0.0
        for set_id in route.circuit_sets:
            u = min(self.utilization(set_id), 3.0)
            if u > 0.7:
                queueing += 8.0 * (u - 0.7)
        return base + queueing

    # -- end-to-end observables (what probes measure) ----------------------------------

    def _cached_route(self, server_a: str, server_b: str) -> RoutePath:
        """Route lookup memoised per routing epoch (routes only change when
        the converged-health signature changes)."""
        sig = self._placement_signature()
        if sig != self._route_cache_key:
            self._route_cache.clear()
            self._route_cache_key = sig
        key = (server_a, server_b)
        route = self._route_cache.get(key)
        if route is None:
            servers = self._topo.servers
            if server_b == INTERNET:
                route = self._router.route_to_internet(
                    servers[server_a], self._routing_health
                )
            else:
                route = self._router.route_servers(
                    servers[server_a], servers[server_b], self._routing_health
                )
            self._route_cache[key] = route
        return route

    def pair_loss(self, server_a: str, server_b: str) -> Tuple[RoutePath, float]:
        route = self._cached_route(server_a, server_b)
        return route, self.route_loss_rate(route)

    def internet_loss(self, server: str) -> Tuple[RoutePath, float]:
        route = self._cached_route(server, INTERNET)
        return route, self.route_loss_rate(route)
