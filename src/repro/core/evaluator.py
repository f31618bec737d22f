"""The evaluator (§4.3): quantitative incident severity, Equations 1-3.

.. math::

    I_k = \\max\\Big(1, \\sum_i d_i g_i u_i + \\sum_j l_j g_j u_j\\Big)

    T_k = \\max\\big(\\log_{1/R_k}(\\Delta T_k + Sig(U_k)),\\;
                      \\log_{1/L_k}(\\Delta T_k + Sig(U_k))\\big)

    y_k = I_k \\cdot T_k

Symbols (Table 3): over the circuit sets related to the incident,
``d_i`` is the break ratio, ``l_i`` the ratio of SLA flows beyond limit,
``g_i`` the importance factor of the customers on the set, ``u_i`` their
count; ``R_k`` is the average ping packet-loss rate, ``L_k`` the max
average SLA excess rate, ``ΔT_k`` the alert lasting time, and ``U_k`` the
number of important customers affected.

Log bases ``1/R`` and ``1/L`` make severity grow *faster in time* the worse
the loss is; the sigmoid keeps a handful of key customers influential while
saturating for large counts (§4.3).  Without traffic/state wiring the
evaluator degrades to the alert-derived terms only (R and ΔT).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..simulation.state import NetworkState
from ..topology.hierarchy import LocationPath
from ..topology.network import Topology
from ..topology.traffic import FlowPlacement, TrafficModel
from .alert import AlertLevel
from .config import SeverityParams, SkyNetConfig
from .incident import Incident, SeverityBreakdown

#: Alert metrics treated as observed packet-loss rates for ``R_k``.
_LOSS_METRICS = ("loss_rate", "loss_ratio", "mismatch")


class Evaluator:
    """Computes severity scores and ranks concurrent incidents."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        state: Optional[NetworkState] = None,
        traffic: Optional[TrafficModel] = None,
    ) -> None:
        self._topo = topology
        self._config = config or SkyNetConfig()
        self._state = state
        self._traffic = traffic or (state.traffic if state else None)
        # related circuit sets per incident scope; the lookup walks
        # every device under the scope, and open incidents are
        # re-assessed every sweep, so the memo turns a per-sweep topology
        # scan into a dict hit.  Keyed on the topology mutation counter.
        self._cs_memo: Dict[LocationPath, List[str]] = {}
        self._cs_memo_version = -1

    @property
    def params(self) -> SeverityParams:
        return self._config.severity

    # -- public API -----------------------------------------------------------

    def evaluate(
        self,
        incident: Incident,
        now: Optional[float] = None,
        degraded: FrozenSet[str] = frozenset(),
    ) -> SeverityBreakdown:
        """Score one incident and attach the breakdown to it.

        ``degraded`` names data sources currently unusable; their
        records are excluded from ``R_k`` while healthy evidence exists
        (falling back to the degraded records rather than pretending
        zero loss), and the incident is stamped with a ``confidence``
        annotation: the fraction of its relevant sources still healthy.
        An empty set -- the only case without a chaos plan -- leaves
        every computation byte-identical to the degradation-unaware
        evaluator."""
        now = incident.end_time if now is None else now
        duration = max(
            self.params.min_duration_s, incident.end_time - incident.start_time
        )
        ping_loss = self._ping_loss_rate(incident, degraded)
        impact, sla_excess, important = self._traffic_terms(incident)
        time_factor = self._time_factor(ping_loss, sla_excess, duration, important)
        score = impact * time_factor
        breakdown = SeverityBreakdown(
            impact_factor=impact,
            time_factor=time_factor,
            score=score,
            capped_score=min(score, self.params.score_cap),
            ping_loss_rate=ping_loss,
            sla_excess_rate=sla_excess,
            duration_s=duration,
            important_customers=important,
            circuit_sets_considered=self._related_set_count(incident),
        )
        # an incident's severity is its in-flight peak: re-assessing after
        # mitigation (breaks repaired, SLA flows healthy again) must not
        # erase how bad it got while live
        if incident.severity is None or breakdown.score >= incident.severity.score:
            incident.severity = breakdown
        if degraded:
            relevant = self._relevant_sources(incident)
            unusable = relevant & degraded
            if unusable:
                incident.note_degradation(
                    confidence=1.0 - len(unusable) / len(relevant),
                    degraded=unusable,
                )
        return breakdown

    def rank(self, incidents: List[Incident], now: Optional[float] = None
             ) -> List[Incident]:
        """Incidents ordered most-severe-first (the §5.1 'scene ranking')."""
        for incident in incidents:
            if incident.severity is None:
                self.evaluate(incident, now)
        return sorted(
            incidents, key=lambda i: i.severity.score, reverse=True  # type: ignore
        )

    def urgent(self, incidents: List[Incident], now: Optional[float] = None
               ) -> List[Incident]:
        """Incidents above the severity alerting threshold (§6.4)."""
        ranked = self.rank(incidents, now)
        return [
            i
            for i in ranked
            if i.severity is not None
            and i.severity.exceeds(self.params.alert_threshold)
        ]

    # -- equation terms -----------------------------------------------------------

    def _ping_loss_rate(
        self, incident: Incident, degraded: FrozenSet[str] = frozenset()
    ) -> float:
        """``R_k``: mean observed loss over the incident's failure alerts.

        Records from degraded sources are set aside and only used when
        *no* healthy failure evidence carries a loss metric -- stale loss
        numbers are better than inventing a zero rate, but must never
        outvote live ones."""
        values: List[float] = []
        sidelined: List[float] = []
        for record in incident.records():
            if record.level is not AlertLevel.FAILURE:
                continue
            for metric in _LOSS_METRICS:
                if metric in record.worst_metrics:
                    if degraded and record.type_key.tool in degraded:
                        sidelined.append(record.worst_metrics[metric])
                    else:
                        values.append(record.worst_metrics[metric])
                    break
        if not values:
            values = sidelined
        return sum(values) / len(values) if values else 0.0

    def _relevant_sources(self, incident: Incident) -> FrozenSet[str]:
        """Sources whose health bears on this incident's assessment: every
        tool that contributed a record, plus the three §4.3 zoom-in feeds
        the refinement would have consulted."""
        tools = {record.type_key.tool for record in incident.records()}
        tools.update(("ping", "traffic_statistics", "in_band_telemetry"))
        return frozenset(tools)

    def _related_circuit_sets(self, incident: Incident) -> List[str]:
        root = incident.location
        version = self._topo.version
        if version != self._cs_memo_version:
            self._cs_memo.clear()
            self._cs_memo_version = version
        sets = self._cs_memo.get(root)
        if sets is None:
            sets = self._cs_memo[root] = self._lookup_circuit_sets(root)
        return sets

    def _lookup_circuit_sets(self, root: LocationPath) -> List[str]:
        if root.is_device:
            return [cs.set_id for cs in self._topo.circuit_sets_of(root.name)]
        return [cs.set_id for cs in self._topo.circuit_sets_under(root)]

    def _related_set_count(self, incident: Incident) -> int:
        return len(self._related_circuit_sets(incident))

    def _traffic_terms(self, incident: Incident) -> Tuple[float, float, int]:
        """``(I_k, L_k, U_k)`` from circuit-set, SLA and customer data."""
        if self._state is None or self._traffic is None:
            return 1.0, 0.0, 0
        placement = self._state.placement()
        if placement is None:
            return 1.0, 0.0, 0
        impact_sum = 0.0
        max_excess = 0.0
        affected_important: Set[str] = set()
        for set_id in self._related_circuit_sets(incident):
            d = self._state.circuit_set_break_ratio(set_id)
            customers = self._traffic.customers_on_circuit_set(set_id, placement)
            u = len(customers)
            g = (
                sum(c.importance for c in customers) / u
                if u
                else 0.0
            )
            l, excess = self._sla_terms(set_id, placement)
            impact_sum += d * g * u + l * g * u
            max_excess = max(max_excess, excess)
            if d > 0.0 or l > 0.0 or self._set_lossy(set_id):
                for customer in customers:
                    if customer.is_important:
                        affected_important.add(customer.customer_id)
        return max(1.0, impact_sum), max_excess, len(affected_important)

    def _set_lossy(self, set_id: str) -> bool:
        assert self._state is not None
        return self._state.circuit_set_loss_rate(set_id) > 0.01

    def _sla_terms(self, set_id: str, placement: FlowPlacement) -> Tuple[float, float]:
        """``(l_i, avg relative SLA shortfall)`` for one circuit set."""
        assert self._state is not None and self._traffic is not None
        sla_flows = self._traffic.sla_flows_on(set_id, placement)
        if not sla_flows:
            return 0.0, 0.0
        violated = 0
        shortfalls: List[float] = []
        for flow in sla_flows:
            route = placement.routes.get(flow.flow_id)
            if route is None:
                continue
            delivered = flow.rate_gbps * (1.0 - self._state.route_loss_rate(route))
            if delivered < flow.sla_limit_gbps:
                violated += 1
                shortfalls.append(
                    (flow.sla_limit_gbps - delivered) / flow.sla_limit_gbps
                )
        ratio = violated / len(sla_flows)
        excess = sum(shortfalls) / len(shortfalls) if shortfalls else 0.0
        return ratio, excess

    # -- time factor -----------------------------------------------------------------

    def _sigmoid(self, important_customers: int) -> float:
        p = self.params
        return p.sig_scale / (
            1.0 + math.exp(-(important_customers - p.sig_midpoint) / p.sig_steepness)
        )

    def _log_base_inverse(self, rate: float, argument: float) -> float:
        """``log_{1/rate}(argument)`` with the paper-safe clamps.

        A zero rate means the term contributes nothing; a rate at/above 1
        is clamped just below 1 so the base stays above 1 and the log
        finite (severity then grows very fast, as intended).
        """
        p = self.params
        if rate <= 0.0 or argument <= 1.0:
            return 0.0
        clamped = min(max(rate, p.min_rate), p.max_rate)
        return math.log(argument) / math.log(1.0 / clamped)

    def _time_factor(
        self, ping_loss: float, sla_excess: float, duration: float, important: int
    ) -> float:
        argument = duration + self._sigmoid(important)
        return self.params.time_factor_scale * max(
            self._log_base_inverse(ping_loss, argument),
            self._log_base_inverse(sla_excess, argument),
        )
