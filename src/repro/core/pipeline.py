"""SkyNet: the end-to-end pipeline facade (Figure 5a).

Wires preprocessor -> locator -> evaluator (+ zoom-in) into a single
streaming object.  Feed it raw alerts in delivery order; it sweeps the
trees on the configured cadence using *alert time* (the core never reads a
wall clock) and produces ranked, severity-scored incident reports.

Typical use::

    skynet = SkyNet(topology, state=state)
    reports = skynet.process(alert_stream.run(3600))
    for report in reports:
        print(report.incident.render())

The locator buffers fed alerts between sweeps (see ``core/locator.py``),
so read incidents through :meth:`SkyNet.incidents` / :meth:`SkyNet.reports`,
which flush first.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterable, List, Optional, Protocol

from ..monitors.base import RawAlert
from ..simulation.state import NetworkState
from ..syslogproc import TemplateClassifier
from ..topology.network import Topology
from ..topology.traffic import TrafficModel
from .alert import StructuredAlert
from .config import PRODUCTION_CONFIG, SkyNetConfig
from .evaluator import Evaluator
from .incident import Incident, SeverityBreakdown
from .locator import Locator, SweepResult
from .preprocessor import PreprocessStats, Preprocessor
from .zoom_in import LocationZoomIn


class SourceHealth(Protocol):
    """What the pipeline needs from a per-source health tracker.

    Structural only: ``repro.runtime.health.SourceHealthTracker``
    satisfies it without the core ever importing the runtime package.
    """

    def observe(self, raw: RawAlert) -> None:
        """Note one raw alert reaching the pipeline."""

    def degraded_sources(self, now: float) -> FrozenSet[str]:
        """Tools considered degraded at alert time ``now``."""


class PipelineObserver:
    """No-op observation hooks on the streaming pipeline.

    ``repro.runtime`` subclasses this to thread its metrics registry
    through the preprocess/locate/evaluate stages without the core ever
    importing the runtime package (or a clock -- observers see only alert
    time).  Every hook defaults to a no-op so the batch facade stays
    zero-overhead when nothing is observing.
    """

    def on_raw(self, raw: RawAlert, emitted: List[StructuredAlert]) -> None:
        """One raw alert was preprocessed into ``emitted`` structured alerts."""

    def on_sweep(self, now: float, result: SweepResult) -> None:
        """One locator sweep ran (incidents opened/closed, records expired)."""


@dataclasses.dataclass
class IncidentReport:
    """One incident as presented to operators: scored and localised."""

    incident: Incident

    @property
    def severity(self) -> Optional[SeverityBreakdown]:
        return self.incident.severity

    @property
    def score(self) -> float:
        return self.incident.severity.score if self.incident.severity else 0.0

    @property
    def urgent(self) -> bool:
        return self.incident.severity is not None and self.incident.severity.exceeds(
            PRODUCTION_CONFIG.severity.alert_threshold
        )

    def render(self) -> str:
        return self.incident.render()


class SkyNet:
    """The complete analysis system of Figure 5a."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        state: Optional[NetworkState] = None,
        traffic: Optional[TrafficModel] = None,
        classifier: Optional[TemplateClassifier] = None,
        locator: Optional[Locator] = None,
        observer: Optional[PipelineObserver] = None,
    ) -> None:
        self._topo = topology
        self._config = config or PRODUCTION_CONFIG
        self.preprocessor = Preprocessor(topology, self._config, classifier)
        # the runtime service passes a ShardedLocator here; any Locator
        # subclass must keep output byte-identical (tests/runtime pins it)
        self.locator = locator if locator is not None else Locator(topology, self._config)
        self.evaluator = Evaluator(topology, self._config, state=state, traffic=traffic)
        self.zoom = LocationZoomIn(topology)
        self.observer = observer
        #: optional per-source health tracker (duck-typed: ``observe(raw)``
        #: + ``degraded_sources(now)``).  ``repro.runtime`` installs one
        #: when a chaos plan degrades sources; left ``None``, every
        #: degradation branch below is skipped and the pipeline is
        #: byte-identical to a health-unaware run.
        self.health: Optional[SourceHealth] = None
        self._last_sweep = float("-inf")
        self._now = float("-inf")

    @property
    def config(self) -> SkyNetConfig:
        return self._config

    @property
    def now(self) -> float:
        return self._now

    @property
    def preprocess_stats(self) -> PreprocessStats:
        return self.preprocessor.stats

    # -- streaming API ------------------------------------------------------------

    def feed(self, raw: RawAlert) -> List[StructuredAlert]:
        """Feed one raw alert; sweeps are driven by alert delivery time."""
        self._now = max(self._now, raw.delivered_at)
        if self.health is not None:
            self.health.observe(raw)
        self.zoom.observe(raw)
        emitted = self.preprocessor.feed(raw)
        for alert in emitted:
            self.locator.feed(alert)
        if self.observer is not None:
            self.observer.on_raw(raw, emitted)
        if self._now - self._last_sweep >= self._config.sweep_interval_s:
            self.sweep(self._now)
        return emitted

    def sweep(self, now: float) -> None:
        """Run one locator sweep and refresh open-incident assessments."""
        self._last_sweep = now
        self._now = max(self._now, now)
        result = self.locator.sweep(now)
        degraded = (
            self.health.degraded_sources(now)
            if self.health is not None
            else frozenset()
        )
        for incident in result.opened:
            self.zoom.refine(incident, now, degraded=degraded)
            self.evaluator.evaluate(incident, now, degraded=degraded)
        for incident in result.closed:
            self.zoom.refine(incident, now, degraded=degraded)
            self.evaluator.evaluate(incident, now, degraded=degraded)
        # keep open-incident scores fresh for live ranking
        for incident in self.locator.open_incidents:
            self.evaluator.evaluate(incident, now, degraded=degraded)
        if self.observer is not None:
            self.observer.on_sweep(now, result)

    def finish(self, now: Optional[float] = None) -> None:
        """Close out a run: generate from whatever is live, then advance far
        enough to expire the trees and close every incident."""
        now = self._now if now is None else now
        if now > float("-inf"):
            self.sweep(now)
            horizon = now + max(
                self._config.node_timeout_s, self._config.incident_timeout_s
            ) + self._config.sweep_interval_s
            self.sweep(horizon)

    def process(
        self, raw_alerts: Iterable[RawAlert], finish: bool = True
    ) -> List[IncidentReport]:
        """Batch mode: run a whole alert stream and return ranked reports."""
        for raw in raw_alerts:
            self.feed(raw)
        if finish:
            self.finish()
        return self.reports()

    # -- results -----------------------------------------------------------------

    def incidents(self, include_superseded: bool = False) -> List[Incident]:
        from .incident import IncidentStatus

        # apply any alerts still buffered since the last sweep, so
        # readers see every record fed so far
        self.locator.flush()
        items = self.locator.all_incidents()
        if not include_superseded:
            items = [i for i in items if i.status is not IncidentStatus.SUPERSEDED]
        return items

    def reports(self) -> List[IncidentReport]:
        """All incidents, most severe first."""
        incidents = self.incidents()
        ranked = self.evaluator.rank(incidents, self._now)
        return [IncidentReport(incident=i) for i in ranked]

    def urgent_reports(self) -> List[IncidentReport]:
        """Incidents above the severity threshold -- what operators see."""
        return [r for r in self.reports() if r.urgent]
