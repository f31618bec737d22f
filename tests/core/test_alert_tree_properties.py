"""Hypothesis property tests for AlertTree and the incident thresholds.

Three families of invariants back the flood-scale tree and locator:

* **Monotone expiry** -- advancing time only ever removes records, the
  survivor set is exactly ``{r : now <= r.last_seen + timeout}``, and the
  heap-backed tree removes the same records as the reference walk
  (``tests/reference_oracle.py``).
* **Insert-order invariance** -- the tree state after a batch of alerts
  does not depend on the order the batch arrived in (``device`` excluded:
  it is defined as the *first* reporter of a (location, type) record).
* **Threshold semantics** -- the ``A/B+C/D`` clauses fire iff the counts
  warrant, both at the `IncidentThresholds.triggered` level and end to
  end through a locator sweep, on the reference and production
  locators alike.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.alert_tree import AlertTree
from repro.core.config import IncidentThresholds, SkyNetConfig
from repro.core.locator import Locator
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.hierarchy import LocationPath

from ..reference_oracle import ReferenceAlertTree, ReferenceLocator

# ---------------------------------------------------------------------------
# strategies

_LOCATIONS = [
    ("r1",),
    ("r1", "city-a"),
    ("r1", "city-a", "ls-1"),
    ("r1", "city-a", "ls-1", "site-1"),
    ("r1", "city-a", "ls-1", "site-1", "cl-1"),
    ("r1", "city-a", "ls-1", "site-2"),
    ("r2", "city-b"),
    ("r2", "city-b", "ls-2", "site-3"),
]

# a type key always carries one level (the alert_types tables), so the
# strategy fixes level per type -- otherwise record level would be
# first-reporter-defined, like `device`
_TYPES = [
    ("ping", "loss", AlertLevel.FAILURE),
    ("snmp", "link_down", AlertLevel.ABNORMAL),
    ("syslog", "bgp_flap", AlertLevel.ABNORMAL),
    ("oob", "dev_down", AlertLevel.ROOT_CAUSE),
]


@st.composite
def alerts(draw) -> StructuredAlert:
    loc = draw(st.sampled_from(_LOCATIONS))
    tool, name, level = draw(st.sampled_from(_TYPES))
    first = draw(st.floats(min_value=0.0, max_value=900.0))
    span = draw(st.floats(min_value=0.0, max_value=60.0))
    return StructuredAlert(
        type_key=AlertTypeKey(tool, name),
        level=level,
        location=LocationPath(loc),
        first_seen=first,
        last_seen=first + span,
        count=draw(st.integers(min_value=1, max_value=5)),
        metrics={"loss_rate": draw(st.floats(min_value=0.0, max_value=1.0))},
    )


def _state(tree: AlertTree, with_device: bool = True) -> Dict:
    """Canonical tree state for comparisons."""
    out = {}
    for loc in tree.locations():
        for rec in tree.records_at(loc):
            out[(loc.segments, rec.type_key)] = (
                rec.level,
                rec.first_seen,
                rec.last_seen,
                rec.count,
                rec.device if with_device else None,
                tuple(sorted(rec.worst_metrics.items())),
            )
    return out


# ---------------------------------------------------------------------------
# monotone expiry


@settings(max_examples=60, deadline=None)
@given(
    batch=st.lists(alerts(), min_size=1, max_size=40),
    times=st.lists(st.floats(min_value=0.0, max_value=3000.0), min_size=1,
                   max_size=6),
    timeout=st.floats(min_value=10.0, max_value=600.0),
)
def test_expiry_is_monotone_and_exact(batch, times, timeout):
    reference = ReferenceAlertTree()
    fast = AlertTree()
    for alert in batch:
        reference.insert(alert)
    fast.insert_batch(batch)

    previous_keys = None
    for now in sorted(times):
        reference.expire(now, timeout)
        fast.expire(now, timeout)
        ref_state = _state(reference)
        assert ref_state == _state(fast)
        # exactness: survivors are exactly the unexpired records
        for (_, _), (_, _, last_seen, _, _, _) in ref_state.items():
            assert not now > last_seen + timeout
        # monotonicity: no record ever reappears
        keys = set(ref_state)
        if previous_keys is not None:
            assert keys <= previous_keys
        previous_keys = keys


@settings(max_examples=40, deadline=None)
@given(
    batch=st.lists(alerts(), min_size=1, max_size=30),
    refresh_at=st.floats(min_value=100.0, max_value=500.0),
    timeout=st.floats(min_value=50.0, max_value=300.0),
)
def test_refreshed_records_survive_their_old_deadline(batch, refresh_at, timeout):
    """A record re-seen after its entry was heap-pushed must not expire on
    the stale entry's schedule (the lazy-heap re-check)."""
    fast = AlertTree()
    reference = ReferenceAlertTree()
    fast.insert_batch(batch)
    for alert in batch:
        reference.insert(alert)
    refreshed = [
        dataclasses.replace(a, first_seen=refresh_at, last_seen=refresh_at)
        for a in batch[::2]
    ]
    fast.insert_batch(refreshed)
    for alert in refreshed:
        reference.insert(alert)
    for now in (refresh_at + timeout, refresh_at + timeout + 1.0,
                refresh_at + 10 * timeout):
        reference.expire(now, timeout)
        fast.expire(now, timeout)
        assert _state(reference) == _state(fast)


# ---------------------------------------------------------------------------
# insert-order invariance


@settings(max_examples=60, deadline=None)
@given(
    batch=st.lists(alerts(), min_size=2, max_size=25),
    seed=st.randoms(use_true_random=False),
)
def test_tree_state_is_insert_order_invariant(batch, seed):
    shuffled = list(batch)
    seed.shuffle(shuffled)
    in_order = ReferenceAlertTree()
    reordered = AlertTree()
    for alert in batch:
        in_order.insert(alert)
    reordered.insert_batch(shuffled)
    # `device` is by definition the first reporter, so it is the one field
    # allowed to depend on arrival order
    assert _state(in_order, with_device=False) == _state(
        reordered, with_device=False
    )
    assert in_order.total_records() == reordered.total_records()


# ---------------------------------------------------------------------------
# A/B+C/D thresholds


@settings(max_examples=200, deadline=None)
@given(
    failure_types=st.integers(min_value=0, max_value=8),
    other_types=st.integers(min_value=0, max_value=8),
    a=st.integers(min_value=0, max_value=6),
    b=st.integers(min_value=0, max_value=6),
    c=st.integers(min_value=0, max_value=6),
    d=st.integers(min_value=0, max_value=10),
)
def test_triggered_matches_clause_semantics(failure_types, other_types, a, b, c, d):
    thresholds = IncidentThresholds(a, b, c, d)
    expected = (
        (a > 0 and failure_types >= a)
        or (b > 0 and c > 0 and failure_types >= b and other_types >= c)
        or (d > 0 and failure_types + other_types >= d)
    )
    assert thresholds.triggered(failure_types, other_types) is expected


_TOPO = build_topology(TopologySpec.tiny())
_CLUSTER = sorted(
    (loc for loc in _TOPO.locations() if loc.segments and len(loc.segments) >= 5),
    key=str,
)[0]


def _typed_alerts(failure_types: int, other_types: int) -> List[StructuredAlert]:
    out = []
    for i in range(failure_types):
        out.append(
            StructuredAlert(
                type_key=AlertTypeKey("ping", f"fail-{i}"),
                level=AlertLevel.FAILURE,
                location=_CLUSTER,
                first_seen=10.0,
                last_seen=10.0,
            )
        )
    for i in range(other_types):
        out.append(
            StructuredAlert(
                type_key=AlertTypeKey("snmp", f"other-{i}"),
                level=AlertLevel.ABNORMAL,
                location=_CLUSTER,
                first_seen=10.0,
                last_seen=10.0,
            )
        )
    return out


@settings(max_examples=80, deadline=None)
@given(
    failure_types=st.integers(min_value=0, max_value=7),
    other_types=st.integers(min_value=0, max_value=7),
    fast=st.booleans(),
)
def test_sweep_fires_iff_thresholds_warrant(failure_types, other_types, fast):
    """End to end: a single-location candidate group spawns an incident at
    a 2/1+2/5 sweep exactly when the distinct type counts warrant it."""
    config = SkyNetConfig()
    assert config.thresholds.label() == "2/1+2/5"
    locator = (Locator if fast else ReferenceLocator)(_TOPO, config)
    locator.feed_many(_typed_alerts(failure_types, other_types))
    result = locator.sweep(20.0)
    expected = config.thresholds.triggered(failure_types, other_types)
    assert bool(result.opened) is expected
    if expected:
        assert len(result.opened) == 1
        assert result.opened[0].location == _CLUSTER
