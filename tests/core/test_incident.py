"""Tests for Incident bookkeeping and rendering."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alert import AlertLevel, AlertTypeKey, StructuredAlert
from repro.core.alert_tree import record_from
from repro.core.incident import Incident, IncidentStatus
from repro.topology.hierarchy import LocationPath


def alert(loc, name="link_down", tool="snmp", level=AlertLevel.ROOT_CAUSE, t=0.0,
          count=1, device=None, metrics=None):
    return StructuredAlert(
        type_key=AlertTypeKey(tool, name),
        level=level,
        location=LocationPath(loc),
        first_seen=t,
        last_seen=t,
        count=count,
        device=device,
        metrics=metrics or {},
    )


@pytest.fixture()
def incident():
    return Incident(root=LocationPath(("r", "c")), created_at=100.0, seed_nodes={})


def test_add_outside_scope_rejected(incident):
    with pytest.raises(ValueError):
        incident.add(alert(("q",)))


def test_add_updates_time_and_counts(incident):
    incident.add(alert(("r", "c", "l"), t=150.0))
    incident.add(alert(("r", "c", "l"), t=200.0, count=2))
    assert incident.update_time == 200.0
    assert incident.total_alert_count() == 3
    assert incident.distinct_type_count() == 1


def test_start_time_is_earliest_record(incident):
    incident.add(alert(("r", "c"), t=50.0))
    incident.add(alert(("r", "c", "l"), t=150.0, name="port_down"))
    assert incident.start_time == 50.0


def test_counts_by_level(incident):
    incident.add(alert(("r", "c"), name="icmp", tool="ping", level=AlertLevel.FAILURE))
    incident.add(alert(("r", "c"), name="drop", level=AlertLevel.ABNORMAL))
    incident.add(alert(("r", "c"), name="hw", tool="syslog"))
    by_level = incident.alert_counts_by_level()
    assert len(by_level[AlertLevel.FAILURE]) == 1
    assert incident.distinct_type_count(AlertLevel.FAILURE) == 1


def test_devices_involved(incident):
    incident.add(alert(("r", "c"), device="d2"))
    incident.add(alert(("r", "c"), name="x", device="d1"))
    assert incident.devices_involved() == ["d1", "d2"]


def test_metrics_aggregation(incident):
    incident.add(
        alert(("r", "c"), tool="ping", name="icmp", level=AlertLevel.FAILURE,
              metrics={"loss_rate": 0.2})
    )
    incident.add(
        alert(("r", "c", "l"), tool="ping", name="tcp", level=AlertLevel.FAILURE,
              metrics={"loss_rate": 0.4})
    )
    assert incident.max_metric("loss_rate") == 0.4
    assert incident.mean_metric("loss_rate") == pytest.approx(0.3)


def test_close_sets_status(incident):
    incident.close(500.0)
    assert incident.status is IncidentStatus.CLOSED
    assert incident.closed_at == 500.0
    assert not incident.is_open


def test_absorb_incident_takes_max_counts():
    a = Incident(root=LocationPath(("r",)), created_at=0.0, seed_nodes={})
    b = Incident(root=LocationPath(("r", "c")), created_at=10.0, seed_nodes={})
    a.add(alert(("r", "c"), t=5.0, count=4))
    b.add(alert(("r", "c"), t=8.0, count=2))
    a.absorb_incident(b)
    assert a.total_alert_count() == 4  # overlapping views, not summed


def test_absorb_unions_disjoint_nodes():
    a = Incident(root=LocationPath(("r",)), created_at=0.0, seed_nodes={})
    b = Incident(root=LocationPath(("r", "c")), created_at=0.0, seed_nodes={})
    a.add(alert(("r", "x")))
    b.add(alert(("r", "c"), name="other"))
    a.absorb_incident(b)
    assert a.distinct_type_count() == 2


def test_location_prefers_refinement(incident):
    incident.add(alert(("r", "c")))
    assert incident.location == LocationPath(("r", "c"))
    incident.refined_location = LocationPath(("r", "c", "l"))
    assert incident.location == LocationPath(("r", "c", "l"))


def test_render_figure6_layout(incident):
    incident.add(alert(("r", "c"), tool="ping", name="end_to_end_icmp_loss",
                       level=AlertLevel.FAILURE, count=3))
    incident.add(alert(("r", "c"), tool="syslog", name="hardware_error"))
    text = incident.render()
    assert "Failure alerts" in text
    assert "Root cause alerts" in text
    assert "end_to_end_icmp_loss (3)" in text
    assert text.index("Failure alerts") < text.index("Root cause alerts")


def test_incident_ids_unique():
    a = Incident(LocationPath(("r",)), 0.0, {})
    b = Incident(LocationPath(("r",)), 0.0, {})
    assert a.incident_id != b.incident_id


_SPOTS = [("r", "c"), ("r", "c", "l"), ("r", "c", "m"), ("r", "c", "l", "s")]
_spans = st.tuples(
    st.sampled_from(_SPOTS),
    st.sampled_from(["link_down", "crc"]),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=50.0),
)


def _span_alert(spot, name, first, span):
    made = alert(spot, name=name, t=first)
    made.last_seen = first + span
    return made


@settings(max_examples=50, deadline=None)
@given(
    seed=st.lists(_spans, max_size=4),
    steps=st.lists(
        st.tuples(st.booleans(), st.lists(_spans, min_size=1, max_size=4)),
        max_size=6,
    ),
)
def test_start_time_is_a_running_minimum(seed, steps):
    """The cached start equals the scan over every record after any mix
    of seed nodes, adds and absorbed narrower incidents."""
    nodes = {}
    for spot, name, first, span in seed:
        nodes.setdefault(LocationPath(spot), []).append(
            record_from(_span_alert(spot, name, first, span))
        )
    incident = Incident(root=LocationPath(("r", "c")), created_at=500.0, seed_nodes=nodes)
    for absorb, spans in steps:
        if absorb:
            other = Incident(root=LocationPath(("r", "c", "l")), created_at=10.0, seed_nodes={})
            for spot, name, first, span in spans:
                if other.covers(LocationPath(spot)):
                    other.add(_span_alert(spot, name, first, span))
            incident.absorb_incident(other)
        else:
            for spans_alert in spans:
                incident.add(_span_alert(*spans_alert))
        expected = min(
            (r.first_seen for r in incident.records()), default=incident.created_at
        )
        assert incident.start_time == expected


def test_start_time_of_an_incident_pickled_without_the_cache():
    """Checkpoints written before the running minimum existed still
    resume with the right start time."""
    incident = Incident(root=LocationPath(("r", "c")), created_at=100.0, seed_nodes={})
    incident.add(alert(("r", "c", "l"), t=180.0))
    incident.add(alert(("r", "c", "m"), t=120.0))
    del incident.__dict__["_first_seen"]
    legacy = pickle.dumps(incident)
    assert b"_first_seen" not in legacy
    loaded = pickle.loads(legacy)
    assert loaded.start_time == 120.0
    loaded.add(alert(("r", "c", "l"), t=90.0))
    assert loaded.start_time == 90.0
