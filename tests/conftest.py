"""Shared fixtures: small topologies, traffic, and states built once."""

from __future__ import annotations

import pytest

from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology
from repro.topology.traffic import generate_traffic

from .test_equivalence_flood import check_built_inputs_unchanged


@pytest.fixture(autouse=True)
def _shared_scenario_inputs_unchanged():
    """Scenario builds are shared across the session; see
    :meth:`tests.test_equivalence_flood.FloodScenario.build`."""
    yield
    check_built_inputs_unchanged()


@pytest.fixture(scope="session")
def tiny_topology():
    """Smallest complete fabric (1 region, 2 sites, 4 clusters)."""
    return build_topology(TopologySpec.tiny())


@pytest.fixture(scope="session")
def default_topology():
    """The default two-region fabric most tests use."""
    return build_topology(TopologySpec())


@pytest.fixture(scope="session")
def default_traffic(default_topology):
    return generate_traffic(default_topology, n_customers=30, seed=9)


@pytest.fixture()
def default_state(default_topology, default_traffic):
    """Fresh (mutable) state per test over the shared fabric."""
    return NetworkState(default_topology, default_traffic)


@pytest.fixture()
def bare_state(default_topology):
    """State with no traffic wired (tests that don't need loads)."""
    return NetworkState(default_topology)
