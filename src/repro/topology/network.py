"""Physical network model: devices, circuits, circuit sets, topology.

Mirrors the paper's description (§2, §4.3):

* devices live at every level of the location hierarchy (Figure 5b);
* "all links connecting network devices consist of multiple circuits, each
  [group] is called a circuit set" (§4.3, Table 3) -- redundancy within a
  circuit set means a partial break lowers bandwidth without necessarily
  losing reachability;
* servers hang off cluster switches and are the endpoints of end-to-end
  probing (Ping, Table 2).

The topology object is pure structure -- *state* (which circuits are broken,
which devices are down, congestion) lives in
:class:`repro.simulation.state.NetworkState` so that one topology can back
many independent simulations.
"""

from __future__ import annotations

import dataclasses
import enum
import types
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .hierarchy import Level, LocationPath


class DeviceRole(enum.Enum):
    """Role of a network device, loosely following the paper's Figure 11."""

    REGION_BACKBONE = "DCBR"  # region backbone router
    CITY_ROUTER = "BSR"  # city/border service router
    LOGIC_SITE_ROUTER = "ISR"  # logic-site interconnect router
    SITE_AGGREGATION = "CSR"  # site aggregation router
    CLUSTER_SWITCH = "CSW"  # top-of-cluster switch
    INTERNET_GATEWAY = "IGW"  # data-center Internet entrance
    REFLECTOR = "RR"  # route reflector (case study §7.1)

    @property
    def level(self) -> Level:
        """Structural level this role normally attaches to."""
        return _ROLE_LEVELS[self]


_ROLE_LEVELS = {
    DeviceRole.REGION_BACKBONE: Level.REGION,
    DeviceRole.CITY_ROUTER: Level.CITY,
    DeviceRole.LOGIC_SITE_ROUTER: Level.LOGIC_SITE,
    DeviceRole.SITE_AGGREGATION: Level.SITE,
    DeviceRole.CLUSTER_SWITCH: Level.CLUSTER,
    DeviceRole.INTERNET_GATEWAY: Level.LOGIC_SITE,
    DeviceRole.REFLECTOR: Level.LOGIC_SITE,
}


@dataclasses.dataclass(frozen=True)
class Device:
    """A network device attached to one node of the location hierarchy."""

    name: str
    role: DeviceRole
    location: LocationPath  # device path: parent location + own name
    group: str = ""  # redundancy group; peers can absorb this device's traffic

    def __post_init__(self) -> None:
        if not self.location.is_device:
            raise ValueError(f"device {self.name} needs a device-flagged path")
        if self.location.name != self.name:
            raise ValueError(
                f"device path {self.location} must end with the device name {self.name!r}"
            )

    @property
    def parent_location(self) -> LocationPath:
        """The structural location the device attaches to."""
        return self.location.parent


@dataclasses.dataclass(frozen=True)
class Server:
    """An end host used as a probe endpoint; not a network device."""

    name: str
    cluster: LocationPath  # structural path of the enclosing cluster
    attached_switch: str  # device name of the cluster switch it uplinks to

    def __post_init__(self) -> None:
        if self.cluster.level is not Level.CLUSTER:
            raise ValueError(f"server {self.name} must live in a cluster")


@dataclasses.dataclass
class Circuit:
    """One physical circuit inside a circuit set."""

    circuit_id: str
    capacity_gbps: float = 100.0


@dataclasses.dataclass
class CircuitSet:
    """A redundant bundle of circuits forming one logical link (§4.3).

    ``d_i`` in Equation 1 -- the break ratio -- is the fraction of member
    circuits currently down, which is state, so it is computed by
    :class:`repro.simulation.state.NetworkState`, not here.
    """

    set_id: str
    device_a: str
    device_b: str
    circuits: List[Circuit]

    def __post_init__(self) -> None:
        if not self.circuits:
            raise ValueError(f"circuit set {self.set_id} needs at least one circuit")
        if self.device_a == self.device_b:
            raise ValueError(f"circuit set {self.set_id} cannot be a self-loop")

    @property
    def endpoints(self) -> FrozenSet[str]:
        return frozenset((self.device_a, self.device_b))

    @property
    def total_capacity_gbps(self) -> float:
        return sum(c.capacity_gbps for c in self.circuits)

    def other_end(self, device: str) -> str:
        if device == self.device_a:
            return self.device_b
        if device == self.device_b:
            return self.device_a
        raise KeyError(f"{device} is not an endpoint of {self.set_id}")


#: Pseudo-device name representing the public Internet outside our network.
INTERNET = "<internet>"


class Topology:
    """The full network: hierarchy tree, devices, servers, circuit sets.

    Provides the structural queries SkyNet's locator and evaluator need:
    which devices live under a location, which devices are adjacent, which
    circuit sets touch a location's subtree.
    """

    def __init__(self) -> None:
        self._devices: Dict[str, Device] = {}
        self._servers: Dict[str, Server] = {}
        self._circuit_sets: Dict[str, CircuitSet] = {}
        self._adjacency: Dict[str, List[str]] = {}  # device -> circuit set ids
        self._children: Dict[LocationPath, List[LocationPath]] = {}
        self._devices_by_location: Dict[LocationPath, List[str]] = {}
        self._servers_by_cluster: Dict[LocationPath, List[str]] = {}
        # caches invalidated on mutation (device graph, hop neighbourhoods)
        self._graph_cache: Optional[Dict[str, FrozenSet[str]]] = None
        self._hood_cache: Dict[int, Dict[str, FrozenSet[str]]] = {}
        # monotone mutation counter; external memoisers (e.g. the
        # evaluator's circuit-set cache) key on it to stay coherent
        self._version = 0
        # zero-copy read-only views handed out by the hot properties
        self._devices_view = types.MappingProxyType(self._devices)
        self._servers_view = types.MappingProxyType(self._servers)
        self._circuit_sets_view = types.MappingProxyType(self._circuit_sets)

    # -- pickling ----------------------------------------------------------
    # The read-only mapping views are unpicklable (and the graph/hood
    # caches are derived state), so pickling -- which the multiprocess
    # shard backend relies on to ship the fabric to worker processes --
    # drops them and rebuilds on load.

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        for key in (
            "_devices_view",
            "_servers_view",
            "_circuit_sets_view",
            "_graph_cache",
            "_hood_cache",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._graph_cache = None
        self._hood_cache = {}
        self._devices_view = types.MappingProxyType(self._devices)
        self._servers_view = types.MappingProxyType(self._servers)
        self._circuit_sets_view = types.MappingProxyType(self._circuit_sets)

    # -- construction ------------------------------------------------------

    def add_location(self, path: LocationPath) -> None:
        """Register a structural location (ancestors are added implicitly)."""
        if path.is_device:
            raise ValueError("use add_device for devices")
        self._version += 1
        node = path
        while not node.is_root:
            siblings = self._children.setdefault(node.parent, [])
            if node not in siblings:
                siblings.append(node)
            node = node.parent
        self._children.setdefault(path, self._children.get(path, []))

    def add_device(self, device: Device) -> None:
        if device.name in self._devices:
            raise ValueError(f"duplicate device {device.name}")
        if device.name == INTERNET:
            raise ValueError(f"{INTERNET!r} is reserved for the Internet pseudo-device")
        self.add_location(device.parent_location)
        self._devices[device.name] = device
        self._adjacency.setdefault(device.name, [])
        self._devices_by_location.setdefault(device.parent_location, []).append(device.name)
        self._graph_cache = None
        self._hood_cache.clear()
        self._version += 1

    def add_server(self, server: Server) -> None:
        if server.name in self._servers:
            raise ValueError(f"duplicate server {server.name}")
        if server.attached_switch not in self._devices:
            raise KeyError(f"server {server.name} uplinks to unknown {server.attached_switch}")
        self.add_location(server.cluster)
        self._servers[server.name] = server
        self._servers_by_cluster.setdefault(server.cluster, []).append(server.name)
        self._version += 1

    def add_circuit_set(self, circuit_set: CircuitSet) -> None:
        if circuit_set.set_id in self._circuit_sets:
            raise ValueError(f"duplicate circuit set {circuit_set.set_id}")
        for end in (circuit_set.device_a, circuit_set.device_b):
            if end != INTERNET and end not in self._devices:
                raise KeyError(f"circuit set {circuit_set.set_id} touches unknown {end}")
        self._circuit_sets[circuit_set.set_id] = circuit_set
        for end in circuit_set.endpoints:
            if end != INTERNET:
                self._adjacency[end].append(circuit_set.set_id)
        self._graph_cache = None
        self._hood_cache.clear()
        self._version += 1

    # -- lookups -----------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter: changes whenever the topology is edited, so
        long-lived memoisers can detect staleness cheaply."""
        return self._version

    @property
    def devices(self) -> "Dict[str, Device]":
        """Read-only live view (hot path: no copying)."""
        return self._devices_view

    @property
    def servers(self) -> "Dict[str, Server]":
        return self._servers_view

    @property
    def circuit_sets(self) -> "Dict[str, CircuitSet]":
        return self._circuit_sets_view

    def device(self, name: str) -> Device:
        return self._devices[name]

    def server(self, name: str) -> Server:
        return self._servers[name]

    def circuit_set(self, set_id: str) -> CircuitSet:
        return self._circuit_sets[set_id]

    def has_device(self, name: str) -> bool:
        return name in self._devices

    def children(self, path: LocationPath) -> List[LocationPath]:
        """Structural children of a location (not devices)."""
        return list(self._children.get(path, []))

    def locations(self) -> Iterator[LocationPath]:
        """All registered structural locations, root included, top-down."""
        seen = {LocationPath.root()}
        yield LocationPath.root()
        stack = list(reversed(self._children.get(LocationPath.root(), [])))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            yield node
            stack.extend(reversed(self._children.get(node, [])))

    def devices_at(self, path: LocationPath) -> List[Device]:
        """Devices attached *directly* to this structural location."""
        return [self._devices[n] for n in self._devices_by_location.get(path, [])]

    def devices_under(self, path: LocationPath) -> List[Device]:
        """All devices whose location lies in the subtree of ``path``."""
        if path.is_device:
            dev = self._devices.get(path.name)
            return [dev] if dev and dev.location == path else []
        return [d for d in self._devices.values() if path.contains(d.location)]

    def servers_in(self, cluster: LocationPath) -> List[Server]:
        return [self._servers[n] for n in self._servers_by_cluster.get(cluster, [])]

    def devices_in_group(self, group: str) -> List[Device]:
        return [d for d in self._devices.values() if d.group == group]

    def circuit_sets_of(self, device_name: str) -> List[CircuitSet]:
        return [self._circuit_sets[s] for s in self._adjacency.get(device_name, [])]

    def circuit_sets_under(self, path: LocationPath) -> List[CircuitSet]:
        """Circuit sets with at least one endpoint inside ``path``'s subtree."""
        names = {d.name for d in self.devices_under(path)}
        found: Dict[str, CircuitSet] = {}
        for name in names:
            for cs in self.circuit_sets_of(name):
                found[cs.set_id] = cs
        return list(found.values())

    def neighbors(self, device_name: str) -> List[str]:
        """Adjacent devices (Internet pseudo-neighbour excluded)."""
        out: List[str] = []
        for cs in self.circuit_sets_of(device_name):
            other = cs.other_end(device_name)
            if other != INTERNET:
                out.append(other)
        return out

    def internet_gateways(self) -> List[Device]:
        """Devices with a circuit set reaching the Internet pseudo-device."""
        names: Set[str] = set()
        for cs in self._circuit_sets.values():
            if INTERNET in cs.endpoints:
                names.add(cs.other_end(INTERNET))
        return [self._devices[n] for n in sorted(names)]

    # -- derived structure ---------------------------------------------------

    def device_graph(self) -> Dict[str, FrozenSet[str]]:
        """Undirected device adjacency, device -> neighbours (for
        connectivity grouping); cached until the topology mutates."""
        if self._graph_cache is None:
            self._graph_cache = {
                name: frozenset(self.neighbors(name)) for name in self._devices
            }
        return self._graph_cache

    def hop_neighbourhood(self, device_name: str, max_hops: int = 2) -> FrozenSet[str]:
        """Devices within ``max_hops`` of ``device_name`` (self excluded);
        computed lazily and cached -- the locator asks constantly."""
        per_hops = self._hood_cache.setdefault(max_hops, {})
        cached = per_hops.get(device_name)
        if cached is None:
            graph = self.device_graph()
            frontier = {device_name}
            seen = {device_name}
            for _ in range(max_hops):
                nxt: Set[str] = set()
                for node in frontier:
                    for nbr in graph[node]:
                        if nbr not in seen:
                            seen.add(nbr)
                            nxt.add(nbr)
                frontier = nxt
            seen.discard(device_name)
            cached = frozenset(seen)
            per_hops[device_name] = cached
        return cached

    def connected_device_components(
        self, device_names: Iterable[str], max_hops: int = 2
    ) -> List[FrozenSet[str]]:
        """Partition ``device_names`` into topologically connected groups.

        Two alerting devices belong to the same group when they are within
        ``max_hops`` of each other in the device graph ("network alerts often
        propagate through topological links", §4.2).  Used by the locator to
        split unrelated alert clusters that happen to share a location
        subtree (Figure 5c: device n ends up in its own incident tree).
        """
        names = [n for n in dict.fromkeys(device_names) if n in self._devices]
        if not names:
            return []
        union: Dict[str, str] = {n: n for n in names}

        def find(x: str) -> str:
            while union[x] != x:
                union[x] = union[union[x]]
                x = union[x]
            return x

        name_set = set(names)
        for name in names:
            for hit in self.hop_neighbourhood(name, max_hops) & name_set:
                ra, rb = find(name), find(hit)
                if ra != rb:
                    union[ra] = rb
        groups: Dict[str, set] = {}
        for name in names:
            groups.setdefault(find(name), set()).add(name)
        return [frozenset(g) for g in groups.values()]

    # -- summary -------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Size summary used by examples and benchmark headers."""
        return {
            "locations": sum(1 for _ in self.locations()) - 1,
            "devices": len(self._devices),
            "servers": len(self._servers),
            "circuit_sets": len(self._circuit_sets),
            "circuits": sum(len(cs.circuits) for cs in self._circuit_sets.values()),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Topology(devices={s['devices']}, servers={s['servers']}, "
            f"circuit_sets={s['circuit_sets']})"
        )
