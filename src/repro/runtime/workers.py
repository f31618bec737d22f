"""Multiprocess shard execution: each locator shard in its own process.

The in-process :class:`~repro.runtime.sharding.ShardedLocator` already
divides per-sweep grouping cost by the shard count, but all shards still
run on one thread.  This module is the next lever the ROADMAP names:
each Region-subtree shard runs in a **long-lived spawned worker
process** that owns its :class:`~repro.core.alert_tree.AlertTree` plus a
partition engine, fed alert batches over pickled pipes, while the parent
keeps everything that decides the output -- the root tree, the global
insertion-order map, the frontier-device cross-shard merge and
incident-id assignment -- exactly as the in-process backend does.

Why this stays byte-identical to the unsharded reference (the
differential battery in ``tests/runtime/test_shard_invariance.py`` pins
it at 1/2/4 shards, incident ids included):

* a worker applies its shard's mutations in the parent's arrival order
  (the outbox preserves per-shard op order; cross-shard interleaving is
  irrelevant because shard trees are independent), so its tree -- and
  its ``locations()`` insertion order -- equals the in-process shard
  tree's at every sweep barrier;
* the per-shard partition is the same pure function either way
  (:func:`~repro.runtime.sharding.partition_locations` over the same
  insertion-ordered location list), memoised worker-side on the tree's
  structure version;
* the cross-shard merge consumes per-shard components in the canonical
  shard order through the same
  :func:`~repro.runtime.sharding.merge_shard_partitions`, and incidents
  (with their process-global ids) are only ever created in the parent.

Protocol: strict request/reply over a ``spawn``-context pipe, except
``insert`` batches which are fire-and-forget (errors are stashed
worker-side and surface at the next reply).  Worker processes are pooled
and re-armed between services via an ``init`` epoch barrier, because a
spawn costs ~0.4s of interpreter+import time.  A worker that dies
(SIGKILL included) surfaces as :exc:`WorkerCrashed` at the next pipe
operation; under supervision (:class:`MPSupervisedLocator`) the parent
heals it -- a fresh worker, the last base snapshot, an op-log replay --
and retries, which is exact for the same reason the in-process
supervisor is: emitted structured alerts are immutable, so replaying
logged inserts and expiries reconstructs the shard tree bit-for-bit.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import pickle
import weakref
from multiprocessing.connection import Connection
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.alert import AlertLevel, StructuredAlert
from ..core.alert_tree import AlertTree, TreeRecord, record_from
from ..core.config import SkyNetConfig
from ..core.locator import CandidateGroup, Locator, SweepResult
from ..topology.hierarchy import LocationPath
from ..topology.network import Topology
from .sharding import (
    ROOT_SHARD,
    ShardedAlertTree,
    ShardedLocator,
    ShardRouter,
    merge_shard_partitions,
    partition_locations,
)
from .supervisor import ShardSupervision

#: Connection failures that mean "the worker process is gone".
_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)

#: Monotonic counters every worker keeps and ships at sweep barriers.
WORKER_COUNTER_KEYS = (
    "ops_applied",
    "inserts_applied",
    "expires_applied",
    "partitions_computed",
    "partition_cache_hits",
)

#: One logged mutation: ("insert", alert) or ("expire", now, timeout_s).
_Op = Tuple


class WorkerError(RuntimeError):
    """The worker raised inside a command; the process is still healthy."""


class WorkerCrashed(RuntimeError):
    """The worker process died (killed, OOMed, or lost its pipe)."""

    def __init__(self, shard: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard} worker process died ({cause!r}); only a "
            "supervised multiprocess locator (chaos plan with shard "
            "crashes) can heal a dead worker"
        )
        self.shard = shard


def _worker_main(conn: Connection) -> None:
    """One shard worker: apply ops to an owned tree, answer queries.

    Runs in a spawned child process.  State is (re)built by ``init`` --
    a pooled worker serves many services over its lifetime -- and every
    reply-bearing command first surfaces any error stashed by an earlier
    fire-and-forget ``insert``, keeping the request/reply protocol in
    lockstep even when a batch fails.
    """
    tree = AlertTree()
    engine: Optional[Locator] = None
    memo: Optional[Tuple[int, List[List[LocationPath]]]] = None
    counters: Dict[str, int] = dict.fromkeys(WORKER_COUNTER_KEYS, 0)
    stashed: Optional[str] = None
    while True:
        try:
            message = conn.recv()
        except _PIPE_ERRORS:
            return
        command = message[0]
        if command == "stop":
            return
        if command == "insert":
            try:
                applied = tree.insert_batch(message[1])
                counters["inserts_applied"] += applied
                counters["ops_applied"] += 1
            except Exception as exc:  # surfaced at the next reply
                stashed = repr(exc)
            continue
        if stashed is not None:
            conn.send(("error", stashed))
            stashed = None
            continue
        try:
            if command == "init":
                _, epoch, topology, config = message
                engine = Locator(topology, config)
                tree = AlertTree()
                memo = None
                counters = dict.fromkeys(WORKER_COUNTER_KEYS, 0)
                reply = ("ok", epoch)
            elif command == "expire":
                _, now, timeout_s = message
                before = set(tree._nodes)
                removed = tree.expire(now, timeout_s)
                dropped = (
                    [loc for loc in before if loc not in tree]
                    if len(tree) != len(before)
                    else []
                )
                counters["expires_applied"] += 1
                counters["ops_applied"] += 1
                reply = ("ok", removed, dropped, tree.structure_version)
            elif command == "partition":
                known_version = message[1]
                version = tree.structure_version
                if memo is None or memo[0] != version:
                    assert engine is not None, "partition before init"
                    memo = (
                        version,
                        partition_locations(engine, tree.locations()),
                    )
                    counters["partitions_computed"] += 1
                else:
                    counters["partition_cache_hits"] += 1
                types = {
                    loc: tuple(
                        (record.type_key, record.level)
                        for record in tree.iter_records_at(loc)
                    )
                    for loc in tree.locations()
                }
                components = None if version == known_version else memo[1]
                reply = ("ok", version, components, types, dict(counters))
            elif command == "sweep":
                # compound barrier: insert batch + expire + partition in
                # one round-trip, so a sweep costs O(1) frames per shard
                # instead of one per pending alert batch plus two more
                _, batch, now, timeout_s, known_version = message
                if batch:
                    applied = tree.insert_batch(batch)
                    counters["inserts_applied"] += applied
                    counters["ops_applied"] += 1
                before = set(tree._nodes)
                removed = tree.expire(now, timeout_s)
                dropped = (
                    [loc for loc in before if loc not in tree]
                    if len(tree) != len(before)
                    else []
                )
                counters["expires_applied"] += 1
                counters["ops_applied"] += 1
                version = tree.structure_version
                if memo is None or memo[0] != version:
                    assert engine is not None, "sweep before init"
                    memo = (
                        version,
                        partition_locations(engine, tree.locations()),
                    )
                    counters["partitions_computed"] += 1
                else:
                    counters["partition_cache_hits"] += 1
                types = {
                    loc: tuple(
                        (record.type_key, record.level)
                        for record in tree.iter_records_at(loc)
                    )
                    for loc in tree.locations()
                }
                components = None if version == known_version else memo[1]
                reply = (
                    "ok", removed, dropped, version, components, types,
                    dict(counters),
                )
            elif command == "records":
                reply = (
                    "ok",
                    {
                        loc: [r.clone() for r in tree.iter_records_at(loc)]
                        for loc in message[1]
                    },
                )
            elif command == "total":
                reply = ("ok", tree.total_records())
            elif command == "state":
                reply = (
                    "ok",
                    pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL),
                )
            elif command == "load":
                tree = pickle.loads(message[1])
                memo = None
                reply = ("ok", tree.structure_version)
            else:
                reply = ("error", f"unknown command {command!r}")
        except Exception as exc:  # reported to the parent, never silent
            reply = ("error", repr(exc))
        try:
            conn.send(reply)
        except _PIPE_ERRORS:
            return


class _Worker:
    """One pooled worker process plus the parent end of its pipe."""

    def __init__(self, ctx: multiprocessing.context.SpawnContext) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the process and reap it; the pipe is closed too."""
        if self.process.is_alive():
            self.process.kill()
        # reap bound for an already-SIGKILLed process, not a serving
        # knob: the pool has no RuntimeParams to draw from by design
        self.process.join(timeout=10.0)  # lint: allow REP016
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Process pool shared by every multiprocess tree in this process.

    Spawning a worker costs a fresh interpreter plus the ``repro``
    import (~0.4s), so leases are returned here instead of killed and
    re-armed by the next ``init``.  The pool grows on demand and never
    shrinks below the high-water mark until :meth:`shutdown` (atexit).
    """

    def __init__(self) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self._idle: List[_Worker] = []
        self.spawned = 0

    def lease(self) -> _Worker:
        while self._idle:
            worker = self._idle.pop()
            if worker.alive():
                return worker
            worker.kill()
        self.spawned += 1
        return _Worker(self._ctx)

    def release(self, workers: List[_Worker]) -> None:
        """Return leased workers; dead ones are reaped, not pooled."""
        for worker in workers:
            if worker.alive():
                self._idle.append(worker)
            else:
                worker.kill()
        workers.clear()

    def shutdown(self) -> None:
        for worker in self._idle:
            worker.kill()
        self._idle.clear()


_POOL = WorkerPool()
atexit.register(_POOL.shutdown)

#: Init-epoch tokens: protocol hygiene when a pooled worker is re-armed
#: (the barrier reply must echo the epoch of *this* lease).
_EPOCHS = itertools.count(1)  # lint: allow REP014


class MPShardedAlertTree:
    """The :class:`AlertTree` interface over worker-process shard trees.

    The parent owns the root tree and the cross-shard invariants -- the
    global insertion-order map, the dirty set, a structure-version
    mirror -- so order-sensitive queries (``locations``,
    ``snapshot_under``) answer without touching a worker, and queries
    that need record state fetch it over the pipe after flushing the
    per-shard outboxes.  With ``supervised=True`` it also keeps the
    in-process supervisor's recovery discipline parent-side: a pickled
    base snapshot per shard plus an op log since, which heals a dead
    worker *process* exactly.

    Every ``# lint: allow REP014`` below waives a write to **parent-side
    bookkeeping**: this object never crosses the process boundary (each
    worker owns a plain :class:`AlertTree` rebuilt by ``init``/``load``),
    so the mirrors, outboxes and supervision log are single-process
    state, and the request/reply pipe -- serialised by construction --
    is the only state the processes actually share.  ``_EPOCHS``
    likewise only needs uniqueness within the parent, which is the sole
    process that leases and re-arms workers.
    """

    def __init__(
        self,
        router: ShardRouter,
        topology: Topology,
        config: SkyNetConfig,
        supervised: bool = False,
    ) -> None:
        self.router = router
        self.supervised = supervised
        self._topology = topology
        self._config = config
        self.root_tree = AlertTree()
        #: location -> shard index, in global first-insertion order
        self._order: Dict[LocationPath, int] = {}
        #: parent-side mirror of the worker-shard dirty sets
        self._dirty: Set[LocationPath] = set()
        #: parent-side mirror of each worker tree's structure_version
        self._versions: List[int] = [0] * router.shards
        #: alerts routed but not yet shipped, per shard, arrival order
        self._outbox: List[List[StructuredAlert]] = [
            [] for _ in range(router.shards)
        ]
        #: last partition reply per shard: (version, components)
        self._comp_memo: List[Optional[Tuple[int, List[List[LocationPath]]]]]
        self._comp_memo = [None] * router.shards
        #: last counters snapshot shipped by each worker (sweep barrier)
        self._counters: List[Dict[str, int]] = [
            dict.fromkeys(WORKER_COUNTER_KEYS, 0) for _ in range(router.shards)
        ]
        # supervision state (parent-side, mirrors SupervisedAlertTree)
        self._base: Dict[int, Optional[bytes]] = {
            i: None for i in range(router.shards)
        }
        self._oplog: Dict[int, List[_Op]] = {i: [] for i in range(router.shards)}
        self._crashed: Set[int] = set()
        self._lost: Set[int] = set()
        self.crashes = 0
        self.restores = 0
        self.replayed_ops = 0
        self.degraded_heals = 0
        self._workers: List[_Worker] = []
        for index in range(router.shards):
            self._workers.append(_POOL.lease())
            self._init_worker(index)
        # auto-release the leases when the tree is garbage collected;
        # the list object is shared so heals stay visible to the finalizer
        self._finalizer = weakref.finalize(self, _POOL.release, self._workers)

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        """Return the worker leases to the pool (also runs at GC)."""
        self._finalizer()

    def worker_pid(self, index: int) -> Optional[int]:
        """The shard worker's OS pid (tests SIGKILL through this)."""
        return self._workers[index].pid

    def workers_alive(self) -> int:
        return sum(1 for worker in self._workers if worker.alive())

    def worker_counters(self) -> Dict[str, int]:
        """Per-worker counters aggregated at the last sweep barrier."""
        out = dict.fromkeys(WORKER_COUNTER_KEYS, 0)
        for snapshot in self._counters:
            for key, value in snapshot.items():
                out[key] += value
        return out

    def _init_worker(self, index: int) -> None:
        worker = self._workers[index]
        epoch = next(_EPOCHS)
        try:
            worker.conn.send(("init", epoch, self._topology, self._config))
            reply = worker.conn.recv()
        except _PIPE_ERRORS as exc:
            raise WorkerCrashed(index, exc) from exc
        if reply != ("ok", epoch):
            raise WorkerError(f"shard {index} init barrier: {reply!r}")
        self._versions[index] = 0  # lint: allow REP014
        self._comp_memo[index] = None  # lint: allow REP014

    def _send(self, index: int, message: Tuple) -> None:
        """Fire-and-forget send, healing a dead worker if supervised."""
        try:
            self._workers[index].conn.send(message)
        except _PIPE_ERRORS as exc:
            if not self.supervised:
                raise WorkerCrashed(index, exc) from exc
            # the outbox entries this send carried are already in the op
            # log, so healing replays them; nothing to resend
            self._heal_worker(index)

    def _roundtrip(self, index: int, message: Tuple) -> Tuple:
        """One reply-bearing exchange, healing + retrying if supervised.

        Safe for every reply-bearing command: reads are side-effect
        free, ``expire`` is idempotent *and* logged only after its ack,
        so a heal replays the log without it and the retry applies it
        exactly once with authoritative reply values.
        """
        for attempt in (0, 1):
            worker = self._workers[index]
            try:
                worker.conn.send(message)
                reply = worker.conn.recv()
            except _PIPE_ERRORS as exc:
                if self.supervised and attempt == 0:
                    self._heal_worker(index)
                    continue
                raise WorkerCrashed(index, exc) from exc
            if reply[0] == "error":
                raise WorkerError(f"shard {index} worker: {reply[1]}")
            return reply
        raise AssertionError("unreachable")

    def _flush(self) -> None:
        """Ship every pending outbox batch to its worker."""
        for index, batch in enumerate(self._outbox):
            if batch:
                self._outbox[index] = []  # lint: allow REP014
                self._send(index, ("insert", batch))

    def _scatter(self, build_message) -> List[bool]:
        """Send one reply-bearing message to every worker shard.

        ``build_message(index)`` is re-evaluated on retries because a
        heal can reset per-shard state the message encodes (the
        partition memo version).  Returns, per shard, whether the send
        reached a live worker; a shard healed during the scatter has no
        request in flight and is retried as a full roundtrip by
        :meth:`_gather`.
        """
        sent: List[bool] = []
        for index in range(self.router.shards):
            try:
                self._workers[index].conn.send(build_message(index))
                sent.append(True)
            except _PIPE_ERRORS as exc:
                if not self.supervised:
                    raise WorkerCrashed(index, exc) from exc
                self._heal_worker(index)
                sent.append(False)
        return sent

    def _gather(self, index: int, in_flight: bool, build_message) -> Tuple:
        """Collect one shard's :meth:`_scatter` reply (heal + retry)."""
        if in_flight:
            try:
                reply = self._workers[index].conn.recv()
            except _PIPE_ERRORS as exc:
                if not self.supervised:
                    raise WorkerCrashed(index, exc) from exc
                self._heal_worker(index)
                reply = self._roundtrip(index, build_message(index))
        else:
            reply = self._roundtrip(index, build_message(index))
        if reply[0] == "error":
            raise WorkerError(f"shard {index} worker: {reply[1]}")
        return reply

    # -- AlertTree interface: mutation -------------------------------------

    def _note_insert(self, alert: StructuredAlert, index: int) -> None:
        if alert.location not in self._order:
            self._order[alert.location] = index  # lint: allow REP014
            if index != ROOT_SHARD:
                self._versions[index] += 1  # lint: allow REP014
        if index != ROOT_SHARD:
            self._dirty.add(alert.location)  # lint: allow REP014
            self._outbox[index].append(alert)  # lint: allow REP014
            if self.supervised:
                self._oplog[index].append(("insert", alert))  # lint: allow REP014

    def insert(self, alert: StructuredAlert) -> TreeRecord:
        index = self.router.shard_of(alert.location)
        self._note_insert(alert, index)
        if index == ROOT_SHARD:
            return self.root_tree.insert(alert)  # lint: allow REP014
        # the record lives in the worker; hand back a detached rendering
        # (no production caller reads insert()'s return value)
        return record_from(alert)

    def insert_batch(self, alerts: List[StructuredAlert]) -> int:
        for alert in alerts:
            index = self.router.shard_of(alert.location)
            self._note_insert(alert, index)
            if index == ROOT_SHARD:
                self.root_tree.insert(alert)  # lint: allow REP014
        return len(alerts)

    def expire(self, now: float, timeout_s: float) -> int:
        """Expire every shard: flush, scatter, gather, prune the order map.

        The worker replies carry exactly what the parent mirrors need:
        the removed-record count, the locations whose nodes dropped
        (pruned from the order map and dirty set, preserving the order
        of survivors), and the authoritative structure version.
        """
        self._flush()
        message = ("expire", now, timeout_s)
        sent = self._scatter(lambda index: message)
        removed = 0
        root_before = self.root_tree.structure_version
        removed += self.root_tree.expire(now, timeout_s)
        for index in range(self.router.shards):
            # heal-on-crash is exact here: the op log excludes this
            # expire until its ack, so the retry applies it for real
            reply = self._gather(index, sent[index], lambda index: message)
            _, shard_removed, dropped, version = reply
            removed += shard_removed
            self._versions[index] = version  # lint: allow REP014
            for location in dropped:
                self._order.pop(location, None)  # lint: allow REP014
                self._dirty.discard(location)  # lint: allow REP014
            if self.supervised:
                self._oplog[index].append(("expire", now, timeout_s))  # lint: allow REP014
        if self.root_tree.structure_version != root_before:
            for location in [
                loc
                for loc, index in self._order.items()
                if index == ROOT_SHARD and loc not in self.root_tree
            ]:
                del self._order[location]  # lint: allow REP014
        return removed

    # -- AlertTree interface: queries --------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, location: LocationPath) -> bool:
        return location in self._order

    @property
    def structure_version(self) -> int:
        return self.root_tree.structure_version + sum(self._versions)

    def consume_dirty(self) -> Set[LocationPath]:
        dirty = self._dirty | self.root_tree.consume_dirty()
        self._dirty = set()
        return dirty

    def locations(self) -> List[LocationPath]:
        return list(self._order)

    def locations_under(self, root: LocationPath) -> List[LocationPath]:
        return [loc for loc in self._order if root.contains(loc)]

    def _fetch_records(
        self, wanted: List[Tuple[LocationPath, int]]
    ) -> Dict[LocationPath, List[TreeRecord]]:
        """Record lists for (location, shard) pairs, one fetch per shard."""
        self._flush()
        by_shard: Dict[int, List[LocationPath]] = {}
        for location, index in wanted:
            by_shard.setdefault(index, []).append(location)
        out: Dict[LocationPath, List[TreeRecord]] = {}
        for index, locs in by_shard.items():
            if index == ROOT_SHARD:
                for loc in locs:
                    out[loc] = [
                        r.clone() for r in self.root_tree.iter_records_at(loc)
                    ]
            else:
                reply = self._roundtrip(index, ("records", locs))
                out.update(reply[1])
        return out

    def records_at(self, location: LocationPath) -> List[TreeRecord]:
        index = self._order.get(location)
        if index is None:
            return []
        return self._fetch_records([(location, index)]).get(location, [])

    def iter_records_at(self, location: LocationPath) -> Iterator[TreeRecord]:
        return iter(self.records_at(location))

    def records_under(self, root: LocationPath) -> Iterator[TreeRecord]:
        snapshot = self.snapshot_under(root)
        for records in snapshot.values():
            yield from records

    def total_records(self) -> int:
        self._flush()
        total = self.root_tree.total_records()
        for index in range(self.router.shards):
            total += self._roundtrip(index, ("total",))[1]
        return total

    def snapshot_under(
        self, root: LocationPath
    ) -> Dict[LocationPath, List[TreeRecord]]:
        wanted = [
            (loc, index)
            for loc, index in self._order.items()
            if root.contains(loc)
        ]
        fetched = self._fetch_records(wanted)
        # assemble in the global insertion order the order map preserves
        return {loc: fetched[loc] for loc, _ in wanted}

    # -- sweep barrier: partitions + counters ------------------------------

    def partition_all(
        self,
    ) -> Tuple[
        List[Tuple[int, List[List[LocationPath]]]],
        Dict[LocationPath, Tuple],
    ]:
        """Every worker shard's partition plus its per-location types.

        One scatter/gather per sweep: workers partition concurrently
        (memoised on their own structure version; components are only
        shipped when the version moved past the parent's memo) and ship
        the (type_key, level) pairs the parent's type counting needs,
        plus their counters -- this is the sweep barrier the service
        aggregates worker metrics at.
        """
        self._flush()

        def build_message(index: int) -> Tuple:
            memo = self._comp_memo[index]
            return ("partition", memo[0] if memo is not None else -1)

        sent = self._scatter(build_message)
        shard_parts: List[Tuple[int, List[List[LocationPath]]]] = []
        types_map: Dict[LocationPath, Tuple] = {}
        for index in range(self.router.shards):
            reply = self._gather(index, sent[index], build_message)
            _, version, components, types, counters = reply
            if components is None:
                memo = self._comp_memo[index]
                assert memo is not None and memo[0] == version
                components = memo[1]
            else:
                self._comp_memo[index] = (version, components)  # lint: allow REP014
            self._versions[index] = version  # lint: allow REP014
            self._counters[index] = counters  # lint: allow REP014
            shard_parts.append((index, components))
            types_map.update(types)
        return shard_parts, types_map

    def sweep_all(
        self, now: float, timeout_s: float
    ) -> Tuple[
        int,
        List[Tuple[int, List[List[LocationPath]]]],
        Dict[LocationPath, Tuple],
    ]:
        """One compound barrier: outbox batch + expire + partition per shard.

        The pending insert batches ride *inside* the sweep request, so a
        whole sweep costs one request/reply frame per shard -- O(batches)
        -- where the separate ``_flush`` + ``expire`` + ``partition``
        sequence paid up to three requests and two replies.  Replies are
        byte-for-byte the fusion of the individual commands' replies, and
        the heal discipline is unchanged: popped batches are already in
        the op log (logged at ``_note_insert``), so a retried sweep sends
        an empty batch and the replayed log supplies the inserts, while
        the expire is logged only after its ack and therefore applied
        exactly once.
        """

        def build_message(index: int) -> Tuple:
            batch = self._outbox[index]
            if batch:
                self._outbox[index] = []  # lint: allow REP014
            memo = self._comp_memo[index]
            return (
                "sweep", batch, now, timeout_s,
                memo[0] if memo is not None else -1,
            )

        sent = self._scatter(build_message)
        root_before = self.root_tree.structure_version
        removed = self.root_tree.expire(now, timeout_s)
        shard_parts: List[Tuple[int, List[List[LocationPath]]]] = []
        types_map: Dict[LocationPath, Tuple] = {}
        for index in range(self.router.shards):
            reply = self._gather(index, sent[index], build_message)
            _, shard_removed, dropped, version, components, types, counters = reply
            removed += shard_removed
            if components is None:
                memo = self._comp_memo[index]
                assert memo is not None and memo[0] == version
                components = memo[1]
            else:
                self._comp_memo[index] = (version, components)  # lint: allow REP014
            self._versions[index] = version  # lint: allow REP014
            self._counters[index] = counters  # lint: allow REP014
            for location in dropped:
                self._order.pop(location, None)  # lint: allow REP014
                self._dirty.discard(location)  # lint: allow REP014
            if self.supervised:
                self._oplog[index].append(("expire", now, timeout_s))  # lint: allow REP014
            shard_parts.append((index, components))
            types_map.update(types)
        if self.root_tree.structure_version != root_before:
            for location in [
                loc
                for loc, index in self._order.items()
                if index == ROOT_SHARD and loc not in self.root_tree
            ]:
                del self._order[location]  # lint: allow REP014
        return removed, shard_parts, types_map

    # -- checkpoint + restore ----------------------------------------------

    def snapshot_trees(self) -> List[bytes]:
        """Every worker shard's tree, pickled, after an outbox flush."""
        self._flush()
        return [
            self._roundtrip(index, ("state",))[1]
            for index in range(self.router.shards)
        ]

    def materialize(self) -> ShardedAlertTree:
        """An equivalent plain :class:`ShardedAlertTree` for checkpoints.

        Backend-portable by construction: an in-process service can
        restore it directly, and :meth:`load` ships it back into
        workers, so checkpoints cross backends in both directions.
        """
        out = ShardedAlertTree(self.router)
        out.shard_trees = [pickle.loads(b) for b in self.snapshot_trees()]
        out.root_tree = pickle.loads(
            pickle.dumps(self.root_tree, protocol=pickle.HIGHEST_PROTOCOL)
        )
        out._order = dict(self._order)
        return out

    def load(self, tree: ShardedAlertTree) -> None:
        """Adopt a checkpointed tree: ship shard trees to the workers.

        Deterministic restore: each worker receives its pickled shard
        tree (insertion order, dirty set and expiry heap included), the
        parent mirrors are rebuilt from the same artefact, and under
        supervision the shipped bytes become the new recovery bases.
        """
        self._outbox = [[] for _ in range(self.router.shards)]  # lint: allow REP014
        shard_blobs = [
            pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL)
            for t in tree.shard_trees
        ]
        if self.supervised:
            self._base = dict(enumerate(shard_blobs))  # lint: allow REP014
            self._oplog = {i: [] for i in range(self.router.shards)}  # lint: allow REP014
            self._crashed = set()  # lint: allow REP014
            self._lost = set()  # lint: allow REP014
        for index, blob in enumerate(shard_blobs):
            reply = self._roundtrip(index, ("load", blob))
            self._versions[index] = reply[1]  # lint: allow REP014
            self._comp_memo[index] = None  # lint: allow REP014
        self.root_tree = tree.root_tree  # lint: allow REP014
        self._order = dict(tree._order)  # lint: allow REP014
        self._dirty = set().union(  # lint: allow REP014
            *(shard_tree._dirty for shard_tree in tree.shard_trees)
        ) if tree.shard_trees else set()

    # -- supervision -------------------------------------------------------

    def snapshot_shards(self) -> None:
        """Refresh every shard's recovery base and truncate its op log."""
        for index, blob in enumerate(self.snapshot_trees()):
            self._base[index] = blob  # lint: allow REP014
            self._oplog[index] = []  # lint: allow REP014
        self._lost.clear()  # lint: allow REP014

    def invalidate_snapshot(self, index: int) -> None:
        """Partial checkpoint loss: shard ``index`` loses base *and* log."""
        if not 0 <= index < self.router.shards:
            raise IndexError(
                f"no shard {index} (have {self.router.shards})"
            )
        self._base[index] = None  # lint: allow REP014
        self._oplog[index] = []  # lint: allow REP014
        self._lost.add(index)  # lint: allow REP014

    def install_base(self, index: int, blob: bytes) -> None:
        """Adopt a rebuilt current-state tree as the recovery base."""
        if not 0 <= index < self.router.shards:
            raise IndexError(
                f"no shard {index} (have {self.router.shards})"
            )
        self._base[index] = blob  # lint: allow REP014
        self._oplog[index] = []  # lint: allow REP014
        self._lost.discard(index)  # lint: allow REP014

    def lost_snapshots(self) -> Set[int]:
        return set(self._lost)

    def crash(self, index: int) -> None:
        """Kill shard ``index``'s worker *process* (SIGKILL, reaped)."""
        if not 0 <= index < self.router.shards:
            raise IndexError(
                f"no shard {index} (have {self.router.shards})"
            )
        self._workers[index].kill()
        self._crashed.add(index)  # lint: allow REP014
        self.crashes += 1  # lint: allow REP014

    @property
    def crashed_shards(self) -> Set[int]:
        return set(self._crashed)

    def heal_all(self) -> int:
        """Heal every shard whose planned crash was fired via :meth:`crash`."""
        healed = 0
        for index in sorted(self._crashed):
            self._restore_worker(index)
            healed += 1
        self._crashed.clear()  # lint: allow REP014
        return healed

    def _heal_worker(self, index: int) -> None:
        """Heal a worker found dead mid-operation (unplanned death)."""
        if not self.supervised:
            raise AssertionError("heal on an unsupervised tree")
        self.crashes += 1  # lint: allow REP014
        self._restore_worker(index)
        self._crashed.discard(index)  # lint: allow REP014

    def _restore_worker(self, index: int) -> None:
        """Fresh worker <- base snapshot <- op-log replay, in op order."""
        self._workers[index].kill()
        self._workers[index] = _POOL.lease()  # lint: allow REP014
        self._init_worker(index)
        if index in self._lost:
            # recovery source destroyed and no rebuilt base installed:
            # the heal is empty-worker, data loss admitted
            self.degraded_heals += 1  # lint: allow REP014
            self._lost.discard(index)  # lint: allow REP014
        base = self._base[index]
        if base is not None:
            reply = self._roundtrip(index, ("load", base))
            self._versions[index] = reply[1]  # lint: allow REP014
        # replay preserving insert/expire interleaving
        log = self._oplog[index]
        batch: List[StructuredAlert] = []
        for op in log:
            if op[0] == "insert":
                batch.append(op[1])
            else:
                if batch:
                    self._send(index, ("insert", batch))
                    batch = []
                self._roundtrip(index, ("expire", op[1], op[2]))
        if batch:
            self._send(index, ("insert", batch))
        # the outbox ops (if any) are part of the log: already replayed
        self._outbox[index] = []  # lint: allow REP014
        self.replayed_ops += len(log)  # lint: allow REP014
        self.restores += 1  # lint: allow REP014


class MPShardedLocator(ShardedLocator):
    """§4.2 locating with each shard tree owned by a worker process.

    Inherits feeds, sweeps, thresholds and supersession from
    :class:`Locator` via :class:`ShardedLocator`; overrides the
    candidate-group computation to gather worker partitions at the sweep
    barrier (root-shard partition computed locally, memoised as before)
    and the type counting to read the types each worker shipped with its
    partition.  Incident creation -- and therefore id assignment -- is
    untouched parent-side code.
    """

    backend = "mp"

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        shards: Optional[int] = None,
        supervised: bool = False,
    ) -> None:
        super().__init__(topology, config, shards)
        self.main_tree = MPShardedAlertTree(  # type: ignore[assignment]
            self.router, topology, self._config, supervised=supervised
        )
        self._partitions = {}
        #: location -> ((type_key, level), ...) from the last barrier
        self._types_map: Dict[LocationPath, Tuple] = {}
        #: worker partitions from the last compound sweep barrier,
        #: consumed (and cleared) by the next ``_candidate_groups`` call
        self._barrier_parts: Optional[
            List[Tuple[int, List[List[LocationPath]]]]
        ] = None

    @property
    def mp_tree(self) -> MPShardedAlertTree:
        tree: MPShardedAlertTree = self.main_tree  # type: ignore[assignment]
        return tree

    def sweep(self, now: float) -> SweepResult:
        """The :meth:`Locator.sweep` steps, fused at one worker barrier.

        Mirrors the base implementation line for line -- flush,
        expire, close-idle, generate -- but ships each shard's
        pending insert batch, its expiry and its partition request in a
        *single* compound frame via :meth:`MPShardedAlertTree.sweep_all`;
        ``_candidate_groups`` then consumes the partitions gathered at
        that barrier instead of paying a second scatter.  ``_close_idle``
        between the barrier and ``_generate`` is pure incident
        bookkeeping (no tree mutation), so the partitions stay valid.
        """
        self.flush()  # fills the per-shard outboxes parent-side
        tree = self.mp_tree
        expired, shard_parts, types_map = tree.sweep_all(
            now, self._config.node_timeout_s
        )
        self._types_map = types_map
        self._barrier_parts = shard_parts
        closed = self._close_idle(now)
        opened = self._generate(now)
        return SweepResult(
            opened=opened, closed=closed, expired_records=expired
        )

    def _candidate_groups(self) -> List[CandidateGroup]:
        tree = self.mp_tree
        if self._barrier_parts is not None:
            # partitions gathered at this sweep's compound barrier
            shard_parts = self._barrier_parts
            self._barrier_parts = None
        else:
            # out-of-sweep call (no barrier to consume): pay the scatter
            shard_parts, self._types_map = tree.partition_all()
        version = tree.root_tree.structure_version
        cached = self._partitions.get(ROOT_SHARD)
        if cached is None or cached[0] != version:
            cached = (
                version,
                partition_locations(self, tree.root_tree.locations()),
            )
            self._partitions[ROOT_SHARD] = cached
        shard_parts.append((ROOT_SHARD, cached[1]))
        return merge_shard_partitions(
            self._topo,
            self._config.connectivity_max_hops,
            self._frontier,
            shard_parts,
        )

    def _count_types(self, component: Sequence[LocationPath]) -> Tuple[int, int]:
        """Type counts from the types shipped at the partition barrier.

        Worker locations use the shipped (type_key, level) pairs; root
        locations read the parent-local root tree.  Same set semantics
        (and the same ``count_by_type`` ablation key) as the base class.
        """
        failure_keys: Set = set()
        other_keys: Set = set()
        for location in component:
            pairs = self._types_map.get(location)
            if pairs is None:
                pairs = tuple(
                    (record.type_key, record.level)
                    for record in self.main_tree.iter_records_at(location)
                )
            for type_key, level in pairs:
                if self._config.count_by_type:
                    key = type_key
                else:
                    key = (type_key, location)
                if level is AlertLevel.FAILURE:
                    failure_keys.add(key)
                else:
                    other_keys.add(key)
        return len(failure_keys), len(other_keys)

    # -- checkpoint hooks ---------------------------------------------------

    def checkpoint_tree(self) -> ShardedAlertTree:
        return self.mp_tree.materialize()

    def restore_tree(self, tree: AlertTree) -> None:
        if not isinstance(tree, ShardedAlertTree):
            raise TypeError(
                "multiprocess locator can only restore a ShardedAlertTree "
                f"checkpoint, got {type(tree).__name__}"
            )
        self.mp_tree.load(tree)
        self._groups_cache = None
        self._groups_version = -1
        self._partitions = {}
        self._types_map = {}
        self._barrier_parts = None

    # -- worker surface -----------------------------------------------------

    def worker_counters(self) -> Dict[str, int]:
        return self.mp_tree.worker_counters()

    def workers_alive(self) -> int:
        return self.mp_tree.workers_alive()

    def worker_pid(self, index: int) -> Optional[int]:
        return self.mp_tree.worker_pid(index)

    def close(self) -> None:
        self.mp_tree.close()


class MPSupervisedLocator(MPShardedLocator, ShardSupervision):
    """A :class:`MPShardedLocator` whose dead workers are healed exactly.

    The multiprocess counterpart of
    :class:`~repro.runtime.supervisor.SupervisedLocator`: ``crash_shard``
    SIGKILLs the real worker process, and healing replays base snapshot
    + op log into a fresh worker.  Unplanned deaths (a worker killed
    from outside, mid-sweep) are healed transparently at the next pipe
    operation and counted the same way.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        shards: Optional[int] = None,
    ) -> None:
        super().__init__(topology, config, shards, supervised=True)

    def crash_shard(self, index: int) -> None:
        self.mp_tree.crash(index)

    def heal_crashed(self) -> int:
        return self.mp_tree.heal_all()

    def snapshot_shards(self) -> None:
        self.mp_tree.snapshot_shards()

    def invalidate_snapshot(self, index: int) -> None:
        self.mp_tree.invalidate_snapshot(index)

    def install_base(self, index: int, blob: bytes) -> None:
        self.mp_tree.install_base(index, blob)

    def lost_snapshots(self) -> Set[int]:
        return self.mp_tree.lost_snapshots()

    @property
    def crashes(self) -> int:
        return self.mp_tree.crashes

    @property
    def restores(self) -> int:
        return self.mp_tree.restores

    @property
    def replayed_ops(self) -> int:
        return self.mp_tree.replayed_ops

    @property
    def degraded_heals(self) -> int:
        return self.mp_tree.degraded_heals
