"""Multiprocess shards: each shard tree owned by a worker process.

On the ``mp`` backend the shard trees of a
:class:`~repro.runtime.sharding.ShardedAlertTree` are
:class:`RemoteAlertTree` proxies and nothing else changes: routing, the
insertion order, the cross-shard merge, type counting, incident ids and
the supervision of :mod:`~repro.runtime.supervisor` run in the parent,
as the in-process code.

A proxy sends ``(method, args)`` over a ``spawn``-context pipe.  The
worker calls only :data:`TREE_METHODS` of the plain ``AlertTree`` it
owns, plus its own ``init``/``state``/``load``, and answers ``(status,
result, meta)``.  ``insert`` and ``insert_batch`` get no reply; an error
they raise is answered to the next call.  A pipe keeps one shard's calls
in order, so the worker's tree equals the in-process shard tree at every
reply and the incident stream is byte-identical
(``tests/runtime/test_shard_invariance.py``).

Workers are pooled (a spawn costs ~0.4s) and re-armed by ``init``, whose
reply must echo a fresh epoch.  A dead worker surfaces as
:exc:`WorkerCrashed` at the next pipe operation, unless its proxy has a
``recover`` source (the supervised tree's base snapshot + op-log
rebuild): then a fresh worker takes the rebuilt tree and the call is
retried.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import multiprocessing
import pickle
import weakref
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.alert import StructuredAlert
from ..core.alert_tree import AlertTree, Partitioner, TreeRecord, record_from
from ..core.config import SkyNetConfig
from ..core.locator import Locator
from ..topology.hierarchy import LocationPath
from ..topology.network import Topology
from .sharding import ShardedLocator, ShardTree
from .supervisor import SupervisedAlertTree, SupervisedLocator

#: Connection failures that mean "the worker process is gone".
_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)

#: Monotonic counters every worker keeps and ships with each reply.
WORKER_COUNTER_KEYS = (
    "ops_applied", "inserts_applied", "expires_applied",
    "partitions_computed", "partition_cache_hits",
)

#: The :class:`AlertTree` methods a worker calls on its proxy's behalf.
TREE_METHODS = frozenset(
    {"insert", "insert_batch", "expire", "partition", "locations", "records_at",
     "snapshot_under", "total_records", "consume_dirty", "__len__"}
)

#: Calls sent without awaiting a reply.
_POSTED = frozenset({"insert", "insert_batch"})

#: (structure_version, len, counters) of a worker tree, as of a reply.
_Meta = Tuple[int, int, Dict[str, int]]


class WorkerError(RuntimeError):
    """The worker raised inside a command; the process is still healthy."""


class WorkerCrashed(RuntimeError):
    """The worker process died (killed, OOMed, or lost its pipe)."""

    def __init__(self, shard: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard} worker process died ({cause!r}); only a "
            "supervised locator (chaos plan with shard crashes) heals it"
        )


def _worker_main(conn: Connection) -> None:
    """One shard worker: apply calls to an owned tree, answer them.

    Runs in a spawned child process.  State is (re)built by ``init`` --
    a pooled worker serves many services over its lifetime -- and the
    first reply after a failed posted call answers that failure instead
    of running its own call, keeping the protocol in lockstep.
    """
    tree = AlertTree()
    engine: Optional[Locator] = None
    counters: Dict[str, int] = dict.fromkeys(WORKER_COUNTER_KEYS, 0)
    stashed: Optional[str] = None
    while True:
        try:
            method, args = conn.recv()
        except _PIPE_ERRORS:
            return
        if stashed is not None and method not in _POSTED:
            reply: Tuple[str, Any] = ("error", stashed)
            stashed = None
        else:
            try:
                if method == "init":
                    epoch, topology, config = args
                    tree, engine = AlertTree(), Locator(topology, config)
                    counters = dict.fromkeys(WORKER_COUNTER_KEYS, 0)
                    result: Any = epoch
                elif method == "state":
                    result = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
                elif method == "load":
                    tree, result = pickle.loads(args[0]), None
                elif method not in TREE_METHODS:
                    raise WorkerError(f"unknown command {method!r}")
                elif method == "partition":
                    assert engine is not None, "partition before init"
                    memo = tree.partition_memo
                    hit = memo is not None and memo[0] == tree.structure_version
                    key = "partition_cache_hits" if hit else "partitions_computed"
                    counters[key] += 1
                    result = tree.partition(engine._indexed_partition)
                else:
                    result = getattr(tree, method)(*args)
                    if method in _POSTED or method == "expire":
                        counters["ops_applied"] += 1
                        key = "expires" if method == "expire" else "inserts"
                        counters[f"{key}_applied"] += (
                            len(args[0]) if method == "insert_batch" else 1
                        )
                reply = ("ok", result)
            except Exception as exc:  # answered to the parent, never silent
                reply = ("error", repr(exc))
            if method in _POSTED:
                if reply[0] == "error" and stashed is None:
                    stashed = reply[1]
                continue
        meta: _Meta = (tree.structure_version, len(tree), dict(counters))
        try:
            conn.send((*reply, meta))
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

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the process and reap it; the pipe is closed too."""
        if self.process.is_alive():
            self.process.kill()
        # reap bound for a SIGKILLed process, not a serving knob
        self.process.join(timeout=10.0)  # lint: allow REP016
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Process pool shared by every remote shard tree in this process.

    Released leases are kept alive for the next ``init`` to re-arm; the
    pool grows on demand and only shrinks at :meth:`shutdown` (atexit).
    """

    def __init__(self) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self._idle: List[_Worker] = []

    def lease(self) -> _Worker:
        while self._idle:
            worker = self._idle.pop()
            if worker.alive():
                return worker
            worker.kill()
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

#: Init-epoch tokens: the re-arm barrier reply must echo *this* lease's
#: epoch.  Only the parent, which alone re-arms workers, draws from it.
_EPOCHS = itertools.count(1)  # lint: allow REP014


def _remote(method: str) -> Callable[..., Any]:
    """A proxy method that makes the same-named call in the worker."""

    def call(self: "RemoteAlertTree", *args: Any) -> Any:
        return self._call(method, *args)

    call.__name__ = method
    return call


class RemoteAlertTree:
    """An :class:`AlertTree` that a pooled worker process owns.

    Offers the shard-tree surface :class:`ShardedAlertTree` uses, each
    method one ``(method, args)`` call; :meth:`begin` splits a call so a
    caller can reach every shard before it waits on any.  It pickles as
    the worker's plain tree, so checkpoints load on either backend.  It
    keeps no copy of the tree, only the last reply's ``meta``; its
    writes to ``self`` touch parent-side handles, since the proxy never
    crosses the process boundary.
    """

    def __init__(
        self,
        shard: int,
        topology: Topology,
        config: SkyNetConfig,
        recover: Optional[Callable[[], AlertTree]] = None,
    ) -> None:
        self.shard = shard
        self._topology = topology
        self._config = config
        self._recover = recover
        #: the leased worker, in a list the lease finalizer shares
        self._lease: List[_Worker] = [_POOL.lease()]
        self._finalizer = weakref.finalize(self, _POOL.release, self._lease)
        self._meta: _Meta = (0, 0, dict.fromkeys(WORKER_COUNTER_KEYS, 0))
        #: whether a call was sent since the last reply (a posted insert)
        self._unanswered = False
        self._arm()

    @property
    def pid(self) -> Optional[int]:
        return self._lease[0].process.pid

    def alive(self) -> bool:
        return self._lease[0].alive()

    def kill(self) -> None:
        """SIGKILL the worker process: a planned crash."""
        self._lease[0].kill()

    def close(self) -> None:
        """Return the worker lease to the pool (also runs at GC)."""
        self._finalizer()

    def _arm(self) -> None:
        """The init barrier: re-arm the leased worker with an empty tree."""
        epoch = next(_EPOCHS)
        self._send("init", (epoch, self._topology, self._config))
        if self._reply() != epoch:
            raise WorkerError(f"shard {self.shard} init barrier out of step")

    def _send(self, method: str, args: Tuple[Any, ...]) -> None:
        try:
            self._lease[0].conn.send((method, args))
        except _PIPE_ERRORS as exc:
            raise WorkerCrashed(self.shard, exc) from exc
        self._unanswered = True  # lint: allow REP014

    def _reply(self) -> Any:
        try:
            status, result, meta = self._lease[0].conn.recv()
        except _PIPE_ERRORS as exc:
            raise WorkerCrashed(self.shard, exc) from exc
        self._meta = meta  # lint: allow REP014
        self._unanswered = False  # lint: allow REP014
        if status == "error":
            raise WorkerError(f"shard {self.shard} worker: {result}")
        return result

    def _heal(self, exc: WorkerCrashed) -> None:
        """A fresh worker holding the rebuilt tree, or ``exc`` re-raised."""
        if self._recover is None:
            raise exc
        self.kill()
        self.load(self._recover())

    def _post(self, method: str, args: Tuple[Any, ...]) -> None:
        try:
            self._send(method, args)
        except WorkerCrashed as exc:
            self._heal(exc)
            self._send(method, args)

    def begin(self, method: str, *args: Any) -> Callable[[], Any]:
        """Send ``method(*args)``; return the function awaiting its result.

        ``partition``'s partitioner is not shipped: the worker uses the
        engine it built at ``init`` from the same topology and config.
        """
        if method == "partition":
            args = ()
        self._post(method, args)

        def wait() -> Any:
            try:
                return self._reply()
            except WorkerCrashed as exc:
                self._heal(exc)
                self._send(method, args)
                return self._reply()

        return wait

    def _call(self, method: str, *args: Any) -> Any:
        return self.begin(method, *args)()

    def _synced(self) -> _Meta:
        if self._unanswered:
            self._call("__len__")
        return self._meta

    def load(self, tree: ShardTree) -> None:
        """Make ``tree`` this shard's state, in a fresh worker if this one
        has died."""
        if not self.alive():
            self.kill()
            self._lease[0] = _POOL.lease()  # lint: allow REP014
            self._arm()
        self._call("load", pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))

    def __reduce__(self) -> Tuple[Any, ...]:
        return pickle.loads, (self._call("state"),)

    def insert(self, alert: StructuredAlert) -> TreeRecord:
        self._post("insert", (alert,))
        # the record lives in the worker; hand back a detached rendering
        return record_from(alert)

    def insert_batch(self, alerts: List[StructuredAlert]) -> int:
        self._post("insert_batch", (alerts,))
        return len(alerts)

    def partition(self, partitioner: Partitioner) -> List[List[LocationPath]]:
        return self._call("partition")

    def iter_records_at(self, location: LocationPath) -> Iterator[TreeRecord]:
        return iter(self.records_at(location))

    expire = _remote("expire")
    locations = _remote("locations")
    records_at = _remote("records_at")
    snapshot_under = _remote("snapshot_under")
    total_records = _remote("total_records")
    consume_dirty = _remote("consume_dirty")

    def __len__(self) -> int:
        return self._synced()[1]

    @property
    def structure_version(self) -> int:
        return self._synced()[0]

    @property
    def counters(self) -> Dict[str, int]:
        """The worker's :data:`WORKER_COUNTER_KEYS`, as of the last reply."""
        return self._meta[2]


class MPShardedLocator(ShardedLocator):
    """:class:`ShardedLocator` whose shard trees live in worker processes.

    Under supervision each proxy's ``recover`` source is its shard's
    rebuild, so a worker found dead mid-call heals in place.
    """

    backend = "mp"

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        shards: Optional[int] = None,
    ) -> None:
        super().__init__(topology, config, shards)
        supervised = isinstance(self.main_tree, SupervisedAlertTree)
        owner = weakref.ref(self)
        self.remote_trees = [
            RemoteAlertTree(i, topology, self._config, (
                functools.partial(_rebuild, owner, i) if supervised else None
            ))
            for i in range(self.shards)
        ]
        self.sharded_tree.shard_trees = list(self.remote_trees)

    def restore_tree(self, tree: AlertTree) -> None:
        """Adopt a checkpointed tree, shipping its shard trees to the workers."""
        super().restore_tree(tree)
        restored = self.sharded_tree
        for proxy, shard_tree in zip(self.remote_trees, restored.shard_trees):
            proxy.load(shard_tree)
        restored.shard_trees = list(self.remote_trees)

    def worker_counters(self) -> Dict[str, int]:
        """Per-worker counters, summed, as of each worker's last reply."""
        trees = self.remote_trees
        return {k: sum(t.counters[k] for t in trees) for k in WORKER_COUNTER_KEYS}

    def workers_alive(self) -> int:
        return sum(1 for tree in self.remote_trees if tree.alive())

    def worker_pid(self, index: int) -> Optional[int]:
        """The shard worker's OS pid (tests SIGKILL through this)."""
        return self.remote_trees[index].pid

    def close(self) -> None:
        """Return the worker leases to the pool (also runs at GC)."""
        for tree in self.remote_trees:
            tree.close()


def _rebuild(owner: "weakref.ref[MPShardedLocator]", index: int) -> AlertTree:
    """Shard ``index`` rebuilt by its locator's supervised tree (a weak
    reference: proxies must not keep their locator alive in a cycle)."""
    locator = owner()
    assert locator is not None, "a proxy is only used through its locator"
    tree: SupervisedAlertTree = locator.main_tree  # type: ignore[assignment]
    return tree.recover(index)


class MPSupervisedLocator(MPShardedLocator, SupervisedLocator):
    """:class:`SupervisedLocator` over worker-process shards: a planned
    crash SIGKILLs the real worker, and a death nobody planned heals at
    the next pipe operation, counted the same way."""
