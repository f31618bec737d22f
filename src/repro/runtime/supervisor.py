"""Shard supervision: detect a crashed locator shard, heal it exactly.

:class:`~repro.runtime.sharding.ShardedLocator` partitions the main tree
over Region-subtree shards; a production deployment runs those shards as
separate workers, and workers die.  This module gives the runtime the
recovery half of that story at the granularity the service already
checkpoints at:

* :class:`SupervisedAlertTree` keeps, per shard, a pickled **base
  snapshot** (refreshed whenever the service writes a checkpoint, so the
  two stay aligned) plus an **op log** of every mutation since -- the
  same write-ahead discipline the alert journal applies to the whole
  service, scoped to one shard.  Emitted structured alerts are never
  mutated after emission (the preprocessor snapshots aggregates on
  emit), so replaying the logged inserts and expiries over the base
  snapshot reconstructs the shard tree *exactly*.
* :class:`SupervisedLocator` swaps that tree in and exposes
  ``crash_shard`` / ``heal_crashed``: a crash wipes one shard's live
  tree -- on the ``mp`` backend it SIGKILLs the worker process that owns
  it -- while sibling shards, open incidents and the root tree are
  untouched; healing restores the base snapshot and replays the log.
  The service triggers crashes from the
  :class:`~repro.runtime.faults.ChaosPlan` and runs the supervision
  check before the pipeline next touches the tree, so a healed shard is
  indistinguishable from one that never died --
  ``tests/runtime/test_chaos.py`` pins the incident stream (ids
  included) against an uncrashed run.

Supervision is only installed when the plan actually schedules shard
crashes; otherwise the service uses the plain :class:`ShardedLocator`
and this module stays out of the way entirely.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Set, Tuple, Union

from ..core.alert import StructuredAlert
from ..core.alert_tree import AlertTree, TreeRecord
from ..core.config import SkyNetConfig
from ..topology.network import Topology
from .sharding import ROOT_SHARD, ShardedAlertTree, ShardedLocator, ShardRouter

#: One logged mutation: ("insert", alert) or ("expire", now, timeout_s).
_Op = Union[Tuple[str, StructuredAlert], Tuple[str, float, float]]


class SupervisedAlertTree(ShardedAlertTree):
    """A :class:`ShardedAlertTree` whose shards can crash and be healed.

    Mutations route through the parent unchanged; per regular shard they
    are additionally appended to that shard's op log once the shard has
    taken them.  So a heal that runs *inside* a call -- a worker process
    found dead mid-operation, see :meth:`recover` -- replays the log
    without that call, and the retried call applies it exactly once.
    The root tree is deliberately outside the crash model -- it is the
    cross-shard merge anchor, not a worker.
    """

    def __init__(self, router: ShardRouter) -> None:
        super().__init__(router)
        self._base: Dict[int, Optional[bytes]] = {
            i: None for i in range(router.shards)
        }
        self._oplog: Dict[int, List[_Op]] = {
            i: [] for i in range(router.shards)
        }
        self._crashed: Set[int] = set()
        self._lost: Set[int] = set()
        self.crashes = 0
        self.restores = 0
        self.replayed_ops = 0
        self.degraded_heals = 0

    # -- logged mutations --------------------------------------------------

    def insert(self, alert: StructuredAlert) -> TreeRecord:
        record = super().insert(alert)
        index = self.router.shard_of(alert.location)
        if index != ROOT_SHARD:
            self._oplog[index].append(("insert", alert))
        return record

    def insert_batch(self, alerts: List[StructuredAlert]) -> int:
        count = super().insert_batch(alerts)
        for alert in alerts:
            index = self.router.shard_of(alert.location)
            if index != ROOT_SHARD:
                self._oplog[index].append(("insert", alert))
        return count

    def _expire_trees(self, now: float, timeout_s: float) -> int:
        removed = super()._expire_trees(now, timeout_s)
        for log in self._oplog.values():
            log.append(("expire", now, timeout_s))
        return removed

    # -- supervision -------------------------------------------------------

    def snapshot_shards(self) -> None:
        """Refresh every shard's base snapshot and truncate its op log.

        The service calls this at checkpoint time, so a shard's recovery
        source is never older than the service's own recovery source and
        the op log stays bounded by one checkpoint interval of alerts.
        """
        for index, tree in enumerate(self.shard_trees):
            self._base[index] = pickle.dumps(
                tree, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._oplog[index] = []
        self._lost.clear()

    def invalidate_snapshot(self, index: int) -> None:
        """Partial checkpoint loss: shard ``index`` loses base *and* log."""
        if not 0 <= index < len(self.shard_trees):
            raise IndexError(f"no shard {index} (have {len(self.shard_trees)})")
        self._base[index] = None
        self._oplog[index] = []
        self._lost.add(index)

    def install_base(self, index: int, blob: bytes) -> None:
        """Adopt a rebuilt current-state tree as the recovery base."""
        if not 0 <= index < len(self.shard_trees):
            raise IndexError(f"no shard {index} (have {len(self.shard_trees)})")
        self._base[index] = blob
        self._oplog[index] = []
        self._lost.discard(index)

    def lost_snapshots(self) -> Set[int]:
        return set(self._lost)

    def crash(self, index: int) -> None:
        """Lose shard ``index``'s live tree, as a dead worker would; on
        the ``mp`` backend its worker process is SIGKILLed for real."""
        if not 0 <= index < len(self.shard_trees):
            raise IndexError(f"no shard {index} (have {len(self.shard_trees)})")
        tree = self.shard_trees[index]
        if isinstance(tree, AlertTree):
            self.shard_trees[index] = AlertTree()
        else:
            tree.kill()
        self._crashed.add(index)
        self.crashes += 1

    def heal_all(self) -> int:
        """Restore every crashed shard from base snapshot + op-log replay.

        Returns the number of shards healed.  Sibling shards are never
        touched: healing rebuilds one shard's :class:`AlertTree` in
        isolation and swaps it into place (a remote shard ships it into
        a fresh worker process).
        """
        for index in sorted(self._crashed):
            tree = self.shard_trees[index]
            if isinstance(tree, AlertTree):
                self.shard_trees[index] = self._rebuilt(index)
            else:
                tree.load(self._rebuilt(index))
        healed = len(self._crashed)
        self._crashed.clear()
        return healed

    def recover(self, index: int) -> AlertTree:
        """Shard ``index``'s tree after a crash nobody planned: a remote
        shard calls this when it finds its worker process dead."""
        self.crashes += 1
        self._crashed.discard(index)
        return self._rebuilt(index)

    def _rebuilt(self, index: int) -> AlertTree:
        """Shard ``index``'s tree from its base snapshot + op-log replay."""
        base = self._base[index]
        tree = pickle.loads(base) if base is not None else AlertTree()
        if index in self._lost:
            # recovery source destroyed and no rebuilt base was
            # installed: the heal is empty-tree, data loss admitted
            self.degraded_heals += 1
            self._lost.discard(index)
        for op in self._oplog[index]:
            if op[0] == "insert":
                tree.insert(op[1])  # type: ignore[arg-type]
            else:
                tree.expire(op[1], op[2])  # type: ignore[arg-type, misc]
        self.replayed_ops += len(self._oplog[index])
        self.restores += 1
        return tree


class SupervisedLocator(ShardedLocator):
    """A :class:`ShardedLocator` running under shard supervision.

    Identical locating behaviour (the supervised tree only *records*
    mutations), plus the crash/heal surface the service drives from its
    chaos plan: ``crash_shard`` loses exactly one shard's live state,
    ``heal_crashed`` rebuilds it from base snapshot + op-log replay, and
    ``snapshot_shards`` refreshes the recovery bases at checkpoint time.
    The same class serves both backends; on ``mp``
    (:class:`~repro.runtime.workers.MPSupervisedLocator`) the shard
    trees are worker-process proxies.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[SkyNetConfig] = None,
        shards: Optional[int] = None,
    ) -> None:
        super().__init__(topology, config, shards)
        self.main_tree = SupervisedAlertTree(self.router)  # type: ignore[assignment]

    @property
    def supervised_tree(self) -> SupervisedAlertTree:
        tree: SupervisedAlertTree = self.main_tree  # type: ignore[assignment]
        return tree

    def crash_shard(self, index: int) -> None:
        self.supervised_tree.crash(index)

    def heal_crashed(self) -> int:
        return self.supervised_tree.heal_all()

    def snapshot_shards(self) -> None:
        self.supervised_tree.snapshot_shards()

    def invalidate_snapshot(self, index: int) -> None:
        """Destroy shard ``index``'s recovery source (base *and* op log).

        Models partial checkpoint loss in a correlated crash: the shard
        can no longer be healed locally.  The op log must go with the
        base -- a later :meth:`install_base` carries current state, and
        replaying the old log over it would double-apply mutations.
        """
        self.supervised_tree.invalidate_snapshot(index)

    def install_base(self, index: int, blob: bytes) -> None:
        """Install ``blob`` (a pickled shard tree at *current* state) as
        shard ``index``'s recovery base, clearing its op log and lost
        mark.  Used by the service after rebuilding a lost shard from
        the durable checkpoint + journal tail."""
        self.supervised_tree.install_base(index, blob)

    def lost_snapshots(self) -> Set[int]:
        """Shards whose recovery source is currently invalidated."""
        return self.supervised_tree.lost_snapshots()

    @property
    def crashes(self) -> int:
        return self.supervised_tree.crashes

    @property
    def restores(self) -> int:
        return self.supervised_tree.restores

    @property
    def replayed_ops(self) -> int:
        return self.supervised_tree.replayed_ops

    @property
    def degraded_heals(self) -> int:
        """Heals that fell back to an empty tree (data loss admitted)."""
        return self.supervised_tree.degraded_heals

    def restore_tree(self, tree: AlertTree) -> None:
        """Load a checkpointed tree, upgrading it to a supervised one.

        A checkpoint written by a supervised run carries the
        :class:`SupervisedAlertTree` (op logs and bases included) and is
        adopted as-is.  A checkpoint written without supervision (a plain
        :class:`ShardedAlertTree`, from either backend) is upgraded: the
        shard trees are
        adopted and immediately re-snapshotted as the recovery bases,
        which is exact because the checkpoint state *is* the
        at-sequence state."""
        if isinstance(tree, SupervisedAlertTree) or not isinstance(
            tree, ShardedAlertTree
        ):
            super().restore_tree(tree)
            return
        upgraded = SupervisedAlertTree(self.router)
        upgraded.shard_trees = tree.shard_trees
        upgraded.root_tree = tree.root_tree
        upgraded._order = tree._order
        upgraded.snapshot_shards()
        super().restore_tree(upgraded)
