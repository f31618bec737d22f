"""REP014: shard-safety race detector over the call graph.

The sharded runtime (``ShardedLocator`` and friends) is the repro's path
to the paper's production scale, and the ROADMAP's next step is moving
shards into separate processes.  Anything that works today only because
shards share one address space is a latent race / divergence bug:

* **module-level mutable globals** (dicts, lists, ``itertools.count``
  singletons) referenced from code reachable off a shard entry point --
  per-process copies will drift apart;
* **mutable class-body attributes** (``class X: cache = {}``) on classes
  used from shard paths -- shared across instances now, duplicated
  across processes later;
* **post-construction writes to shard-shared objects** -- methods of the
  classes that straddle the shard boundary (router, sharded tree)
  mutating ``self`` after ``__init__``, which is exactly the state that
  would need cross-process coordination.

Every finding is annotated with the shard entry point that reaches the
offending code and the call-chain witness, so a report reads as "this
runs inside a shard" rather than "this exists somewhere".
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Any, Dict, Iterable, List, Mapping, Set, Tuple

from ..engine import Finding, LintRule, Project, register

#: method names that mutate the receiver container in place
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

_CTOR_METHODS = ("__init__", "__post_init__", "__new__")


@register
class ShardSafetyRule(LintRule):
    rule_id = "REP014"
    title = "no shared mutable state on shard code paths"
    paper_ref = "§4.2 (sharded locating)"
    scope = "project"
    project_only = True
    default_options: Mapping[str, Any] = {
        #: ``module-glob:qualname-glob`` patterns naming the functions a
        #: shard (or the runtime driving shards) starts executing from
        "entry_points": (
            "*runtime.service:RuntimeService.*",
            "*gateway.service:GatewayService.*",
            "*:ShardedLocator.*",
            "*:SupervisedLocator.*",
            "*:MPShardedLocator.*",
            # the shard-tree proxy is reached through ShardedAlertTree's
            # fan_out by method name, which the call graph cannot follow
            "*:RemoteAlertTree.*",
            "*runtime.workers:_worker_main",
        ),
        #: class-name globs for objects shared across the shard boundary
        "shared_classes": (
            "ShardedAlertTree",
            "ShardRouter",
            "RemoteAlertTree",
        ),
    }

    def check_project(self, project: Project) -> Iterable[Finding]:
        analysis = project.analysis
        symbols = analysis.symbols
        callgraph = analysis.callgraph
        reach = callgraph.reachable(tuple(self.options["entry_points"]))
        if not reach:
            return

        # per-function name/attribute usage, computed once:
        # (names used, names *mutated* in place, attribute names stored)
        usage: Dict[str, Tuple[Set[str], Set[str], Set[str]]] = {}
        for key, info in symbols.functions.items():
            usage[key] = self._usage_of(info.node)

        yield from self._mutable_globals(symbols, reach, usage)
        yield from self._mutable_class_attrs(symbols, reach)
        yield from self._shared_writes(symbols, callgraph, reach)

    # -- module-level mutable globals --------------------------------------

    def _mutable_globals(self, symbols, reach, usage) -> Iterable[Finding]:
        for module in sorted(symbols.modules):
            table = symbols.modules[module]
            for name in sorted(table.globals):
                info = table.globals[name]
                if not info.mutable:
                    continue
                witness = self._global_witness(
                    symbols, reach, usage, module, name, info.kind
                )
                if witness is None:
                    continue
                chain, how = witness
                yield Finding(
                    path=table.source.rel,
                    line=info.line,
                    col=info.col,
                    rule_id=self.rule_id,
                    message=(
                        f"module-level mutable global {name} ({info.kind}) "
                        f"is {how} on a shard path; shard processes would "
                        f"each get their own copy "
                        f"[entry {self._chain_text(chain)}]"
                    ),
                )

    def _usage_of(self, func: ast.AST) -> Tuple[Set[str], Set[str], Set[str]]:
        names: Set[str] = set()
        mutated: Set[str] = set()
        attr_writes: Set[str] = set()

        def base_name(node: ast.AST) -> str:
            while isinstance(node, ast.Subscript):
                node = node.value
            return node.id if isinstance(node, ast.Name) else ""

        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Global):
                names.update(node.names)
                mutated.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        mutated.add(base_name(target))
                    if isinstance(target, ast.Attribute) and isinstance(
                        node, ast.Assign
                    ):
                        attr_writes.add(target.attr)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        mutated.add(base_name(target))
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATOR_METHODS:
                    mutated.add(base_name(node.func.value))
        return names, mutated, attr_writes

    def _global_witness(self, symbols, reach, usage, module, name, kind):
        """(chain, how) for the first reachable function endangering a global.

        Read-only constant tables are fine to replicate per process; a
        global is a shard hazard only when reachable code *mutates* it --
        or when it is a stateful iterator (``itertools.count``/``cycle``)
        whose every read advances shared state.
        """
        stateful_read = kind in ("count", "cycle", "chain")
        for key in sorted(reach):
            info = symbols.functions.get(key)
            if info is None:
                continue
            names, mutated, attr_writes = usage[key]
            if info.module == module:
                if name in mutated:
                    return reach[key], f"mutated by {key}"
                if stateful_read and name in names:
                    return reach[key], f"advanced by {key}"
            elif name in attr_writes:
                # cross-module rebinds look like `mod.name = ...`
                return reach[key], f"rebound from {key}"
        return None

    # -- mutable class-body attributes -------------------------------------

    def _mutable_class_attrs(self, symbols, reach) -> Iterable[Finding]:
        for module in sorted(symbols.modules):
            table = symbols.modules[module]
            for cls_name in sorted(table.classes):
                cls = table.classes[cls_name]
                reached = [
                    m for m in sorted(cls.methods) if cls.methods[m].key in reach
                ]
                if not reached:
                    continue
                for attr in sorted(cls.attrs):
                    line, col, mutable, kind = cls.attrs[attr]
                    if not mutable:
                        continue
                    entry_key = cls.methods[reached[0]].key
                    yield Finding(
                        path=cls.source.rel,
                        line=line,
                        col=col,
                        rule_id=self.rule_id,
                        message=(
                            f"mutable class attribute {cls_name}.{attr} "
                            f"({kind}) on a class used from a shard path; "
                            f"instances share it within one process and "
                            f"diverge across processes "
                            f"[entry {self._chain_text(reach[entry_key])}]"
                        ),
                    )

    # -- post-construction writes to shard-shared objects ------------------

    def _shared_writes(self, symbols, callgraph, reach) -> Iterable[Finding]:
        patterns = tuple(self.options["shared_classes"])
        for module in sorted(symbols.modules):
            table = symbols.modules[module]
            for cls_name in sorted(table.classes):
                if not any(
                    fnmatch.fnmatchcase(cls_name, pat) for pat in patterns
                ):
                    continue
                cls = table.classes[cls_name]
                for method_name in sorted(cls.methods):
                    if method_name in _CTOR_METHODS:
                        continue
                    method = cls.methods[method_name]
                    if method.key not in reach:
                        continue
                    for line, col, what in self._self_writes(method.node):
                        yield Finding(
                            path=cls.source.rel,
                            line=line,
                            col=col,
                            rule_id=self.rule_id,
                            message=(
                                f"shard-shared {cls_name} is written after "
                                f"construction: {what} in {method.qualname}; "
                                f"this state straddles the shard boundary "
                                f"[entry {self._chain_text(reach[method.key])}]"
                            ),
                        )

    def _self_writes(self, func: ast.AST) -> List[Tuple[int, int, str]]:
        """(line, col, description) for each mutation of ``self`` state."""
        out: List[Tuple[int, int, str]] = []

        def self_attr(node: ast.AST) -> str:
            # `self.x` or a subscript of it, as "self.x"
            if isinstance(node, ast.Subscript):
                return self_attr(node.value)
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ) and node.value.id == "self":
                return f"self.{node.attr}"
            return ""

        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name = self_attr(target)
                    if name:
                        out.append(
                            (target.lineno, target.col_offset + 1,
                             f"assignment to {name}")
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    name = self_attr(target)
                    if name:
                        out.append(
                            (target.lineno, target.col_offset + 1,
                             f"del on {name}")
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATOR_METHODS:
                    name = self_attr(node.func.value)
                    if name:
                        out.append(
                            (node.lineno, node.col_offset + 1,
                             f"{name}.{node.func.attr}(...)")
                        )
        return out

    @staticmethod
    def _chain_text(chain: List[str]) -> str:
        shown = chain if len(chain) <= 4 else chain[:2] + ["..."] + chain[-1:]
        out = []
        for key in shown:
            if key == "...":
                out.append(key)
            else:
                module, qualname = key.split(":", 1)
                out.append(f"{module.rsplit('.', 1)[-1]}:{qualname}")
        return " -> ".join(out)
