"""``python -m repro.runtime``: run the online service over a seeded flood.

Simulates a severe-failure scenario on a chosen fabric, streams the raw
alert firehose through the sharded, journaled, admission-controlled
runtime, and prints the ranked incident reports plus the metrics
registry (text or JSON).  With ``--dir`` the run journals and
checkpoints to disk; ``--resume`` rebuilds from that directory first
(replaying the journal tail) and then continues.

Everything is deterministic for a given seed: the simulation drives all
clocks and randomness (REP004), so two invocations with the same flags
print identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import random
from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.config import PRODUCTION_CONFIG, RuntimeParams, SkyNetConfig
from ..monitors import build_monitors
from ..monitors.base import RawAlert
from ..monitors.stream import AlertStream
from ..simulation.conditions import Condition, ConditionKind
from ..simulation.state import NetworkState
from ..topology.builder import TopologySpec, build_topology
from ..topology.network import Topology
from .faults import (
    ChaosPlan,
    CorrelatedCrash,
    IOFault,
    ShardCrash,
    SourceBrownout,
    SourceClockSkew,
    SourceOutage,
    chaos_or_none,
)
from .service import RuntimeService

SCENARIOS = ("flood", "regional", "quiet")
TOPOLOGIES = ("default", "tiny", "benchmark")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Run the SkyNet pipeline as a sharded, resumable "
        "online service over a simulated alert flood.",
    )
    parser.add_argument(
        "--scenario", choices=SCENARIOS, default="flood",
        help="failure scenario driving the flood (default: %(default)s)",
    )
    parser.add_argument(
        "--duration", type=float, default=900.0,
        help="simulated seconds to stream (default: %(default)s)",
    )
    parser.add_argument(
        "--alerts", type=int, default=None,
        help="stop after this many raw alerts (default: unlimited)",
    )
    add_service_arguments(parser)
    add_chaos_arguments(parser)
    parser.add_argument(
        "--metrics", choices=("text", "json", "none"), default="text",
        help="metrics dump format (default: %(default)s)",
    )
    parser.add_argument(
        "--top", type=int, default=5,
        help="incident reports to print (default: %(default)s)",
    )
    return parser


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every front-end that builds a ``RuntimeService``.

    ``repro.gateway``'s CLI reuses this group (and ``_build_config``),
    so the serving layer can never drift from the operator CLI's
    runtime knobs -- REP015 audits this module as the single source.
    """
    parser.add_argument(
        "--topology", choices=TOPOLOGIES, default="default",
        help="fabric to simulate (default: %(default)s)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="locator shards to partition the alert tree over",
    )
    parser.add_argument(
        "--backend", choices=("inproc", "mp"), default=None,
        help="locator execution backend: in-process shards or one "
        "worker process per shard (default: config value)",
    )
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--dir", type=pathlib.Path, default=None,
        help="journal + checkpoint directory (enables persistence)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from --dir (checkpoint + journal tail) before ingesting",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SIM_S",
        help="sim-time seconds between checkpoints (default: config value)",
    )
    parser.add_argument(
        "--backpressure", action="store_true",
        help="enable admission-control load shedding (§4.1 ladder)",
    )
    parser.add_argument(
        "--watermark", type=int, default=None,
        help="admission window watermark (raw alerts per window)",
    )
    parser.add_argument(
        "--compact-journal", action="store_true",
        help="compact journal segments fully covered by the oldest "
        "retained checkpoint (bounds disk over long runs)",
    )
    parser.add_argument(
        "--journal-segment-records", type=int, default=None, metavar="N",
        help="records per journal segment before rotation (default: "
        "config value)",
    )
    parser.add_argument(
        "--admission-window", type=float, default=None, metavar="SIM_S",
        help="admission-control window length in sim seconds (default: "
        "config value)",
    )
    parser.add_argument(
        "--io-max-attempts", type=int, default=None, metavar="N",
        help="attempts per journal/checkpoint IO op before degrading "
        "(default: config value)",
    )
    parser.add_argument(
        "--io-base-backoff", type=float, default=None, metavar="SIM_S",
        help="first-retry IO backoff in sim seconds (default: config value)",
    )
    parser.add_argument(
        "--io-max-backoff", type=float, default=None, metavar="SIM_S",
        help="IO backoff ceiling in sim seconds (default: config value)",
    )


def add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--chaos-*`` flag group (shared with the gateway CLI)."""
    chaos = parser.add_argument_group(
        "chaos", "deterministic fault injection (repeat flags to stack faults)"
    )
    chaos.add_argument(
        "--chaos-outage", action="append", default=[], metavar="TOOL:START:END",
        help="silence one monitoring tool for a sim-time window",
    )
    chaos.add_argument(
        "--chaos-brownout", action="append", default=[],
        metavar="TOOL:START:END:DELAY[:JITTER[:DUP[:DROP]]]",
        help="degrade one tool: delivery delay (+jitter), duplicate/drop rates",
    )
    chaos.add_argument(
        "--chaos-shard-crash", action="append", default=[], metavar="AT[:SHARD]",
        help="crash one locator shard at a sim instant (supervisor heals it)",
    )
    chaos.add_argument(
        "--chaos-correlated-crash", action="append", default=[],
        metavar="AT:SHARDS[:LOSE]",
        help="crash several shards together at a sim instant, e.g. "
        "'300:0,2:2' kills shards 0 and 2 and destroys shard 2's "
        "recovery snapshot (rebuilt from checkpoint + journal)",
    )
    chaos.add_argument(
        "--chaos-io", action="append", default=[],
        metavar="OP:START:END[:FAILS|perm]",
        help="fail journal_append/journal_sync/checkpoint_save/"
        "journal_read in a window",
    )
    chaos.add_argument(
        "--chaos-skew", action="append", default=[], metavar="TOOL:SKEW_S",
        help="run one tool's clock a constant offset from true time "
        "(shifts its observation and delivery stamps together)",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed offsetting the chaos RNGs (default: %(default)s)",
    )


def _build_config(args: argparse.Namespace) -> SkyNetConfig:
    base = PRODUCTION_CONFIG.runtime

    def over(value, fallback):
        return value if value is not None else fallback

    runtime = RuntimeParams(
        shards=max(1, args.shards),
        backend=over(args.backend, base.backend),
        journal_segment_records=over(
            args.journal_segment_records, base.journal_segment_records
        ),
        checkpoint_interval_s=over(
            args.checkpoint_every, base.checkpoint_interval_s
        ),
        backpressure=args.backpressure,
        admission_window_s=over(args.admission_window, base.admission_window_s),
        admission_watermark=over(args.watermark, base.admission_watermark),
        journal_compaction=args.compact_journal,
        io_max_attempts=over(args.io_max_attempts, base.io_max_attempts),
        io_base_backoff_s=over(args.io_base_backoff, base.io_base_backoff_s),
        io_max_backoff_s=over(args.io_max_backoff, base.io_max_backoff_s),
    )
    return dataclasses.replace(PRODUCTION_CONFIG, runtime=runtime)


def _split_fields(spec: str, flag: str, minimum: int, maximum: int) -> List[str]:
    fields = spec.split(":")
    if not minimum <= len(fields) <= maximum:
        raise SystemExit(
            f"error: bad {flag} value {spec!r} "
            f"(want {minimum}-{maximum} ':'-separated fields)"
        )
    return fields


def _build_chaos(args: argparse.Namespace) -> Optional[ChaosPlan]:
    """Assemble the chaos plan from the repeatable CLI flags."""
    outages = tuple(
        SourceOutage(tool=f[0], start=float(f[1]), end=float(f[2]))
        for f in (
            _split_fields(s, "--chaos-outage", 3, 3) for s in args.chaos_outage
        )
    )
    brownouts = []
    for spec in args.chaos_brownout:
        f = _split_fields(spec, "--chaos-brownout", 4, 7)
        brownouts.append(
            SourceBrownout(
                tool=f[0],
                start=float(f[1]),
                end=float(f[2]),
                delay_s=float(f[3]),
                delay_jitter_s=float(f[4]) if len(f) > 4 else 0.0,
                duplicate_rate=float(f[5]) if len(f) > 5 else 0.0,
                drop_rate=float(f[6]) if len(f) > 6 else 0.0,
            )
        )
    crashes = []
    for spec in args.chaos_shard_crash:
        f = _split_fields(spec, "--chaos-shard-crash", 1, 2)
        crashes.append(
            ShardCrash(at=float(f[0]), shard=int(f[1]) if len(f) > 1 else 0)
        )
    correlated = []
    for spec in args.chaos_correlated_crash:
        f = _split_fields(spec, "--chaos-correlated-crash", 2, 3)
        try:
            correlated.append(
                CorrelatedCrash(
                    at=float(f[0]),
                    shards=tuple(int(s) for s in f[1].split(",") if s),
                    lose_snapshots=(
                        tuple(int(s) for s in f[2].split(",") if s)
                        if len(f) > 2
                        else ()
                    ),
                )
            )
        except ValueError as exc:
            raise SystemExit(
                f"error: bad --chaos-correlated-crash value {spec!r}: {exc}"
            )
    io_faults = []
    for spec in args.chaos_io:
        f = _split_fields(spec, "--chaos-io", 3, 4)
        permanent = len(f) > 3 and f[3] == "perm"
        io_faults.append(
            IOFault(
                op=f[0],
                start=float(f[1]),
                end=float(f[2]),
                fail_count=(
                    int(f[3]) if len(f) > 3 and not permanent else 1
                ),
                permanent=permanent,
            )
        )
    skews = tuple(
        SourceClockSkew(tool=f[0], skew_s=float(f[1]))
        for f in (
            _split_fields(s, "--chaos-skew", 2, 2) for s in args.chaos_skew
        )
    )
    return chaos_or_none(
        ChaosPlan(
            outages=outages,
            brownouts=tuple(brownouts),
            shard_crashes=tuple(crashes),
            correlated_crashes=tuple(correlated),
            io_faults=tuple(io_faults),
            clock_skews=skews,
            seed=args.chaos_seed,
        )
    )


def _topology(name: str) -> Topology:
    if name == "tiny":
        return build_topology(TopologySpec.tiny())
    if name == "benchmark":
        return build_topology(TopologySpec.benchmark())
    return build_topology(TopologySpec())


def _conditions(
    topo: Topology, scenario: str, seed: int, duration: float
) -> List[Condition]:
    rng = random.Random(seed)
    if scenario == "quiet":
        return []
    devices = sorted(topo.devices)
    if scenario == "regional":
        region = sorted(
            {topo.device(d).location.segments[0] for d in devices}
        )[0]
        devices = [
            d for d in devices if topo.device(d).location.segments[0] == region
        ]
    rng.shuffle(devices)
    n_down = max(3, len(devices) // 5)
    out: List[Condition] = []
    for name in devices[:n_down]:
        start = 60.0 + rng.uniform(0.0, min(240.0, duration / 2))
        out.append(
            Condition(
                kind=ConditionKind.DEVICE_DOWN,
                target=name,
                start=start,
                end=start + duration,
            )
        )
    return out


def _stream(
    topo: Topology,
    scenario: str,
    seed: int,
    duration: float,
    limit: Optional[int],
) -> Tuple[NetworkState, Iterator[RawAlert]]:
    state = NetworkState(topo)
    for condition in _conditions(topo, scenario, seed, duration):
        state.add_condition(condition)
    stream = AlertStream(state, build_monitors(state, seed=seed))
    return state, stream.run(duration, limit=limit)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.resume and args.dir is None:
        build_parser().error("--resume requires --dir")
    config = _build_config(args)
    chaos = _build_chaos(args)
    topo = _topology(args.topology)
    state, raws = _stream(
        topo, args.scenario, args.seed, args.duration, args.alerts
    )

    if args.resume:
        service = RuntimeService.resume(
            topo, args.dir, config=config, state=state,
            chaos=chaos, run_seed=args.seed,
        )
        if service.recovery is not None:
            print(service.recovery.render())
    else:
        service = RuntimeService(
            topo, config=config, state=state, directory=args.dir,
            chaos=chaos, run_seed=args.seed,
        )

    if chaos is not None and chaos.perturbs_stream():
        perturbed = chaos.perturb(list(raws), run_seed=args.seed)
        for name, value in perturbed.counts().items():
            service.metrics.counter(
                f"runtime_chaos_stream_{name}_total",
                f"raw alerts {name} by the chaos plan's stream faults",
            ).inc(value)
        counts = ", ".join(
            f"{k}={v}" for k, v in perturbed.counts().items()
        )
        print(f"# chaos stream faults: {counts}")
        raws = iter(perturbed.raws)

    service.run(raws)
    service.finish()

    reports = service.reports()
    print(
        f"# {service.shards} shard(s), {len(reports)} incident(s), "
        f"{service.admission.offered} raw alert(s) offered, "
        f"{service.admission.admitted} admitted"
    )
    sheds = service.shed_counts()
    if any(sheds.values()):
        shed_text = ", ".join(f"{k}={v}" for k, v in sheds.items())
        print(f"# load shed per ladder rung: {shed_text}")
    degraded = service.degraded_sources()
    if degraded:
        print(f"# degraded sources at shutdown: {', '.join(sorted(degraded))}")
    for report in reports[: max(0, args.top)]:
        print(report.render())
        print()
    if args.metrics == "text":
        print(service.metrics.render_text())
    elif args.metrics == "json":
        print(service.metrics.render_json())
    return 0

