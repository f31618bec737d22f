"""End-to-end benchmark of record: driver.

Two ways in:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  ``--trace 0`` measures the end-to-end
    metrics with no wrapper installed anywhere; ``--trace 1`` adds one
    traced rep and one 4-shard rep and reports the per-layer ledger.
    The last line of stdout is one JSON object:
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 benchmarks/e2e/run.py [--seed N] [--trace 1] [--runs R] [--smoke]``
    Every workload, each run in its own child process (so ``peak_rss_mb``
    is that workload's alone), every metric printed by name with its unit,
    results written to ``out/results.json`` (``--out``) for ``compare.py``.

Both exit non-zero when any correctness gate fails.  README.md defines
the workloads, the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent

#: (name, unit) of every end-to-end metric; BENCHMARK.json adds direction
#: and bound, README.md the definitions
END_TO_END: List[Tuple[str, str]] = [
    ("alerts_per_s", "1/s"),
    ("submit_p50_us", "us"),
    ("submit_p99_us", "us"),
    ("ready_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

#: per-layer counts reported beside each span's self_s / calls / share
LAYER_COUNTS: List[Tuple[str, str]] = [
    ("gateway.transport.bytes_per_alert", "B"),
    ("gateway.service.query.p50_us", "us"),
    ("gateway.sequencer.release_batch.p50", "count"),
    ("gateway.sequencer.pending.max", "count"),
    ("runtime.admission.shed.count", "count"),
    ("runtime.journal.bytes_per_alert", "B"),
    ("runtime.journal.replayed.count", "count"),
    ("runtime.checkpoint.bytes.max", "B"),
    ("runtime.sharding.shards4_ratio", "ratio"),
    ("core.pipeline.sweep.p50_ms", "ms"),
    ("core.pipeline.sweep.p90_ms", "ms"),
    ("core.preprocessor.reduction_ratio", "ratio"),
    ("core.preprocessor.merged_share", "ratio"),
    ("core.preprocessor.filtered_share", "ratio"),
    ("core.locator.incidents.count", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
]

#: set-ups timed per untraced run (median reported) and reps never cut below
SETUPS = 3
MIN_REPS = 3


def per_layer_units() -> Dict[str, str]:
    from tracer import SPAN_NAMES

    units: Dict[str, str] = {}
    for span in SPAN_NAMES:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
        units[f"{span}.share"] = "ratio"
    units.update(LAYER_COUNTS)
    return units


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _stat(values: Sequence[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _sha(reports: Any) -> str:
    return hashlib.sha256(json.dumps(reports).encode("utf-8")).hexdigest()


# -- one workload, this process --------------------------------------------------


def _measure(workload: Any, inputs: Any, seconds: float, min_reps: int) -> List[Any]:
    """Untraced reps, each on a fresh service, until ``seconds`` have been
    measured (and at least ``min_reps`` done)."""
    reps: List[Any] = []
    begin = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - begin < seconds:
        gc.collect()
        reps.append(workload.rep(inputs))
    return reps


def _gate(
    inputs: Any, baseline: Any, rep: Any, label: str, renders: bool = True
) -> List[str]:
    """The correctness gate for one rep; returns what failed.  ``renders``
    also compares every locator incident, superseded ones included."""
    expected = inputs.reference if inputs.reference is not None else baseline.reports
    problems = [f"{label}: {text}" for text in rep.problems]
    if not rep.reports:
        problems.append(f"{label}: no incident reported")
    if rep.reports != expected:
        problems.append(f"{label}: reports differ from the reference (ids included)")
    if renders and rep.incident_renders != baseline.incident_renders:
        problems.append(f"{label}: locator incidents differ from the first rep")
    if rep.failed:
        problems.append(f"{label}: {rep.failed} request(s) refused or errored")
    if rep.counts.get("runtime.admission.shed.count"):
        problems.append(f"{label}: admission control shed alerts")
    return problems


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Returns the contract's result object and a detail record."""
    import workloads
    from tracer import SPAN_NAMES, Tracer

    workload = workloads.WORKLOADS[name]
    scale = workloads.SMOKE if smoke else workloads.FULL
    setups = 1 if (smoke or trace) else SETUPS
    min_reps = 1 if smoke else MIN_REPS
    if smoke:
        seconds = 0.0

    setup_s: List[float] = []
    inputs = None
    for _ in range(setups):
        del inputs  # the previous copy must not inflate peak_rss_mb
        begin = time.perf_counter()
        inputs = workload.setup(seed, scale)
        setup_s.append(time.perf_counter() - begin)

    reps = _measure(workload, inputs, seconds, min_reps)
    #: (label, rep, compare every locator incident too) for the gate below
    gated = [(f"rep {index}", rep, True) for index, rep in enumerate(reps)]

    walls = [rep.wall_s for rep in reps]
    detail: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "raw_alerts": len(inputs.raws),
        "timed_alerts": reps[0].timed_alerts,
        "incidents": len(reps[0].reports),
        "input_sha256": inputs.input_sha256,
        "reports_sha256": _sha(reps[0].reports),
        "reps": len(reps),
    }
    metrics: Dict[str, Dict[str, Any]] = {}

    if not trace:
        ordered = [sorted(rep.latencies_ns) for rep in reps]
        stats = {
            "alerts_per_s": _stat([rep.timed_alerts / rep.wall_s for rep in reps]),
            "submit_p50_us": _stat([percentile(o, 0.50) / 1e3 for o in ordered]),
            "submit_p99_us": _stat([percentile(o, 0.99) / 1e3 for o in ordered]),
            "ready_s": _stat([rep.ready_s for rep in reps]),
            "peak_rss_mb": _stat(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
            ),
            "setup_s": _stat(setup_s),
        }
        detail["stats"] = stats
        for metric, unit in END_TO_END:
            metrics[metric] = {"value": stats[metric]["median"], "unit": unit}
    else:
        tracer = Tracer()
        gc.collect()
        traced = workload.rep(inputs, tracer=tracer)
        gc.collect()
        sharded = workload.rep(inputs, shards=4)
        # at 4 shards, incidents opened by one sweep and superseded later get
        # their ids in another order; the report stream (the contract) is equal
        gated += [("traced rep", traced, True), ("4-shard rep", sharded, False)]

        units = per_layer_units()
        values: Dict[str, float] = dict.fromkeys(units, 0.0)
        values.update(traced.counts)
        traced_s = traced.traced_ns / 1e9
        summary = tracer.summary()
        for span in SPAN_NAMES:
            row = summary[span]
            values[f"{span}.self_s"] = row["self_s"]
            values[f"{span}.calls"] = row["calls"]
            values[f"{span}.share"] = row["self_s"] / traced_s
        sweeps = sorted(tracer.durations_ms("core.pipeline.sweep"))
        values["core.pipeline.sweep.p50_ms"] = percentile(sweeps, 0.50)
        values["core.pipeline.sweep.p90_ms"] = percentile(sweeps, 0.90)
        queries = sorted(ns for rep in reps for ns in rep.query_ns)
        if queries:
            values["gateway.service.query.p50_us"] = percentile(queries, 0.50) / 1e3
        base_wall = statistics.median(walls)
        values["runtime.sharding.shards4_ratio"] = base_wall / sharded.wall_s
        values["trace.overhead_pct"] = 100.0 * (traced.wall_s / base_wall - 1.0)
        values["trace.unattributed_share"] = 1.0 - summary["<root>"]["total_s"] / traced_s
        for metric, unit in units.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
        tracer.dump(workloads.OUT_DIR / f"trace-{name}.json")
        detail["spans"] = len(tracer.name)

    problems: List[str] = []
    attempted = failed = 0
    for label, rep, renders in gated:
        found = _gate(inputs, reps[0], rep, label, renders)
        problems.extend(found)
        attempted += rep.ops
        failed += rep.ops if found else 0
    detail["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def _print_run(result: Dict[str, Any], detail: Dict[str, Any]) -> None:
    print(
        f"== {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
        f"raws={detail['raw_alerts']} timed={detail['timed_alerts']} "
        f"incidents={detail['incidents']} reps={detail['reps']}"
    )
    print(f"   input  sha256 {detail['input_sha256']}")
    print(f"   report sha256 {detail['reports_sha256']}")
    stats = detail.get("stats", {})
    for metric, entry in result["metrics"].items():
        line = f"   {metric:44s} {entry['value']:>16.6g} {entry['unit']}"
        if metric in stats:
            s = stats[metric]
            line += f"   (median of {s['n']}; min {s['min']:.6g}, max {s['max']:.6g})"
        print(line)
    for problem in detail["problems"]:
        print(f"   GATE FAILED {problem}")
    print(
        f"   correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )


# -- every workload, child processes -------------------------------------------------


def _child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    sys.stdout.flush()
    try:
        detail = json.loads(lines[-2].split(" ", 2)[2])
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        detail, result = {}, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(f"   child for {workload} exited {proc.returncode} without a result")
    if proc.returncode != 0:
        result["correct"] = False
    return {"workload": workload, "seed": seed, "trace": trace, **result, "detail": detail}


def run_all(args: argparse.Namespace) -> int:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    runs = []
    for offset in range(args.runs):
        for workload in names:
            for trace in range(args.trace + 1):
                runs.append(_child(args, workload, args.seed + offset, trace))
    record = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "runs": runs,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    bad = [f"{r['workload']}/seed {r['seed']}/trace {r['trace']}" for r in runs if not r["correct"]]
    print(f"wrote {out}; {len(runs)} run(s), {len(bad)} incorrect {bad if bad else ''}")
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload, in this process")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fabric, 1 rep")
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (all-workloads mode)")
    parser.add_argument("--out", default=str(HERE / "out" / "results.json"))
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args)
    source = REPO / "src"
    if source.is_dir() and str(source) not in sys.path:
        sys.path.insert(0, str(source))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    _print_run(result, detail)
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
