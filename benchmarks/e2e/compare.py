"""Compare two result sets of the end-to-end benchmark (or inspect one).

``python3 benchmarks/e2e/compare.py A.json B.json``
    A is the parent, B the change (for an A/A check: the same commit
    twice).  For every (workload, end-to-end metric) prints both medians,
    the delta as a share of A's median, the bound from ``BENCHMARK.json``
    and a verdict:

    * ``regressed``  -- B's median is worse than A's by more than the bound;
    * ``unresolved`` -- not regressed, but a side's run-to-run spread
      (interquartile range / median, over that side's runs) is wider than
      the bound, so "unchanged" cannot be claimed;
    * ``ok``.

    Exits non-zero on any ``regressed``, on a higher failed share, or on
    an incorrect run.  ``unresolved`` is reported, not fatal.

``python3 benchmarks/e2e/compare.py A.json``
    Medians and spreads of one set against the bounds; exits non-zero if a
    spread exceeds its bound or a run was incorrect.

The files are what ``run.py`` writes (``--out``); use ``--runs`` there to
put several seeds per workload into one file.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

Samples = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Tuple[Samples, Dict[str, float], bool]:
    """(workload, metric) -> values over the untraced runs; the failed
    share per workload; and whether every run was correct."""
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    samples: Samples = {}
    attempted: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    correct = True
    for run in record["runs"]:
        correct = correct and bool(run["correct"])
        workload = run["workload"]
        attempted[workload] = attempted.get(workload, 0) + run["attempted"]
        failed[workload] = failed.get(workload, 0) + run["failed"]
        if run["trace"]:
            continue
        for metric, entry in run["metrics"].items():
            samples.setdefault((workload, metric), []).append(entry["value"])
    shares = {w: failed[w] / max(attempted[w], 1) for w in attempted}
    return samples, shares, correct


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median; ``None`` below 2 runs."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative =
    better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def _fmt(value: Optional[float]) -> str:
    return "    n/a" if value is None else f"{100 * value:6.2f}%"


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) not in (1, 2):
        print(__doc__)
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec: Dict[str, Any] = json.load(handle)
    a_samples, a_failed, a_correct = load(paths[0])
    b_samples, b_failed, b_correct = load(paths[-1])
    single = len(paths) == 1
    bad = 0
    if not (a_correct and b_correct):
        print("a run failed its correctness gate")
        bad += 1
    header = f"{'workload':16s} {'metric':14s} {'A median':>12s} {'spread A':>8s}"
    if not single:
        header += f" {'B median':>12s} {'spread B':>8s} {'worse by':>8s}"
    print(header + f" {'bound':>7s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_samples or key not in b_samples:
                print(f"{workload:16s} {metric['name']:14s} missing")
                bad += 1
                continue
            bound = metric["bound"]
            a_median = statistics.median(a_samples[key])
            b_median = statistics.median(b_samples[key])
            spreads = [spread(a_samples[key]), spread(b_samples[key])]
            wide = any(s is not None and s > bound for s in spreads)
            delta = worsening(a_median, b_median, metric["better"])
            line = f"{workload:16s} {metric['name']:14s} {a_median:12.6g} {_fmt(spreads[0])}"
            if single:
                # setup_s prices the generator, not the system: its spread
                # is reported but the contract does not hold it to the bound
                verdict = "wide" if wide and metric["name"] != "setup_s" else "ok"
                bad += verdict == "wide"
            else:
                line += f" {b_median:12.6g} {_fmt(spreads[1])} {_fmt(delta)}"
                verdict = "regressed" if delta > bound else "unresolved" if wide else "ok"
                bad += verdict == "regressed"
            print(line + f" {_fmt(bound)}  {verdict}")
        if b_failed.get(workload, 0.0) > (0.0 if single else a_failed.get(workload, 0.0)):
            print(f"{workload:16s} failed share {b_failed[workload]:.6f}")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
