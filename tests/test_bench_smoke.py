"""Smoke-run every evaluation bench on a small fabric.

Each ``benchmarks/bench_*.py`` is executed end to end in a subprocess
with ``SKYNET_BENCH_TINY=1`` (see benchmarks/conftest.py): campaigns run
on the small default fabric with capped sizes, figure-shaped assertions
are relaxed, and everything structural stays checked.  This is what keeps
the benches importable and runnable at all times -- CI's per-subsystem
smoke jobs run theirs in the same mode, and a bench that only works at
full evaluation scale cannot hide a bitrotted code path behind a
multi-hour runtime.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

#: generous per-bench wall-clock budget; the whole suite must fit CI
BENCH_TIMEOUT_S = 300.0

BENCHES = sorted(path.name for path in BENCH_DIR.glob("bench_*.py"))


def test_all_benches_are_discovered():
    assert len(BENCHES) >= 15, f"bench discovery broke: {BENCHES}"


@pytest.mark.parametrize("bench", BENCHES)
def test_bench_smoke(bench):
    env = dict(os.environ)
    env["SKYNET_BENCH_TINY"] = "1"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(BENCH_DIR / bench), "-q",
         "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=BENCH_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-40:])
        pytest.fail(f"{bench} failed in tiny mode:\n{tail}\n{proc.stderr[-2000:]}")
