"""Lifecycle gate: drain-checkpoint-shutdown, then resume, exactly.

The served incident stream must survive a mid-storm shutdown: a gateway
drained at an arbitrary point and resumed from its run directory must
finish the storm with **exactly** the reports and subscription events an
uninterrupted gateway serves.  The key mechanism under test is that the
sequencer's pending heap rides the checkpoint un-flushed (releasing it
at drain would break the total order against sources that keep
submitting after restart).

Two layers: the in-process test drives :meth:`GatewayService.shutdown` /
:meth:`GatewayService.resume` directly; the ``slow`` test sends a real
``SIGTERM`` to a real ``python -m repro.gateway serve`` process and
resumes it from the same directory (CI runs it).
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import time
from typing import List, Tuple

import pytest

import repro
from repro.gateway import GatewayClient, GatewayParams, GatewayService
from repro.runtime.checkpoint import set_incident_counter
from repro.simulation.state import NetworkState
from repro.topology.builder import TopologySpec, build_topology

from ..test_equivalence_flood import _device_down, _stream
from .test_gateway_battery import _merged

PARAMS = GatewayParams(queue_limit=10**9)


def _flood():
    topo = build_topology(TopologySpec.tiny())
    state = NetworkState(topo)
    for cond in _device_down(sorted(topo.devices)[:3], start=30.0, duration=200.0):
        state.add_condition(cond)
    raws = _stream(topo, state, 300.0, seed=23)
    return topo, state, _merged(raws)


def _feed(service: GatewayService, split, raws) -> None:
    from repro.gateway.sources import SOURCE_PRIORITY

    for tool in sorted(SOURCE_PRIORITY):
        if tool not in split:
            service.eof(tool)
    for raw in raws:
        assert service.submit(raw)["admitted"]


def _close_out(service: GatewayService, split) -> Tuple[List, List]:
    for tool in sorted(split):
        service.eof(tool)
    service.finish()
    reports = [
        (r.incident.incident_id, r.score, r.urgent, r.render())
        for r in service.runtime.reports()
    ]
    events = [event.to_json() for event in service._events]
    return reports, events


def test_drain_and_resume_serves_the_exact_stream(tmp_path: pathlib.Path):
    topo, state, (split, merged) = _flood()
    cut = len(merged) // 2

    # the uninterrupted reference
    set_incident_counter(1)
    reference = GatewayService(topo, state=state, params=PARAMS)
    try:
        _feed(reference, split, merged)
        ref_reports, ref_events = _close_out(reference, split)
    finally:
        reference.shutdown()
    assert ref_reports, "flood produced no incidents -- not a useful gate"

    # the same storm, drained at 50% and resumed
    run_dir = tmp_path / "run"
    set_incident_counter(1)
    first = GatewayService(topo, state=state, directory=run_dir, params=PARAMS)
    _feed(first, split, merged[:cut])
    pre_stats = first.stats()
    first.shutdown()
    assert pre_stats["pending"] > 0, "drain point held nothing -- weak test"

    resumed = GatewayService.resume(
        topo, run_dir, state=state, params=PARAMS
    )
    try:
        post_stats = resumed.stats()
        assert post_stats["pending"] == pre_stats["pending"]
        assert post_stats["events"] == pre_stats["events"]
        assert post_stats["seq"] == pre_stats["seq"]
        # registry state survived: next submission continues the seq space
        for raw in merged[cut:]:
            assert resumed.submit(raw)["admitted"]
        reports, events = _close_out(resumed, split)
    finally:
        resumed.shutdown()

    assert reports == ref_reports
    assert events == ref_events


def test_resume_requires_a_directory():
    topo = build_topology(TopologySpec.tiny())
    with pytest.raises(ValueError):
        GatewayService(topo, resume=True)


def test_ill_typed_frame_is_refused_and_never_poisons_the_journal(
    tmp_path: pathlib.Path,
):
    from repro.gateway.sources import SOURCE_PRIORITY
    from repro.monitors.base import RawAlert
    from repro.runtime.journal import raw_to_json

    def frame(t: float) -> dict:
        raw = RawAlert(tool="ping", raw_type="loss", timestamp=t, metrics={"x": 1.0})
        return {"op": "submit", "raw": raw_to_json(raw)}

    topo = build_topology(TopologySpec.tiny())
    run_dir = tmp_path / "run"
    set_incident_counter(1)
    first = GatewayService(topo, directory=run_dir, params=PARAMS)
    for tool in sorted(SOURCE_PRIORITY):
        if tool != "ping":
            first.eof(tool)
    for t in (1.0, 2.0, 3.0):
        assert first.handle(frame(t))["ok"]
    bad = frame(4.0)
    bad["raw"]["metrics"] = {"x": True}  # type: ignore[index]
    reply = first.handle(bad)
    assert reply["ok"] is False and "malformed raw alert" in reply["error"]
    for t in (4.0, 5.0, 6.0):
        assert first.handle(frame(t))["ok"]
    first.eof("ping")  # release the held frontier alert into the journal
    assert first.runtime.admission.offered == 6
    del first  # killed: no drain, no final checkpoint

    resumed = GatewayService.resume(topo, run_dir, params=PARAMS)
    try:
        assert resumed.runtime.recovery is not None
        assert resumed.runtime.recovery.corruptions == ()
        assert resumed.runtime.admission.offered == 6
    finally:
        resumed.shutdown()


# ---------------------------------------------------------------------------
# the real thing: SIGTERM against a served process, then resume


def _spawn(args: List[str], cwd: pathlib.Path) -> subprocess.Popen:
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.gateway", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _await_port(port_file: pathlib.Path, proc: subprocess.Popen) -> Tuple[str, int]:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(f"serve died early:\n{proc.stdout.read()}")
        if port_file.exists() and port_file.read_text().strip():
            host, port = port_file.read_text().split()
            return host, int(port)
        time.sleep(0.05)
    raise AssertionError("gateway never wrote its port file")


@pytest.mark.slow
def test_sigterm_mid_storm_then_resume(tmp_path: pathlib.Path):
    run_dir = tmp_path / "run"
    port_file = tmp_path / "port"

    serve = _spawn(
        [
            "serve", "--topology", "tiny", "--dir", str(run_dir),
            "--port-file", str(port_file),
        ],
        cwd=tmp_path,
    )
    try:
        host, port = _await_port(port_file, serve)
        ingest = _spawn(
            [
                "ingest", "--topology", "tiny", "--duration", "300",
                "--port", str(port), "--no-finish",
            ],
            cwd=tmp_path,
        )
        assert ingest.wait(timeout=120) == 0, ingest.stdout.read()
        with GatewayClient(host, port, timeout_s=10.0) as client:
            stats = client.request({"op": "stats"})
            assert stats["ok"]
        assert int(stats["offered"]) > 0 or int(stats["pending"]) > 0

        serve.send_signal(signal.SIGTERM)
        out, _ = serve.communicate(timeout=60)
        assert serve.returncode == 0, out
        assert "gateway drained" in out

        # resume from the drained directory and finish the storm
        port_file.unlink()
        resumed = _spawn(
            [
                "serve", "--topology", "tiny", "--dir", str(run_dir),
                "--resume", "--port-file", str(port_file),
            ],
            cwd=tmp_path,
        )
        host, port = _await_port(port_file, resumed)
        with GatewayClient(host, port, timeout_s=10.0) as client:
            after = client.request({"op": "stats"})
            assert after["ok"]
            assert after["pending"] == stats["pending"]
            assert after["events"] == stats["events"]
            reply = client.request({"op": "finish"})
            assert reply["ok"]
        resumed.send_signal(signal.SIGTERM)
        out, _ = resumed.communicate(timeout=60)
        assert resumed.returncode == 0, out
        assert "gateway drained" in out
    finally:
        for proc in (serve, locals().get("resumed"), locals().get("ingest")):
            if proc is not None and proc.poll() is None:
                proc.kill()
