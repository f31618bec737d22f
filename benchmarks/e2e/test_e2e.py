"""The benchmark's own tests (smoke scale: tiny fabric, <= 2 000 raws).

Run explicitly -- tier-1's ``testpaths`` does not include this directory:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q -p no:cacheprovider
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

with open(run.REPO / "BENCHMARK.json", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke_runs():
    """(untraced, traced) smoke results per workload, seed 2025."""
    return {
        name: (
            run.run_workload(name, 2025, 0.0, False, True),
            run.run_workload(name, 2025, 0.0, True, True),
        )
        for name in NAMES
    }


# -- the contract: every declared metric is emitted, and nothing else ----------------


def test_spec_names_are_well_formed_and_match_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(declared) == len(set(declared))
    for name in NAMES + declared:
        assert NAME_RE.match(name), name
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_emits_every_metric_and_passes_every_gate(smoke_runs, name):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, detail = smoke_runs[name][trace]
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
        for entry in result["metrics"].values():
            assert set(entry) == {"value", "unit"} and entry["unit"]
    for entry in smoke_runs[name][0][0]["metrics"].values():
        assert entry["value"] > 0  # end-to-end metrics are never 0


def test_command_line_prints_the_result_as_its_last_line(capsys):
    code = run.main(["--workload", "flood_ingest", "--smoke", "--seed", "7", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 0 and json.loads(last)["correct"] is True


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    original = workloads.WORKLOADS["gateway_socket"]

    def corrupt(seed, scale):
        inputs = original.setup(seed, scale)
        inputs.reference = [(i, text + " ") for i, text in inputs.reference]
        return inputs

    monkeypatch.setitem(
        workloads.WORKLOADS,
        "gateway_socket",
        workloads.Workload("gateway_socket", corrupt, original.rep),
    )
    code = run.main(["--workload", "gateway_socket", "--smoke", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == result["attempted"]


# -- generators ---------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_a_function_of_the_seed(smoke_runs, name):
    setup = workloads.WORKLOADS[name].setup
    again = setup(2025, workloads.SMOKE).input_sha256
    assert again == smoke_runs[name][0][1]["input_sha256"]
    assert setup(7, workloads.SMOKE).input_sha256 != again


@pytest.mark.parametrize("name", NAMES)
def test_gates_pass_on_a_second_seed(name):
    result, detail = run.run_workload(name, 7, 0.0, True, True)
    assert result["correct"], detail["problems"]


# -- tracer --------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_tracer_is_inert_and_covers_the_run(smoke_runs, name):
    (_plain, plain_detail), (traced, traced_detail) = smoke_runs[name]
    # _gate already compared the traced rep's reports with the untraced
    # reps'; the digests make the same statement across the two runs
    assert traced_detail["reports_sha256"] == plain_detail["reports_sha256"]
    assert traced["metrics"]["trace.unattributed_share"]["value"] <= 0.10
    calls = {
        span: traced["metrics"][f"{span}.calls"]["value"] for span in SPAN_NAMES
    }
    assert calls["runtime.service.ingest"] > 0
    persistence = [s for s in SPAN_NAMES if s.startswith(("runtime.journal", "runtime.checkpoint"))]
    gateway = [s for s in SPAN_NAMES if s.startswith("gateway.")]
    for span in persistence:
        assert (calls[span] > 0) == (name == "durable_resume"), span
    for span in gateway:
        assert (calls[span] > 0) == (name == "gateway_socket"), span


def test_untraced_services_run_the_original_methods():
    inputs = workloads.WORKLOADS["flood_ingest"].setup(2025, workloads.SMOKE)
    service = workloads.RuntimeService(inputs.topo, config=workloads.config(), state=inputs.state)
    probes = [
        (service, "ingest"),
        (service.admission, "decide"),
        (service.pipeline, "feed"),
        (service.pipeline.preprocessor, "feed"),
        (service.pipeline.preprocessor.classifier, "classify"),
        (service.pipeline.locator, "sweep"),
        (service.pipeline.evaluator, "evaluate"),
    ]
    for obj, attr in probes:
        assert attr not in vars(obj)
        assert getattr(obj, attr).__func__ is getattr(type(obj), attr)
    Tracer().install_runtime(service)
    for obj, attr in probes:
        assert vars(obj)[attr].__wrapped__.__func__ is getattr(type(obj), attr)
    # a second, untouched service is unaffected: wrappers live on instances
    other = workloads.RuntimeService(inputs.topo, config=workloads.config(), state=inputs.state)
    assert "ingest" not in vars(other) and "feed" not in vars(other.pipeline)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.name, tracer.parent = [0, 1, 1], [-1, 0, 0]
    tracer.start, tracer.end = [0, 10, 50], [100, 30, 60]
    rows = tracer.summary()
    assert rows[SPAN_NAMES[0]]["self_s"] == pytest.approx(70e-9)
    assert rows[SPAN_NAMES[1]] == {"calls": 2, "total_s": pytest.approx(30e-9), "self_s": pytest.approx(30e-9)}
    assert rows["<root>"]["total_s"] == pytest.approx(100e-9)


# -- import surface --------------------------------------------------------------------

ALLOWED = {
    "repro.core.config": {"PRODUCTION_CONFIG"},
    "repro.topology.builder": {"TopologySpec", "build_topology"},
    "repro.simulation.state": {"NetworkState"},
    "repro.simulation.conditions": {"Condition", "ConditionKind"},
    "repro.monitors": {"build_monitors", "AlertStream"},
    "repro.runtime.service": {"RuntimeService"},
    "repro.runtime.checkpoint": {"set_incident_counter"},
    "repro.runtime.journal": {"raw_to_json"},
    "repro.gateway": {
        "GatewayService", "GatewaySocketServer", "GatewayClient", "GatewayParams",
        "SOURCE_PRIORITY",
    },
}  # fmt: skip


def test_import_surface():
    for path in sorted(HERE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                assert not any(m.split(".")[0] == "repro" for m in modules), (
                    f"{path.name}: import {modules}; use 'from ... import name'"
                )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert not module.startswith("benchmarks"), f"{path.name}: {module}"
                assert not module.startswith("bench_"), f"{path.name}: {module}"
                if module.split(".")[0] == "repro":
                    names = {alias.name for alias in node.names}
                    extra = names - ALLOWED.get(module, set())
                    assert not extra, f"{path.name}: {module} imports {sorted(extra)}"
            elif isinstance(node, ast.keyword):
                # the mp backend and the fast_path toggle may be deleted by a
                # later PR; the harness must not name either in a call
                assert node.arg not in ("backend", "fast_path"), (
                    f"{path.name}:{node.value.lineno}: literal {node.arg}="
                )
        if path.name != "test_e2e.py":
            assert "repro.runtime.workers" not in source, path.name


# -- compare -----------------------------------------------------------------------------


def _results(tmp_path, name, scale):
    runs = [
        {
            "workload": w, "seed": seed, "trace": 0, "correct": True,
            "attempted": 10, "failed": 0,
            "metrics": {
                metric: {"value": (100.0 + seed) * (scale if metric == "alerts_per_s" else 1.0), "unit": unit}
                for metric, unit in run.END_TO_END
            },
        }
        for w in NAMES
        for seed in range(4)
    ]  # fmt: skip
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
    return str(path)


def test_compare_flags_a_regression_and_accepts_a_a(tmp_path, capsys):
    base = _results(tmp_path, "a.json", 1.0)
    assert compare.main([base, _results(tmp_path, "same.json", 1.0)]) == 0
    assert compare.main([base]) == 0
    assert compare.main([base, _results(tmp_path, "faster.json", 1.5)]) == 0
    assert compare.main([base, _results(tmp_path, "slower.json", 0.5)]) == 1
    assert "regressed" in capsys.readouterr().out
