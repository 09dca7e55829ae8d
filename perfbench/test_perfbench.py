"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import loop  # noqa: E402
import workloads  # noqa: E402
from drcert import certificates, cli, nn  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir():
    path = run.STATE / "test-work"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_names_known_workloads():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_op_smoke(name, workdir):
    record = loop.run_ops(name, 7, 0, True, workdir, min_ops=1, max_ops=1)
    assert [op["error"] for op in record["ops"]] == [None]
    e2e = run.end_to_end_metrics(record, [0.2])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in e2e.values())
    layers = run.per_layer_metrics(record)
    result = run.result_line(record, SPEC["per_layer"], layers)
    assert result["correct"] and set(result["metrics"]) == {
        m["name"] for m in SPEC["per_layer"]}
    assert layers["cli.main.calls"] >= 1
    # the tracer put every original back
    for fn in (cli.main, certificates.least_concave_majorant, nn._backward,
               workloads.oracle.dr_risk_exact):
        assert not hasattr(fn, "__wrapped__")


def test_corrupted_output_counts_as_failed(workdir, monkeypatch):
    real = workloads.WORKLOADS["certify_linear"]

    def run_and_corrupt_first_op(in_dir, out_dir, inputs):
        real.run(in_dir, out_dir, inputs)
        if out_dir.parent.name == "op1":
            report = out_dir / "report.json"
            d = json.loads(report.read_text(encoding="utf-8"))
            d["lb"][3] *= 1.0 + 1e-6
            report.write_text(json.dumps(d), encoding="utf-8")

    monkeypatch.setitem(workloads.WORKLOADS, "certify_linear",
                        real._replace(run=run_and_corrupt_first_op))
    record = loop.run_ops("certify_linear", 7, 0, False, workdir,
                          min_ops=2, max_ops=2)
    errors = [op["error"] for op in record["ops"]]
    assert "lb != eps" in errors[0] and errors[1] is None
    e2e = run.end_to_end_metrics(record, [0.2])
    assert e2e["ok_frac"] == 0.5
    result = run.result_line(record, SPEC["end_to_end"], e2e)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_same_seed_same_digests(workdir):
    first, second = (loop.run_ops("certify_linear", 11, 0, False, workdir / tag,
                                  min_ops=2, max_ops=2) for tag in "ab")
    digests = [op["digest"] for op in first["ops"]]
    assert digests == [op["digest"] for op in second["ops"]]
    assert digests[0] != digests[1]


def test_command_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certify_linear",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= loop.MIN_OPS
    assert [m for m in result["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    assert result["metrics"]["lb_cc_ratio"]["value"] == pytest.approx(1.0, abs=1e-12)


def test_fails_without_drcert_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify_linear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
