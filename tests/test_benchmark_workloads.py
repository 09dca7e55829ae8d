"""Smoke test of the benchmark's kept workloads: one op each, checked as the
benchmark checks it.

``perfbench/workloads.py`` is loaded by path, without importing perfbench, so
that its output checks (which read ``report.json`` and ``oracle.json``) run in
the unit suite too.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_op_passes_its_check(tmp_path, name):
    wl = WORKLOADS[name]
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    inputs = wl.make(in_dir, np.random.default_rng([1, 1]))
    results = wl.run(in_dir, out_dir, inputs)
    items, ratios = wl.check(out_dir, inputs, results)
    assert items > 0
    assert ratios and all(0.0 < r <= 1.0 for r in ratios)
