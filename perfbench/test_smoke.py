"""Smoke test of the benchmark harness; no timing assertions.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload's code path at reduced size (run.py --smoke) in both
modes and checks the result line against BENCHMARK.json, then checks the
tracer's bookkeeping on synthetic spans and on a hook that has gone.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_schema(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        layer_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        assert layer_sum == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
        assert metrics["solver.cell_updates"]["value"] > 0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "decay", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _span(sid, parent, layer, t0, t1, tid=1):
    return (sid, parent, f"{layer}.f", layer, t0, t1, tid, None)


def test_self_times_split_parallel_children_and_add_up():
    spans = [
        _span(1, None, "harness", 0.0, 10.0),
        _span(2, 1, "experiments", 1.0, 9.0),          # pool, waiting on its items
        _span(3, 2, "solver", 2.0, 6.0, tid=2),        # two items in parallel
        _span(4, 2, "solver", 2.0, 8.0, tid=3),
        _span(5, 4, "flux", 3.0, 4.0, tid=3),
    ]
    selfs = tracer.attributed_self_time(spans)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert selfs["harness"] == pytest.approx(2.0)
    assert selfs["experiments"] == pytest.approx(2.0)   # [1,2] and [8,9]
    assert selfs["flux"] == pytest.approx(0.5)          # shares [3,4] with span 3
    assert selfs["solver"] == pytest.approx(5.5)


@pytest.mark.parametrize("module, attr, expect_absent", [
    ("solver", "irfft",
     ("solver.lu_fft_us", "solver.lu_fft_bytes_computed", "kernels.fft_path_frac")),
    ("kernels", "convolve",
     ("kernels.convolve_calls", "kernels.convolve_us", "nonlocal_op.L_direct_calls")),
])
def test_a_vanished_hook_is_absent_not_zero(monkeypatch, module, attr, expect_absent):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    owner = pytest.importorskip(f"nwavelab.{module}")
    monkeypatch.delattr(owner, attr)
    t = tracer.Tracer()
    t.install()
    try:
        t.root(lambda: None)
    finally:
        t.uninstall()
    assert f"nwavelab.{module}.{attr}" in t.missing
    metrics, _detail, absent = tracer.layer_metrics(t, untraced_wall=1.0)
    for name in expect_absent:
        assert name in absent and name not in metrics
    assert metrics["solver.steps"][0] == 0
