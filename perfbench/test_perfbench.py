"""Tests of the benchmark itself: short smoke runs of every workload, the
output check, the wrapper removal and the command-line contract."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import pull, run as bench
from perfbench.common import END_TO_END, PULL_CASES, per_layer_catalogue
from perfbench.spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_SECONDS = 0.5


def cases(mode):
    return [c for c in PULL_CASES if c.mode == mode]


@pytest.fixture(autouse=True)
def no_calibration(tmp_path, monkeypatch):
    """Auto-selection decides from the analytic model, as in the CLI."""
    from repro.exec.calibrate import reset_calibration_cache

    monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path / "calib"))
    reset_calibration_cache()
    yield
    reset_calibration_cache()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke(workload, tmp_path):
    out = bench.run_workload(workload, seed=3, seconds=SMOKE_SECONDS,
                             trace=False)
    result = bench.result_json(out, trace=False)
    assert result["correct"], out.lines
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_output_counts_as_failure(monkeypatch):
    from repro.session import StreamSession

    plain_run = StreamSession.run

    def perturbed(self, n):
        out = plain_run(self, n)
        return out + 1e-6 if self.backend == "plan" else out

    monkeypatch.setattr(StreamSession, "run", perturbed)
    out = pull.run(seed=3, seconds=SMOKE_SECONDS, trace=False,
                   cases=cases("auto"))
    assert out.failed > 0
    assert not bench.result_json(out, trace=False)["correct"]


def test_resumed_state_defect_counts_as_failure(monkeypatch):
    """A defect that shows only after a resume boundary, past the interp
    reference prefix, is caught by the one-run comparison."""
    from repro.session import StreamSession

    plain_run = StreamSession.run
    calls: dict = {}

    def resumed_off(self, n):
        out = plain_run(self, n)
        calls[id(self)] = calls.get(id(self), 0) + 1
        return out + 1e-6 if calls[id(self)] > 1 else out

    monkeypatch.setattr(StreamSession, "run", resumed_off)
    out = pull.run(seed=3, seconds=SMOKE_SECONDS, trace=False,
                   cases=cases("none"))
    assert any("resumed advance" in line for line in out.lines), out.lines
    assert out.failed > 0


def test_traced_run_removes_its_wrappers(monkeypatch):
    wrapped = []
    plain_wrap = Tracer.wrap

    def spy(self, obj, attr, name, run):
        wrapped.append((obj, attr))
        plain_wrap(self, obj, attr, name, run)

    monkeypatch.setattr(Tracer, "wrap", spy)
    out = pull.run(seed=3, seconds=SMOKE_SECONDS, trace=True)
    assert out.failed == 0, out.lines
    assert {attr for _, attr in wrapped} == {"execute", "run"}
    assert all(attr not in vars(obj) for obj, attr in wrapped)
    metrics = bench.result_json(out, trace=True)["metrics"]
    assert set(metrics) == set(per_layer_catalogue())
    vocoder = metrics["exec.kernels.fallback_us_per_output.none.Vocoder"]
    assert vocoder["value"] > 0


def test_span_self_times_partition_the_root():
    class Kernel:
        def execute(self, n):
            return n

    tracer = Tracer()
    kernel = Kernel()
    tracer.wrap(kernel, "execute", "step", "r")
    with tracer.span("root", "r"):
        for n in (3, 4):
            kernel.execute(n)
    tracer.unwrap_all()
    assert "execute" not in vars(kernel)
    own, wall = tracer.check_partition("r")
    assert own == pytest.approx(wall, rel=1e-9)
    assert tracer.totals("r")["step"]["work"] == 7


def test_command_line_contract(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pull",
         "--seed", "5", "--seconds", str(SMOKE_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == \
        list(per_layer_catalogue())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pull",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
