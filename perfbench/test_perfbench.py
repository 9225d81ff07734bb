"""The benchmark's own tests: every workload prints every metric, and the
output check rejects a run whose state differs from the oracle.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(*argv):
    """(exit code, stdout lines) of one in-process benchmark run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


@pytest.fixture
def short_windows(monkeypatch):
    """Windows of one 2-step cycle (forked mp ranks inherit the patch)."""
    monkeypatch.setattr(harness, "MIN_STEPS", 2)
    monkeypatch.setattr(harness, "CYCLE_STEPS", 2)
    monkeypatch.setattr(harness, "SETUP_REPS", 3)


def _smoke(workload, trace):
    return _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace))


def test_spec_lists_every_workload_and_layer_metric():
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in harness.LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(short_windows, workload, trace):
    code, lines = _smoke(workload, trace)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # a traced run adds a traced window of as many steps
    assert result["attempted"] == 2 * (1 + trace) and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace:
        layers = result["metrics"]
        self_ms = sum(layers[k]["value"] for k in harness.self_time_metrics())
        total = self_ms + layers["core.engine.residual_ms"]["value"]
        assert total == pytest.approx(layers["core.engine.step_ms"]["value"], rel=1e-9)
        assert layers["nn.functional.matmul.calls"]["value"] > 0


def test_check_outputs_flags_a_perturbed_digest():
    good = {"losses": [[1.0, 2.0]], "digest": "ab" * 32}
    assert harness.check_outputs(dict(good), good) == []
    bad = dict(good, digest="ba" + good["digest"][2:])
    assert any("digest" in p for p in harness.check_outputs(bad, good))
    worse = dict(good, losses=[[1.0, 2.0000001]])
    assert any("losses" in p for p in harness.check_outputs(worse, good))


def test_check_canary_flags_a_perturbed_loss():
    with open(harness.REFERENCE) as f:
        reference = json.load(f)["losses"]
    assert harness.check_canary(reference, reference) == []
    bad = [list(step) for step in reference]
    bad[-1][0] *= 1 + 10 * harness.CANARY_RTOL
    assert harness.check_canary(bad, reference)


def test_run_fails_when_the_oracle_digest_differs(short_windows, monkeypatch):
    real = harness.oracle

    def perturbed(*args, **kwargs):
        ref = real(*args, **kwargs)
        ref["digest"] = ("0" if ref["digest"][0] != "0" else "1") + ref["digest"][1:]
        return ref

    monkeypatch.setattr(harness, "oracle", perturbed)
    code, lines = _smoke("zero3-resident", 0)
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any("OUTPUT CHECK FAILED" in line for line in lines)


def test_run_fails_when_a_kernel_computes_wrong_numbers(short_windows, monkeypatch):
    """The oracle runs the same kernels, so only the canary catches this."""
    from repro.nn import functional

    real = functional.gelu_fwd

    def off_by_a_thousandth(x):
        y, cache = real(x)
        return (y * 1.001).astype(y.dtype), cache

    monkeypatch.setattr(functional, "gelu_fwd", off_by_a_thousandth)
    code, lines = _smoke("zero3-resident", 0)
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    failures = [line for line in lines if "OUTPUT CHECK FAILED" in line]
    assert failures and all("canary" in line for line in failures)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "zero3-resident",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
