"""Smoke test for the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that a deliberately corrupted reference is counted as a failed op, that
a checkout without ``src/`` exits non-zero without a result, and that the
tracer reports a missing target as absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(tmp_path: Path, *args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.2", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    report, result = _result(
        _run(tmp_path, "--workload", workload, "--trace", trace, "--size", "tiny")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        printed = {line.split()[0]: line.split()[2] for line in report if not line.startswith("#")}
        for metric in declared:
            assert printed[metric["name"]] == metric["unit"]
        assert printed["fail_ratio"] == "ratio"
        assert "samples beyond" in next(line for line in report if line.startswith("op_tail_ms"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failed(tmp_path, workload):
    report, result = _result(
        _run(tmp_path, "--workload", workload, "--size", "tiny", "--corrupt-reference")
    )
    assert result["correct"] is False
    assert result["failed"] >= 1
    fail_line = next(line for line in report if line.startswith("fail_ratio"))
    assert float(fail_line.split()[1]) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", WORKLOADS[0], script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_trace_target_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracer

    monkeypatch.setattr(
        tracer, "SPAN_TARGETS", tracer.SPAN_TARGETS + (("hermitian", "gone", "hermitian.gone"),)
    )
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["hermitian.gone"]
