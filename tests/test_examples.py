"""Smoke tests: every example script runs and prints what it promises."""

import subprocess
import sys
from pathlib import Path

import pytest

_EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, timeout: int = 300) -> str:
    result = subprocess.run(
        [sys.executable, str(_EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_contents():
    scripts = sorted(p.name for p in _EXAMPLES.glob("*.py"))
    assert "quickstart.py" in scripts
    assert len(scripts) >= 5


def test_quickstart():
    out = _run("quickstart.py")
    assert "speedup over base" in out
    assert "value predictions" in out


def test_custom_kernel():
    out = _run("custom_kernel.py")
    assert "super" in out and "good" in out
    assert "speedup" in out


def test_microbenchmarks():
    out = _run("microbenchmarks.py")
    assert "reduction" in out and "pointer_chase" in out


def test_pipeline_visualization():
    out = _run("pipeline_visualization.py")
    assert "retires all 3 in 5 cycles" in out
    assert "good/incorrect" in out


@pytest.mark.slow
def test_execution_timeline():
    out = _run("execution_timeline.py", timeout=600)
    assert "mean IPC" in out


@pytest.mark.slow
def test_predictor_comparison():
    out = _run("predictor_comparison.py", timeout=600)
    assert "context (paper)" in out


@pytest.mark.slow
def test_design_space_exploration():
    out = _run("design_space_exploration.py", timeout=900)
    assert "Equality-Verification" in out


def test_latency_events():
    out = _run("latency_events.py")
    assert "latency events — good" in out
    assert "latency events — great" in out
    assert "Verification - Free Issue Resource" in out
    assert "Invalidation - Reissue" in out


def test_ablation_report():
    out = _run("ablation_report.py")
    assert "planned 8 runs" in out
    assert "importance" in out
    assert "engine-batching" not in out
    assert "baseline speedup" in out
