"""Tests of the benchmark itself, at tiny scale (two kernels, a few
hundred records).  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, **kwargs) -> tuple[int, dict]:
    out = io.StringIO()
    code = run.run_benchmark(workload, 7, 1, trace, scale="tiny", out=out, **kwargs)
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, kind):
    code, result = bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    pinned = len(run.load_pinned(run.PINNED, workload, "tiny"))
    # Every repetition checks every pinned output.
    assert result["attempted"] >= pinned and result["attempted"] % pinned == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["trace_run.covered_frac"]["value"] >= 0.95
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_tampered_result_trips_the_digest_check(tmp_path, monkeypatch):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    pinned = run.load_pinned(run.PINNED, "full-length", "tiny")
    with workloads.Delivered() as delivered:
        derived = workloads.full_length(workloads.TINY, 7, 1)
    outputs = {key: workloads.digest(value) for key, value in derived.items()}
    outputs.update(delivered.digests())
    assert run.check(outputs, pinned) == (len(pinned), 0)

    delivered.pairs[0][1].counters.retired += 1
    outputs.update(delivered.digests())
    assert run.check(outputs, pinned) == (len(pinned), 1)


def test_a_mismatch_makes_the_command_fail(tmp_path):
    shutil.copytree(run.PINNED, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "fig3-grid-tiny.json"
    doc = json.loads(path.read_text())
    first = sorted(doc["outputs"])[0]
    doc["outputs"][first] = "0" * 16
    path.write_text(json.dumps(doc))
    code, result = bench("fig3-grid", 0, pinned_dir=tmp_path)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == 1


def test_the_callers_environment_does_not_leak(tmp_path, monkeypatch):
    warm = tmp_path / "warm"
    subprocess.run(
        [sys.executable, "-c",
         "from repro.trace.cache import warm_cache; "
         "warm_cache(['compress', 'm88ksim'], 300)"],
        env=dict(os.environ, XDG_CACHE_HOME=str(warm),
                 PYTHONPATH=str(ROOT / "src")),
        check=True,
    )
    before = sorted((p.name, p.stat().st_mtime_ns) for p in warm.rglob("*"))
    assert before
    monkeypatch.setenv("XDG_CACHE_HOME", str(warm))
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(warm / "repro" / "traces"))
    monkeypatch.setenv("REPRO_ENGINE_SPECIALIZE", "0")
    monkeypatch.setenv("REPRO_SWEEP_BATCH", "0")
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
    code, result = bench("fig3-grid", 1)
    assert code == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.misses"] == 2 and metrics["trace.hits"] == 0
    assert metrics["engine.path.specialized"] == metrics["engine.runs"] > 0
    assert metrics["engine.path.batched"] == 0
    assert metrics["store.lookups"] == 0
    assert sorted((p.name, p.stat().st_mtime_ns) for p in warm.rglob("*")) == before
    assert not (tmp_path / "store").exists()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_self_time_excludes_child_spans(tmp_path):
    recorder = layers.Recorder(tmp_path)

    def child():
        return sum(range(20000))

    def parent():
        recorder.call("child", child, (), {})
        return list(recorder.timed_items("items", iter(range(100))))

    recorder.call("parent", parent, (), {})
    by_name = {span[2]: span for span in recorder.spans}
    _, _, _, start, end, self_time, _ = by_name["parent"]
    children = by_name["child"][5] + by_name["items"][5]
    assert self_time == pytest.approx(end - start - children)
    assert by_name["child"][1] == by_name["items"][1] == by_name["parent"][0]
    assert by_name["items"][6] == {"records": 100}


def test_times_are_reported_at_the_reference_speed():
    reps = [{"wall_s": 10.0, "cpu_s": 16.0, "speed": 0.5, "retired": 1000,
             "peak_rss_mb": 64.0}]
    metrics = {name: m["value"]
               for name, m in run.end_to_end_metrics(reps, [0.2]).items()}
    assert metrics["wall_s"] == 5.0
    assert metrics["cpu_s"] == 8.0
    assert metrics["sim_ips"] == 200.0
    assert metrics["peak_rss_mb"] == 64.0


def test_host_speed_is_sampled_in_pool_workers_too(tmp_path, monkeypatch):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    sampler = hostspeed.Sampler(tmp_path / "speed")
    sampler.start()
    try:
        workloads.fig3_grid(workloads.TINY, 7, 2)
    finally:
        sampler.stop()
    sampler.dump()
    by_pid = {
        path.stem: json.loads(path.read_text())
        for path in (tmp_path / "speed").glob("samples-*.json")
    }
    workers = [samples for stem, samples in by_pid.items()
               if stem != f"samples-{os.getpid()}"]
    assert workers and all(workers)
    samples = hostspeed.load_samples(tmp_path / "speed")
    assert all(sample > 0 for sample in samples)
    assert 0.05 < hostspeed.speed(samples) < 5
