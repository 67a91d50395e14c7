"""Reproduction benchmark: host cost of the paper's experiment runs.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig3-grid --seed 1 --seconds 30 --trace 0

Runs the workload in fresh interpreters (see ``rep.py``), checks every
output against the digests pinned in ``perfbench/pinned/``, and prints
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of untraced repetitions;
``--trace 1`` reports the per-layer metrics of traced ones.  Each
repetition is one whole workload; another starts only while the
``--seconds`` budget has room for it, and metrics are medians over the
repetitions.  Times are adjusted to the reference host speed (see
``hostspeed.py``); the raw figures go to standard error.  The exit code
is 0 only when every output matched.  See ``perfbench/README.md`` for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

clock = time.perf_counter

PINNED = HERE / "pinned"
WORK = HERE / ".work"

#: Set-up probes per run; ``setup_s`` is their median.  One probe takes
#: about 0.15 s and varies by a third with host load, hence several.
SETUP_PROBES = 9

#: Seconds a run may take in all before it must have exited.
RUN_LIMIT_S = 170.0


class RepFailed(RuntimeError):
    """A repetition exited non-zero, timed out or wrote no result."""


def rep_env(out: Path) -> dict[str, str]:
    """The caller's environment without any ``REPRO_*`` setting, with a
    fresh cache home under ``out`` and only this checkout's sources on
    the import path.

    The repetitions of one run share a bytecode cache beside their
    output directories, so the caller's ``PYTHONDONTWRITEBYTECODE`` and
    any stale ``__pycache__`` in the tree do not change what set-up
    costs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(out.parent / "pycache")
    env["XDG_CACHE_HOME"] = str(out / "xdg")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_rep(
    out: Path, options: list[str], deadline: float
) -> tuple[float, dict]:
    """Run ``rep.py`` once in ``out``; returns (spawn time, result)."""
    out.mkdir(parents=True)
    command = [sys.executable, str(HERE / "rep.py"), "--out", str(out), *options]
    spawned_at = clock()
    process = subprocess.Popen(
        command, env=rep_env(out), cwd=out, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, stderr = process.communicate(timeout=max(deadline - clock(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepFailed(f"{' '.join(options)}: timed out") from None
    finally:
        # Pool workers share the repetition's process group; none may
        # outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    result = out / "result.json"
    if process.returncode != 0 or not result.is_file():
        tail = stderr.decode(errors="replace")[-2000:]
        raise RepFailed(
            f"{' '.join(options)}: exit {process.returncode}\n{tail}"
        )
    return spawned_at, json.loads(result.read_text())


def check(outputs: dict[str, str], pinned: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed) over the union of produced and pinned outputs:
    a missing, extra or different digest is a failure."""
    keys = set(outputs) | set(pinned)
    failed = sum(1 for key in keys if outputs.get(key) != pinned.get(key))
    return len(keys), failed


def load_pinned(pinned_dir: Path, workload: str, scale: str) -> dict[str, str]:
    path = pinned_dir / f"{workload}-{scale}.json"
    return json.loads(path.read_text())["outputs"]


def run_benchmark(
    workload: str,
    seed: int,
    seconds: int,
    trace: int,
    *,
    scale: str = "full",
    pinned_dir: Path = PINNED,
    out=None,
) -> int:
    """Measure one run and print its result line; returns the exit code."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        pinned = load_pinned(pinned_dir, workload, scale)
    except (OSError, ValueError, KeyError) as error:
        print(f"no pinned digests for {workload}: {error}", file=sys.stderr)
        return 2
    deadline = clock() + RUN_LIMIT_S
    work = WORK / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    base = ["--workload", workload, "--seed", str(seed), "--scale", scale,
            "--jobs", str(workloads.JOBS[workload])]
    reps: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    try:
        # The first interpreter may compile bytecode; users pay that once.
        spawn_rep(work / "warm", base + ["--setup-only"], deadline)
        for probe in range(SETUP_PROBES):
            spawned_at, doc = spawn_rep(
                work / f"setup{probe}", base + ["--setup-only"], deadline
            )
            setups.append((doc["ready_at"] - spawned_at) * doc["speed"])
        measured_from = clock()
        while True:
            rep_start = clock()
            _, doc = spawn_rep(
                work / f"rep{len(reps)}", base + ["--trace", str(trace)],
                deadline,
            )
            reps.append(doc)
            tried, wrong = check(doc["outputs"], pinned)
            attempted += tried
            failed += wrong
            last = clock() - rep_start
            if clock() + last - measured_from > seconds:
                break
    except RepFailed as error:
        print(error, file=sys.stderr)
        attempted += len(pinned)
        failed += len(pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    metrics: dict[str, dict] = {}
    if reps and len(setups) == SETUP_PROBES:
        if trace:
            metrics = per_layer_metrics(reps, attempted, failed)
        else:
            metrics = end_to_end_metrics(reps, setups)
    result = {
        "correct": failed == 0 and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(
        f"workload={workload} seed={seed} scale={scale} trace={trace} "
        f"repetitions={len(reps)} "
        f"raw_wall_s={[round(r['wall_s'], 3) for r in reps]} "
        f"speed={[round(r['speed'], 4) for r in reps]}", file=sys.stderr,
    )
    print(json.dumps(result), file=out or sys.stdout, flush=True)
    return 0 if result["correct"] else 1


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from
    ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def end_to_end_metrics(reps: list[dict], setups: list[float]) -> dict:
    """Medians over the repetitions; seconds are at the reference host
    speed, the measured seconds times the repetition's ``speed``."""
    walls = [r["wall_s"] * r["speed"] for r in reps]
    values = {
        "wall_s": statistics.median(walls),
        "sim_ips": statistics.median(
            [r["retired"] / wall for r, wall in zip(reps, walls)]
        ),
        "cpu_s": statistics.median([r["cpu_s"] * r["speed"] for r in reps]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        "setup_s": statistics.median(setups),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units("end_to_end").items()
    }


def per_layer_metrics(reps: list[dict], attempted: int, failed: int) -> dict:
    values = {
        name: statistics.median([r["per_layer"][name] for r in reps])
        for name in reps[0]["per_layer"]
    }
    values["host.speed"] = statistics.median([r["speed"] for r in reps])
    values["fail_frac"] = failed / attempted if attempted else 1.0
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units("per_layer").items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the clean-up path, which kills a running repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return run_benchmark(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
