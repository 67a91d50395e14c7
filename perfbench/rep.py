"""One measured repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition (and once per set-up
probe) with a scrubbed environment, so no per-process memo, cache
directory or ``REPRO_*`` setting of an earlier repetition or of the
caller can make it warm.  It writes ``result.json`` into ``--out``:

* ``ready_at`` — the clock reading when set-up (imports, a fresh empty
  cache directory) was done; ``run.py`` subtracts its spawn time;
* ``speed`` — the host's speed relative to the reference (see
  ``hostspeed.py``), sampled right after set-up in a set-up probe and
  throughout the timed region in a measured repetition;
* for a measured repetition, the timed region's wall, CPU and memory
  figures, the simulated-work totals, every output's digest and, with
  ``--trace 1``, the per-layer metrics.

Usage (internal): ``python3 rep.py --workload W --seed N --scale full
--jobs 2 --trace 0 --out DIR [--setup-only]``
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path

import hostspeed

clock = time.perf_counter

#: Every module the workloads and the traced layers use, imported during
#: set-up so the timed region does no importing in either mode.
MODULES = (
    "repro.asm.assembler",
    "repro.cluster.serial",
    "repro.core.model",
    "repro.engine.batched",
    "repro.engine.config",
    "repro.engine.sim",
    "repro.engine.specialize",
    "repro.harness.figure3",
    "repro.harness.parallel",
    "repro.harness.sweeps",
    "repro.harness.table1",
    "repro.programs.suite",
    "repro.service.results",
    "repro.trace.binary",
    "repro.trace.cache",
    "repro.trace.stats",
)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; RUSAGE_CHILDREN gives the largest
    # reaped worker.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def set_up(source_root: Path) -> None:
    """Import every module the run needs and create the fresh, empty
    cache directory the environment points at."""
    import importlib

    for name in MODULES:
        importlib.import_module(name)
    import repro

    loaded = Path(repro.__file__).resolve()
    if source_root.resolve() not in loaded.parents:
        raise SystemExit(f"repro imported from {loaded}, not {source_root}")
    cache = Path(os.environ["XDG_CACHE_HOME"])
    if cache.exists() and any(cache.iterdir()):
        raise SystemExit(f"cache directory {cache} is not empty")
    cache.mkdir(parents=True, exist_ok=True)


def measure(args, out: Path) -> dict:
    import layers
    import workloads

    scale = workloads.SCALES[args.scale]
    runner = workloads.RUNNERS[args.workload]
    recorder = undo = None
    sampler = hostspeed.Sampler(out / "speed")
    with workloads.Delivered() as delivered:
        if args.trace:
            recorder = layers.Recorder(out / "spans")
            undo = layers.install(recorder)
        sampler.start()
        cpu_before = _cpu_seconds()
        start = clock()
        derived = runner(scale, args.seed, args.jobs)
        wall_s = clock() - start
        cpu_s = _cpu_seconds() - cpu_before
        sampler.stop()
        if recorder is not None:
            layers.uninstall(undo)
            recorder.dump()
    sampler.dump()
    samples = hostspeed.load_samples(out / "speed") or hostspeed.burst()
    outputs = {key: workloads.digest(value) for key, value in derived.items()}
    outputs.update(delivered.digests())
    doc = {
        "speed": hostspeed.speed(samples),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "retired": delivered.retired(),
        "outputs": outputs,
    }
    if recorder is not None:
        per_layer = layers.layer_metrics(
            layers.load_spans(out / "spans"), os.getpid(), wall_s, cpu_s,
            layers.calibrate(),
        )
        per_layer["trace.bytes_written"] = _tree_bytes(
            Path(os.environ["XDG_CACHE_HOME"])
        )
        per_layer.update(delivered.sim_totals())
        doc["per_layer"] = per_layer
    return doc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    set_up(Path(__file__).resolve().parent.parent / "src")
    doc = {"ready_at": clock()}
    if args.setup_only:
        doc["speed"] = hostspeed.speed(hostspeed.burst())
    else:
        doc.update(measure(args, args.out))
    (args.out / "result.json").write_text(json.dumps(doc))


if __name__ == "__main__":
    main()
