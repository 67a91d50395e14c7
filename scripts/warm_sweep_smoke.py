#!/usr/bin/env python3
"""Warm-vs-cold sweep smoke (the CI `perf-smoke` warm step, runnable locally).

Runs the same small sweep grid twice against a fresh private trace
cache:

1. **Cold** — captures each distinct (benchmark, limit) trace exactly
   once and populates the VSRT v3 cache.
2. **Warm, fanned** — re-runs the grid with ``--jobs N`` workers under
   ``REPRO_TRACE_STRICT=1``, so any worker that would fall back to
   functional capture *fails the run* instead: the sweep completing is
   the proof that warm sweeps perform **zero trace regenerations**
   (workers are served entirely from mmap'd cache entries).

The script also asserts the warm results are bit-identical to the cold
ones, counts functional-simulator captures directly (the cold run must
capture once per benchmark, the warm run zero times in the parent), and
reports wall time plus peak RSS (parent and worker maxima) — appended
to ``$GITHUB_STEP_SUMMARY`` as a markdown table when that variable is
set.  Exit status is the check result.

Usage::

    PYTHONPATH=src python scripts/warm_sweep_smoke.py [--jobs 4]
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time
from pathlib import Path


def _peak_rss_mib() -> tuple[float, float]:
    """(parent, worker-max) peak RSS in MiB.  ``ru_maxrss`` is KiB on
    Linux; RUSAGE_CHILDREN covers the reaped pool workers."""
    scale = 1024.0  # KiB -> MiB
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / scale
    return own, children


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--benchmarks", nargs="+", default=["compress", "m88ksim", "perl"]
    )
    parser.add_argument("--max-instructions", type=int, default=1500)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="trace cache directory (default: a fresh temp dir, so the "
        "first pass is genuinely cold)",
    )
    args = parser.parse_args(argv)

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-warm-smoke-")
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    os.environ.pop("REPRO_TRACE_STRICT", None)

    from repro.core.model import GOOD_MODEL, GREAT_MODEL
    from repro.engine.config import ProcessorConfig
    from repro.harness import parallel
    from repro.programs.suite import KernelSpec

    # Count both capture forms: the trace cache streams captures through
    # ``iter_trace`` and falls back to ``trace`` when it cannot write.
    captures = {"count": 0}

    def counting(original):
        def capture(self, max_instructions=None):
            captures["count"] += 1
            return original(self, max_instructions)

        return capture

    KernelSpec.trace = counting(KernelSpec.trace)
    KernelSpec.iter_trace = counting(KernelSpec.iter_trace)

    config = ProcessorConfig(issue_width=4, window_size=24)
    jobs = [
        parallel.SimJob(name, config, model, args.max_instructions)
        for name in args.benchmarks
        for model in (None, GREAT_MODEL, GOOD_MODEL)
    ]

    status = 0

    start = time.perf_counter()
    cold = parallel.run_jobs(jobs, jobs=1)
    cold_seconds = time.perf_counter() - start
    cold_captures = captures["count"]
    if cold_captures != len(args.benchmarks):
        print(
            f"FAIL: cold sweep captured {cold_captures} traces, expected "
            f"one per benchmark ({len(args.benchmarks)})"
        )
        status = 1

    # A new sweep process would start with an empty per-process memo;
    # clear it so the warm pass exercises the staging tiers, not the memo.
    parallel._TRACE_CACHE.clear()
    os.environ["REPRO_TRACE_STRICT"] = "1"
    start = time.perf_counter()
    try:
        warm = parallel.run_jobs(jobs, jobs=args.jobs)
    except Exception as exc:
        print(f"FAIL: warm sweep regenerated a trace: {exc}")
        return 1
    warm_seconds = time.perf_counter() - start
    warm_captures = captures["count"] - cold_captures
    if warm_captures:
        print(f"FAIL: warm sweep captured {warm_captures} traces in the parent")
        status = 1

    if [r.counters for r in warm] != [r.counters for r in cold] or [
        r.cycles for r in warm
    ] != [r.cycles for r in cold]:
        print("FAIL: warm fanned results differ from cold inline results")
        status = 1

    own_rss, worker_rss = _peak_rss_mib()
    entries = sorted(Path(cache_dir).glob("*.vsrt3"))
    cache_bytes = sum(path.stat().st_size for path in entries)

    rows = [
        ("grid points", str(len(jobs))),
        ("cold (jobs=1, capture+store)", f"{cold_seconds:.2f} s"),
        (f"warm (jobs={args.jobs}, strict)", f"{warm_seconds:.2f} s"),
        ("cold captures", str(cold_captures)),
        ("warm captures (must be 0)", str(warm_captures)),
        ("cache entries", f"{len(entries)} ({cache_bytes:,} bytes)"),
        ("peak RSS, parent", f"{own_rss:.1f} MiB"),
        ("peak RSS, worker max", f"{worker_rss:.1f} MiB"),
        ("result", "ok" if status == 0 else "FAIL"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        lines = [
            "### Warm-sweep smoke (zero trace regenerations)",
            "",
            "| check | value |",
            "|---|---|",
        ]
        lines += [f"| {label} | {value} |" for label, value in rows]
        lines.append("")
        with open(summary_path, "a") as handle:
            handle.write("\n".join(lines) + "\n")

    return status


if __name__ == "__main__":
    sys.exit(main())
