"""Profile one engine run and print the hottest functions.

The cycle engine is pure Python, so its throughput lives and dies by
per-call overhead; this wrapper makes the profile one command away:

    PYTHONPATH=src python scripts/profile_engine.py
    PYTHONPATH=src python scripts/profile_engine.py \
        --benchmark perl --config 4/24 --model none --sort tottime

The run is profiled once under :mod:`cProfile` and printed three ways — a
per-stage cumulative-time table over the pipeline's stage methods, then
the top rows by cumulative time (where the cycles go) and by internal
time (which bodies to inline next).
docs/PERFORMANCE.md records the findings this view produced.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

#: Pipeline stage methods and hot helpers worth a dedicated table row.
STAGE_ROWS = (
    "run",
    "_fetch",
    "_dispatch",
    "_predict_value",
    "_predict_value_fast",
    "_issue",
    "_try_load_access",
    "_start_execution",
    "_process_events",
    "_on_result",
    "_broadcast",
    "_on_equality",
    "_on_verify",
    "_verify_parallel",
    "_verify_hierarchical",
    "_verify_retirement_based",
    "_clear_taints",
    "_on_invalidate",
    "_apply_invalidation",
    "_retire",
    "_squash_younger",
)


def print_stage_table(stats: pstats.Stats, top: int) -> None:
    """Cumulative/internal time per pipeline stage method, summed over
    every code object with that name."""
    rows: dict[str, tuple[int, float, float]] = {}
    for (_filename, _line, funcname), entry in stats.stats.items():
        if funcname not in STAGE_ROWS:
            continue
        _cc, ncalls, tottime, cumtime, _callers = entry
        calls, tot, cum = rows.get(funcname, (0, 0.0, 0.0))
        rows[funcname] = (calls + ncalls, tot + tottime, cum + cumtime)
    if not rows:
        return
    print(f"=== per-stage cumulative time (top {top}) ===")
    print(
        f"{'stage method':26s} {'ncalls':>10s} {'tottime':>9s} {'cumtime':>9s}"
    )
    ranked = sorted(rows.items(), key=lambda item: -item[1][2])[:top]
    for funcname, (calls, tot, cum) in ranked:
        print(f"{funcname:26s} {calls:>10d} {tot:>9.3f} {cum:>9.3f}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile one cycle-engine simulation"
    )
    parser.add_argument("--benchmark", default="m88ksim")
    parser.add_argument("--config", default="8/48", help="4/24 | 8/48 | 16/96")
    parser.add_argument(
        "--model", default="great", help="super | great | good | none"
    )
    parser.add_argument("--max-instructions", type=int, default=20000)
    parser.add_argument("--confidence", default="real", help="real | oracle")
    parser.add_argument("--timing", default="I", help="I | D")
    parser.add_argument(
        "--top", type=int, default=20, help="rows per ranking (default 20)"
    )
    parser.add_argument(
        "--sort",
        default=None,
        choices=("cumulative", "tottime", "ncalls"),
        help="print a single ranking instead of cumulative + tottime",
    )
    parser.add_argument(
        "--out", default=None, help="also dump raw stats to this file"
    )
    args = parser.parse_args(argv)

    from repro.core.model import named_models
    from repro.engine.config import paper_config
    from repro.engine.sim import run_baseline, run_trace
    from repro.programs.suite import kernel

    config = paper_config(args.config)
    trace = kernel(args.benchmark).trace(args.max_instructions)
    model = None if args.model == "none" else named_models()[args.model]
    if model is None:
        def simulate():
            return run_baseline(trace, config)
    else:
        def simulate():
            return run_trace(
                trace,
                config,
                model,
                confidence=args.confidence,
                update_timing=args.timing,
            )

    profiler = cProfile.Profile()
    result = profiler.runcall(simulate)
    print(
        f"{args.benchmark} @ {config.label}, model={args.model}, "
        f"engine={result.engine_path}: "
        f"{result.counters.retired} instructions in "
        f"{result.counters.cycles} cycles\n"
    )

    stats = pstats.Stats(profiler, stream=sys.stdout)
    print_stage_table(stats, args.top)
    stats.strip_dirs()
    for sort in (args.sort,) if args.sort else ("cumulative", "tottime"):
        print(f"=== top {args.top} by {sort} ===")
        stats.sort_stats(sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw stats written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
