#!/usr/bin/env python3
"""Ablation smoke check (the CI `ablation-smoke` job, runnable locally).

Runs the tiny default leave-one-out ablation (``micro:fib``, 8/48,
great model, D/R, 3000 instructions) and asserts:

1. the baseline run is **bit-identical** to the committed golden
   snapshot (``tests/golden/micro_fib.json``) — every counter of both
   the base-machine and speculative runs;
2. the JSON report validates against the v1 ablation schema and ranks
   at least six registered components;
3. run IDs are stable: planning the same spec twice (second time from
   a registry rebuilt from scratch) yields byte-identical IDs;
4. warm re-run: with a result store configured, executing the same plan
   a second time recomputes **zero** jobs — every point is served from
   the store.

Exit status is the check result; the JSON/CSV reports are left in
``--out-dir`` for upload as a build artifact.

Usage::

    PYTHONPATH=src python scripts/ablation_smoke.py [--out-dir ablation-artifacts]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN = _REPO_ROOT / "tests" / "golden" / "micro_fib.json"


def _counters_dict(counters) -> dict:
    return {
        f.name: getattr(counters, f.name)
        for f in fields(counters)
        if f.name != "extra"
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="ablation-artifacts")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    from repro.ablation import (
        AblationPoint,
        AblationSpec,
        build_report,
        default_registry,
        execute_plan,
        plan_ablation,
        render_csv,
        render_text,
        validate_report,
        write_report,
    )
    from repro.core.model import GREAT_MODEL
    from repro.engine.config import paper_config

    failures: list[str] = []

    spec = AblationSpec(
        benchmarks=("micro:fib",),
        point=AblationPoint(config=paper_config("8/48"), model=GREAT_MODEL),
        max_instructions=3000,
    )
    plan = plan_ablation(spec)
    replanned = plan_ablation(spec, default_registry())
    if [run.run_id for run in plan.runs] != [
        run.run_id for run in replanned.runs
    ]:
        failures.append("run IDs differ between two plannings of the same spec")

    executed = execute_plan(plan, jobs=args.jobs)

    # Bit-identity of the baseline run against the committed golden
    # snapshot — the same (kernel, config, model, D/R, limit) point the
    # tier-1 golden test pins.
    golden = json.loads(_GOLDEN.read_text())
    baseline = executed[0]
    base_counters = _counters_dict(baseline.base_results[0].counters)
    vp_counters = _counters_dict(baseline.results[0].counters)
    if base_counters != golden["base"]:
        failures.append("baseline base-machine counters diverge from golden")
    if vp_counters != golden["vp"]:
        failures.append("baseline speculative counters diverge from golden")

    report = build_report(plan, executed)
    try:
        validate_report(report)
    except ValueError as error:
        failures.append(f"report schema: {error}")
    if len(report["components"]) < 6:
        failures.append(
            f"only {len(report['components'])} components ranked; need >= 6"
        )

    # Warm re-run through the result store: the second execution of the
    # identical plan must compute nothing.
    import repro.harness.parallel as parallel

    with tempfile.TemporaryDirectory(prefix="ablation-smoke-store-") as store:
        previous = os.environ.get("REPRO_RESULT_STORE")
        os.environ["REPRO_RESULT_STORE"] = store
        real_backend = parallel._run_jobs_backend
        computed = {"jobs": 0}

        def counting_backend(job_list, *a, **kw):
            computed["jobs"] += len(job_list)
            return real_backend(job_list, *a, **kw)

        parallel._run_jobs_backend = counting_backend
        try:
            execute_plan(plan, jobs=args.jobs)
            cold_jobs = computed["jobs"]
            computed["jobs"] = 0
            warm = execute_plan(plan, jobs=args.jobs)
            warm_jobs = computed["jobs"]
        finally:
            parallel._run_jobs_backend = real_backend
            if previous is None:
                del os.environ["REPRO_RESULT_STORE"]
            else:
                os.environ["REPRO_RESULT_STORE"] = previous
        if warm_jobs != 0:
            failures.append(
                f"warm re-run computed {warm_jobs} job(s); expected 0"
            )
        if cold_jobs == 0:
            failures.append("cold run computed no jobs — store check is vacuous")
        warm_counters = _counters_dict(warm[0].results[0].counters)
        if warm_counters != golden["vp"]:
            failures.append("store-served baseline diverges from golden")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = write_report(report, out_dir / "ablation_report.json")
    (out_dir / "ablation_report.csv").write_text(render_csv(report) + "\n")

    print(render_text(report))
    print()
    print(f"report: {json_path}")
    print(
        f"cold run computed {cold_jobs} job(s); warm re-run computed "
        f"{warm_jobs}"
    )

    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as handle:
            handle.write("### Ablation smoke\n\n```\n")
            handle.write(render_text(report))
            handle.write("\n```\n")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ablation smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
