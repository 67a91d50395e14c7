"""Ablation execution: run a planned run set on any harness backend.

:func:`execute_plan` flattens an :class:`~repro.ablation.plan.AblationPlan`
into :func:`repro.harness.parallel.run_jobs` calls, so an ablation
inherits every execution amenity the harness already has: the local
pool, the fault-tolerant cluster, the always-on service, the trace
cache, and the persistent result store.  With ``REPRO_RESULT_STORE``
configured, re-running an ablation after one component change
recomputes only the runs whose jobs changed — everything else is served
warm, and the baseline jobs shared by every leave-one-out run execute
exactly once thanks to the harness's duplicate-key dedup.

Runs are grouped by their engine overrides: the (usually dominant)
no-override group goes to the backend as one flattened job list, while
each engine-lesioned group (``batch=1``) runs as its own call with the
override applied — the jobs are identical, only the execution strategy
differs, which is exactly what those components measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ablation.plan import AblationPlan, PlannedRun
from repro.cluster.serial import job_key
from repro.engine.sim import SimulationResult
from repro.harness.parallel import SimJob, run_jobs


@dataclass(frozen=True)
class RunResults:
    """One planned run with its computed (base, speculative) results,
    positionally aligned with ``run.jobs`` / ``run.base_jobs``."""

    run: PlannedRun
    base_results: tuple[SimulationResult, ...]
    results: tuple[SimulationResult, ...]


def _run_group(
    group: list[PlannedRun],
    *,
    jobs: int,
    backend: str | None,
    batch: int | None,
) -> dict[str, list[SimulationResult]]:
    """Execute one override-group's runs as a single flattened job list
    and hand back results keyed by run_id (base results first)."""
    flat: list[SimJob] = []
    spans: list[tuple[str, int, int]] = []
    for run in group:
        start = len(flat)
        flat.extend(run.base_jobs)
        flat.extend(run.jobs)
        spans.append((run.run_id, start, len(flat)))
    overrides = dict(group[0].engine_overrides)
    effective_batch = overrides.get("batch", batch)
    results = run_jobs(flat, jobs, backend=backend, batch=effective_batch)
    return {
        run_id: results[start:stop] for run_id, start, stop in spans
    }


def execute_plan(
    plan: AblationPlan,
    *,
    jobs: int = 1,
    backend: str | None = None,
    batch: int | None = None,
) -> list[RunResults]:
    """Execute every planned run and return results aligned with
    ``plan.runs`` (baseline first).

    ``jobs``/``backend``/``batch`` follow the
    :func:`~repro.harness.parallel.run_jobs` conventions (environment
    fallbacks included), except that engine-lesioned runs pin their own
    overrides regardless of the caller's settings.
    """
    groups: dict[tuple[tuple[str, object], ...], list[PlannedRun]] = {}
    for run in plan.runs:
        groups.setdefault(run.engine_overrides, []).append(run)
    by_run: dict[str, list[SimulationResult]] = {}
    for group in groups.values():
        by_run.update(
            _run_group(group, jobs=jobs, backend=backend, batch=batch)
        )
    out: list[RunResults] = []
    for run in plan.runs:
        results = by_run[run.run_id]
        count = len(run.base_jobs)
        out.append(
            RunResults(
                run=run,
                base_results=tuple(results[:count]),
                results=tuple(results[count:]),
            )
        )
    return out


def verify_engine_identity(executed: list[RunResults]) -> list[str]:
    """Cross-check engine-lesioned runs against the baseline.

    Engine components execute the *same* jobs with a different strategy,
    so their results must be bit-identical to the baseline's wherever
    the job keys match.  Returns a list of mismatch descriptions (empty
    means the differential test passed); the reporter attaches these to
    the run records.
    """
    by_key: dict[str, SimulationResult] = {}
    baseline = executed[0]
    for job, result in zip(
        baseline.run.base_jobs + baseline.run.jobs,
        baseline.base_results + baseline.results,
    ):
        by_key[job_key(job)] = result
    mismatches: list[str] = []
    for item in executed[1:]:
        if not item.run.engine_overrides:
            continue
        for job, result in zip(
            item.run.base_jobs + item.run.jobs,
            item.base_results + item.results,
        ):
            reference = by_key.get(job_key(job))
            if reference is not None and reference != result:
                mismatches.append(
                    f"{item.run.label}: {job.benchmark} diverged from "
                    "the baseline execution of the identical job"
                )
    return mismatches
