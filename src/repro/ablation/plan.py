"""Ablation planning: baseline + leave-one-out run-set generation.

:func:`plan_ablation` expands an :class:`AblationSpec` (one baseline
point over a benchmark set) against a component registry into the run
set an ablation study needs: the unmodified baseline, one run per
applicable component with that component lesioned, and — with
``pairs=True`` — one run per component pair with both lesioned
(interaction probing).  Components whose lesion raises
:class:`~repro.ablation.registry.NotApplicable` become skipped-with-
reason entries instead of runs.

Every run carries a stable content-hash run ID built from the same
canonical-representation discipline as
:func:`repro.cluster.serial.job_key`: the ID digests the benchmark
list, the lesioned component names and the full job fingerprints of
every (base, speculative) job the run executes.
Two processes planning the same spec — regardless of the order
components were registered in — produce byte-identical IDs, so reports
from different machines and revisions are directly comparable and the
result store recognises re-planned runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations

from repro.ablation.registry import (
    AblationPoint,
    Component,
    ComponentRegistry,
    NotApplicable,
    default_registry,
)
from repro.cluster.serial import job_fingerprint
from repro.harness.parallel import SimJob

#: Bumped when the canonical run-ID text changes shape.
PLAN_VERSION = 2

_ID_CHARS = 24  # matches job_key's truncation


@dataclass(frozen=True)
class AblationSpec:
    """What to ablate: one baseline point over a benchmark set."""

    benchmarks: tuple[str, ...]
    point: AblationPoint
    max_instructions: int | None = None

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("an ablation needs at least one benchmark")


@dataclass(frozen=True)
class PlannedRun:
    """One run of the ablation set: a point (baseline or lesioned) with
    its expanded jobs and a stable content-hash ``run_id``."""

    run_id: str
    label: str
    components: tuple[str, ...]  # lesioned components; () = baseline
    point: AblationPoint
    jobs: tuple[SimJob, ...]  # speculative runs, one per benchmark
    base_jobs: tuple[SimJob, ...]  # matching no-speculation runs

    @property
    def is_baseline(self) -> bool:
        return not self.components


@dataclass(frozen=True)
class SkippedRun:
    """A component (set) whose lesion did not apply to the baseline."""

    components: tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class AblationPlan:
    """The full planned run set: baseline first, then lesioned runs in
    sorted-component-name order, plus skipped entries and a plan-level
    fingerprint digesting every run ID."""

    spec: AblationSpec
    runs: tuple[PlannedRun, ...]
    skipped: tuple[SkippedRun, ...] = ()
    runs_dropped: int = 0
    fingerprint: str = ""

    @property
    def baseline(self) -> PlannedRun:
        return self.runs[0]

    @property
    def lesioned(self) -> tuple[PlannedRun, ...]:
        return self.runs[1:]


def run_id_text(
    spec: AblationSpec,
    components: tuple[str, ...],
    jobs: tuple[SimJob, ...],
    base_jobs: tuple[SimJob, ...],
) -> str:
    """The canonical text a run ID digests (exposed for tests/docs)."""
    lines = [
        f"vsablate v{PLAN_VERSION}",
        "components=" + ",".join(sorted(components)),
    ]
    for benchmark, base, job in zip(spec.benchmarks, base_jobs, jobs):
        lines.append(f"benchmark={benchmark}")
        lines.append("base:" + job_fingerprint(base))
        lines.append("vp:" + job_fingerprint(job))
    return "\n".join(lines)


def _make_run(
    spec: AblationSpec,
    components: tuple[Component, ...],
) -> PlannedRun:
    """Build one run with every component in ``components`` lesioned
    (the empty tuple builds the baseline).  Raises ``NotApplicable``
    when any lesion does not apply."""
    point = spec.point
    for component in components:
        point = component.apply(point)
    names = tuple(sorted(component.name for component in components))
    jobs = tuple(
        point.job(benchmark, spec.max_instructions)
        for benchmark in spec.benchmarks
    )
    base_jobs = tuple(
        point.base_job(benchmark, spec.max_instructions)
        for benchmark in spec.benchmarks
    )
    text = run_id_text(spec, names, jobs, base_jobs)
    run_id = hashlib.sha256(text.encode()).hexdigest()[:_ID_CHARS]
    label = "baseline" if not names else "no-" + "+".join(names)
    return PlannedRun(
        run_id=run_id,
        label=label,
        components=names,
        point=point,
        jobs=jobs,
        base_jobs=base_jobs,
    )


def plan_ablation(
    spec: AblationSpec,
    registry: ComponentRegistry | None = None,
    *,
    pairs: bool = False,
    limit: int | None = None,
) -> AblationPlan:
    """Expand ``spec`` into the baseline + leave-one-out run set.

    ``pairs=True`` appends every applicable two-component lesion after
    the singles.  ``limit`` caps the number of *lesioned* runs (the
    baseline never counts against it); dropped runs are counted in
    ``runs_dropped`` so a capped report is visibly partial, never
    silently truncated.

    Components are always expanded in sorted-name order — plans and
    their run IDs are invariant to registry registration order.
    """
    registry = default_registry() if registry is None else registry
    runs: list[PlannedRun] = [_make_run(spec, ())]
    skipped: list[SkippedRun] = []
    groups: list[tuple[Component, ...]] = [
        (component,) for component in registry.components()
    ]
    if pairs:
        groups.extend(combinations(registry.components(), 2))
    dropped = 0
    for group in groups:
        try:
            run = _make_run(spec, group)
        except NotApplicable as reason:
            skipped.append(
                SkippedRun(
                    components=tuple(sorted(c.name for c in group)),
                    reason=str(reason),
                )
            )
            continue
        if limit is not None and len(runs) - 1 >= limit:
            dropped += 1
            continue
        runs.append(run)
    digest = hashlib.sha256(
        "\n".join(run.run_id for run in runs).encode()
    ).hexdigest()[:_ID_CHARS]
    return AblationPlan(
        spec=spec,
        runs=tuple(runs),
        skipped=tuple(skipped),
        runs_dropped=dropped,
        fingerprint=digest,
    )
