"""The benchmark's workloads: three slices of the paper reproduction.

Each workload calls the program's own entry points with their defaults
and the worker count in :data:`JOBS`, and returns its outputs (the results every outermost
``run_jobs`` call delivered, plus the workload's derived rows) for the
digest check.  :data:`TINY` shrinks every workload to two kernels and a
few hundred records for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

from layers import patch_everywhere, uninstall

#: Worker processes per workload: two for the pooled grids (the host has
#: two cores), one for full-length, which measures the poolless regime.
JOBS = {"fig3-grid": 2, "ablation-sweeps": 2, "full-length": 1}

#: The ABL sweeps of ``scripts/run_full_experiments.py``, in its order.
SWEEPS = (
    ("ABL-L", "latency_sensitivity_sweep"),
    ("ABL-V", "verification_scheme_sweep"),
    ("ABL-I", "invalidation_scheme_sweep"),
    ("ABL-P", "predictor_sweep"),
    ("ABL-R", "resolution_policy_sweep"),
    ("ABL-C", "confidence_strength_sweep"),
    ("ABL-CS", "confidence_scheme_sweep"),
    ("ABL-S", "selective_prediction_sweep"),
    ("ABL-PT", "vp_ports_sweep"),
    ("ABL-B", "branch_predictor_sweep"),
    ("ABL-E", "approximate_equality_sweep"),
    ("ABL-W", "width_scaling_sweep"),
)


@dataclass(frozen=True)
class Scale:
    """How much of each workload to run.  ``None`` kernels means all
    eight; a ``None`` limit means full length."""

    name: str
    kernels: tuple[str, ...] | None
    grid_limit: int
    grid_configs: tuple[str, ...] | None
    sweep_limit: int
    sweeps: tuple[str, ...] | None
    full_limit: int | None


FULL = Scale("full", None, 6000, None, 2000, None, None)
TINY = Scale("tiny", ("compress", "m88ksim"), 300, ("8/48",), 300,
             ("ABL-V", "ABL-I"), 300)
SCALES = {scale.name: scale for scale in (FULL, TINY)}


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Delivered:
    """Collects what every outermost ``run_jobs`` call returns, so each
    job's counters can be checked by job key after the timed region."""

    def __init__(self):
        self.pairs: list[tuple[object, object]] = []
        self._depth = 0
        self._undo: list = []

    def __enter__(self) -> "Delivered":
        from repro.harness import parallel

        original = parallel.run_jobs

        def run_jobs(job_list, *args, **kwargs):
            self._depth += 1
            try:
                results = original(job_list, *args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.pairs.extend(zip(job_list, results))
            return results

        self._undo = patch_everywhere(original, run_jobs)
        return self

    def __exit__(self, *exc) -> None:
        uninstall(self._undo)

    def retired(self) -> int:
        return sum(result.counters.retired for _, result in self.pairs)

    def sim_totals(self) -> dict[str, int]:
        fields = ("cycles", "retired", "dispatched_wrong_path", "reissues",
                  "squashed", "misspeculations", "branch_mispredictions")
        return {
            f"sim.{field}": sum(
                getattr(result.counters, field) for _, result in self.pairs
            )
            for field in fields
        }

    def digests(self) -> dict[str, str]:
        from repro.cluster.serial import job_key

        return {
            f"job:{job_key(job)}": digest(asdict(result.counters))
            for job, result in self.pairs
        }


def _kernels(scale: Scale) -> list[str] | None:
    return list(scale.kernels) if scale.kernels is not None else None


def fig3_grid(scale: Scale, seed: int, jobs: int) -> dict[str, object]:
    from repro.engine.config import PAPER_CONFIGS
    from repro.harness.figure3 import run_figure3

    configs = tuple(
        config for config in PAPER_CONFIGS
        if scale.grid_configs is None or config.label in scale.grid_configs
    )
    cells = run_figure3(
        max_instructions=scale.grid_limit, benchmarks=_kernels(scale),
        configs=configs, jobs=jobs,
    )
    return {
        f"figure3:{c.config_label}|{c.setting}|{c.model_name}":
            [c.speedup, c.per_benchmark]
        for c in cells
    }


def ablation_sweeps(scale: Scale, seed: int, jobs: int) -> dict[str, object]:
    from repro.harness import sweeps

    outputs: dict[str, object] = {}
    for label, function in SWEEPS:
        if scale.sweeps is not None and label not in scale.sweeps:
            continue
        points = getattr(sweeps, function)(
            max_instructions=scale.sweep_limit, benchmarks=_kernels(scale),
            jobs=jobs,
        )
        for point in points:
            outputs[f"sweep:{label}|{point.label}"] = [point.speedup, point.detail]
    return outputs


def full_length(scale: Scale, seed: int, jobs: int) -> dict[str, object]:
    """Table 1 over full-length traces, then base and great (I/R) at 8/48
    for every kernel at full length.  The seed permutes the submission
    order; outputs are compared by job key."""
    from repro.core.model import GREAT_MODEL
    from repro.engine.config import PAPER_CONFIGS
    from repro.harness import parallel
    from repro.harness.table1 import run_table1
    from repro.programs.suite import kernel_names

    rows = run_table1(scale.full_limit)
    config = next(c for c in PAPER_CONFIGS if c.label == "8/48")
    names = _kernels(scale) or kernel_names()
    job_list = [
        parallel.SimJob(name, config, None, scale.full_limit) for name in names
    ] + [
        parallel.SimJob(name, config, GREAT_MODEL, scale.full_limit,
                        confidence="R", update_timing="I")
        for name in names
    ]
    random.Random(seed).shuffle(job_list)
    parallel.run_jobs(job_list, jobs=jobs)
    return {f"table1:{row.benchmark}": asdict(row) for row in rows}


RUNNERS = {
    "fig3-grid": fig3_grid,
    "ablation-sweeps": ablation_sweeps,
    "full-length": full_length,
}
