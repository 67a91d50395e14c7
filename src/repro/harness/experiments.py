"""The experiment registry: every paper artifact and ablation by id.

``EXPERIMENTS`` maps DESIGN.md's experiment ids to runnable entries; the
CLI (``python -m repro run <id>``) executes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.harness import figure1, figure3, figure4, sweeps, table1
from repro.harness.render import render_table


@dataclass(frozen=True)
class Experiment:
    """A runnable reproduction artifact."""

    id: str
    title: str
    paper_ref: str
    run: Callable[..., str]  # returns rendered text


def _run_table1(**kwargs) -> str:
    kwargs.pop("jobs", None)  # pure trace analysis; nothing to fan out
    kwargs.pop("backend", None)
    return table1.render_table1(table1.run_table1(**kwargs))


def _run_figure1(**kwargs) -> str:
    kwargs.pop("jobs", None)  # seven hand-built scenarios; nothing to fan out
    kwargs.pop("backend", None)
    return figure1.render_figure1(figure1.run_figure1(**kwargs))


def _run_figure3(**kwargs) -> str:
    cells = figure3.run_figure3(**kwargs)
    return figure3.render_figure3(cells) + "\n" + figure3.figure3_table(cells)


def _run_figure4(**kwargs) -> str:
    return figure4.render_figure4(figure4.run_figure4(**kwargs))


def _render_sweep(points, title: str) -> str:
    return render_table(
        ("Point", "HM Speedup"),
        [(p.label, p.speedup) for p in points],
        title=title,
    )


def _run_abl_latency(**kwargs) -> str:
    return _render_sweep(
        sweeps.latency_sensitivity_sweep(**kwargs),
        "ABL-L: per-latency-variable sensitivity (around great)",
    )


def _run_abl_verify(**kwargs) -> str:
    return _render_sweep(
        sweeps.verification_scheme_sweep(**kwargs),
        "ABL-V: verification schemes (great latencies)",
    )


def _run_abl_inval(**kwargs) -> str:
    return _render_sweep(
        sweeps.invalidation_scheme_sweep(**kwargs),
        "ABL-I: invalidation schemes (great latencies)",
    )


def _run_abl_predictor(**kwargs) -> str:
    return _render_sweep(
        sweeps.predictor_sweep(**kwargs),
        "ABL-P: value predictors (great model)",
    )


def _run_abl_equality(**kwargs) -> str:
    return _render_sweep(
        sweeps.approximate_equality_sweep(**kwargs),
        "ABL-E: approximate (non-strict) equality",
    )


def _run_abl_bpred(**kwargs) -> str:
    return _render_sweep(
        sweeps.branch_predictor_sweep(**kwargs),
        "ABL-B: branch predictors x value speculation (great model)",
    )


def _run_limit_study(
    max_instructions: int | None = 6000,
    benchmarks: list[str] | None = None,
    jobs: int = 1,  # accepted for CLI uniformity; the study is pure analysis
    backend: str | None = None,
) -> str:
    from repro.analysis.limits import limit_study, render_limit_study
    from repro.programs.suite import benchmark_suite
    from repro.trace.cache import cached_trace

    parts = []
    for spec in benchmark_suite():
        if benchmarks is not None and spec.name not in benchmarks:
            continue
        trace = cached_trace(spec.name, max_instructions)
        parts.append(render_limit_study(limit_study(trace), spec.name))
    if not parts:
        raise ValueError(f"no benchmarks selected from {benchmarks!r}")
    return "\n\n".join(parts)


def _run_abl_selective(**kwargs) -> str:
    return _render_sweep(
        sweeps.selective_prediction_sweep(**kwargs),
        "ABL-S: selective value prediction by instruction class",
    )


def _run_abl_ports(**kwargs) -> str:
    return _render_sweep(
        sweeps.vp_ports_sweep(**kwargs),
        "ABL-PT: value-predictor ports per cycle",
    )


def _run_abl_scaling(**kwargs) -> str:
    return _render_sweep(
        sweeps.width_scaling_sweep(**kwargs),
        "ABL-W: width/window scaling (great model, I/R)",
    )


def _run_abl_confidence_scheme(**kwargs) -> str:
    return _render_sweep(
        sweeps.confidence_scheme_sweep(**kwargs),
        "ABL-CS: confidence estimation schemes (great model, I timing)",
    )


def _run_abl_tables(**kwargs) -> str:
    return _render_sweep(
        sweeps.predictor_size_sweep(**kwargs),
        "ABL-T: predictor table sizes (great model)",
    )


def _run_abl_frontend(**kwargs) -> str:
    return _render_sweep(
        sweeps.frontend_idealism_sweep(**kwargs),
        "ABL-F: frontend idealism (great model vs per-frontend base)",
    )


def _run_abl_resolution(**kwargs) -> str:
    return _render_sweep(
        sweeps.resolution_policy_sweep(**kwargs),
        "ABL-R: branch/memory resolution policies (great latencies)",
    )


def _run_abl_confidence(**kwargs) -> str:
    return _render_sweep(
        sweeps.confidence_strength_sweep(**kwargs),
        "ABL-C: confidence counter width (great model, I timing)",
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment("table1", "Benchmark characteristics", "Table 1", _run_table1),
        Experiment(
            "figure1",
            "Pipeline execution example (3-instruction chain)",
            "Figure 1",
            _run_figure1,
        ),
        Experiment(
            "figure3",
            "Average speedup of speculative execution models",
            "Figure 3",
            _run_figure3,
        ),
        Experiment(
            "figure4",
            "Average prediction accuracy (CH/CL/IH/IL)",
            "Figure 4",
            _run_figure4,
        ),
        Experiment(
            "abl-latency",
            "Latency-variable sensitivity sweep",
            "Section 6 discussion",
            _run_abl_latency,
        ),
        Experiment(
            "abl-verify",
            "Verification scheme comparison",
            "Section 3.2",
            _run_abl_verify,
        ),
        Experiment(
            "abl-inval",
            "Invalidation scheme comparison",
            "Section 3.1",
            _run_abl_inval,
        ),
        Experiment(
            "abl-predictor",
            "Value predictor comparison",
            "extension",
            _run_abl_predictor,
        ),
        Experiment(
            "abl-resolution",
            "Branch/memory resolution policy comparison",
            "Section 3.2 discussion",
            _run_abl_resolution,
        ),
        Experiment(
            "abl-confidence",
            "Confidence counter-width sweep",
            "Section 3.6 discussion",
            _run_abl_confidence,
        ),
        Experiment(
            "abl-confidence-scheme",
            "Confidence estimation scheme comparison",
            "Section 3.6 discussion",
            _run_abl_confidence_scheme,
        ),
        Experiment(
            "abl-tables",
            "Predictor table-size sweep",
            "Section 3 (deferred dimension)",
            _run_abl_tables,
        ),
        Experiment(
            "abl-frontend",
            "Frontend idealism (ideal targets vs BTB+RAS)",
            "Section 5.1 assumption",
            _run_abl_frontend,
        ),
        Experiment(
            "abl-scaling",
            "Width/window scaling beyond the paper's three points",
            "Section 6 trend",
            _run_abl_scaling,
        ),
        Experiment(
            "limit-study",
            "Window-constrained ILP limits, base vs perfect value prediction",
            "Section 1 motivation",
            _run_limit_study,
        ),
        Experiment(
            "abl-selective",
            "Selective value prediction by instruction class",
            "Sections 3.5-3.6 discussion",
            _run_abl_selective,
        ),
        Experiment(
            "abl-ports",
            "Value-predictor port count",
            "Section 3 (deferred dimension)",
            _run_abl_ports,
        ),
        Experiment(
            "abl-bpred",
            "Branch predictors x value speculation",
            "Section 5.1 configuration",
            _run_abl_bpred,
        ),
        Experiment(
            "abl-equality",
            "Approximate (non-strict) value equality",
            "Section 3.3 (explicitly unexplored)",
            _run_abl_equality,
        ),
    )
}
