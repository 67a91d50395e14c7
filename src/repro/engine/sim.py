"""High-level simulation entry points.

These wrap :class:`~repro.engine.pipeline.PipelineSimulator` into the runs
the experiments need: a baseline (no value prediction), a value-speculative
run under a named model, and the base/VP speedup pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.model import SpeculativeExecutionModel
from repro.engine.config import ProcessorConfig
from repro.engine.pipeline import PipelineSimulator
from repro.metrics.accuracy import AccuracyBreakdown
from repro.metrics.counters import SimCounters
from repro.metrics.speedup import speedup as _speedup
from repro.trace.record import TraceRecord
from repro.vp.base import ValuePredictor
from repro.vp.confidence import ConfidenceEstimator, ResettingConfidenceEstimator
from repro.vp.oracle import OracleConfidence
from repro.vp.update_timing import UpdateTiming


@dataclass
class SimulationResult:
    """Outcome of one timing-simulation run."""

    counters: SimCounters
    config: ProcessorConfig
    model_name: str | None = None
    confidence_kind: str | None = None
    update_timing: str | None = None
    extra: dict[str, float] = field(default_factory=dict)
    #: Which engine produced this run ("scalar" or "batched"), for perf
    #: attribution.  Excluded from equality — bit-identity checks compare
    #: *simulation* outcomes, and the same outcome may legitimately come
    #: from different engine paths.
    engine_path: str | None = field(default=None, compare=False)

    @property
    def cycles(self) -> int:
        return self.counters.cycles

    @property
    def ipc(self) -> float:
        return self.counters.ipc

    @property
    def accuracy_breakdown(self) -> AccuracyBreakdown:
        return AccuracyBreakdown.from_counters(self.counters)

    @property
    def setting_label(self) -> str:
        """The paper's timing/confidence notation, e.g. ``D/R`` or ``I/O``."""
        if self.update_timing is None or self.confidence_kind is None:
            return "base"
        return f"{self.update_timing}/{self.confidence_kind}"


def make_confidence(kind: str) -> ConfidenceEstimator:
    """Build a confidence estimator from the paper's R/O notation."""
    normalized = kind.strip().upper()
    if normalized in ("R", "REAL"):
        return ResettingConfidenceEstimator()
    if normalized in ("O", "ORACLE"):
        return OracleConfidence()
    raise ValueError(f"unknown confidence kind {kind!r}; use 'real' or 'oracle'")


def run_baseline(
    trace: list[TraceRecord],
    config: ProcessorConfig,
    *,
    tracer=None,
    hierarchy=None,
    fetch_engine=None,
) -> SimulationResult:
    """Simulate the base processor (no value prediction).

    ``tracer`` optionally attaches a :class:`repro.obs.PipelineTracer`
    (or any object with its duck type) for lifecycle/latency recording.
    ``hierarchy``/``fetch_engine`` inject pre-built collaborators — the
    batched engine (:mod:`repro.engine.batched`) uses them to share one
    predicted fetch stream across lanes; leave them ``None`` otherwise.
    """
    simulator = PipelineSimulator(
        trace,
        config,
        model=None,
        hierarchy=hierarchy,
        fetch_engine=fetch_engine,
        tracer=tracer,
    )
    counters = simulator.run()
    return SimulationResult(counters=counters, config=config, engine_path="scalar")


def run_trace(
    trace: list[TraceRecord],
    config: ProcessorConfig,
    model: SpeculativeExecutionModel,
    *,
    confidence: str | ConfidenceEstimator = "real",
    update_timing: UpdateTiming | str = UpdateTiming.DELAYED,
    predictor: ValuePredictor | None = None,
    tracer=None,
    hierarchy=None,
    fetch_engine=None,
    confidence_kind: str | None = None,
) -> SimulationResult:
    """Simulate one value-speculative run.

    ``confidence`` accepts the paper's shorthand ("real"/"oracle") or a
    ready estimator; ``update_timing`` accepts "I"/"D" or the enum;
    ``tracer`` optionally attaches an observability tracer (see
    :mod:`repro.obs`).  ``hierarchy``/``fetch_engine`` inject pre-built
    collaborators (see :mod:`repro.engine.batched`); ``confidence_kind``
    overrides the paper-notation label when ``confidence`` is a wrapper
    (e.g. a replay estimator) whose kind cannot be inferred by type.
    """
    if isinstance(update_timing, str):
        update_timing = UpdateTiming(update_timing.strip().upper())
    if isinstance(confidence, str):
        if confidence_kind is None:
            confidence_kind = (
                "O" if confidence.strip().upper() in ("O", "ORACLE") else "R"
            )
        confidence = make_confidence(confidence)
    elif confidence_kind is None:
        confidence_kind = "O" if isinstance(confidence, OracleConfidence) else "R"
    simulator = PipelineSimulator(
        trace,
        config,
        model,
        predictor=predictor,
        confidence=confidence,
        update_timing=update_timing,
        hierarchy=hierarchy,
        fetch_engine=fetch_engine,
        tracer=tracer,
    )
    counters = simulator.run()
    return SimulationResult(
        counters=counters,
        config=config,
        model_name=model.name,
        confidence_kind=confidence_kind,
        update_timing=update_timing.label,
        engine_path="scalar",
    )


def run_speedup(
    trace: list[TraceRecord],
    config: ProcessorConfig,
    model: SpeculativeExecutionModel,
    *,
    confidence: str = "real",
    update_timing: UpdateTiming | str = UpdateTiming.DELAYED,
) -> tuple[float, SimulationResult, SimulationResult]:
    """Run base + VP and return (speedup, base_result, vp_result)."""
    base = run_baseline(trace, config)
    vp = run_trace(
        trace, config, model, confidence=confidence, update_timing=update_timing
    )
    return _speedup(base.cycles, vp.cycles), base, vp
