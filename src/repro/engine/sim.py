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
    #: Which engine produced this run, for perf attribution: "scalar",
    #: or whatever an older journal or result-store entry recorded
    #: (``None`` before attribution existed).  Excluded from equality —
    #: bit-identity checks compare *simulation* outcomes only.
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
) -> SimulationResult:
    """Simulate the base processor (no value prediction).

    ``tracer`` optionally attaches a :class:`repro.obs.PipelineTracer`
    (or any object with its duck type) for lifecycle/latency recording.
    """
    simulator = PipelineSimulator(trace, config, model=None, tracer=tracer)
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
) -> SimulationResult:
    """Simulate one value-speculative run.

    ``confidence`` accepts the paper's shorthand ("real"/"oracle") or a
    ready estimator; ``update_timing`` accepts "I"/"D" or the enum;
    ``tracer`` optionally attaches an observability tracer (see
    :mod:`repro.obs`).
    """
    if isinstance(update_timing, str):
        update_timing = UpdateTiming(update_timing.strip().upper())
    if isinstance(confidence, str):
        confidence = make_confidence(confidence)
    confidence_kind = "O" if isinstance(confidence, OracleConfidence) else "R"
    simulator = PipelineSimulator(
        trace,
        config,
        model,
        predictor=predictor,
        confidence=confidence,
        update_timing=update_timing,
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
