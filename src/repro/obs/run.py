"""One-call instrumented simulation runs.

:func:`run_instrumented` resolves a benchmark name (a suite kernel such
as ``compress``, or a micro kernel via the ``micro:<name>`` form, e.g.
``micro:periodic_chain``), runs it under a :class:`PipelineTracer`, and
returns an :class:`InstrumentedRun` bundling the tracer with the normal
simulation result — the single entry point behind ``repro obs`` and
:func:`repro.harness.sweeps.instrument_variant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import LatencyEventKind
from repro.core.model import SpeculativeExecutionModel, named_models
from repro.engine.config import ProcessorConfig, paper_config
from repro.engine.sim import SimulationResult, run_baseline, run_trace
from repro.obs.aggregate import LatencyHistogram, aggregate_latency_events
from repro.obs.tracer import DEFAULT_CAPACITY, PipelineTracer
from repro.trace.record import TraceRecord

#: Benchmark-name prefix selecting a micro kernel instead of a suite one.
MICRO_PREFIX = "micro:"

#: Default instruction budget for instrumented runs — big enough for
#: meaningful distributions, small enough to stay interactive.
DEFAULT_MAX_INSTRUCTIONS = 20_000


def resolve_trace(
    benchmark: str, max_instructions: int | None = DEFAULT_MAX_INSTRUCTIONS
) -> list[TraceRecord]:
    """The dynamic trace for a suite kernel or a ``micro:<name>`` kernel."""
    if benchmark.startswith(MICRO_PREFIX):
        from repro.programs.micro import micro_kernel
        from repro.trace.capture import trace_program

        source = micro_kernel(benchmark[len(MICRO_PREFIX):])
        _, trace = trace_program(source, max_instructions)
        return trace
    from repro.trace.cache import cached_trace

    return cached_trace(benchmark, max_instructions)


def benchmark_names() -> list[str]:
    """Every runnable benchmark name, suite kernels then micro kernels."""
    from repro.programs.micro import MICRO_KERNELS
    from repro.programs.suite import kernel_names

    return kernel_names() + [MICRO_PREFIX + name for name in sorted(MICRO_KERNELS)]


@dataclass
class InstrumentedRun:
    """Everything one instrumented simulation produced."""

    benchmark: str
    model_name: str | None
    tracer: PipelineTracer
    result: SimulationResult
    _histograms: dict[LatencyEventKind, LatencyHistogram] | None = field(
        default=None, repr=False
    )

    @property
    def histograms(self) -> dict[LatencyEventKind, LatencyHistogram]:
        if self._histograms is None:
            self._histograms = aggregate_latency_events(self.tracer)
        return self._histograms

    @property
    def kinds_seen(self) -> set[LatencyEventKind]:
        return self.tracer.kinds_seen()

    @property
    def engine_path(self) -> str:
        """Which engine produced this run (always the scalar engine)."""
        return self.result.engine_path or "scalar"


def run_instrumented(
    benchmark: str,
    *,
    config: ProcessorConfig | str = "8/48",
    model: SpeculativeExecutionModel | str | None = "good",
    max_instructions: int | None = DEFAULT_MAX_INSTRUCTIONS,
    confidence: str = "real",
    update_timing: str = "D",
    capacity: int = DEFAULT_CAPACITY,
    trace: list[TraceRecord] | None = None,
) -> InstrumentedRun:
    """Run ``benchmark`` with a :class:`PipelineTracer` attached.

    ``model`` accepts a named model ("super"/"great"/"good"), a ready
    :class:`SpeculativeExecutionModel`, or ``None`` for the base machine
    (which records lifecycle marks but, with no speculation, few latency
    events).  Pass ``trace`` to reuse an already-captured trace.
    """
    if isinstance(config, str):
        config = paper_config(config)
    if isinstance(model, str):
        models = named_models()
        if model not in models:
            raise KeyError(
                f"unknown model {model!r}; know {sorted(models)}"
            )
        model = models[model]
    if trace is None:
        trace = resolve_trace(benchmark, max_instructions)
    tracer = PipelineTracer(capacity)
    if model is None:
        result = run_baseline(trace, config, tracer=tracer)
        model_name = None
    else:
        result = run_trace(
            trace,
            config,
            model,
            confidence=confidence,
            update_timing=update_timing,
            tracer=tracer,
        )
        model_name = model.name
    return InstrumentedRun(
        benchmark=benchmark,
        model_name=model_name,
        tracer=tracer,
        result=result,
    )
