"""The scalar engine class, driven directly, against the golden snapshots.

``test_golden_counters.py`` and ``test_golden_variants.py`` pin the
``run_baseline``/``run_trace`` wrappers.  This file builds
:class:`PipelineSimulator` itself from the snapshot's settings, so the
engine class and the wrappers are each held to the same frozen counters,
and checks that the wrappers label their runs ``"scalar"``.  (The file
name is kept from when it also covered a config-specialized engine.)
"""

import json
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.model import GREAT_MODEL
from repro.engine.config import ProcessorConfig
from repro.engine.pipeline import PipelineSimulator
from repro.engine.sim import make_confidence, run_baseline, run_trace
from repro.func import Machine
from repro.programs.micro import micro_kernel
from repro.programs.suite import benchmark_suite
from repro.trace.capture import capture_trace
from repro.vp.confidence import SaturatingConfidenceEstimator
from repro.vp.hybrid import HybridPredictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor
from repro.vp.tagged import TaggedContextPredictor
from repro.vp.update_timing import UpdateTiming

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MAIN_SNAPSHOTS = sorted(GOLDEN_DIR.glob("*.json"))
VARIANT_SNAPSHOTS = sorted((GOLDEN_DIR / "variants").glob("*.json"))

MICRO_TRACE_LIMIT = 3000
SPEC_TRACE_LIMIT = 2000

_CONFIDENCE = {
    "R": lambda: make_confidence("R"),
    "SaturatingConfidenceEstimator": SaturatingConfidenceEstimator,
}
_PREDICTOR = {
    "context": lambda: None,
    "LastValuePredictor": LastValuePredictor,
    "StridePredictor": StridePredictor,
    "HybridPredictor": HybridPredictor,
    "TaggedContextPredictor": TaggedContextPredictor,
}


def counters_dict(counters) -> dict:
    return {
        f.name: getattr(counters, f.name)
        for f in fields(counters)
        if f.name != "extra"
    }


@lru_cache(maxsize=None)
def _load_trace(label: str):
    kind, name = label.split("_", 1)
    if kind == "micro":
        machine = Machine(assemble(micro_kernel(name)))
        return capture_trace(machine, MICRO_TRACE_LIMIT)
    for spec in benchmark_suite():
        if spec.name == name:
            return spec.trace(SPEC_TRACE_LIMIT)
    raise KeyError(label)


def _snapshot_config(snapshot) -> ProcessorConfig:
    return ProcessorConfig(
        issue_width=snapshot["config"]["issue_width"],
        window_size=snapshot["config"]["window_size"],
    )


@pytest.mark.parametrize(
    "path", MAIN_SNAPSHOTS, ids=[p.stem for p in MAIN_SNAPSHOTS]
)
def test_generic_matches_golden(path):
    """PipelineSimulator reproduces every main snapshot bit-for-bit."""
    snapshot = json.loads(path.read_text())
    trace = _load_trace(snapshot["workload"])
    config = _snapshot_config(snapshot)

    base = PipelineSimulator(trace, config).run()
    assert counters_dict(base) == snapshot["base"]

    vp = PipelineSimulator(
        trace,
        config,
        GREAT_MODEL,
        confidence=make_confidence("R"),
        update_timing=UpdateTiming.DELAYED,
    ).run()
    assert counters_dict(vp) == snapshot["vp"]

    assert run_baseline(trace, config).engine_path == "scalar"
    assert run_trace(trace, config, GREAT_MODEL).engine_path == "scalar"


@pytest.mark.parametrize(
    "path", VARIANT_SNAPSHOTS, ids=[p.stem for p in VARIANT_SNAPSHOTS]
)
def test_generic_matches_golden_variants(path):
    snapshot = json.loads(path.read_text())
    trace = _load_trace(snapshot["workload"])
    counters = PipelineSimulator(
        trace,
        _snapshot_config(snapshot),
        GREAT_MODEL,
        confidence=_CONFIDENCE[snapshot["confidence"]](),
        update_timing=UpdateTiming(snapshot["update_timing"]),
        predictor=_PREDICTOR[snapshot["predictor"]](),
    ).run()
    assert counters_dict(counters) == snapshot["vp"]
