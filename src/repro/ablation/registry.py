"""Declarative registry of ablatable components.

The paper is itself a design-space study: its tables and figures exist
to show which machine-model variables actually buy speedup.  This
module makes that question declarative.  A :class:`Component` names one
mechanism of the speculative machine — the verification network, the
selective invalidation scheme, confidence gating, delayed (realistic)
predictor update, predictor table depth, the wakeup/selection policies
— together with how to *lesion* it:
rewrite an :class:`AblationPoint` so the mechanism is removed, disabled
or replaced by its cheapest alternative.

The planner (:mod:`repro.ablation.plan`) turns a registry into the
baseline + leave-one-out (and opt-in pairwise) run set; components are
always iterated in sorted-name order, so run IDs are insensitive to the
order components were registered in.

A lesion edits the simulated machine (model variables, confidence
estimator, update timing, predictor factory).  Lesioned runs simulate a
*different* machine, so their job keys differ from the baseline's and
their speedup deltas measure the mechanism.

A lesion that does not apply to the baseline being ablated (the
baseline already runs complete invalidation, or carries a predictor the
depth lesion does not know) raises :class:`NotApplicable`; the planner
records a skipped-with-reason entry instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from repro.core.model import SpeculativeExecutionModel
from repro.core.variables import (
    InvalidationScheme,
    SelectionPolicy,
    VerificationScheme,
    WakeupPolicy,
)
from repro.engine.config import ProcessorConfig
from repro.harness.parallel import SimJob
from repro.vp.confidence import AlwaysConfidentEstimator
from repro.vp.context import ContextValuePredictor


class NotApplicable(Exception):
    """A component's lesion does not apply to this baseline point.

    The message is the human-readable reason the planner records in its
    skipped-with-reason entry.
    """


@dataclass(frozen=True)
class AblationPoint:
    """Everything about one speculative run except the benchmark.

    This is the unit a lesion rewrites: the planner expands a point into
    one :class:`~repro.harness.parallel.SimJob` per benchmark (plus the
    no-speculation base job its speedups are normalised against).
    ``confidence`` and ``predictor`` follow the ``SimJob`` conventions —
    a kind string or a picklable zero-argument factory.
    """

    config: ProcessorConfig
    model: SpeculativeExecutionModel
    confidence: object = "R"
    update_timing: str = "D"
    predictor: Callable | None = None

    def job(self, benchmark: str, max_instructions: int | None) -> SimJob:
        """The speculative run for one benchmark at this point."""
        return SimJob(
            benchmark=benchmark,
            config=self.config,
            model=self.model,
            max_instructions=max_instructions,
            confidence=self.confidence,
            update_timing=self.update_timing,
            predictor=self.predictor,
        )

    def base_job(self, benchmark: str, max_instructions: int | None) -> SimJob:
        """The matching no-speculation baseline-machine run."""
        return SimJob(
            benchmark=benchmark,
            config=self.config,
            model=None,
            max_instructions=max_instructions,
        )

    def with_variables(self, **overrides) -> "AblationPoint":
        """This point with some model variables replaced (model renamed
        so labels and job fingerprints stay self-describing)."""
        variables = replace(self.model.variables, **overrides)
        suffix = ",".join(f"{k}={v.value}" for k, v in sorted(overrides.items()))
        model = SpeculativeExecutionModel(
            f"{self.model.name}[{suffix}]", variables, self.model.latencies
        )
        return replace(self, model=model)


@dataclass(frozen=True)
class Component:
    """One ablatable mechanism: a config axis with its baseline meaning
    and the lesioned value the leave-one-out run substitutes.

    ``lesion`` maps the baseline :class:`AblationPoint` to the lesioned
    one (raising :class:`NotApplicable` when the baseline does not carry
    the mechanism).
    """

    name: str
    title: str
    description: str
    lesion_label: str
    lesion: Callable[[AblationPoint], AblationPoint] | None = None

    def __post_init__(self) -> None:
        if self.lesion is None:
            raise ValueError(f"component {self.name!r} needs a lesion callable")

    def apply(self, point: AblationPoint) -> AblationPoint:
        """The lesioned point."""
        return self.lesion(point)


class ComponentRegistry:
    """A named set of :class:`Component` entries.

    Iteration order is always sorted by component name, so plans and run
    IDs built from a registry never depend on registration order.
    """

    def __init__(self, components: list[Component] | None = None):
        self._components: dict[str, Component] = {}
        for component in components or []:
            self.register(component)

    def register(self, component: Component) -> Component:
        if component.name in self._components:
            raise ValueError(f"component {component.name!r} already registered")
        self._components[component.name] = component
        return component

    def get(self, name: str) -> Component:
        component = self._components.get(name)
        if component is None:
            raise KeyError(
                f"unknown component {name!r}; know {self.names()}"
            )
        return component

    def names(self) -> list[str]:
        return sorted(self._components)

    def components(self) -> list[Component]:
        """All components in sorted-name order (the planner's order)."""
        return [self._components[name] for name in self.names()]

    def __len__(self) -> int:
        return len(self._components)

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def __iter__(self):
        return iter(self.components())


# -- the default component set ---------------------------------------------


def _lesion_verification(point: AblationPoint) -> AblationPoint:
    current = point.model.variables.verification
    if current is not VerificationScheme.PARALLEL_NETWORK:
        raise NotApplicable(
            "baseline has no parallel verification network to remove "
            f"(verification={current.value})"
        )
    return point.with_variables(verification=VerificationScheme.RETIREMENT_BASED)


def _lesion_invalidation(point: AblationPoint) -> AblationPoint:
    current = point.model.variables.invalidation
    if current is InvalidationScheme.COMPLETE:
        raise NotApplicable(
            "baseline already squashes completely on misspeculation "
            "(invalidation=complete); nothing selective to remove"
        )
    return point.with_variables(invalidation=InvalidationScheme.COMPLETE)


def _lesion_confidence(point: AblationPoint) -> AblationPoint:
    confidence = point.confidence
    if confidence is AlwaysConfidentEstimator or isinstance(
        confidence, AlwaysConfidentEstimator
    ):
        raise NotApplicable(
            "baseline already predicts unconditionally; confidence gating is off"
        )
    return replace(point, confidence=AlwaysConfidentEstimator)


def _lesion_update_timing(point: AblationPoint) -> AblationPoint:
    if point.update_timing.strip().upper() == "I":
        raise NotApplicable(
            "baseline already updates the predictor immediately "
            "(update_timing=I); no delay to remove"
        )
    return replace(point, update_timing="I")


def _lesion_predictor_depth(point: AblationPoint) -> AblationPoint:
    predictor = point.predictor
    factory = predictor.func if isinstance(predictor, partial) else predictor
    if predictor is not None and factory is not ContextValuePredictor:
        raise NotApplicable(
            "baseline predictor is not the two-level context predictor; "
            "the depth lesion does not know how to shrink "
            f"{getattr(factory, '__name__', factory)!r}"
        )
    return replace(
        point,
        predictor=partial(ContextValuePredictor, history_bits=8, context_bits=8),
    )


def _lesion_selective_reissue(point: AblationPoint) -> AblationPoint:
    current = point.model.variables.wakeup
    if current is not WakeupPolicy.VALID_OR_SPECULATIVE:
        raise NotApplicable(
            "baseline wakeup is not the paper's valid-or-speculative policy "
            f"(wakeup={current.value}); no selective reissue gating to remove"
        )
    return point.with_variables(wakeup=WakeupPolicy.ANY_VALUE)


def _lesion_selection_priority(point: AblationPoint) -> AblationPoint:
    current = point.model.variables.selection
    if current is not SelectionPolicy.PAPER:
        raise NotApplicable(
            "baseline selection policy is not the paper's "
            f"(selection={current.value}); no non-speculative preference to remove"
        )
    return point.with_variables(selection=SelectionPolicy.SPECULATIVE_EQUAL)


def default_registry() -> ComponentRegistry:
    """The registry `repro ablate` ships with: the paper's mechanism
    axes.  Returns a fresh registry so callers may mutate their copy.
    """
    return ComponentRegistry([
        Component(
            name="verification-network",
            title="Parallel verification network",
            description=(
                "Flattened-hierarchical verification over a dedicated "
                "network (Section 3.2): all successors of a correct "
                "prediction validated in parallel."
            ),
            lesion_label="retirement-based verification",
            lesion=_lesion_verification,
        ),
        Component(
            name="selective-invalidation",
            title="Selective invalidation",
            description=(
                "Only the dependence successors of a misprediction are "
                "invalidated (Section 3.1), instead of squashing all "
                "younger instructions like a branch mispredict."
            ),
            lesion_label="complete squash",
            lesion=_lesion_invalidation,
        ),
        Component(
            name="confidence-gating",
            title="Confidence estimation",
            description=(
                "The resetting-counter confidence table gating which "
                "predictions are used (Section 3.6)."
            ),
            lesion_label="always predict (gating off)",
            lesion=_lesion_confidence,
        ),
        Component(
            name="delayed-update",
            title="Delayed (realistic) predictor update",
            description=(
                "Predictor tables learn outcomes at retirement with "
                "speculative history extension (Section 5.2).  Lesioning "
                "substitutes the immediate-update idealization, so a "
                "positive delta here means the realism *costs* speedup "
                "and the run is flagged harmful by construction."
            ),
            lesion_label="immediate (idealized) update",
            lesion=_lesion_update_timing,
        ),
        Component(
            name="predictor-depth",
            title="Full-depth context predictor tables",
            description=(
                "The two-level context predictor's full L1/L2 geometry; "
                "lesioning shrinks both levels to minimal 256-entry "
                "tables and lets aliasing erode coverage."
            ),
            lesion_label="minimal L1/L2 tables (2^8 entries)",
            lesion=_lesion_predictor_depth,
        ),
        Component(
            name="selective-reissue",
            title="Selective reissue gating",
            description=(
                "Wakeup restricted to valid-or-speculative operands on "
                "not-yet-issued instructions; lesioning wakes on any "
                "arriving value (the Rotenberg-style scheme), reissuing "
                "eagerly and needlessly."
            ),
            lesion_label="any-value wakeup",
            lesion=_lesion_selective_reissue,
        ),
        Component(
            name="selection-priority",
            title="Non-speculative selection preference",
            description=(
                "The paper's issue selection prefers non-speculative "
                "instructions among branch/load-first oldest-first "
                "candidates (Section 3.5)."
            ),
            lesion_label="speculative-equal selection",
            lesion=_lesion_selection_priority,
        ),
    ])
