"""Which mechanisms earn their keep?  A small ablation, ranked.

Plans and runs the leave-one-out ablation over the registered
components (docs/ABLATION.md) on one micro kernel under the `good`
model, then prints the ranked importance table: for every component,
the harmonic-mean speedup the machine *loses* when that component is
lesioned — verification network downgraded to retirement-based,
selective invalidation replaced by complete squash, confidence gating
switched off, and so on.  A negative importance (HARMFUL flag) means
removing the mechanism helped on this workload.

Run:  python examples/ablation_report.py
"""

from repro.ablation import (
    AblationPoint,
    AblationSpec,
    build_report,
    execute_plan,
    plan_ablation,
    render_text,
)
from repro.core.model import GOOD_MODEL
from repro.engine.config import paper_config

BENCHMARK = "micro:fib"
BUDGET = 3_000


def main() -> None:
    spec = AblationSpec(
        benchmarks=(BENCHMARK,),
        point=AblationPoint(config=paper_config("8/48"), model=GOOD_MODEL),
        max_instructions=BUDGET,
    )
    plan = plan_ablation(spec)
    print(
        f"planned {len(plan.runs)} runs ({len(plan.lesioned)} lesions) "
        f"over {len(spec.benchmarks)} benchmark(s); "
        f"plan fingerprint {plan.fingerprint}"
    )
    executed = execute_plan(plan)
    report = build_report(plan, executed)
    print()
    print(render_text(report))

    # The single most important component, spelled out.
    ranked = report["components"]
    if ranked and ranked[0]["importance"] > 0:
        top = ranked[0]
        print()
        print(
            f"most important: {'+'.join(top['components'])} — lesioning it "
            f"costs {top['importance']:.4f} of the baseline's "
            f"{report['baseline']['speedup']:.4f} harmonic-mean speedup"
        )


if __name__ == "__main__":
    main()
