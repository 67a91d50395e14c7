"""Ablation reporting: per-component importance, ranked three ways.

The importance of a component is what the machine loses when it is
removed: ``baseline_speedup − lesioned_speedup``, where each speedup is
the harmonic mean (the paper's Section 5.1 averaging convention) over
the benchmark set of base-machine cycles / speculative-machine cycles.
Runs are deterministic, so the deltas are exact — no confidence
intervals, no repetitions.

A *harmful* component is one whose lesioning **helps** (importance
< 0): the baseline is paying for a mechanism that costs speedup on this
workload.  The canonical example is ``delayed-update`` — its lesion
substitutes the immediate-update idealization, so a negative importance
there just restates the paper's realistic-update penalty.

The JSON document leads with the same ``{v, revision, fingerprint}``
header block the throughput record (``BENCH_engine_perf.json``) uses,
so ``scripts/perf_diff.py`` can render an ablation block with the same
old-schema tolerance it applies everywhere else.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from repro.ablation.execute import RunResults
from repro.ablation.plan import AblationPlan
from repro.metrics.speedup import harmonic_mean, speedup

#: Bumped when the report schema changes shape.
REPORT_VERSION = 1


def git_revision() -> str:
    """Current commit (short hash, ``-dirty`` suffixed), or ``unknown``."""
    root = Path(__file__).resolve().parents[3]
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        if not revision:
            return "unknown"
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout
        return revision + ("-dirty" if status.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _run_metrics(item: RunResults) -> dict:
    """Speedup/IPC aggregates for one executed run."""
    per_benchmark = {}
    ratios = []
    for base, vp in zip(item.base_results, item.results):
        benchmark = item.run.jobs[len(ratios)].benchmark
        ratio = speedup(base.cycles, vp.cycles)
        ratios.append(ratio)
        per_benchmark[benchmark] = {
            "base_cycles": base.cycles,
            "vp_cycles": vp.cycles,
            "speedup": ratio,
            "ipc": vp.ipc,
        }
    total_cycles = sum(r.cycles for r in item.results)
    total_retired = sum(r.counters.retired for r in item.results)
    return {
        "run_id": item.run.run_id,
        "label": item.run.label,
        "components": list(item.run.components),
        "speedup": harmonic_mean(ratios),
        "ipc": total_retired / total_cycles if total_cycles else 0.0,
        "benchmarks": per_benchmark,
    }


def build_report(
    plan: AblationPlan,
    executed: list[RunResults],
    *,
    revision: str | None = None,
) -> dict:
    """The versioned ablation report document.

    ``executed`` must align with ``plan.runs`` (baseline first) — the
    shape :func:`~repro.ablation.execute.execute_plan` returns.
    """
    baseline = _run_metrics(executed[0])
    components = []
    for item in executed[1:]:
        metrics = _run_metrics(item)
        importance = baseline["speedup"] - metrics["speedup"]
        components.append({
            **metrics,
            "importance": importance,
            "ipc_delta": baseline["ipc"] - metrics["ipc"],
            "harmful": importance < 0,
        })
    components.sort(key=lambda c: c["importance"], reverse=True)
    spec = plan.spec
    return {
        "v": REPORT_VERSION,
        "kind": "ablation",
        "revision": git_revision() if revision is None else revision,
        "fingerprint": plan.fingerprint,
        "spec": {
            "benchmarks": list(spec.benchmarks),
            "config": f"{spec.point.config.issue_width}/"
                      f"{spec.point.config.window_size}",
            "model": spec.point.model.name,
            "update_timing": spec.point.update_timing,
            "max_instructions": spec.max_instructions,
        },
        "baseline": baseline,
        "components": components,
        "skipped": [
            {"components": list(entry.components), "reason": entry.reason}
            for entry in plan.skipped
        ],
        "runs_dropped": plan.runs_dropped,
    }


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless ``report`` is a well-formed v1
    ablation document (the smoke job's schema gate)."""
    if not isinstance(report, dict):
        raise ValueError("ablation report must be a JSON object")
    for field in ("v", "kind", "revision", "fingerprint", "spec",
                  "baseline", "components", "skipped", "runs_dropped"):
        if field not in report:
            raise ValueError(f"ablation report missing field {field!r}")
    if report["kind"] != "ablation":
        raise ValueError(f"not an ablation report (kind={report['kind']!r})")
    if report["v"] != REPORT_VERSION:
        raise ValueError(f"unsupported ablation report version {report['v']!r}")
    baseline = report["baseline"]
    for field in ("run_id", "label", "speedup", "ipc", "benchmarks"):
        if field not in baseline:
            raise ValueError(f"baseline block missing field {field!r}")
    for entry in report["components"]:
        for field in ("run_id", "label", "components", "speedup",
                      "importance", "harmful"):
            if field not in entry:
                raise ValueError(
                    f"component block missing field {field!r}: {entry}"
                )
        if not isinstance(entry["run_id"], str) or len(entry["run_id"]) != 24:
            raise ValueError(f"malformed run_id {entry['run_id']!r}")
    for entry in report["skipped"]:
        if "components" not in entry or "reason" not in entry:
            raise ValueError(f"malformed skipped entry: {entry}")


def render_text(report: dict) -> str:
    """The ranked importance table, human-shaped."""
    lines = [
        f"ablation report v{report['v']}  "
        f"revision={report['revision']}  fingerprint={report['fingerprint']}",
        f"spec: {report['spec']['model']} model @ {report['spec']['config']}"
        f"  benchmarks={','.join(report['spec']['benchmarks'])}",
        f"baseline speedup {report['baseline']['speedup']:.4f}  "
        f"ipc {report['baseline']['ipc']:.4f}",
        "",
        f"{'rank':>4}  {'component':<34} {'speedup':>8} "
        f"{'importance':>10}  flags",
    ]
    for rank, entry in enumerate(report["components"], start=1):
        flags = "HARMFUL" if entry["harmful"] else ""
        lines.append(
            f"{rank:>4}  {'+'.join(entry['components']):<34} "
            f"{entry['speedup']:>8.4f} {entry['importance']:>+10.4f}  "
            f"{flags}".rstrip()
        )
    for entry in report["skipped"]:
        lines.append(
            f"  skipped {'+'.join(entry['components'])}: {entry['reason']}"
        )
    if report["runs_dropped"]:
        lines.append(
            f"  ({report['runs_dropped']} planned run(s) dropped by --limit)"
        )
    return "\n".join(lines)


def render_csv(report: dict) -> str:
    """One row per ranked component (plus the baseline), machine-shaped."""
    rows = [
        "rank,run_id,label,components,speedup,ipc,importance,ipc_delta,"
        "harmful"
    ]
    baseline = report["baseline"]
    rows.append(
        f"0,{baseline['run_id']},{baseline['label']},,"
        f"{baseline['speedup']:.6f},{baseline['ipc']:.6f},0.0,0.0,False"
    )
    for rank, entry in enumerate(report["components"], start=1):
        rows.append(
            f"{rank},{entry['run_id']},{entry['label']},"
            f"{'+'.join(entry['components'])},"
            f"{entry['speedup']:.6f},{entry['ipc']:.6f},"
            f"{entry['importance']:.6f},{entry['ipc_delta']:.6f},"
            f"{entry['harmful']}"
        )
    return "\n".join(rows)


def report_record(report: dict) -> dict:
    """The compact block a throughput record embeds under ``"ablation"``
    for :mod:`scripts.perf_diff` rendering."""
    return {
        "fingerprint": report["fingerprint"],
        "baseline_speedup": report["baseline"]["speedup"],
        "importance": {
            "+".join(entry["components"]): entry["importance"]
            for entry in report["components"]
        },
        "harmful": [
            "+".join(entry["components"])
            for entry in report["components"] if entry["harmful"]
        ],
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Write the JSON document (pretty, trailing newline) and return the
    path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
