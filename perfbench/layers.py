"""Outside-in layer tracing for the benchmark's traced runs.

Spans are recorded from here, around the program's public entry points,
with no edit to the program: :func:`install` replaces each entry point
wherever a loaded ``repro`` module holds it (``from x import f`` binds a
caller's own name, so every such binding is patched, not just the
defining module's).  Pool workers are forked from the traced process and
inherit the wrappers; each process keeps its spans in memory and writes
them to ``spans-<pid>.json`` when it exits, and :func:`layer_metrics`
merges the files into the per-layer metrics.

A span is ``[id, parent, name, start, end, self, attrs]``; ``self`` is
the duration minus the time its child spans cover, so summing ``self``
never counts the same second twice within a process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

clock = time.perf_counter

#: (module, attribute, span name).  ``Class.method`` attributes are
#: patched on the class.  The span name is the layer the time belongs to.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.sim", "run_baseline", "engine.run"),
    ("repro.engine.sim", "run_trace", "engine.run"),
    ("repro.engine.batched", "run_batch", "engine.batch"),
    ("repro.engine.specialize", "simulator_class", "engine.specialize"),
    ("repro.harness.parallel", "run_jobs", "harness.run_jobs"),
    ("repro.harness.parallel", "plan_units", "harness.plan"),
    ("repro.harness.parallel", "_run_pool", "harness.pool"),
    ("repro.harness.parallel", "_execute", "harness.execute"),
    ("repro.harness.parallel", "_init_worker", "harness.worker_init"),
    ("repro.cluster.serial", "job_key", "harness.job_key"),
    ("repro.trace.cache", "cached_trace", "trace.cached"),
    ("repro.trace.binary", "read_trace_binary_v3", "trace.attach"),
    ("repro.trace.binary", "read_trace_chunked", "trace.attach"),
    ("repro.trace.stats", "compute_stats", "trace.stats"),
    ("repro.programs.suite", "KernelSpec.trace", "func.capture"),
    ("repro.programs.suite", "KernelSpec.iter_trace", "func.capture"),
    ("repro.asm.assembler", "assemble", "asm.assemble"),
    ("repro.service.results", "load_result", "store.load"),
    ("repro.service.results", "store_result", "store.write"),
)


class Recorder:
    """One process's spans, kept in memory until the process ends."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        #: Open spans: ``[id, child_seconds]``.
        self.stack: list[list] = []
        self.next_id = 0
        #: Records yielded through timed generators (for the overhead
        #: estimate: each costs one extra pair of clock reads).
        self.items = 0

    def after_fork(self) -> None:
        """Start an empty span list in a forked worker and arrange for it
        to be written when the worker exits normally."""
        self._reset()
        mp_util.Finalize(self, self.dump, exitpriority=0)

    def call(self, name: str, fn, args, kwargs, describe=None):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [span_id, 0.0]
        self.stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][1] += duration
            self.spans.append(
                [span_id, parent, name, start, end, duration - frame[1], None]
            )
        if describe is not None:
            self.spans[-1][6] = describe(args, kwargs, result)
        return result

    def timed_items(self, name: str, items):
        """Yield from ``items``, timing only the producer's work; the time
        is charged to the span consuming the items."""
        spent = 0.0
        count = 0
        first = clock()
        iterator = iter(items)
        try:
            while True:
                before = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    spent += clock() - before
                    return
                spent += clock() - before
                count += 1
                yield item
        finally:
            self.items += count
            if self.stack:
                self.stack[-1][1] += spent
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else -1
            self.spans.append(
                [span_id, parent, name, first, first + spent, spent,
                 {"records": count}]
            )

    def dump(self) -> None:
        doc = {
            "pid": self.pid,
            "exit": clock(),
            "items": self.items,
            "spans": self.spans,
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(doc))


# -- describing results -------------------------------------------------------


def _model_class(model) -> str:
    from repro.core.model import GOOD_MODEL, GREAT_MODEL, SUPER_MODEL

    if model is None:
        return "base"
    for paper in (GOOD_MODEL, GREAT_MODEL, SUPER_MODEL):
        if model == paper:
            return paper.name
    return "variant"


def _engine_model(args, kwargs):
    if len(args) > 2:
        return args[2]
    return kwargs.get("model")


def _result_attrs(result) -> dict:
    counters = result.counters
    return {
        "retired": counters.retired,
        "cycles": counters.cycles,
        "path": result.engine_path,
    }


#: attribute -> ``describe(args, kwargs, result)``, the attrs a span keeps.
DESCRIBE = {
    "KernelSpec.trace": lambda a, k, result: {"records": len(result)},
    "run_baseline": lambda a, k, result: dict(_result_attrs(result), model="base"),
    "run_trace": lambda a, k, result: dict(
        _result_attrs(result), model=_model_class(_engine_model(a, k))
    ),
    "run_batch": lambda a, k, result: {"lanes": len(result)},
    "simulator_class": lambda a, k, result: {
        "key": getattr(result[0], "__specialization_key__", None)
    },
    "load_result": lambda a, k, result: {"hit": result is not None},
}


def _wrapper(recorder: Recorder, name: str, attribute: str, original):
    """The traced stand-in for one entry point."""
    if attribute == "KernelSpec.iter_trace":

        def traced(*args, **kwargs):
            items = recorder.call(name, original, args, kwargs)
            return recorder.timed_items("func.iter", items)

    else:
        describe = DESCRIBE.get(attribute)

        def traced(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, describe)

    return functools.wraps(original)(traced)


def _owner_and_attr(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    if "." in attribute:
        class_name, attribute = attribute.split(".")
        owner = getattr(owner, class_name)
    return owner, attribute


def patch_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Rebind every ``repro`` module global that is ``original`` to
    ``replacement``; returns the undo list."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                undo.append((module, attribute, original))
    return undo


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the undo
    list for :func:`uninstall`.  Workers forked afterwards inherit the
    wrappers and record into a fresh span list of their own."""
    undo = []
    for module_name, attribute, name in ENTRY_POINTS:
        owner, short = _owner_and_attr(module_name, attribute)
        original = getattr(owner, short)
        traced = _wrapper(recorder, name, attribute, original)
        if isinstance(owner, type):
            setattr(owner, short, traced)
            undo.append((owner, short, original))
        else:
            undo.extend(patch_everywhere(original, traced))
    mp_util.register_after_fork(recorder, Recorder.after_fork)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


# -- merging ---------------------------------------------------------------------


def calibrate(rounds: int = 20000) -> tuple[float, float]:
    """Seconds one traced call and one timed generator item add over the
    untraced call, measured here (best of three)."""

    def noop():
        return None

    probe = Recorder(Path("."))

    def traced(*args, **kwargs):
        return probe.call("probe", noop, args, kwargs)

    def best(fn) -> float:
        times = []
        for _ in range(3):
            start = clock()
            fn()
            times.append(clock() - start)
        return min(times) / rounds

    def plain_calls():
        for _ in range(rounds):
            noop()

    def traced_calls():
        for _ in range(rounds):
            traced()
        probe.spans.clear()

    def plain_items():
        for _ in range(rounds):
            pass

    def timed_items():
        for _ in probe.timed_items("probe", range(rounds)):
            pass
        probe.spans.clear()

    per_call = max(best(traced_calls) - best(plain_calls), 0.0)
    per_item = max(best(timed_items) - best(plain_items), 0.0)
    return per_call, per_item


def load_spans(out_dir: Path) -> list[dict]:
    return [
        json.loads(path.read_text())
        for path in sorted(Path(out_dir).glob("spans-*.json"))
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    processes: list[dict],
    parent_pid: int,
    wall_s: float,
    cpu_s: float,
    calibration: tuple[float, float],
) -> dict[str, float]:
    """Per-layer metrics from every process's spans.

    Times (``*_s``) are self times summed over the parent and its
    workers, so they are host CPU-side seconds, not shares of wall time.
    """
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    engine_s = {m: 0.0 for m in ("base", "good", "great", "super", "variant")}
    engine_retired = dict.fromkeys(engine_s, 0)
    cycles = 0
    paths = {"specialized": 0, "generic": 0, "batched": 0}
    classes_built = 0
    misses = hits = store_hits = records = 0
    covered = 0.0
    spans_total = items_total = 0
    workers: list[dict] = []
    pools: list[tuple[float, float]] = []
    for process in processes:
        spans = process["spans"]
        spans_total += len(spans)
        items_total += process["items"]
        names = {span[0]: span[2] for span in spans}
        # A ``trace.cached`` call missed when it ran a functional capture.
        capturing = {span[1] for span in spans if span[2].startswith("func.")}
        keys = set()
        busy = 0.0
        last_end = None
        init_start = None
        for span_id, parent, name, start, end, self_time, attrs in spans:
            self_s[name] = self_s.get(name, 0.0) + self_time
            count[name] = count.get(name, 0) + 1
            if name == "engine.run":
                model = attrs["model"]
                engine_s[model] += self_time
                engine_retired[model] += attrs["retired"]
                cycles += attrs["cycles"]
                if names.get(parent) != "engine.batch":
                    path = attrs["path"] or "generic"
                    paths["specialized" if path == "specialized" else "generic"] += 1
            elif name == "engine.batch":
                paths["batched"] += attrs["lanes"]
            elif name == "engine.specialize" and attrs["key"] is not None:
                keys.add(attrs["key"])
            elif name == "trace.cached":
                if span_id in capturing:
                    misses += 1
                else:
                    hits += 1
            elif name in ("func.capture", "func.iter") and attrs:
                records += attrs["records"]
            elif name == "store.load" and attrs["hit"]:
                store_hits += 1
            elif name == "harness.execute":
                busy += end - start
                last_end = end if last_end is None else max(last_end, end)
            elif name == "harness.worker_init":
                init_start = start
            elif name == "harness.pool":
                pools.append((start, end))
            if process["pid"] == parent_pid and parent == -1:
                covered += end - start
        classes_built += len(keys)
        if process["pid"] != parent_pid and init_start is not None:
            workers.append(
                {"start": init_start, "exit": process["exit"], "busy": busy,
                 "last_end": last_end if last_end is not None else init_start}
            )

    def total(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    alive = sum(worker["exit"] - worker["start"] for worker in workers)
    busy = sum(worker["busy"] for worker in workers)
    tail = 0.0
    for pool_start, pool_end in pools:
        ends = [
            worker["last_end"] for worker in workers
            if pool_start <= worker["start"] <= pool_end
        ]
        if ends:
            tail += max(ends) - min(ends)
    run_s = sum(engine_s.values())
    capture_s = total("func.capture", "func.iter")
    per_call, per_item = calibration
    overhead_s = spans_total * per_call + items_total * per_item
    metrics = {
        "engine.run_s": run_s + total("engine.batch"),
        "engine.runs": count.get("engine.run", 0),
        "engine.ips": _ratio(sum(engine_retired.values()), run_s),
        "engine.ns_per_cycle": _ratio(run_s * 1e9, cycles),
        "engine.codegen_s": total("engine.specialize"),
        "engine.classes_built": classes_built,
        "engine.path.specialized": paths["specialized"],
        "engine.path.generic": paths["generic"],
        "engine.path.batched": paths["batched"],
        "harness.run_jobs_s": total(
            "harness.run_jobs", "harness.plan", "harness.pool",
            "harness.execute", "harness.worker_init",
        ),
        "harness.pools": count.get("harness.pool", 0),
        "harness.workers_started": len(workers),
        "harness.worker_busy_frac": _ratio(busy, alive),
        "harness.worker_wait_s": alive - busy,
        "harness.tail_s": tail,
        "harness.job_key_s": total("harness.job_key"),
        "trace.capture_s": total("trace.cached"),
        "trace.misses": misses,
        "trace.hits": hits,
        "trace.attach_s": total("trace.attach"),
        "trace.stats_s": total("trace.stats"),
        "func.capture_s": capture_s,
        "func.records_per_s": _ratio(records, capture_s),
        "asm.assemble_s": total("asm.assemble"),
        "store.lookups": count.get("store.load", 0),
        "store.hits": store_hits,
        "store.writes": count.get("store.write", 0),
        "store.s": total("store.load", "store.write"),
        "trace_run.covered_frac": _ratio(covered, wall_s),
        "trace_run.other_s": wall_s - covered,
        "trace_run.overhead_frac": _ratio(overhead_s, cpu_s),
    }
    for model, seconds in engine_s.items():
        metrics[f"engine.ips.{model}"] = _ratio(engine_retired[model], seconds)
    return metrics
