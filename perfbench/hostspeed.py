"""Host-speed sampling, so that end-to-end times follow the program and
not the load of the other guests on a shared host.

On the reference host, a 2-vCPU KVM guest, the same repetition's wall
time moves by up to 50 % within minutes, and its CPU time
moves with it: the host runs the guest's vCPUs slower or faster with its
own load.  A fixed reference loop slows down with them.  While a
repetition runs, every one of its processes (the driving process and
each pool worker) times that loop once per :data:`PERIOD_S` of its own
CPU time, from a ``SIGPROF`` handler, so the samples fall where the
program spends its CPU time.  :func:`speed` is :data:`REFERENCE_S` over
the mean sample: 1.0 at the reference speed, below 1.0 when the host
runs slow.  ``run.py`` multiplies wall and CPU seconds by it, which
gives the seconds the repetition would have taken at the reference
speed.  The loop is this file's own code, so a change to the program
moves the program's time and not the reference.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from multiprocessing import util as mp_util
from pathlib import Path

#: Iterations of the reference loop: about 0.1 ms, so sampling costs
#: under 1 % of the CPU time.
LOOP = 2000

#: The loop's mean time on the reference host when that host ran
#: fastest.  It only scales every adjusted time by the same factor.
REFERENCE_S = 110e-6

#: CPU seconds between two samples in one process.
PERIOD_S = 0.02


def reference() -> float:
    """CPU seconds the reference loop takes now."""
    start = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.thread_time() - start


def burst(count: int = 32) -> list[float]:
    """``count`` back-to-back samples, for a process too short-lived to
    be sampled by the timer."""
    return [reference() for _ in range(count)]


class Sampler:
    """Samples the reference loop in this process and in the
    ``multiprocessing`` children forked after :meth:`start`; each process
    writes ``samples-<pid>.json`` into ``out_dir``."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        mp_util.register_after_fork(self, Sampler._after_fork)
        self._arm()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # SIGPROF's default action ends the process; a signal already
        # pending must not.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def dump(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"samples-{self.pid}.json"
        path.write_text(json.dumps(self.samples))

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference())

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _after_fork(self) -> None:
        # Interval timers are not inherited across fork.
        self.pid = os.getpid()
        self.samples = []
        self._arm()
        mp_util.Finalize(self, self.dump, exitpriority=0)


def load_samples(out_dir: Path) -> list[float]:
    return [
        sample
        for path in sorted(Path(out_dir).glob("samples-*.json"))
        for sample in json.loads(path.read_text())
    ]


def speed(samples: list[float]) -> float:
    """The host's speed relative to the reference, from loop samples."""
    return REFERENCE_S / statistics.fmean(samples)
