"""Compatibility stub: the batched multi-config engine was removed.

The repository's end-to-end benchmark (``perfbench/``) imports this
module during set-up and wraps :func:`run_batch` by name, and it may
only change together with the benchmark.  The stub keeps those
references valid; nothing under ``src/`` imports it.  The next change to
the benchmark drops those references and deletes this module.
"""

from __future__ import annotations


def run_batch(jobs, trace):
    """Removed: every job runs through the scalar engine
    (:func:`repro.harness.parallel.run_jobs`)."""
    raise NotImplementedError(
        "the batched engine was removed; run jobs through "
        "repro.harness.parallel.run_jobs"
    )
