"""Compatibility stub: config-specialized engine codegen was removed.

The repository's end-to-end benchmark (``perfbench/``) imports this
module during set-up and wraps :func:`simulator_class` by name, and it
may only change together with the benchmark.  The stub keeps those
references valid; nothing under ``src/`` imports it.  The next change to
the benchmark drops those references and deletes this module.
"""

from __future__ import annotations

from repro.engine.pipeline import PipelineSimulator


def simulator_class(*args, **kwargs) -> tuple[type, str]:
    """The one scalar engine class and its engine-path label."""
    return PipelineSimulator, "scalar"
