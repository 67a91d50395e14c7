"""Documentation consistency checks: the docs must track the code."""

import re
from pathlib import Path

from repro.harness.experiments import EXPERIMENTS
from repro.isa.opcodes import Opcode
from repro.programs.suite import kernel_names

_ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (_ROOT / name).read_text()


def test_isa_doc_lists_every_opcode():
    text = _read("docs/ISA.md")
    for op in Opcode:
        assert f"{op.mnemonic}" in text, f"docs/ISA.md missing {op.mnemonic}"


def test_kernels_doc_covers_the_suite():
    text = _read("docs/KERNELS.md")
    for name in kernel_names():
        assert f"**{name}**" in text, name


def test_design_md_indexes_every_paper_artifact():
    text = _read("DESIGN.md")
    for artifact in ("FIG1", "TAB1", "FIG3", "FIG4", "ABL-V", "ABL-I",
                     "ABL-L", "LIMIT"):
        assert artifact in text, artifact


def test_experiments_md_has_verdicts():
    text = _read("EXPERIMENTS.md")
    for heading in ("Table 1", "Figure 1", "Figure 3", "Figure 4",
                    "Known deviations"):
        assert heading in text, heading
    assert "reproduced" in text.lower()


def test_readme_mentions_install_quickstart_architecture():
    text = _read("README.md")
    for section in ("## Installation", "## Quickstart", "What's inside",
                    "Substitutions", "Testing"):
        assert section in text, section


def test_model_doc_covers_all_latency_variables():
    text = _read("docs/MODEL.md")
    from repro.core.latency import LatencyModel
    import dataclasses

    for field in dataclasses.fields(LatencyModel):
        assert field.name in text, field.name


def test_api_doc_mentions_every_experiment_family():
    text = _read("docs/API.md")
    # spot-check the registry surface is documented
    for key in ("table1", "figure3", "limit-study", "abl-"):
        assert key in text, key


def test_every_experiment_has_title_and_ref():
    for experiment in EXPERIMENTS.values():
        assert experiment.title
        assert experiment.paper_ref
        assert callable(experiment.run)


def test_examples_are_documented_in_readme():
    text = _read("README.md")
    examples = sorted(p.name for p in (_ROOT / "examples").glob("*.py"))
    for example in examples:
        assert example in text, f"README missing {example}"


_ENV_VAR = re.compile(r"REPRO_[A-Z_]+")


def _env_vars(paths) -> set[str]:
    return {name for path in paths for name in _ENV_VAR.findall(path.read_text())}


def test_env_vars_in_source_match_the_docs():
    """Every ``REPRO_*`` variable the code reads is documented, and the
    docs name none the code no longer reads."""
    in_source = _env_vars((_ROOT / "src").rglob("*.py"))
    in_docs = _env_vars([_ROOT / "README.md", *(_ROOT / "docs").glob("*.md")])
    assert in_source, "no REPRO_* variables found under src/"
    assert in_source == in_docs, (
        f"undocumented: {sorted(in_source - in_docs)}; "
        f"documented but unused: {sorted(in_docs - in_source)}"
    )
