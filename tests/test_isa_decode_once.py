"""Decode-once invariants.

Opcode members carry their class, format, code and register-writer flag
as attributes set at import; ``Instruction`` decodes its class, format
and source registers at construction; ``StepResult`` is a plain
(unfrozen) dataclass.  These tests hold the precomputed values to the
ISA tables and keep the public shape of both classes unchanged.
"""

from __future__ import annotations

import dataclasses
import pickle

from hypothesis import given, strategies as st

from repro.func.machine import StepResult
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    _CODE_BY_OPCODE,
    _REG_WRITERS,
    FORMAT_BY_OPCODE,
    OPCLASS_BY_OPCODE,
    OPCODE_BY_CODE,
    InstrFormat,
    OpClass,
    Opcode,
)
from repro.programs.suite import benchmark_suite


def test_opcode_attributes_match_tables():
    for position, op in enumerate(Opcode):
        assert op.opclass is OPCLASS_BY_OPCODE[op], op
        assert op.format is FORMAT_BY_OPCODE[op], op
        assert op.code == _CODE_BY_OPCODE[op] == position, op
        assert OPCODE_BY_CODE[op.code] is op
        assert op.writes_register is (op in _REG_WRITERS), op


def _expected_sources(instr: Instruction) -> tuple[int, ...]:
    """The per-format source-operand rule, spelled out independently."""
    fmt = instr.opcode.format
    if fmt in (InstrFormat.R, InstrFormat.B):
        operands = (instr.rs, instr.rt)
    elif fmt in (InstrFormat.I, InstrFormat.BZ, InstrFormat.JR, InstrFormat.JLR):
        operands = (instr.rs,)
    elif fmt is InstrFormat.MEM:
        if instr.opcode.opclass is OpClass.STORE:
            operands = (instr.rs, instr.rt)
        else:
            operands = (instr.rs,)
    else:
        operands = ()
    return tuple(r for r in operands if r is not None and r != 0)


_REGS = st.one_of(st.none(), st.integers(min_value=0, max_value=31))

instructions = st.builds(
    Instruction,
    opcode=st.sampled_from(list(Opcode)),
    rd=_REGS,
    rs=_REGS,
    rt=_REGS,
    imm=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    label=st.one_of(st.none(), st.sampled_from(["loop", "done"])),
)


@given(instructions)
def test_decoded_fields_follow_the_format_rules(instr):
    assert instr.source_regs() == _expected_sources(instr)
    assert 0 not in instr.source_regs()
    assert instr.opclass is instr.opcode.opclass
    assert instr.format is instr.opcode.format


@given(instructions, st.one_of(st.none(), st.just("elsewhere")))
def test_equality_hash_and_repr_ignore_decoded_fields(instr, other_label):
    twin = Instruction(
        instr.opcode, instr.rd, instr.rs, instr.rt, instr.imm, label=other_label
    )
    assert twin == instr
    assert hash(twin) == hash(instr)
    assert hash(instr) == hash(
        (instr.opcode, instr.rd, instr.rs, instr.rt, instr.imm)
    )
    assert repr(instr) == (
        f"Instruction(opcode={instr.opcode!r}, rd={instr.rd!r}, "
        f"rs={instr.rs!r}, rt={instr.rt!r}, imm={instr.imm!r}, "
        f"label={instr.label!r})"
    )
    assert [f.name for f in dataclasses.fields(Instruction) if f.init] == [
        "opcode", "rd", "rs", "rt", "imm", "label",
    ]


def test_suite_instructions_survive_pickle_and_replace():
    for spec in benchmark_suite():
        for instr in spec.program().instructions:
            copy = pickle.loads(pickle.dumps(instr))
            assert copy == instr and hash(copy) == hash(instr)
            assert copy.render() == instr.render()
            assert copy.source_regs() == instr.source_regs()
            assert (copy.opclass, copy.format) == (instr.opclass, instr.format)
            unlabeled = dataclasses.replace(instr, label=None)
            assert unlabeled == instr
            assert unlabeled.source_regs() == instr.source_regs()


def test_step_result_fields_and_defaults():
    assert [
        (f.name, f.default) for f in dataclasses.fields(StepResult)
    ] == [
        ("pc", dataclasses.MISSING),
        ("instr", dataclasses.MISSING),
        ("next_pc", dataclasses.MISSING),
        ("dest_reg", None),
        ("dest_value", None),
        ("mem_addr", None),
        ("mem_size", None),
        ("store_value", None),
        ("branch_taken", None),
        ("halted", False),
    ]
