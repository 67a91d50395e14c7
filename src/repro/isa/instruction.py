"""The in-memory instruction representation shared by assembler and simulators."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import InstrFormat, OpClass, Opcode
from repro.isa.registers import canonical_reg_name


@dataclass(frozen=True)
class Instruction:
    """One decoded VSR instruction.

    ``rd`` is the destination register (``None`` when the instruction writes
    no register), ``rs``/``rt`` are sources.  ``imm`` carries the immediate
    for I/LI/MEM/B-format instructions; for control transfers it holds the
    byte offset or absolute target resolved by the assembler.

    The structure is frozen so instructions can be shared between the static
    program image and every dynamic trace record that references them.
    """

    opcode: Opcode
    rd: int | None = None
    rs: int | None = None
    rt: int | None = None
    imm: int = 0
    label: str | None = field(default=None, compare=False)
    # Decoded once, at construction: the functional simulator reads these
    # on every dynamic execution of the instruction.
    opclass: OpClass = field(init=False, repr=False, compare=False)
    format: InstrFormat = field(init=False, repr=False, compare=False)
    src_regs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        opcode = self.opcode
        fmt = opcode.format
        set_field = object.__setattr__
        set_field(self, "opclass", opcode.opclass)
        set_field(self, "format", fmt)
        sources: tuple[int | None, ...]
        if fmt is InstrFormat.R or fmt is InstrFormat.B:
            sources = (self.rs, self.rt)
        elif fmt in (InstrFormat.I, InstrFormat.BZ, InstrFormat.JR, InstrFormat.JLR):
            sources = (self.rs,)
        elif fmt is InstrFormat.MEM:
            # Loads read the base register; stores read base and data.
            if opcode.opclass is OpClass.STORE:
                sources = (self.rs, self.rt)
            else:
                sources = (self.rs,)
        else:  # LI, J, JL, N — no register sources
            sources = ()
        set_field(
            self, "src_regs", tuple(r for r in sources if r is not None and r != 0)
        )

    @property
    def writes_register(self) -> bool:
        """True when this instruction produces an architecturally visible
        register value (and is therefore value-prediction eligible)."""
        return self.opcode.writes_register and self.rd not in (None, 0)

    def source_regs(self) -> tuple[int, ...]:
        """Register numbers read by this instruction, in operand order.

        Reads of ``r0`` are omitted: the zero register is constant and never
        creates a dataflow dependence.
        """
        return self.src_regs

    def render(self) -> str:
        """Render back to assembly text."""
        op = self.opcode.mnemonic
        fmt = self.format
        r = canonical_reg_name
        target = self.label if self.label is not None else hex(self.imm)
        if fmt is InstrFormat.R:
            return f"{op} {r(self.rd)}, {r(self.rs)}, {r(self.rt)}"
        if fmt is InstrFormat.I:
            return f"{op} {r(self.rd)}, {r(self.rs)}, {self.imm}"
        if fmt is InstrFormat.LI:
            return f"{op} {r(self.rd)}, {self.imm}"
        if fmt is InstrFormat.MEM:
            data_reg = self.rd if self.opclass is OpClass.LOAD else self.rt
            return f"{op} {r(data_reg)}, {self.imm}({r(self.rs)})"
        if fmt is InstrFormat.B:
            return f"{op} {r(self.rs)}, {r(self.rt)}, {target}"
        if fmt is InstrFormat.BZ:
            return f"{op} {r(self.rs)}, {target}"
        if fmt is InstrFormat.J:
            return f"{op} {target}"
        if fmt is InstrFormat.JL:
            return f"{op} {r(self.rd)}, {target}"
        if fmt is InstrFormat.JR:
            return f"{op} {r(self.rs)}"
        if fmt is InstrFormat.JLR:
            return f"{op} {r(self.rd)}, {r(self.rs)}"
        return op

    def __str__(self) -> str:
        return self.render()
