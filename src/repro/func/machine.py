"""The VSR functional machine: architected state + instruction semantics."""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.assembler import Program, STACK_TOP
from repro.func import alu
from repro.func.memory_image import MemoryImage
from repro.isa.instruction import Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, InstrFormat, OpClass, Opcode
from repro.isa.registers import NUM_REGS


class MachineError(RuntimeError):
    """Raised on execution faults (bad pc, runaway programs, ...)."""


_LOAD_SIZES = {Opcode.LD: 8, Opcode.LW: 4, Opcode.LBU: 1}
_STORE_SIZES = {Opcode.SD: 8, Opcode.SW: 4, Opcode.SB: 1}


@dataclass(slots=True)
class StepResult:
    """Everything observable about one architecturally executed instruction.

    This is the raw material for dynamic trace records: the timing simulator
    needs the destination value (for value-prediction equality checks), the
    effective address (for cache/LSQ modeling) and the control outcome (for
    branch-prediction modeling).

    Not frozen: one is built per executed instruction, and a frozen
    dataclass's ``__init__`` pays an ``object.__setattr__`` per field.
    """

    pc: int
    instr: Instruction
    next_pc: int
    dest_reg: int | None = None
    dest_value: int | None = None
    mem_addr: int | None = None
    mem_size: int | None = None
    store_value: int | None = None
    branch_taken: bool | None = None
    halted: bool = False


class Machine:
    """Architected-state interpreter for assembled VSR programs."""

    def __init__(self, program: Program):
        self.program = program
        self.regs: list[int] = [0] * NUM_REGS
        self.regs[29] = STACK_TOP  # sp
        self.mem = MemoryImage()
        if program.data:
            self.mem.store_bytes(program.data_base, program.data)
        self.pc = program.entry
        self.halted = False
        self.instruction_count = 0
        self.output: list[int] = []  # values emitted by PRINT

    # -- register helpers -------------------------------------------------

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & alu.MASK64

    # -- execution ---------------------------------------------------------

    def step(self) -> StepResult:
        """Execute one instruction and return its observable effects."""
        if self.halted:
            raise MachineError("machine is halted")
        pc = self.pc
        instr = self.program.instruction_at(pc)
        result = self._execute(pc, instr)
        self.pc = result.next_pc
        self.halted = result.halted
        self.instruction_count += 1
        return result

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run until HALT; returns the dynamic instruction count."""
        while not self.halted:
            if self.instruction_count >= max_instructions:
                raise MachineError(
                    f"exceeded instruction budget ({max_instructions}); "
                    "runaway program?"
                )
            self.step()
        return self.instruction_count

    def _execute(self, pc: int, instr: Instruction) -> StepResult:
        opcode = instr.opcode
        opclass = instr.opclass
        fall_through = pc + INSTRUCTION_BYTES

        if opcode is Opcode.NOP:
            return StepResult(pc, instr, fall_through)
        if opcode is Opcode.HALT:
            return StepResult(pc, instr, fall_through, halted=True)
        if opcode is Opcode.PRINT:
            self.output.append(self.read_reg(instr.rs))
            return StepResult(pc, instr, fall_through)

        fmt = instr.format
        if fmt is InstrFormat.R:
            value = alu.apply_binop(
                opcode, self.read_reg(instr.rs), self.read_reg(instr.rt)
            )
            self.write_reg(instr.rd, value)
            return StepResult(
                pc, instr, fall_through, dest_reg=instr.rd, dest_value=value
            )
        if fmt is InstrFormat.I:
            value = alu.apply_immop(opcode, self.read_reg(instr.rs), instr.imm)
            self.write_reg(instr.rd, value)
            return StepResult(
                pc, instr, fall_through, dest_reg=instr.rd, dest_value=value
            )
        if fmt is InstrFormat.LI:
            value = (
                alu.to_unsigned(instr.imm << 16)
                if opcode is Opcode.LUI
                else alu.to_unsigned(instr.imm)
            )
            self.write_reg(instr.rd, value)
            return StepResult(
                pc, instr, fall_through, dest_reg=instr.rd, dest_value=value
            )
        if opclass is OpClass.LOAD:
            address = alu.to_unsigned(self.read_reg(instr.rs) + instr.imm)
            size = _LOAD_SIZES[opcode]
            raw = self.mem.load_uint(address, size)
            if opcode is Opcode.LW and raw & (1 << 31):
                raw = alu.to_unsigned(raw - (1 << 32))
            self.write_reg(instr.rd, raw)
            return StepResult(
                pc,
                instr,
                fall_through,
                dest_reg=instr.rd,
                dest_value=raw,
                mem_addr=address,
                mem_size=size,
            )
        if opclass is OpClass.STORE:
            address = alu.to_unsigned(self.read_reg(instr.rs) + instr.imm)
            size = _STORE_SIZES[opcode]
            value = self.read_reg(instr.rt)
            self.mem.store_uint(address, value, size)
            return StepResult(
                pc,
                instr,
                fall_through,
                mem_addr=address,
                mem_size=size,
                store_value=value & ((1 << (8 * size)) - 1),
            )
        if opclass is OpClass.BRANCH:
            taken = alu.branch_taken(
                opcode,
                self.read_reg(instr.rs),
                self.read_reg(instr.rt) if instr.rt is not None else 0,
            )
            next_pc = instr.imm if taken else fall_through
            return StepResult(pc, instr, next_pc, branch_taken=taken)
        if opcode is Opcode.J:
            return StepResult(pc, instr, instr.imm, branch_taken=True)
        if opcode is Opcode.JAL:
            self.write_reg(instr.rd, fall_through)
            return StepResult(
                pc,
                instr,
                instr.imm,
                dest_reg=instr.rd,
                dest_value=fall_through,
                branch_taken=True,
            )
        if opcode is Opcode.JR:
            return StepResult(pc, instr, self.read_reg(instr.rs), branch_taken=True)
        if opcode is Opcode.JALR:
            target = self.read_reg(instr.rs)
            self.write_reg(instr.rd, fall_through)
            return StepResult(
                pc,
                instr,
                target,
                dest_reg=instr.rd,
                dest_value=fall_through,
                branch_taken=True,
            )
        raise MachineError(f"unimplemented opcode: {opcode}")
