"""Opcode and operation-class definitions for the VSR ISA.

Every opcode belongs to exactly one :class:`OpClass`.  The operation class
determines which functional unit executes the instruction and, through
:mod:`repro.engine.funits`, its execution latency.  The latency bands follow
the paper's simulation methodology (Section 5.1): "All simple integer
instructions require one cycle to execute.  Complex integer operations and
floating point operations, depending on the type, require from 2 to 24
cycles."
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Functional classification of an instruction.

    The timing simulator keys execution latency, issue constraints and
    selection priority off this class.
    """

    IALU = "ialu"  # simple integer ALU: 1 cycle
    IMUL = "imul"  # integer multiply: complex integer
    IDIV = "idiv"  # integer divide/remainder: complex integer
    FADD = "fadd"  # floating add/sub (fixed-point emulated)
    FMUL = "fmul"  # floating multiply
    FDIV = "fdiv"  # floating divide
    LOAD = "load"  # memory read: address generation + access
    STORE = "store"  # memory write: address generation + access
    BRANCH = "branch"  # conditional control transfer
    JUMP = "jump"  # unconditional direct control transfer
    IJUMP = "ijump"  # indirect jump (jr / jalr / ret)
    SYSCALL = "syscall"  # environment call (halt, print)

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality; ``Enum.__hash__`` is a Python-level
    # ``hash(self._name_)`` paid on every table lookup in the hot paths.
    __hash__ = object.__hash__

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_control(self) -> bool:
        return self in (OpClass.BRANCH, OpClass.JUMP, OpClass.IJUMP)


class InstrFormat(enum.Enum):
    """Assembly/encoding format of an instruction.

    R      op rd, rs, rt           (register-register)
    I      op rd, rs, imm          (register-immediate)
    LI     op rd, imm              (wide immediate load)
    MEM    op rd, offset(rs)       (load)  /  op rt, offset(rs)  (store)
    B      op rs, rt, target       (compare-and-branch)
    BZ     op rs, target           (compare-with-zero branch)
    J      op target               (direct jump)
    JL     op rd, target           (direct jump-and-link)
    JR     op rs                   (indirect jump)
    JLR    op rd, rs               (indirect jump-and-link)
    N      op                      (no operands)
    """

    R = "R"
    I = "I"  # noqa: E741 - conventional format letter
    LI = "LI"
    MEM = "MEM"
    B = "B"
    BZ = "BZ"
    J = "J"
    JL = "JL"
    JR = "JR"
    JLR = "JLR"
    N = "N"


class Opcode(enum.Enum):
    """All VSR opcodes.

    The value of each member is its mnemonic; the numeric encoding used by
    :mod:`repro.isa.encoding` is the member's ordinal position.
    """

    # --- simple integer, register-register ------------------------------
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLL = "sll"  # shift left logical (amount in rt)
    SRL = "srl"  # shift right logical
    SRA = "sra"  # shift right arithmetic
    SLT = "slt"  # set if less-than (signed)
    SLTU = "sltu"  # set if less-than (unsigned)
    MIN = "min"
    MAX = "max"

    # --- simple integer, register-immediate -----------------------------
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    SLTI = "slti"

    # --- wide immediate ---------------------------------------------------
    LUI = "lui"  # load upper immediate (imm << 16)
    LI = "li"  # load full immediate (toy-ISA convenience)

    # --- complex integer --------------------------------------------------
    MUL = "mul"
    MULH = "mulh"
    DIV = "div"
    REM = "rem"

    # --- floating point (operates on integer registers holding fixed-point
    # --- values; latency is what matters for the timing study) ------------
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"

    # --- memory ------------------------------------------------------------
    LD = "ld"  # load 8 bytes
    LW = "lw"  # load 4 bytes (sign-extended)
    LBU = "lbu"  # load 1 byte (zero-extended)
    SD = "sd"  # store 8 bytes
    SW = "sw"  # store 4 bytes
    SB = "sb"  # store 1 byte

    # --- control -----------------------------------------------------------
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTZ = "bltz"
    BGEZ = "bgez"
    BEQZ = "beqz"
    BNEZ = "bnez"
    J = "j"
    JAL = "jal"
    JR = "jr"
    JALR = "jalr"

    # --- environment ---------------------------------------------------------
    HALT = "halt"
    NOP = "nop"
    PRINT = "print"  # debug aid: print register (no architectural effect)

    __hash__ = object.__hash__  # see OpClass.__hash__

    # Per-member attributes, set once at import from the tables below, so
    # the hot paths read them directly instead of hashing the member into
    # a table on every access.

    #: Functional class (``OPCLASS_BY_OPCODE``).
    opclass: OpClass
    #: Assembly/encoding format (``FORMAT_BY_OPCODE``).
    format: InstrFormat
    #: Stable numeric opcode used by the binary encoding: the member's
    #: ordinal position.
    code: int
    #: True when the instruction produces a register result.
    #: Register-writing instructions are the ones eligible for value
    #: prediction (Section 5.2: the predictor is indexed by the PC of the
    #: predicted instruction and produces its output value).
    writes_register: bool

    @property
    def mnemonic(self) -> str:
        return self.value


_R = InstrFormat.R
_I = InstrFormat.I

FORMAT_BY_OPCODE: dict[Opcode, InstrFormat] = {
    Opcode.ADD: _R,
    Opcode.SUB: _R,
    Opcode.AND: _R,
    Opcode.OR: _R,
    Opcode.XOR: _R,
    Opcode.NOR: _R,
    Opcode.SLL: _R,
    Opcode.SRL: _R,
    Opcode.SRA: _R,
    Opcode.SLT: _R,
    Opcode.SLTU: _R,
    Opcode.MIN: _R,
    Opcode.MAX: _R,
    Opcode.ADDI: _I,
    Opcode.ANDI: _I,
    Opcode.ORI: _I,
    Opcode.XORI: _I,
    Opcode.SLLI: _I,
    Opcode.SRLI: _I,
    Opcode.SRAI: _I,
    Opcode.SLTI: _I,
    Opcode.LUI: InstrFormat.LI,
    Opcode.LI: InstrFormat.LI,
    Opcode.MUL: _R,
    Opcode.MULH: _R,
    Opcode.DIV: _R,
    Opcode.REM: _R,
    Opcode.FADD: _R,
    Opcode.FSUB: _R,
    Opcode.FMUL: _R,
    Opcode.FDIV: _R,
    Opcode.LD: InstrFormat.MEM,
    Opcode.LW: InstrFormat.MEM,
    Opcode.LBU: InstrFormat.MEM,
    Opcode.SD: InstrFormat.MEM,
    Opcode.SW: InstrFormat.MEM,
    Opcode.SB: InstrFormat.MEM,
    Opcode.BEQ: InstrFormat.B,
    Opcode.BNE: InstrFormat.B,
    Opcode.BLT: InstrFormat.B,
    Opcode.BGE: InstrFormat.B,
    Opcode.BLTZ: InstrFormat.BZ,
    Opcode.BGEZ: InstrFormat.BZ,
    Opcode.BEQZ: InstrFormat.BZ,
    Opcode.BNEZ: InstrFormat.BZ,
    Opcode.J: InstrFormat.J,
    Opcode.JAL: InstrFormat.JL,
    Opcode.JR: InstrFormat.JR,
    Opcode.JALR: InstrFormat.JLR,
    Opcode.HALT: InstrFormat.N,
    Opcode.NOP: InstrFormat.N,
    Opcode.PRINT: InstrFormat.JR,  # single register operand
}

OPCLASS_BY_OPCODE: dict[Opcode, OpClass] = {
    **{
        op: OpClass.IALU
        for op in (
            Opcode.ADD,
            Opcode.SUB,
            Opcode.AND,
            Opcode.OR,
            Opcode.XOR,
            Opcode.NOR,
            Opcode.SLL,
            Opcode.SRL,
            Opcode.SRA,
            Opcode.SLT,
            Opcode.SLTU,
            Opcode.MIN,
            Opcode.MAX,
            Opcode.ADDI,
            Opcode.ANDI,
            Opcode.ORI,
            Opcode.XORI,
            Opcode.SLLI,
            Opcode.SRLI,
            Opcode.SRAI,
            Opcode.SLTI,
            Opcode.LUI,
            Opcode.LI,
            Opcode.NOP,
        )
    },
    Opcode.MUL: OpClass.IMUL,
    Opcode.MULH: OpClass.IMUL,
    Opcode.DIV: OpClass.IDIV,
    Opcode.REM: OpClass.IDIV,
    Opcode.FADD: OpClass.FADD,
    Opcode.FSUB: OpClass.FADD,
    Opcode.FMUL: OpClass.FMUL,
    Opcode.FDIV: OpClass.FDIV,
    Opcode.LD: OpClass.LOAD,
    Opcode.LW: OpClass.LOAD,
    Opcode.LBU: OpClass.LOAD,
    Opcode.SD: OpClass.STORE,
    Opcode.SW: OpClass.STORE,
    Opcode.SB: OpClass.STORE,
    Opcode.BEQ: OpClass.BRANCH,
    Opcode.BNE: OpClass.BRANCH,
    Opcode.BLT: OpClass.BRANCH,
    Opcode.BGE: OpClass.BRANCH,
    Opcode.BLTZ: OpClass.BRANCH,
    Opcode.BGEZ: OpClass.BRANCH,
    Opcode.BEQZ: OpClass.BRANCH,
    Opcode.BNEZ: OpClass.BRANCH,
    Opcode.J: OpClass.JUMP,
    Opcode.JAL: OpClass.JUMP,
    Opcode.JR: OpClass.IJUMP,
    Opcode.JALR: OpClass.IJUMP,
    Opcode.HALT: OpClass.SYSCALL,
    Opcode.PRINT: OpClass.SYSCALL,
}

_REG_WRITERS: frozenset[Opcode] = frozenset(
    op
    for op, fmt in FORMAT_BY_OPCODE.items()
    if fmt in (InstrFormat.R, InstrFormat.I, InstrFormat.LI, InstrFormat.JL, InstrFormat.JLR)
) | frozenset((Opcode.LD, Opcode.LW, Opcode.LBU))
# NOP writes nothing even though its format family usually does.
_REG_WRITERS = _REG_WRITERS - frozenset((Opcode.NOP,))

_CODE_BY_OPCODE: dict[Opcode, int] = {op: i for i, op in enumerate(Opcode)}
OPCODE_BY_CODE: dict[int, Opcode] = {i: op for op, i in _CODE_BY_OPCODE.items()}

for _op in Opcode:
    _op.opclass = OPCLASS_BY_OPCODE[_op]
    _op.format = FORMAT_BY_OPCODE[_op]
    _op.code = _CODE_BY_OPCODE[_op]
    _op.writes_register = _op in _REG_WRITERS
del _op

#: Size, in bytes, of every encoded VSR instruction.  Fixed length keeps the
#: trivial PC dependence trivial (Section 1 of the paper).
INSTRUCTION_BYTES = 8

#: Functional-unit execution latency per operation class, in cycles.
#: Section 5.1: "All simple integer instructions require one cycle to
#: execute.  Complex integer operations and floating point operations,
#: depending on the type, require from 2 to 24 cycles."  The per-class
#: values sit inside that band and follow SimpleScalar's defaults where
#: the paper is silent.  LOAD covers address generation only — the memory
#: access latency comes from the cache model (or single-cycle store
#: forwarding); STORE is its address generation, the actual write
#: happening at retirement.  Lives beside the ISA tables (rather than in
#: ``repro.engine.funits``, which re-exports it) so trace records can
#: precompute their latency at construction without importing the engine.
CLASS_LATENCY: dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMUL: 3,
    OpClass.IDIV: 20,
    OpClass.FADD: 2,
    OpClass.FMUL: 4,
    OpClass.FDIV: 24,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.IJUMP: 1,
    OpClass.SYSCALL: 1,
}
