"""Trace capture: run the functional simulator and record every instruction."""

from __future__ import annotations

from typing import Iterator

from repro.asm.assembler import Program, assemble
from repro.func.machine import Machine
from repro.trace.record import TraceRecord


def capture_trace(
    machine: Machine,
    max_instructions: int | None = None,
) -> list[TraceRecord]:
    """Run ``machine`` to completion (or the instruction budget) and return
    the dynamic trace.

    The trace always ends at either program HALT or exactly
    ``max_instructions`` records — truncation is how the experiment harness
    bounds simulation cost on the pure-Python cycle-level engine.
    """
    return list(iter_trace(machine, max_instructions))


def iter_trace(
    machine: Machine,
    max_instructions: int | None = None,
) -> Iterator[TraceRecord]:
    """Yield trace records as the machine executes."""
    seq = 0
    step = machine.step
    while not machine.halted:
        if max_instructions is not None and seq >= max_instructions:
            return
        result = step()
        dest_reg = result.dest_reg
        if dest_reg == 0:
            dest_reg = None
        yield TraceRecord(
            seq=seq,
            pc=result.pc,
            opcode=result.instr.opcode,
            src_regs=result.instr.src_regs,
            dest_reg=dest_reg,
            dest_value=None if dest_reg is None else result.dest_value,
            mem_addr=result.mem_addr,
            mem_size=result.mem_size,
            branch_taken=result.branch_taken,
            next_pc=result.next_pc,
        )
        seq += 1


def capture_trace_chunked(
    machine: Machine,
    path,
    max_instructions: int | None = None,
    chunk_records: int | None = None,
):
    """Run ``machine`` and stream its trace to ``path`` as a VSRT v4
    chunked file; returns the reopened :class:`ChunkedTrace`.

    This is the bounded-memory capture path: records go straight from
    the functional simulator into the chunk writer, so peak memory is
    O(chunk) no matter how long the run is (the in-memory
    :func:`capture_trace` accumulates the whole record list).
    """
    from repro.trace.binary import (
        DEFAULT_CHUNK_RECORDS,
        ChunkWriter,
        read_trace_chunked,
    )

    with ChunkWriter(path, chunk_records or DEFAULT_CHUNK_RECORDS) as writer:
        writer.extend(iter_trace(machine, max_instructions))
    return read_trace_chunked(path)


def trace_program(
    source: str,
    max_instructions: int | None = None,
) -> tuple[Program, list[TraceRecord]]:
    """Assemble ``source``, execute it, and return (program, trace)."""
    program = assemble(source)
    machine = Machine(program)
    trace = capture_trace(machine, max_instructions)
    return program, trace
