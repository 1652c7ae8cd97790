"""Assembly rendering of IR instructions.

One IR slot can render to several assembly lines: memory operations
whose planned offset exceeds the 16-bit displacement reach emit the
standard PowerPC medium-model address-forming prelude (``addis``/``li``
into the reserved scratch register).  The slight instruction-mix
perturbation this causes on real hardware is inherent to large-footprint
micro-benchmarks and documented in DESIGN.md; the simulated kernel uses
the planned addresses directly.
"""

from __future__ import annotations

from repro.core.ir import IRInstruction, Program
from repro.core.registers import (
    ADDRESS_SCRATCH_REGISTER,
    MEMORY_BASE_REGISTER,
    format_register,
)
from repro.isa.operand import OperandKind

_D_FORM_MIN, _D_FORM_MAX = -32768, 32767


def format_instruction(
    instruction: IRInstruction, program: Program
) -> list[str]:
    """Render one IR slot as assembly lines."""
    definition = instruction.definition
    if definition.is_nop:
        return ["nop"]
    if definition.is_branch:
        return [_format_branch(instruction, program)]
    if definition.is_memory:
        return _format_memory(instruction, program)
    return [_format_plain(instruction)]


def _operand_text(instruction: IRInstruction, name: str, kind: OperandKind) -> str:
    if kind in (OperandKind.IMM, OperandKind.DISP):
        return str(instruction.immediates.get(name, 0))
    return format_register(kind, instruction.registers.get(name, 0))


def _format_plain(instruction: IRInstruction) -> str:
    parts = []
    for operand in instruction.definition.operands:
        if operand.kind is OperandKind.SPR:
            continue  # SPRs are implicit in the mnemonic (mtctr etc.)
        parts.append(_operand_text(instruction, operand.name, operand.kind))
    if not parts:
        return instruction.mnemonic
    return f"{instruction.mnemonic} {', '.join(parts)}"


def _format_branch(instruction: IRInstruction, program: Program) -> str:
    mnemonic = instruction.mnemonic
    if instruction.structural:
        return f"{mnemonic} {program.loop_label}"
    if mnemonic in ("b", "bl"):
        return f"{mnemonic} {program.loop_label}"
    if mnemonic in ("blr", "bctr"):
        return mnemonic
    if mnemonic == "bdnz":
        return f"bdnz {program.loop_label}"
    # Planted conditional branches fall through: branch-never encoding.
    return "bc 4, 2, . + 4"


def _format_memory(instruction: IRInstruction, program: Program) -> list[str]:
    definition = instruction.definition
    offset = 0
    if instruction.address is not None:
        offset = instruction.address - program.memory_base

    # Dependency-carried addressing: the producer's value is the
    # address input, so no forming prelude is emitted.  A chased D-form
    # base already holds the whole address: displacement 0.
    if instruction.dep_operand == "RA" and not definition.is_indexed:
        return _format_dform(instruction, 0)
    if instruction.dep_operand in ("RA", "RB"):
        return [_format_plain(instruction)]

    if definition.is_prefetch:
        base = format_register(OperandKind.GPR, MEMORY_BASE_REGISTER)
        index = format_register(
            OperandKind.GPR,
            instruction.registers.get("RB", ADDRESS_SCRATCH_REGISTER),
        )
        return [f"{definition.mnemonic} {base}, {index}"]

    if definition.is_indexed:
        return _format_xform(instruction, offset)
    return _format_dform(instruction, offset)


def _data_operands(instruction: IRInstruction) -> list[str]:
    """Non-address operands, rendered, in assembly order."""
    address_names = {"RA", "RB", "D", "DS", "DQ"}
    rendered = []
    for operand in instruction.definition.operands:
        if operand.name in address_names or operand.kind is OperandKind.SPR:
            continue
        rendered.append(
            _operand_text(instruction, operand.name, operand.kind)
        )
    return rendered


def _format_dform(instruction: IRInstruction, offset: int) -> list[str]:
    base_number = instruction.registers.get("RA", MEMORY_BASE_REGISTER)
    base = format_register(OperandKind.GPR, base_number)
    data = ", ".join(_data_operands(instruction))
    if _D_FORM_MIN <= offset <= _D_FORM_MAX:
        return [f"{instruction.mnemonic} {data}, {offset}({base})"]
    high = (offset + 0x8000) >> 16
    low = offset - (high << 16)
    scratch = format_register(OperandKind.GPR, ADDRESS_SCRATCH_REGISTER)
    return [
        f"addis {scratch}, {base}, {high}",
        f"{instruction.mnemonic} {data}, {low}({scratch})",
    ]


def _format_xform(instruction: IRInstruction, offset: int) -> list[str]:
    base_number = instruction.registers.get("RA", MEMORY_BASE_REGISTER)
    base = format_register(OperandKind.GPR, base_number)
    scratch = format_register(OperandKind.GPR, ADDRESS_SCRATCH_REGISTER)
    data = ", ".join(_data_operands(instruction))
    operands = f"{data}, {base}, {scratch}" if data else f"{base}, {scratch}"
    if _D_FORM_MIN <= offset <= _D_FORM_MAX:
        prelude = [f"li {scratch}, {offset}"]
    else:
        high = (offset >> 16) & 0xFFFF
        low = offset & 0xFFFF
        prelude = [
            f"lis {scratch}, {high}",
            f"ori {scratch}, {scratch}, {low}",
        ]
    return prelude + [f"{instruction.mnemonic} {operands}"]
