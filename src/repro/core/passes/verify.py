"""Final IR validation pass.

The synthesizer appends this pass automatically: it enforces the
invariants every downstream consumer (emitters, machine substrate)
relies on, so a mis-ordered pass pipeline fails loudly at synthesis
time rather than producing a silently wrong micro-benchmark.
"""

from __future__ import annotations

from repro.core.ir import Program
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError
from repro.isa.operand import OperandKind


class ValidateProgram(Pass):
    """Check IR well-formedness after all transformations."""

    def apply(self, program: Program, context: PassContext) -> None:
        if not program.body:
            raise PassError(f"{program.name}: empty program")
        size = len(program.body)
        for index, instruction in enumerate(program.body):
            definition = instruction.definition
            registers = instruction.registers
            for operand in definition.register_operands:
                if (
                    operand.kind is not OperandKind.SPR
                    and operand.name not in registers
                ):
                    raise PassError(
                        f"{_where(program, index)}: operand {operand.name} "
                        "unassigned"
                    )
            if (
                definition.is_memory
                and not definition.is_prefetch
                and not instruction.structural
                and instruction.address is None
            ):
                raise PassError(
                    f"{_where(program, index)}: memory instruction without "
                    "a planned address; run a MemoryModel pass"
                )
            distance = instruction.dep_distance
            if (distance is None) != (instruction.dep_operand is None):
                raise PassError(
                    f"{_where(program, index)}: dependency distance "
                    f"{distance} with dependency operand "
                    f"{instruction.dep_operand!r}; a pass changed one "
                    "without the other"
                )
            if distance is not None:
                if distance < 1 or distance >= size:
                    raise PassError(
                        f"{_where(program, index)}: dependency distance "
                        f"{distance} out of range"
                    )
                producer = program.body[(index - distance) % size]
                if producer.target_register() is None:
                    raise PassError(
                        f"{_where(program, index)}: producer at distance "
                        f"{distance} ({producer.mnemonic}) writes no register"
                    )


def _where(program: Program, index: int) -> str:
    return f"{program.name} slot {index} ({program.body[index].mnemonic})"
