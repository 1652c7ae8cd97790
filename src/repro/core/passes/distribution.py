"""Instruction-distribution pass.

Fills the skeleton's slots with instructions drawn from a user-selected
pool, either as an exact proportional mix (shuffled multiset, the
default -- distributions are then exact, not just expected) or by
independent weighted draws.  Register operands receive round-robin
default assignments; memory operands are left for the memory pass.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.ir import IRInstruction, Program
from repro.core.passes.base import Pass, PassContext
from repro.core.registers import MEMORY_BASE_REGISTER
from repro.errors import PassError
from repro.isa.instruction import InstructionDef
from repro.isa.operand import OperandKind


class InstructionDistribution(Pass):
    """Fill workload slots with a mix of instructions.

    Args:
        pool: Instruction definitions (or mnemonics, resolved against
            the target ISA) to draw from.
        weights: Optional relative weight per pool entry, parallel to
            ``pool``; uniform when omitted.
        exact: When true (default), realize the weights exactly as a
            shuffled multiset; when false, draw each slot independently.
    """

    def __init__(
        self,
        pool: Sequence[InstructionDef | str],
        weights: Sequence[float] | None = None,
        exact: bool = True,
    ) -> None:
        if not pool:
            raise ValueError("instruction pool must not be empty")
        if weights is not None and len(weights) != len(pool):
            raise ValueError("weights must parallel the pool")
        if weights is not None and (min(weights) < 0 or sum(weights) <= 0):
            raise ValueError("weights must be non-negative and sum > 0")
        self.pool = list(pool)
        self.weights = list(weights) if weights is not None else None
        self.exact = exact

    @property
    def name(self) -> str:
        return f"InstructionDistribution({len(self.pool)} instructions)"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(
                f"{program.name}: no slots to fill; run a skeleton pass first"
            )
        definitions = [
            entry if isinstance(entry, InstructionDef)
            else context.arch.isa.instruction(entry)
            for entry in self.pool
        ]
        if self.exact:
            choices = self._exact_mix(definitions, len(slots), context)
        else:
            weights = self.weights or [1.0] * len(definitions)
            choices = context.rng.choices(definitions, weights, k=len(slots))

        # Keyed by identity: a caller's pool may hold its own definition
        # under a mnemonic the ISA also defines.
        plans = {
            id(definition): self._register_plan(definition)
            for definition in definitions
        }
        take = context.pools.take
        body = program.body
        for slot, definition in zip(slots, choices):
            body[slot] = IRInstruction(
                definition=definition,
                registers={
                    name: MEMORY_BASE_REGISTER if kind is None else take(kind)
                    for name, kind in plans[id(definition)]
                },
            )

    def _exact_mix(
        self,
        definitions: list[InstructionDef],
        count: int,
        context: PassContext,
    ) -> list[InstructionDef]:
        weights = self.weights or [1.0] * len(definitions)
        total = sum(weights)
        raw = [weight / total * count for weight in weights]
        counts = [int(value) for value in raw]
        remainder = count - sum(counts)
        order = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for index in order[:remainder]:
            counts[index] += 1
        mix: list[InstructionDef] = []
        for definition, amount in zip(definitions, counts):
            mix.extend([definition] * amount)
        context.rng.shuffle(mix)
        return mix

    @staticmethod
    def _register_plan(
        definition: InstructionDef,
    ) -> tuple[tuple[str, OperandKind | None], ...]:
        """Default register assignment of ``definition``, per operand.

        Each register operand maps to the kind it is allocated from in
        round-robin order, or to ``None`` for a memory base operand,
        which points at the benchmark's memory region (the memory pass
        plans the rest of the address).
        """
        has_base = (
            definition.is_memory and "RA" in definition.memory_operand_names
        )
        return tuple(
            (operand.name,
             None if has_base and operand.name == "RA" else operand.kind)
            for operand in definition.register_operands
        )
