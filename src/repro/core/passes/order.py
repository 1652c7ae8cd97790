"""Sequence-order passes.

Section 6 of the paper reports that stressmarks with the *same*
instruction distribution and activity rate but different instruction
order differ by up to 17 % in power.  These passes rearrange the body
without changing its multiset of instructions, which is exactly the
dimension the max-power search explores.

Order passes clear dependency links (a reorder invalidates them),
restoring any pointer-chased memory base register; run any
:class:`~repro.core.passes.ilp.DependencyDistance` pass *after* ordering.
"""

from __future__ import annotations

from repro.core.ir import Program
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError

_MODES = ("shuffle", "interleave", "blocked", "rotate")


class SequenceOrder(Pass):
    """Reorder the workload slots of the body.

    Modes:
        * ``shuffle`` -- random permutation;
        * ``interleave`` -- round-robin across functional-unit groups
          (maximizes unit alternation between neighbours);
        * ``blocked`` -- group instructions by functional unit
          (minimizes alternation);
        * ``rotate`` -- rotate the sequence by ``amount`` slots.
    """

    def __init__(self, mode: str = "shuffle", amount: int = 0) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.amount = amount

    @property
    def name(self) -> str:
        if self.mode == "rotate":
            return f"SequenceOrder(rotate {self.amount})"
        return f"SequenceOrder({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(f"{program.name}: nothing to reorder")
        instructions = [program.body[index] for index in slots]

        if self.mode == "shuffle":
            context.rng.shuffle(instructions)
        elif self.mode == "rotate":
            shift = self.amount % len(instructions)
            instructions = instructions[shift:] + instructions[:shift]
        else:
            groups: dict[str, list] = {}
            for instruction in instructions:
                props = context.arch.props(instruction.mnemonic)
                unit = props.usages[0].units[0] if props.usages else "-"
                groups.setdefault(unit, []).append(instruction)
            if self.mode == "blocked":
                instructions = [
                    instruction
                    for unit in sorted(groups)
                    for instruction in groups[unit]
                ]
            else:  # interleave
                instructions = []
                queues = [groups[unit] for unit in sorted(groups)]
                cursors = [0] * len(queues)
                while any(c < len(q) for c, q in zip(cursors, queues)):
                    for position, queue in enumerate(queues):
                        if cursors[position] < len(queue):
                            instructions.append(queue[cursors[position]])
                            cursors[position] += 1

        for index, instruction in zip(slots, instructions):
            program.body[index] = instruction
            instruction.clear_dependency()
