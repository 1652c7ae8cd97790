"""Operand model for ISA definitions.

Operands are described by a *kind* (which register file or immediate
class they come from), a *direction* (read, written or both) and, for
immediates and displacements, a width in bits.  The model mirrors the
information a PowerPC assembly programmer reads in the ISA manual's
instruction-format pages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property


class OperandKind(enum.Enum):
    """Register file or immediate class an operand belongs to."""

    GPR = "GPR"  # general purpose register (64-bit)
    FPR = "FPR"  # floating point register (64-bit)
    VR = "VR"  # VMX vector register (128-bit)
    VSR = "VSR"  # VSX vector-scalar register (128-bit)
    CR = "CR"  # condition register field
    SPR = "SPR"  # special purpose register (CTR, LR, XER)
    IMM = "IMM"  # immediate value
    DISP = "DISP"  # memory displacement immediate
    LABEL = "LABEL"  # branch target label

    @property
    def is_register(self) -> bool:
        """Whether the operand selects an architected register."""
        return self in _REGISTER_KINDS

    @property
    def register_width(self) -> int:
        """Width in bits of a register of this kind (0 for non-registers)."""
        return _REGISTER_WIDTHS.get(self, 0)


_REGISTER_KINDS = frozenset(
    {OperandKind.GPR, OperandKind.FPR, OperandKind.VR, OperandKind.VSR,
     OperandKind.CR, OperandKind.SPR}
)

_REGISTER_WIDTHS = {
    OperandKind.GPR: 64,
    OperandKind.FPR: 64,
    OperandKind.VR: 128,
    OperandKind.VSR: 128,
    OperandKind.CR: 4,
    OperandKind.SPR: 64,
}


class OperandDirection(enum.Enum):
    """Whether the instruction reads, writes, or reads-and-writes it."""

    READ = "R"
    WRITE = "W"
    READ_WRITE = "RW"

    @property
    def is_read(self) -> bool:
        return self in (OperandDirection.READ, OperandDirection.READ_WRITE)

    @property
    def is_write(self) -> bool:
        return self in (OperandDirection.WRITE, OperandDirection.READ_WRITE)


@dataclass(frozen=True)
class Operand:
    """One operand slot of an instruction definition.

    Attributes:
        name: The name used in the ISA manual format line (``RT``, ``RA``,
            ``SI``...).
        kind: The operand's register file or immediate class.
        direction: Dataflow direction relative to the instruction.
        width: Width in bits.  For registers this is the register width;
            for immediates and displacements, the encoded field width.
    """

    name: str
    kind: OperandKind
    direction: OperandDirection
    width: int

    # The predicates are computed once per operand: code generation asks
    # them for every operand of every slot, and each enum-set lookup
    # costs a Python-level ``Enum.__hash__`` call.

    @cached_property
    def is_register(self) -> bool:
        return self.kind.is_register

    @cached_property
    def is_immediate(self) -> bool:
        return self.kind is OperandKind.IMM or self.kind is OperandKind.DISP

    def __str__(self) -> str:
        spec = f"{self.name}:{self.kind.value}"
        if self.is_immediate:
            spec += str(self.width)
        return f"{spec}:{self.direction.value}"


def parse_operand(spec: str) -> Operand:
    """Parse a textual operand spec such as ``RT:GPR:W`` or ``SI:IMM16:R``.

    The grammar is ``NAME:KIND[WIDTH]:DIR`` where ``KIND`` is an
    :class:`OperandKind` name, the optional ``WIDTH`` suffix applies to
    immediate kinds, and ``DIR`` is ``R``, ``W`` or ``RW``.

    Raises:
        ValueError: If the spec does not follow the grammar.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"operand spec must have 3 fields, got {spec!r}")
    name, kind_spec, dir_spec = (part.strip() for part in parts)

    width = 0
    kind_name = kind_spec
    digits = ""
    while kind_name and kind_name[-1].isdigit():
        digits = kind_name[-1] + digits
        kind_name = kind_name[:-1]
    if digits:
        width = int(digits)

    try:
        kind = OperandKind[kind_name]
    except KeyError:
        raise ValueError(f"unknown operand kind in {spec!r}") from None
    try:
        direction = OperandDirection(dir_spec)
    except ValueError:
        raise ValueError(f"unknown operand direction in {spec!r}") from None

    if kind.is_register:
        if digits:
            raise ValueError(f"register operands take no width suffix: {spec!r}")
        width = kind.register_width
    elif width == 0:
        raise ValueError(f"immediate operand needs a width suffix: {spec!r}")

    return Operand(name=name, kind=kind, direction=direction, width=width)
