"""Architected register pools and round-robin allocation.

Code generation needs concrete register numbers for emission and for
expressing dependencies (a consumer reads the producer's target
register).  The allocator reserves the ABI registers a real POWER
toolchain would (r0 quirk, r1 stack, r2 TOC, r13 thread pointer) plus
the registers the generated skeleton itself uses (loop counter and
memory base).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import cycle

from repro.isa.operand import OperandKind

#: Register reserved as the memory-region base pointer in generated code.
MEMORY_BASE_REGISTER = 28
#: Register reserved as scratch for large-displacement address forming.
ADDRESS_SCRATCH_REGISTER = 27

_RESERVED_GPRS = frozenset({0, 1, 2, 13, ADDRESS_SCRATCH_REGISTER, MEMORY_BASE_REGISTER})

#: Register numbers available to generated code, per kind name.  Keyed
#: by ``OperandKind._name_`` (a plain ``str``): ``take`` runs for every
#: register operand of every slot, and hashing the enum member itself is
#: a Python-level ``Enum.__hash__`` call.
_POOLS: dict[str, tuple[int, ...]] = {
    OperandKind.GPR.name: tuple(
        n for n in range(32) if n not in _RESERVED_GPRS
    ),
    OperandKind.FPR.name: tuple(range(32)),
    OperandKind.VR.name: tuple(range(32)),
    OperandKind.VSR.name: tuple(range(64)),
    OperandKind.CR.name: tuple(range(8)),
    OperandKind.SPR.name: (0,),
}


def _pool(kind: OperandKind) -> tuple[int, ...]:
    try:
        return _POOLS[kind._name_]
    except KeyError:
        raise ValueError(f"no register pool for {kind}") from None


@dataclass
class RegisterPools:
    """Round-robin register allocator over the architected files.

    One cursor per kind name; the pools themselves are module constants.
    """

    _cursors: dict[str, Iterator[int]] = field(default_factory=dict)

    def allocatable(self, kind: OperandKind) -> list[int]:
        """Register numbers available to generated code for ``kind``."""
        return list(_pool(kind))

    def take(self, kind: OperandKind) -> int:
        """Next register in round-robin order for ``kind``."""
        cursor = self._cursors.get(kind._name_)
        if cursor is None:
            cursor = self._cursors[kind._name_] = cycle(_pool(kind))
        return next(cursor)

    def reset(self) -> None:
        self._cursors.clear()


def register_prefix(kind: OperandKind) -> str:
    """Assembly prefix for a register kind (``r3``, ``f5``, ``vs12``...)."""
    prefixes = {
        OperandKind.GPR: "r",
        OperandKind.FPR: "f",
        OperandKind.VR: "v",
        OperandKind.VSR: "vs",
        OperandKind.CR: "cr",
        OperandKind.SPR: "",
    }
    return prefixes[kind]


def format_register(kind: OperandKind, number: int) -> str:
    """Render a register operand for assembly output."""
    if kind is OperandKind.SPR:
        return ""  # SPR operands are implicit in PowerPC mnemonics
    return f"{register_prefix(kind)}{number}"
