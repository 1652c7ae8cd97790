"""Tests for the round-robin register allocator."""

import pytest

from repro.core.registers import (
    ADDRESS_SCRATCH_REGISTER,
    MEMORY_BASE_REGISTER,
    RegisterPools,
)
from repro.isa.operand import OperandKind

GPRS = (
    [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    + list(range(14, 27))
    + [29, 30, 31]
)


def takes(pools, kind, count):
    return [pools.take(kind) for _ in range(count)]


class TestRoundRobin:
    def test_gpr_skips_reserved(self):
        pools = RegisterPools()
        sequence = takes(pools, OperandKind.GPR, 2 * len(GPRS) + 1)
        assert sequence == GPRS + GPRS + [3]
        assert not {0, 1, 2, 13, ADDRESS_SCRATCH_REGISTER,
                    MEMORY_BASE_REGISTER} & set(sequence)

    @pytest.mark.parametrize(
        "kind, size",
        [
            (OperandKind.FPR, 32),
            (OperandKind.VR, 32),
            (OperandKind.VSR, 64),
            (OperandKind.CR, 8),
            (OperandKind.SPR, 1),
        ],
    )
    def test_full_file_wraps(self, kind, size):
        pools = RegisterPools()
        assert takes(pools, kind, 2 * size + 2) == (
            list(range(size)) * 2 + [0, 1 % size]
        )

    def test_cursors_are_per_kind(self):
        pools = RegisterPools()
        sequence = [
            pools.take(OperandKind.GPR),
            pools.take(OperandKind.FPR),
            pools.take(OperandKind.GPR),
            pools.take(OperandKind.CR),
            pools.take(OperandKind.FPR),
            pools.take(OperandKind.SPR),
            pools.take(OperandKind.GPR),
        ]
        assert sequence == [3, 0, 4, 0, 1, 0, 5]

    def test_reset_restarts_every_kind(self):
        pools = RegisterPools()
        takes(pools, OperandKind.GPR, 5)
        takes(pools, OperandKind.VSR, 7)
        pools.reset()
        assert pools.take(OperandKind.GPR) == 3
        assert pools.take(OperandKind.VSR) == 0

    def test_allocators_are_independent(self):
        first, second = RegisterPools(), RegisterPools()
        takes(first, OperandKind.GPR, 4)
        assert second.take(OperandKind.GPR) == 3


class TestAllocatable:
    def test_values(self):
        pools = RegisterPools()
        assert pools.allocatable(OperandKind.GPR) == GPRS
        assert pools.allocatable(OperandKind.FPR) == list(range(32))
        assert pools.allocatable(OperandKind.VR) == list(range(32))
        assert pools.allocatable(OperandKind.VSR) == list(range(64))
        assert pools.allocatable(OperandKind.CR) == list(range(8))
        assert pools.allocatable(OperandKind.SPR) == [0]

    def test_returned_list_is_a_copy(self):
        pools = RegisterPools()
        pools.allocatable(OperandKind.GPR).clear()
        assert pools.allocatable(OperandKind.GPR) == GPRS
        assert pools.take(OperandKind.GPR) == 3

    @pytest.mark.parametrize(
        "kind", [OperandKind.IMM, OperandKind.DISP, OperandKind.LABEL]
    )
    def test_non_register_kinds_rejected(self, kind):
        pools = RegisterPools()
        with pytest.raises(ValueError, match="no register pool"):
            pools.allocatable(kind)
        with pytest.raises(ValueError, match="no register pool"):
            pools.take(kind)
