"""Tests for InstructionDef semantics."""

import pytest

from repro.isa.instruction import InstructionDef, InstructionType
from repro.isa.operand import OperandKind, parse_operand


def make(mnemonic="add", itype=InstructionType.INTEGER, width=64,
         operands=("RT:GPR:W", "RA:GPR:R", "RB:GPR:R"), flags=()):
    return InstructionDef(
        mnemonic=mnemonic,
        itype=itype,
        width=width,
        operands=tuple(parse_operand(spec) for spec in operands),
        flags=frozenset(flags),
    )


class TestTypePredicates:
    def test_integer(self):
        ins = make()
        assert ins.is_integer
        assert not ins.is_memory
        assert not ins.is_branch

    def test_load_is_memory(self):
        ins = make("lwz", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:R", "D:DISP16:R"))
        assert ins.is_load
        assert ins.is_memory
        assert not ins.is_store

    def test_store_is_memory(self):
        ins = make("stw", InstructionType.STORE,
                   operands=("RS:GPR:R", "RA:GPR:R", "D:DISP16:R"))
        assert ins.is_store
        assert ins.is_memory

    def test_vector(self):
        ins = make("xvadddp", InstructionType.VECTOR, 128,
                   ("XT:VSR:W", "XA:VSR:R", "XB:VSR:R"))
        assert ins.is_vector


class TestFlags:
    def test_update_form(self):
        ins = make("ldu", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:RW", "D:DISP16:R"),
                   flags=("update",))
        assert ins.is_update_form

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="unknown flags"):
            make(flags=("sparkly",))

    def test_prefetch(self):
        ins = make("dcbt", InstructionType.LOAD, 0,
                   ("RA:GPR:R", "RB:GPR:R"), flags=("indexed", "prefetch"))
        assert ins.is_prefetch
        assert ins.is_indexed


class TestOperandViews:
    def test_register_reads_and_writes(self):
        ins = make()
        assert [op.name for op in ins.register_writes] == ["RT"]
        assert [op.name for op in ins.register_reads] == ["RA", "RB"]

    def test_read_write_operand_in_both_views(self):
        ins = make("xvmaddadp", InstructionType.VECTOR, 128,
                   ("XT:VSR:RW", "XA:VSR:R", "XB:VSR:R"))
        assert "XT" in [op.name for op in ins.register_writes]
        assert "XT" in [op.name for op in ins.register_reads]

    def test_immediates(self):
        ins = make("addi", operands=("RT:GPR:W", "RA:GPR:R", "SI:IMM16:R"))
        assert ins.has_immediate
        assert [op.name for op in ins.immediates] == ["SI"]

    def test_memory_operands_dform(self):
        ins = make("lwz", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:R", "D:DISP16:R"))
        assert [op.name for op in ins.memory_operands] == ["RA", "D"]

    def test_memory_operands_xform(self):
        ins = make("lwzx", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:R", "RB:GPR:R"),
                   flags=("indexed",))
        assert [op.name for op in ins.memory_operands] == ["RA", "RB"]

    def test_non_memory_has_no_memory_operands(self):
        assert make().memory_operands == ()

    def test_target_kind(self):
        assert make().target_kind is OperandKind.GPR
        ins = make("stw", InstructionType.STORE,
                   operands=("RS:GPR:R", "RA:GPR:R", "D:DISP16:R"))
        assert ins.target_kind is None

    def test_register_operands_skip_immediates(self):
        ins = make("mtctr", InstructionType.CR,
                   operands=("CTR:SPR:W", "RS:GPR:R"))
        assert [op.name for op in ins.register_operands] == ["CTR", "RS"]
        ins = make("addi", operands=("RT:GPR:W", "RA:GPR:R", "SI:IMM16:R"))
        assert [op.name for op in ins.register_operands] == ["RT", "RA"]

    def test_target_is_first_written_register(self):
        ins = make("lwzu", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:RW", "D:DISP16:R"),
                   flags=("update",))
        assert ins.target.name == "RT"
        assert [op.name for op in ins.register_writes] == ["RT", "RA"]
        assert make("nop", InstructionType.NOP, 0, ()).target is None

    def test_memory_operand_names(self):
        ins = make("lwzx", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:R", "RB:GPR:R"),
                   flags=("indexed",))
        assert ins.memory_operand_names == frozenset({"RA", "RB"})
        assert make().memory_operand_names == frozenset()

    def test_views_are_computed_once(self):
        ins = make()
        assert ins.register_reads is ins.register_reads
        assert ins.memory_operands is ins.memory_operands
        assert ins.target is ins.register_writes[0]

    def test_cached_views_leave_identity_alone(self):
        first, second = make(), make()
        assert first.target is not None  # fills one side's view caches
        assert first == second
        assert hash(first) == hash(second)
        assert repr(first) == repr(second)

    def test_format_line(self):
        assert make().format_line() == "add RT, RA, RB"
