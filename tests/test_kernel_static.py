"""Static sanity analysis of every workload kernel.

Catches kernel-authoring mistakes without running anything: parameter
reads beyond the declared parameter count, shared/local accesses in
kernels that declare none, implausible register pressure, unreachable
code after unconditional control transfers.
"""

import pytest

from repro.bench import BENCHMARK_CLASSES
from repro.isa.opcodes import OpClass
from repro.isa.operands import ConstRef

ALL_KERNELS = [(cls.abbrev, kernel)
               for cls in BENCHMARK_CLASSES
               for kernel in cls().kernels()]
IDS = [f"{abbrev}:{kernel.name}" for abbrev, kernel in ALL_KERNELS]


@pytest.mark.parametrize("abbrev,kernel", ALL_KERNELS, ids=IDS)
class TestKernelStatic:
    def test_constant_reads_within_params(self, abbrev, kernel):
        for inst in kernel.instructions:
            for op in inst.srcs:
                if isinstance(op, ConstRef):
                    assert op.offset < 4 * kernel.num_params, \
                        f"{kernel.name} pc{inst.pc}: c[{op.offset:#x}] " \
                        f"beyond {kernel.num_params} params"

    def test_shared_usage_declared(self, abbrev, kernel):
        uses_shared = any(inst.spec.space == "shared"
                          for inst in kernel.instructions)
        if uses_shared:
            assert kernel.smem_bytes > 0, kernel.name

    def test_local_usage_declared(self, abbrev, kernel):
        uses_local = any(inst.spec.space == "local"
                         for inst in kernel.instructions)
        if uses_local:
            assert kernel.local_bytes > 0, kernel.name

    def test_register_pressure_plausible(self, abbrev, kernel):
        assert 1 <= kernel.num_regs <= 64, \
            f"{kernel.name} uses {kernel.num_regs} registers"

    def test_barrier_usage_implies_shared_or_sync(self, abbrev, kernel):
        # every kernel with a barrier also touches shared memory (the
        # only cross-thread channel barriers order in these workloads)
        has_barrier = any(inst.spec.klass is OpClass.BARRIER
                          for inst in kernel.instructions)
        uses_shared = any(inst.spec.space == "shared"
                          for inst in kernel.instructions)
        if has_barrier:
            assert uses_shared, kernel.name

    def test_reconvergence_annotated(self, abbrev, kernel):
        for inst in kernel.instructions:
            if inst.is_branch and inst.may_diverge:
                assert inst.reconv_pc >= 0, \
                    f"{kernel.name} pc{inst.pc} missing reconvergence"

    def test_all_code_reachable(self, abbrev, kernel):
        instructions = kernel.instructions
        reachable = set()
        work = [0]
        while work:
            pc = work.pop()
            if pc in reachable or pc >= len(instructions):
                continue
            reachable.add(pc)
            inst = instructions[pc]
            if inst.is_branch:
                work.append(inst.target_pc)
                if inst.may_diverge:
                    work.append(pc + 1)
            elif inst.is_exit:
                if inst.guard is not None:
                    work.append(pc + 1)
            else:
                work.append(pc + 1)
        unreachable = set(range(len(instructions))) - reachable
        # BFS's loop tail EXIT is a deliberate assembler-contract filler
        allowed = {pc for pc in unreachable
                   if instructions[pc].is_exit}
        assert unreachable == allowed, \
            f"{kernel.name}: dead code at {sorted(unreachable - allowed)}"

    def test_smem_footprint_fits_an_sm(self, abbrev, kernel):
        assert kernel.smem_bytes <= 48 * 1024, kernel.name
