"""Instruction-level tracer."""

import numpy as np
import pytest

from repro.sim.device import Device
from repro.sim.errors import MemoryViolation
from repro.sim.kernel import Kernel
from repro.sim.trace import Tracer

KERNEL = Kernel("traced", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    MOV R10, 5
    STG [R9], R10
    EXIT
""", num_params=1)


def run_traced(**tracer_kwargs):
    dev = Device("RTX2060")
    tracer = Tracer(**tracer_kwargs).attach(dev)
    out = dev.malloc(128)
    dev.launch(KERNEL, grid=1, block=32, params=[out])
    return tracer


class TestTracer:
    def test_records_every_issue(self):
        tracer = run_traced()
        assert len(tracer.records) == len(KERNEL.instructions)
        assert tracer.records[0].text == "S2R R0, SR_TID_X"
        assert tracer.records[-1].text == "EXIT"

    def test_cycles_monotonic(self):
        tracer = run_traced()
        cycles = [r.cycle for r in tracer.records]
        assert cycles == sorted(cycles)

    def test_opcode_filter(self):
        tracer = run_traced(opcodes=["STG"])
        assert len(tracer.records) == 1
        assert tracer.records[0].pc == 5

    def test_kernel_filter(self):
        tracer = run_traced(kernels=["other"])
        assert not tracer.records

    def test_core_filter(self):
        tracer = run_traced(cores=[0])
        assert len(tracer.records) == len(KERNEL.instructions)
        tracer = run_traced(cores=[7])
        assert not tracer.records  # single CTA lands on core 0

    def test_ring_buffer(self):
        tracer = run_traced(max_records=3)
        assert len(tracer.records) == 3
        assert tracer.dropped == len(KERNEL.instructions) - 3
        assert tracer.records[-1].text == "EXIT"

    def test_render(self):
        tracer = run_traced()
        text = tracer.render(limit=2)
        assert "EXIT" in text and "records" in text

    def test_operand_sets_name_exact_registers(self):
        tracer = run_traced()
        touching = [r for r in tracer.records
                    if 10 in r.src_regs or 10 in r.dst_regs]
        assert {r.text for r in touching} == {"MOV R10, 5",
                                              "STG [R9], R10"}
        # R1 is not R10
        assert not [r for r in tracer.records
                    if 1 in r.src_regs or 1 in r.dst_regs]

    def test_memory_base_is_a_source_operand(self):
        # the STG's address base register is an operand, not just text
        tracer = run_traced()
        stg = next(r for r in tracer.records if r.text.startswith("STG"))
        assert 9 in stg.src_regs

    def test_operand_sets_recorded(self):
        tracer = run_traced()
        iadd = next(r for r in tracer.records if r.text.startswith("IADD"))
        assert set(iadd.src_regs) == {8, 3}
        assert iadd.dst_regs == (9,)

    def test_ring_buffer_drop_accounting(self):
        tracer = run_traced(max_records=2)
        n = len(KERNEL.instructions)
        assert len(tracer.records) == 2
        assert tracer.dropped == n - 2
        # drop tally is visible in the rendered header
        assert f"({n - 2} dropped)" in tracer.render()

    def test_active_lane_counts(self):
        tracer = run_traced()
        assert all(r.active_lanes == 32 for r in tracer.records)

    def test_unlisten(self):
        dev = Device("RTX2060")
        tracer = Tracer().attach(dev)
        dev.gpu.unlisten(tracer)
        out = dev.malloc(128)
        dev.launch(KERNEL, grid=1, block=32, params=[out])
        assert not tracer.records

    def test_two_tracers_ride_one_run(self):
        dev = Device("RTX2060")
        every, stores = Tracer().attach(dev), Tracer(opcodes=["STG"]).attach(dev)
        dev.launch(KERNEL, grid=1, block=32, params=[dev.malloc(128)])
        assert len(every.records) == len(KERNEL.instructions)
        assert [r.text for r in stores.records] == ["STG [R9], R10"]


class TestTheIssueThatRaised:
    """A tracer hears an issue before it executes, so the instruction
    a crash investigation asks about is its newest record."""

    def test_a_faulting_store_is_the_last_record(self):
        dev = Device("RTX2060")
        tracer = Tracer().attach(dev)
        with pytest.raises(MemoryViolation):
            # nothing is allocated: the store's address is out of bounds
            dev.launch(KERNEL, grid=1, block=32, params=[1 << 40])
        last = tracer.records[-1]
        assert (last.pc, last.text) == (5, "STG [R9], R10")
        # heard, not counted: the statistics count completed issues
        assert len(tracer.records) == dev.gpu.stats.current.instructions + 1

    @pytest.mark.parametrize("block", [32, 96])
    def test_record_count_is_the_instruction_count(self, block):
        dev = Device("RTX2060")
        tracer = Tracer().attach(dev)
        dev.launch(KERNEL, grid=2, block=block, params=[dev.malloc(1024)])
        assert len(tracer.records) == dev.launches[0].instructions
