"""The memory pipeline: caches, coalescing, atomics, violations."""

import numpy as np
import pytest

from repro.sim.device import Device
from repro.sim.errors import MemoryViolation
from repro.sim.kernel import Kernel

PROLOGUE = """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
"""


def launch(dev, source, params, n=32, smem=0, local=0, grid=1):
    kernel = Kernel("mem_test", source, num_params=len(params),
                    smem_bytes=smem, local_bytes=local)
    return dev.launch(kernel, grid=grid, block=n, params=params)


class TestGlobalLoadsStores:
    def test_load_store_roundtrip(self):
        dev = Device("RTX2060")
        src = np.arange(32, dtype=np.uint32) * 3
        p_in = dev.to_device(src)
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    IADD R11, R10, R3
    LDG R12, [R11]
    IADD R12, R12, 1
    STG [R9], R12
    EXIT
""", [p_out, p_in])
        assert np.array_equal(dev.read_array(p_out, (32,), np.uint32),
                              src + 1)

    def test_coalesced_warp_load_is_one_l1_access(self):
        dev = Device("RTX2060")
        src = np.arange(32, dtype=np.uint32)
        p_in = dev.to_device(src)
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    IADD R11, R10, R3
    LDG R12, [R11]
    STG [R9], R12
    EXIT
""", [p_out, p_in])
        l1 = dev.gpu.cores[0].l1d
        assert l1.stats.accesses == 1  # 32 lanes, one 128-byte segment

    def test_strided_load_splits_segments(self):
        dev = Device("RTX2060")
        src = np.zeros(32 * 32, dtype=np.uint32)
        p_in = dev.to_device(src)
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    SHL R12, R0, 7           ; tid * 128 bytes: one line per lane
    IADD R11, R10, R12
    LDG R12, [R11]
    STG [R9], R12
    EXIT
""", [p_out, p_in])
        assert dev.gpu.cores[0].l1d.stats.accesses == 32

    def test_l1_hit_after_first_touch(self):
        dev = Device("RTX2060")
        src = np.arange(32, dtype=np.uint32)
        p_in = dev.to_device(src)
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    IADD R11, R10, R3
    LDG R12, [R11]
    LDG R13, [R11]
    IADD R12, R12, R13
    STG [R9], R12
    EXIT
""", [p_out, p_in])
        l1 = dev.gpu.cores[0].l1d
        assert l1.stats.hits == 1 and l1.stats.misses == 1

    def test_store_write_evicts_l1(self):
        # store to a line resident in L1 invalidates it (write-evict)
        dev = Device("RTX2060")
        src = np.arange(32, dtype=np.uint32)
        p_in = dev.to_device(src)
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    IADD R11, R10, R3
    LDG R12, [R11]           ; line into L1
    STG [R11], R12           ; write-evict
    LDG R13, [R11]           ; must miss again
    STG [R9], R13
    EXIT
""", [p_out, p_in])
        assert dev.gpu.cores[0].l1d.stats.misses == 2

    def test_stores_reach_l2_and_host_sees_them(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    MOV R10, 77
    STG [R9], R10
    EXIT
""", [p_out])
        assert (dev.read_array(p_out, (32,), np.uint32) == 77).all()
        # the data sits dirty in L2, not yet in DRAM
        assert dev.gpu.l2.stats.accesses > 0

    def test_titan_global_bypasses_l1(self):
        dev = Device("GTXTitan")
        src = np.arange(32, dtype=np.uint32)
        p_in = dev.to_device(src)
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    IADD R11, R10, R3
    LDG R12, [R11]
    STG [R9], R12
    EXIT
""", [p_out, p_in])
        assert dev.gpu.cores[0].l1d is None
        assert dev.gpu.l2.stats.accesses > 0


class TestTexturePath:
    def test_tld_goes_through_l1t(self):
        dev = Device("RTX2060")
        src = np.arange(32, dtype=np.uint32)
        p_in = dev.to_device(src)
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    IADD R11, R10, R3
    TLD R12, [R11]
    STG [R9], R12
    EXIT
""", [p_out, p_in])
        core = dev.gpu.cores[0]
        assert core.l1t.stats.accesses == 1
        assert core.l1d.stats.accesses == 0
        assert np.array_equal(dev.read_array(p_out, (32,), np.uint32), src)


class TestAtomics:
    def test_atom_add_returns_old(self):
        dev = Device("RTX2060")
        p_ctr = dev.to_device(np.zeros(1, dtype=np.uint32))
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    MOV R11, 1
    ATOM.ADD R12, [R10], R11
    STG [R9], R12
    EXIT
""", [p_out, p_ctr])
        old = dev.read_array(p_out, (32,), np.uint32)
        assert sorted(old) == list(range(32))  # each lane a unique ticket
        assert dev.read_array(p_ctr, (1,), np.uint32)[0] == 32

    def test_red_add_no_return(self):
        dev = Device("RTX2060")
        p_ctr = dev.to_device(np.zeros(1, dtype=np.uint32))
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    MOV R11, 2
    RED.ADD [R10], R11
    EXIT
""", [p_ctr, p_ctr])
        assert dev.read_array(p_ctr, (1,), np.uint32)[0] == 64

    def test_atom_max(self):
        dev = Device("RTX2060")
        p_best = dev.to_device(np.zeros(1, dtype=np.uint32))
        launch(dev, PROLOGUE + """
    LDC R10, c[0x4]
    ATOM.MAX R12, [R10], R0
    EXIT
""", [p_best, p_best])
        assert dev.read_array(p_best, (1,), np.uint32)[0] == 31


class TestViolations:
    def test_wild_global_load_crashes(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        with pytest.raises(MemoryViolation):
            launch(dev, PROLOGUE + """
    MOV R11, 0x700000
    LDG R12, [R11]
    STG [R9], R12
    EXIT
""", [p_out])

    def test_misaligned_global_crashes(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        with pytest.raises(MemoryViolation, match="misaligned"):
            launch(dev, PROLOGUE + """
    IADD R11, R9, 2
    LDG R12, [R11]
    EXIT
""", [p_out])

    def test_shared_beyond_sm_window_crashes(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        with pytest.raises(MemoryViolation):
            launch(dev, PROLOGUE + """
    MOV R11, 0x100000
    LDS R12, [R11]
    EXIT
""", [p_out], smem=256)

    def test_shared_within_window_aliases_silently(self):
        # beyond the CTA's allocation but inside the SM window: silent
        # corruption (wraps into the CTA's own array), like hardware
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    MOV R10, 123
    STS [RZ], R10
    LDS R12, [0x400]         ; 1 KB past a 256-byte allocation
    STG [R9], R12
    EXIT
""", [p_out], smem=256)
        assert (dev.read_array(p_out, (32,), np.uint32) == 123).all()

    def test_local_out_of_bounds_crashes(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        with pytest.raises(MemoryViolation):
            launch(dev, PROLOGUE + """
    MOV R11, 0x40
    LDL R12, [R11]
    EXIT
""", [p_out], local=16)


class TestLocalMemory:
    def test_local_is_thread_private(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    STL [RZ], R0             ; each lane stores its tid at local[0]
    LDL R12, [RZ]
    STG [R9], R12
    EXIT
""", [p_out], local=16)
        assert np.array_equal(dev.read_array(p_out, (32,), np.uint32),
                              np.arange(32, dtype=np.uint32))


class TestOneGatherScatterPerInstruction:
    """Shared and local accesses are one gather/scatter over the word
    buffer; what a per-lane loop in lane order would do still holds."""

    def test_lanes_on_one_shared_word_last_lane_wins(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    STS [0x10], R0           ; every lane stores its tid to one word
    LDS R12, [0x10]
    STG [R9], R12
    EXIT
""", [p_out], smem=256)
        assert (dev.read_array(p_out, (32,), np.uint32) == 31).all()

    def test_lanes_aliasing_one_shared_word_last_lane_wins(self):
        # lane t < 16 stores to word t; lane t >= 16 to word t-16
        # through the alias window one allocation (64 bytes) above
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    STS [R3], R0
    AND R4, R3, 0x3c         ; (tid % 16) * 4
    LDS R12, [R4]
    STG [R9], R12
    EXIT
""", [p_out], smem=64)
        tid = np.arange(32, dtype=np.uint32)
        assert np.array_equal(dev.read_array(p_out, (32,), np.uint32),
                              tid % 16 + 16)

    def test_partial_warp_shared_roundtrip_with_bank_conflicts(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    ISETP.GE.AND P0, PT, R0, 8, PT
    SHL R4, R0, 7            ; stride 128 bytes: all lanes on bank 0
@P0 STS [R4], R0
    MOV R12, 0xff
@P0 LDS R12, [R4]
    STG [R9], R12
    EXIT
""", [p_out], smem=4096)
        tid = np.arange(32, dtype=np.uint32)
        assert np.array_equal(dev.read_array(p_out, (32,), np.uint32),
                              np.where(tid >= 8, tid, 0xff))

    @pytest.mark.parametrize("opcode", ["LDS R12, [R4]", "STS [R4], R0"])
    def test_shared_violation_names_first_offending_lane(self, opcode):
        # lane 5 is misaligned, lane 9 beyond the SM window: a lane
        # loop stops at lane 5
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        with pytest.raises(MemoryViolation) as err:
            launch(dev, PROLOGUE + f"""
    MOV R4, R3
    ISETP.EQ.AND P0, PT, R0, 5, PT
@P0 IADD R4, R4, 2
    ISETP.EQ.AND P1, PT, R0, 9, PT
@P1 MOV R4, 0x100000
    {opcode}
    EXIT
""", [p_out], smem=256)
        assert str(err.value) == ("shared memory violation at 0x16: "
                                  "misaligned access")

    def test_shared_without_allocation_faults(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        with pytest.raises(MemoryViolation, match="declares no smem"):
            launch(dev, PROLOGUE + """
    LDS R12, [R3]
    EXIT
""", [p_out])

    @pytest.mark.parametrize("opcode", ["LDL R12, [R4]", "STL [R4], R0"])
    def test_local_violation_names_first_offending_lane(self, opcode):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        with pytest.raises(MemoryViolation) as err:
            launch(dev, PROLOGUE + f"""
    MOV R4, 4
    ISETP.EQ.AND P0, PT, R0, 7, PT
@P0 MOV R4, 0x40
    ISETP.EQ.AND P1, PT, R0, 3, PT
@P1 MOV R4, 6
    {opcode}
    EXIT
""", [p_out], local=16)
        assert str(err.value) == "local memory violation at 0x6: " \
                                 "out of bounds"

    def test_local_store_is_per_lane_at_divergent_addresses(self):
        dev = Device("RTX2060")
        p_out = dev.malloc(128)
        launch(dev, PROLOGUE + """
    AND R4, R3, 0xc          ; (tid % 4) * 4
    STL [R4], R0
    LDL R12, [R4]
    STG [R9], R12
    EXIT
""", [p_out], local=16)
        assert np.array_equal(dev.read_array(p_out, (32,), np.uint32),
                              np.arange(32, dtype=np.uint32))
