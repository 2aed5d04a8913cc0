"""Injection engine: spatial resolution and bit flips per structure."""

import numpy as np
import pytest

from repro.faults.injector import Injector
from repro.faults.mask import FaultMask
from repro.faults.targets import Structure
from repro.sim.device import Device, RunOptions
from repro.sim.kernel import Kernel

# spins long enough for mid-kernel injections to have a live target,
# then writes every register-visible value out
SPIN = Kernel("spin", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    MOV R10, 0x5555
    MOV R11, 0
loop:
    IADD R11, R11, 1
    ISETP.LT.AND P0, PT, R11, 200, PT
@P0 BRA loop
    STG [R9], R10
    EXIT
""", num_params=1)


def run_with(masks, kernel=SPIN, smem=0, local=0, card="RTX2060"):
    injector = Injector(masks)
    dev = Device(card, RunOptions(injector=injector))
    out = dev.malloc(4 * 32)
    dev.launch(kernel, grid=1, block=32, params=[out])
    return dev, injector, dev.read_array(out, (32,), np.uint32)


def mask_for(structure, cycle=250, entry=10, bits=(3,), **kw):
    return FaultMask(structure=structure, cycle=cycle, entry_index=entry,
                     bit_offsets=tuple(bits), seed=kw.pop("seed", 42), **kw)


class TestRegisterFileInjection:
    def test_thread_flip_hits_one_lane(self):
        # R10 holds 0x5555 during the loop; flipping bit 3 of R10 in one
        # thread changes exactly one output word
        dev, injector, out = run_with(
            [mask_for(Structure.REGISTER_FILE, entry=10, bits=(3,))])
        record = injector.log[0]
        assert record["target"] == "thread"
        changed = np.nonzero(out != 0x5555)[0]
        assert len(changed) == 1
        assert out[changed[0]] == 0x5555 ^ 0x8

    def test_warp_flip_hits_all_lanes(self):
        dev, injector, out = run_with(
            [mask_for(Structure.REGISTER_FILE, entry=10, bits=(0,),
                      warp_level=True)])
        assert injector.log[0]["target"] == "warp"
        assert (out == 0x5554).all()

    def test_multi_bit_flip(self):
        dev, injector, out = run_with(
            [mask_for(Structure.REGISTER_FILE, entry=10, bits=(0, 1, 2),
                      warp_level=True)])
        assert (out == (0x5555 ^ 0b111)).all()

    def test_entry_wraps_to_allocated_registers(self):
        # entry index beyond the kernel's registers must still resolve
        dev, injector, out = run_with(
            [mask_for(Structure.REGISTER_FILE, entry=1000, bits=(0,))])
        assert injector.log[0]["target"] == "thread"

    def test_injection_after_completion_is_lost(self):
        dev, injector, out = run_with(
            [mask_for(Structure.REGISTER_FILE, cycle=10**9)])
        assert not injector.log  # never applied
        assert injector.due_cycle() == 10**9

    def test_deterministic_spatial_pick(self):
        mask = mask_for(Structure.REGISTER_FILE, seed=99)
        _, inj_a, _ = run_with([mask])
        _, inj_b, _ = run_with([mask])
        assert inj_a.log[0]["lane"] == inj_b.log[0]["lane"]


class TestSharedMemoryInjection:
    SMEM_KERNEL = Kernel("smem_spin", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    MOV R10, 0xAAAA
    STS [R3], R10
    MOV R11, 0
loop:
    IADD R11, R11, 1
    ISETP.LT.AND P0, PT, R11, 200, PT
@P0 BRA loop
    LDS R12, [R3]
    STG [R9], R12
    EXIT
""", num_params=1, smem_bytes=128)

    def test_smem_flip_corrupts_one_word(self):
        dev, injector, out = run_with(
            [mask_for(Structure.SHARED_MEM, entry=5, bits=(0,))],
            kernel=self.SMEM_KERNEL)
        assert injector.log[0]["target"] == "cta"
        assert out[5] == 0xAAAB
        assert (np.delete(out, 5) == 0xAAAA).all()

    def test_no_smem_kernel_is_masked(self):
        dev, injector, out = run_with(
            [mask_for(Structure.SHARED_MEM)])
        assert injector.log[0]["target"] == "none"
        assert (out == 0x5555).all()


class TestLocalMemoryInjection:
    LOCAL_KERNEL = Kernel("local_spin", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    MOV R10, 0x77
    STL [RZ], R10
    MOV R11, 0
loop:
    IADD R11, R11, 1
    ISETP.LT.AND P0, PT, R11, 200, PT
@P0 BRA loop
    LDL R12, [RZ]
    STG [R9], R12
    EXIT
""", num_params=1, local_bytes=8)

    def test_local_flip_hits_one_thread(self):
        dev, injector, out = run_with(
            [mask_for(Structure.LOCAL_MEM, entry=0, bits=(1,))],
            kernel=self.LOCAL_KERNEL)
        changed = np.nonzero(out != 0x77)[0]
        assert len(changed) == 1
        assert out[changed[0]] == 0x77 ^ 0b10

    def test_no_local_kernel_is_masked(self):
        dev, injector, out = run_with([mask_for(Structure.LOCAL_MEM)])
        assert injector.log[0]["target"] == "none"


class TestCacheInjection:
    def test_l2_flip_applied(self):
        dev, injector, _ = run_with([mask_for(Structure.L2_CACHE,
                                              entry=3, bits=(60,))])
        flips = injector.log[0]["flips"]
        assert flips[0]["cache"] == "L2" and flips[0]["field"] == "data"

    def test_l1d_targets_busy_core(self):
        dev, injector, _ = run_with([mask_for(Structure.L1D_CACHE)])
        record = injector.log[0]
        assert record["target"] == "l1"
        assert record["flips"][0]["cache"].startswith("L1D.")

    def test_l1d_on_titan_is_masked(self):
        dev, injector, _ = run_with([mask_for(Structure.L1D_CACHE)],
                                    card="GTXTitan")
        assert injector.log[0]["target"] == "none"

    def test_l1t_flip(self):
        dev, injector, _ = run_with([mask_for(Structure.L1T_CACHE)])
        assert injector.log[0]["flips"][0]["cache"].startswith("L1T.")

    def test_tag_bit_recorded(self):
        dev, injector, _ = run_with([mask_for(Structure.L2_CACHE,
                                              bits=(5,))])
        assert injector.log[0]["flips"][0]["field"] == "tag"

    def test_hook_mode_defers(self):
        injector = Injector([mask_for(Structure.L2_CACHE, bits=(100,),
                                      fault_model="cache_hook")])
        dev = Device("RTX2060", RunOptions(injector=injector))
        out = dev.malloc(4 * 32)
        dev.launch(SPIN, grid=1, block=32, params=[out])
        assert injector.log[0]["flips"][0]["mode"] == "hook"


class TestInjectorMechanics:
    def test_masks_applied_in_cycle_order(self):
        masks = [mask_for(Structure.REGISTER_FILE, cycle=280, seed=1),
                 mask_for(Structure.REGISTER_FILE, cycle=220, seed=2)]
        _, injector, _ = run_with(masks)
        applied = [rec["applied_at"] for rec in injector.log]
        assert applied == sorted(applied)

    def test_due_cycle_advances(self):
        injector = Injector([mask_for(Structure.L2_CACHE, cycle=5)])
        assert injector.due_cycle() == 5

    def test_multi_structure_same_run(self):
        masks = [mask_for(Structure.REGISTER_FILE, cycle=230, seed=3),
                 mask_for(Structure.L2_CACHE, cycle=260, seed=4)]
        _, injector, _ = run_with(masks)
        assert len(injector.log) == 2
