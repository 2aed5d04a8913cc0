"""Host-side Device API: memcpy semantics, typed reads, budgets."""

import numpy as np

from repro.sim.device import Device, RunOptions
from repro.sim.kernel import Kernel

STORE_TID = Kernel("store_tid", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    STG [R9], R0
    EXIT
""", num_params=1)


class TestMemcpy:
    def test_roundtrip_float32(self, device):
        data = np.linspace(0, 1, 100, dtype=np.float32)
        ptr = device.to_device(data)
        back = device.read_array(ptr, (100,), np.float32)
        assert np.array_equal(back, data)

    def test_roundtrip_int32_2d(self, device):
        data = np.arange(24, dtype=np.int32).reshape(4, 6)
        ptr = device.to_device(data)
        back = device.read_array(ptr, (4, 6), np.int32)
        assert np.array_equal(back, data)

    def test_noncontiguous_input(self, device):
        data = np.arange(20, dtype=np.int32)[::2]
        ptr = device.to_device(data)
        assert np.array_equal(device.read_array(ptr, (10,), np.int32),
                              data)

    def test_host_write_updates_resident_l2_lines(self, device):
        # a kernel pulls data into the L2; a host write afterwards must
        # be visible to the next kernel despite the resident line
        src = np.arange(32, dtype=np.uint32)
        p_out = device.to_device(src)
        device.launch(STORE_TID, grid=1, block=32, params=[p_out])
        device.memcpy_htod(p_out, np.full(32, 9, dtype=np.uint32))
        back = device.read_array(p_out, (32,), np.uint32)
        assert (back == 9).all()

    def test_host_read_sees_dirty_l2_data(self, device):
        p_out = device.malloc(128)
        device.launch(STORE_TID, grid=1, block=32, params=[p_out])
        # stores live dirty in L2; host_read must observe them
        assert np.array_equal(device.read_array(p_out, (32,), np.uint32),
                              np.arange(32, dtype=np.uint32))
        raw_dram = device.gpu.memory.data[p_out:p_out + 128].view("<u4")
        resident = device.gpu.l2.peek(p_out)
        assert resident is not None  # the interesting case was exercised

    def test_malloc_sized_for_an_array(self, device):
        arr = np.zeros((8, 8), dtype=np.float32)
        ptr = device.malloc(arr.nbytes)
        assert device.read_array(ptr, (64,), np.float32).nbytes == 256


class TestBudgets:
    def test_budget_via_options(self):
        dev = Device("RTX2060", RunOptions(cycle_budget=100_000))
        p_out = dev.malloc(128)
        dev.launch(STORE_TID, grid=1, block=32, params=[p_out])

    def test_empty_injector_via_options(self):
        from repro.faults.injector import Injector

        dev = Device("RTX2060", RunOptions(injector=Injector([])))
        p_out = dev.malloc(128)
        dev.launch(STORE_TID, grid=1, block=32, params=[p_out])


class TestCardSelection:
    def test_string_card(self):
        assert Device("gtxtitan").config.name == "GTXTitan"

    def test_config_card(self):
        from repro.sim.cards import quadro_gv100

        assert Device(quadro_gv100()).config.num_sms == 80
