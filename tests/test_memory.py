"""Global memory allocator, bounds checking, constant bank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.errors import MemoryViolation
from repro.sim.memory import ALLOC_ALIGN, BASE_ADDRESS, SNAP_PAGE, \
    ConstantBank, GlobalMemory, page_digest
from tests.conftest import page_source


@pytest.fixture
def mem():
    return GlobalMemory(1024 * 1024)


class TestAllocator:
    def test_first_allocation_at_base(self, mem):
        assert mem.malloc(100) == BASE_ADDRESS

    def test_allocations_aligned(self, mem):
        mem.malloc(10)
        second = mem.malloc(10)
        assert second % ALLOC_ALIGN == 0

    def test_zero_size_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.malloc(0)

    def test_out_of_memory(self, mem):
        with pytest.raises(MemoryError):
            mem.malloc(2 * 1024 * 1024)


class TestBoundsChecking:
    def test_valid_access(self, mem):
        ptr = mem.malloc(64)
        mem.check_access(ptr)
        mem.check_access(ptr + 60)

    def test_null_pointer_faults(self, mem):
        mem.malloc(64)
        with pytest.raises(MemoryViolation):
            mem.check_access(0)

    def test_past_mapped_heap_faults(self, mem):
        from repro.sim.memory import PAGE_SIZE

        mem.malloc(64)
        with pytest.raises(MemoryViolation):
            mem.check_access(PAGE_SIZE)  # first unmapped page

    def test_in_page_overrun_is_silent(self, mem):
        # page-granular MMU: running past an allocation inside the
        # mapped page does not fault (it silently corrupts -> SDC)
        ptr = mem.malloc(64)
        mem.check_access(ptr + 64)
        mem.check_access(ptr + 4096)

    def test_misaligned_faults(self, mem):
        ptr = mem.malloc(64)
        with pytest.raises(MemoryViolation, match="misaligned"):
            mem.check_access(ptr + 1)

    def test_gap_between_allocations_is_mapped(self, mem):
        a = mem.malloc(10)
        mem.malloc(10)
        mem.check_access(a + 16)  # alignment gap, same page: no fault

    def test_check_many_matches_scalar(self, mem):
        from repro.sim.memory import PAGE_SIZE

        ptr = mem.malloc(256)
        good = np.array([ptr, ptr + 4, ptr + 252], dtype=np.int64)
        mem.check_many(good)
        with pytest.raises(MemoryViolation):
            mem.check_many(np.array([ptr, PAGE_SIZE + 64],
                                    dtype=np.int64))
        with pytest.raises(MemoryViolation, match="misaligned"):
            mem.check_many(np.array([ptr + 2], dtype=np.int64))

    def test_check_many_empty_allocations(self):
        mem = GlobalMemory(4096)
        with pytest.raises(MemoryViolation):
            mem.check_many(np.array([0x1000], dtype=np.int64))


class TestWordAccess:
    def test_read_write_roundtrip(self, mem):
        ptr = mem.malloc(16)
        mem.write_word(ptr + 4, 0xCAFEBABE)
        assert mem.read_word(ptr + 4) == 0xCAFEBABE

    def test_write_masks_to_32_bits(self, mem):
        ptr = mem.malloc(16)
        mem.write_word(ptr, 0x1_0000_0001)
        assert mem.read_word(ptr) == 1


class TestLineAccess:
    def test_line_read_is_unchecked(self, mem):
        data = mem.read_line(0, 128)  # below BASE_ADDRESS: fine for fills
        assert (data == 0).all()

    def test_line_read_beyond_dram_is_zeros(self, mem):
        data = mem.read_line(mem.size - 64, 128)
        assert len(data) == 128 and (data[64:] == 0).all()

    def test_line_write_out_of_range_dropped(self, mem):
        mem.write_line(mem.size + 128, np.ones(128, dtype=np.uint8))
        # nothing to assert beyond "no exception"; the data is lost

    def test_line_write_partial_clip(self, mem):
        mem.write_line(mem.size - 64, np.ones(128, dtype=np.uint8))
        assert (mem.data[-64:] == 1).all()


def rehashed(mem):
    """The page table from scratch: every page of ``data``, hashed."""
    table = {}
    for index in range(mem.size // SNAP_PAGE):
        page = mem.data[index * SNAP_PAGE:(index + 1) * SNAP_PAGE]
        if page.any():
            table[index] = page_digest(page)
    return table


@st.composite
def memory_ops(draw):
    """An interleaving of every writer with snapshot / restore;
    payload 0 writes zeros, so pages also *become* zero."""
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(
            ["malloc", "word", "line", "bytes", "bytes", "snapshot",
             "restore", "table"]))
        # addresses and lengths crowd the page boundaries
        near = st.sampled_from([0, 1, 2, 3, SNAP_PAGE - 2, SNAP_PAGE - 1])
        addr = (draw(st.integers(0, 15)) * SNAP_PAGE
                + draw(near | st.integers(0, SNAP_PAGE - 1)))
        length = (draw(st.integers(0, 2)) * SNAP_PAGE
                  + draw(near | st.integers(0, SNAP_PAGE - 1)))
        ops.append((kind, addr, max(length, 1), draw(st.integers(0, 3))))
    return ops


class TestPageTracking:
    SIZE = 64 * 1024

    def test_data_is_read_only(self, mem):
        ptr = mem.malloc(64)
        with pytest.raises(ValueError, match="read-only"):
            mem.data[ptr] = 1
        with pytest.raises(ValueError, match="read-only"):
            mem.data[ptr:ptr + 4].view("<u4")[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            mem.page(1)[:] = 1
        assert not mem.data.any() and mem.snapshot()["pages"] == {}

    def test_size_must_be_whole_pages(self):
        with pytest.raises(ValueError, match="multiple"):
            GlobalMemory(SNAP_PAGE + 128)

    def test_only_written_pages_are_rehashed(self, mem):
        ptr = mem.malloc(3 * SNAP_PAGE)
        mem.write_bytes(ptr, np.ones(3 * SNAP_PAGE, dtype=np.uint8))
        assert sorted(mem.page_table()) == [1, 2, 3]
        assert mem.pages_hashed == 3
        mem.page_table()
        assert mem.pages_hashed == 3
        mem.write_word(ptr + SNAP_PAGE, 7)
        mem.write_line(ptr + SNAP_PAGE + 128, np.ones(128, dtype=np.uint8))
        assert mem.page_table() == rehashed(mem)
        assert mem.pages_hashed == 4

    def test_restore_fetches_only_differing_pages(self, mem):
        ptr = mem.malloc(2 * SNAP_PAGE)
        mem.write_bytes(ptr, np.full(2 * SNAP_PAGE, 5, dtype=np.uint8))
        snap, pages = mem.snapshot(), page_source(mem)
        image = mem.data.copy()
        mem.write_word(ptr, 9)
        fetched = []
        mem.restore(snap, lambda d: fetched.append(d) or pages(d))
        assert fetched == [snap["pages"][1]]
        assert np.array_equal(mem.data, image)

    def test_failing_fetch_leaves_memory_untouched(self, mem):
        ptr = mem.malloc(2 * SNAP_PAGE)
        mem.write_bytes(ptr, np.full(2 * SNAP_PAGE, 5, dtype=np.uint8))
        snap = mem.snapshot()
        mem.write_bytes(ptr, np.full(2 * SNAP_PAGE, 6, dtype=np.uint8))
        image, table = mem.data.copy(), dict(mem.page_table())

        def fetch(digest, calls=[]):
            calls.append(digest)
            if len(calls) == 2:
                raise KeyError(digest)
            return bytes(SNAP_PAGE)

        with pytest.raises(KeyError):
            mem.restore(snap, fetch)
        assert np.array_equal(mem.data, image)
        assert mem.page_table() == table == rehashed(mem)

    @given(memory_ops())
    @settings(max_examples=150, deadline=None)
    def test_incremental_table_equals_a_full_rehash(self, ops):
        mem = GlobalMemory(self.SIZE)
        saved = None
        for kind, addr, length, payload in ops:
            if kind == "malloc":
                try:
                    mem.malloc(length)
                except MemoryError:
                    pass
            elif kind == "word":
                try:
                    mem.write_word(addr & ~3, payload)
                except MemoryViolation:
                    pass
            elif kind == "line":
                # tag faults aim writebacks anywhere, also past the end
                mem.write_line(addr * 2 - addr % 128,
                               np.full(128, payload, dtype=np.uint8))
            elif kind == "bytes":
                length = min(length, self.SIZE - addr)
                mem.write_bytes(addr, np.full(length, payload,
                                              dtype=np.uint8))
            elif kind == "snapshot":
                saved = (mem.snapshot(), page_source(mem),
                         mem.data.copy(), mem._next,
                         list(mem._allocations))
            elif kind == "restore" and saved is not None:
                snap, pages, image, nxt, allocations = saved
                mem.restore(snap, pages)
                # byte-exact, zero pages included
                assert np.array_equal(mem.data, image)
                assert (mem._next, mem._allocations) == (nxt, allocations)
                assert mem.snapshot() == snap
            else:
                mem.page_table()
        assert mem.page_table() == rehashed(mem)
        assert mem.snapshot()["pages"] == rehashed(mem)


class TestConstantBank:
    def test_params_at_offset_zero(self):
        bank = ConstantBank()
        bank.load_params([10, 20, 30])
        assert bank.read_word(0) == 10
        assert bank.read_word(8) == 30

    def test_reload_clears_previous(self):
        bank = ConstantBank()
        bank.load_params([1, 2, 3])
        bank.load_params([9])
        assert bank.read_word(4) == 0

    def test_misaligned_read_faults(self):
        bank = ConstantBank()
        with pytest.raises(MemoryViolation):
            bank.read_word(2)

    def test_out_of_bank_faults(self):
        bank = ConstantBank()
        with pytest.raises(MemoryViolation):
            bank.read_word(ConstantBank.SIZE)
