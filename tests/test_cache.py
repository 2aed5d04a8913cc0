"""Cache model: geometry, LRU, writeback, fault flips, hook mode."""

import numpy as np
import pytest

from repro.sim.cache import Cache
from repro.sim.config import CacheGeometry


def make_cache(size=4 * 1024, line=128, assoc=2, tag_bits=57) -> Cache:
    return Cache("test", CacheGeometry(size, line_bytes=line, assoc=assoc),
                 tag_bits)


def line_data(byte: int, line=128) -> np.ndarray:
    return np.full(line, byte, dtype=np.uint8)


class TestGeometry:
    def test_counts(self):
        cache = make_cache()
        assert cache.geometry.num_lines == 32
        assert cache.geometry.num_sets == 16

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, line_bytes=128, assoc=4)

    def test_injectable_bits_include_tags(self):
        cache = make_cache()
        assert cache.geometry.injectable_bits(cache.tag_bits) \
            == 32 * (128 * 8 + 57)
        assert cache.bits_per_line == 1081

    def test_line_base(self):
        cache = make_cache()
        assert cache.line_base(0x1234) == 0x1200


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0x1000) is None
        cache.fill(0x1000, line_data(7))
        line = cache.lookup(0x1040)  # same line, different word
        assert line is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_different_sets_do_not_conflict(self):
        cache = make_cache()
        cache.fill(0x0000, line_data(1))
        cache.fill(0x0080, line_data(2))  # next set
        assert cache.lookup(0x0000) is not None
        assert cache.lookup(0x0080) is not None

    def test_lru_eviction(self):
        cache = make_cache(assoc=2)
        set_stride = cache.geometry.num_sets * 128
        a, b, c = 0, set_stride, 2 * set_stride  # all map to set 0
        cache.fill(a, line_data(1))
        cache.fill(b, line_data(2))
        cache.lookup(a)  # touch a so b is LRU
        cache.fill(c, line_data(3))  # evicts b
        assert cache.peek(a) is not None
        assert cache.peek(b) is None
        assert cache.peek(c) is not None

    def test_dirty_eviction_returns_writeback(self):
        cache = make_cache(assoc=1)
        set_stride = cache.geometry.num_sets * 128
        cache.fill(0, line_data(1))
        line = cache.peek(0)
        cache.write_word(line, 0, 0xDEADBEEF)
        filled, writeback = cache.fill(set_stride, line_data(2))
        assert filled is cache.peek(set_stride)  # the line installed
        assert writeback is not None
        addr, data = writeback
        assert addr == 0
        assert data[:4].view("<u4")[0] == 0xDEADBEEF

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(assoc=1)
        set_stride = cache.geometry.num_sets * 128
        cache.fill(0, line_data(1))
        filled, writeback = cache.fill(set_stride, line_data(2))
        assert writeback is None
        assert filled is cache.peek(set_stride) and filled.data[0] == 2

    def test_word_read_write(self):
        cache = make_cache()
        cache.fill(0x100, line_data(0))
        line = cache.peek(0x100)
        cache.write_word(line, 0x104, 1234)
        assert cache.read_word(line, 0x104) == 1234
        assert line.dirty

    def test_invalidate_returns_dirty_data(self):
        cache = make_cache()
        cache.fill(0x100, line_data(0))
        cache.write_word(cache.peek(0x100), 0x100, 55)
        writeback = cache.invalidate(0x100)
        assert writeback is not None and cache.peek(0x100) is None

    def test_invalidate_all(self):
        cache = make_cache()
        cache.fill(0x100, line_data(0))
        cache.fill(0x200, line_data(0))
        cache.invalidate_all()
        assert cache.peek(0x100) is None and cache.peek(0x200) is None

    def test_hit_and_miss_counters(self):
        cache = make_cache()
        cache.fill(0x0, line_data(0))
        cache.lookup(0x0)
        cache.lookup(0x0)
        cache.lookup(0x80)
        stats = cache.stats
        assert (stats.accesses, stats.hits, stats.misses) == (3, 2, 1)


class TestFaultFlips:
    def test_data_flip_changes_word(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        record = cache.flip_bit(0, 57)  # first data bit of line 0 way 0
        assert record["field"] == "data" and record["valid"]
        assert cache.read_word(cache.peek(0), 0) == 1

    def test_tag_flip_causes_miss(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        cache.flip_bit(0, 0)  # tag bit
        assert cache.peek(0) is None  # tag no longer matches

    def test_flip_invalid_line_is_masked(self):
        cache = make_cache()
        record = cache.flip_bit(5, 100)
        assert record["valid"] is False

    def test_double_flip_restores(self):
        cache = make_cache()
        cache.fill(0, line_data(0xFF))
        cache.flip_bit(0, 60)
        cache.flip_bit(0, 60)
        assert cache.read_word(cache.peek(0), 0) == 0xFFFFFFFF

    def test_flip_bounds_checked(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.flip_bit(999, 0)
        with pytest.raises(ValueError):
            cache.flip_bit(0, cache.bits_per_line)

    def test_flat_line_numbering_covers_all_ways(self):
        cache = make_cache(assoc=2)
        seen = set()
        for idx in range(cache.geometry.num_lines):
            seen.add(id(cache.line_by_index(idx)))
        assert len(seen) == cache.geometry.num_lines


class TestHookMode:
    def test_hook_applies_on_read_hit(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        cache.arm_hook(0, [57])
        assert cache.read_word(cache.peek(0), 0) == 0  # peek: no trigger
        line = cache.lookup(0)
        assert cache.read_word(line, 0) == 1
        assert line.armed is None

    def test_hook_dropped_on_write_hit(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        cache.arm_hook(0, [57])
        line = cache.lookup(0, for_write=True)
        assert line.armed is None
        assert cache.read_word(line, 0) == 0  # flip never applied

    def test_hook_not_armed_on_invalid_line(self):
        cache = make_cache()
        record = cache.arm_hook(3, [57])
        assert record["valid"] is False
        assert cache.line_by_index(3).armed is None

    def test_hook_dropped_on_refill(self):
        cache = make_cache(assoc=1)
        set_stride = cache.geometry.num_sets * 128
        cache.fill(0, line_data(0))
        cache.arm_hook(0, [57])
        cache.fill(set_stride, line_data(9))  # replaces the hooked line
        line = cache.lookup(set_stride)
        assert cache.read_word(line, set_stride) == 0x09090909
