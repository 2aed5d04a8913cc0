"""Property-based tests (hypothesis) on core structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import _parse_immediate  # intentional: invariant
from repro.sim.cache import Cache
from repro.sim.config import CacheGeometry
from repro.sim.memory import GlobalMemory


@st.composite
def cache_ops(draw):
    """A random sequence of fill/lookup/invalidate/flip operations."""
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["fill", "lookup", "invalidate",
                                     "flip", "write"]))
        addr = draw(st.integers(0, 255)) * 128
        ops.append((kind, addr, draw(st.integers(0, 255))))
    return ops


class TestCacheInvariants:
    @given(cache_ops())
    @settings(max_examples=60, deadline=None)
    def test_no_duplicate_tags_in_a_set(self, ops):
        """Without tag faults, a set never holds duplicate tags.

        (A *tag fault* can legitimately create an alias, exactly as on
        hardware -- so 'flip' ops are restricted to the data region
        here.)
        """
        cache = Cache("prop", CacheGeometry(4 * 1024, assoc=2), 57)
        for kind, addr, payload in ops:
            if kind == "fill":
                cache.fill(addr, np.full(128, payload, dtype=np.uint8))
            elif kind == "lookup":
                cache.lookup(addr)
            elif kind == "invalidate":
                cache.invalidate(addr)
            elif kind == "write":
                line = cache.peek(addr)
                if line is not None:
                    cache.write_word(line, addr, payload)
            else:
                data_bit = cache.tag_bits + payload % (128 * 8)
                cache.flip_bit(payload % cache.geometry.num_lines,
                               data_bit)
        for set_idx, ways in cache._sets.items():
            tags = [ln.tag for ln in ways if ln.valid]
            assert len(tags) == len(set(tags)), "duplicate tag in a set"

    @given(cache_ops())
    @settings(max_examples=40, deadline=None)
    def test_invalidation_writes_back_exactly_the_dirty_lines(self, ops):
        cache = Cache("prop", CacheGeometry(4 * 1024, assoc=2), 57)
        for kind, addr, payload in ops:
            if kind == "fill":
                cache.fill(addr, np.full(128, payload, dtype=np.uint8))
            elif kind == "write":
                line = cache.peek(addr)
                if line is not None:
                    cache.write_word(line, addr, payload)
        lines = {cache._line_addr(set_idx, ln.tag): ln.dirty
                 for set_idx, ways in cache._sets.items()
                 for ln in ways if ln.valid}
        written = {addr for addr in lines if cache.invalidate(addr)}
        assert written == {addr for addr, dirty in lines.items() if dirty}
        for ways in cache._sets.values():
            assert not any(ln.valid for ln in ways)

    @given(st.integers(0, 31), st.integers(0, 1080))
    @settings(max_examples=60, deadline=None)
    def test_double_flip_is_identity(self, line_idx, bit):
        cache = Cache("prop", CacheGeometry(4 * 1024, assoc=2), 57)
        cache.fill(line_idx * 128, np.arange(128, dtype=np.uint8))
        target = cache.line_by_index(line_idx)
        before = (target.tag, target.data.copy())
        cache.flip_bit(line_idx, bit)
        cache.flip_bit(line_idx, bit)
        assert target.tag == before[0]
        assert np.array_equal(target.data, before[1])


class TestAllocatorInvariants:
    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        mem = GlobalMemory(4 * 1024 * 1024)
        spans = []
        for size in sizes:
            ptr = mem.malloc(size)
            spans.append((ptr, ptr + size))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=20),
           st.integers(0, 10**7))
    @settings(max_examples=50, deadline=None)
    def test_check_many_consistent_with_scalar(self, sizes, probe):
        mem = GlobalMemory(4 * 1024 * 1024)
        for size in sizes:
            mem.malloc(size)
        probe = (probe // 4) * 4  # aligned probes only
        scalar_ok = True
        try:
            mem.check_access(probe)
        except Exception:
            scalar_ok = False
        vector_ok = True
        try:
            mem.check_many(np.array([probe], dtype=np.int64))
        except Exception:
            vector_ok = False
        assert scalar_ok == vector_ok


class TestImmediateParsing:
    @given(st.integers(-(2**31), 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_integer_roundtrip_mod_2_32(self, value):
        imm = _parse_immediate(str(value), 1)
        assert imm.value == value & 0xFFFFFFFF

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     width=32))
    @settings(max_examples=100, deadline=None)
    def test_float_bit_pattern(self, value):
        text = repr(float(np.float32(value)))
        if "." not in text and "e" not in text and "E" not in text:
            text += ".0"
        imm = _parse_immediate(text, 1)
        assert np.uint32(imm.value).view(np.float32) == np.float32(value)
