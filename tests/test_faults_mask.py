"""Fault mask generation: bounds, determinism, serialisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.mask import FaultMask, MaskGenerator, MultiBitMode
from repro.faults.targets import Structure
from repro.sim.cards import rtx_2060

WINDOWS = [(0, 1000), (2500, 3000)]


def make_generator(seed=0, regs=16, smem=2048, local=64):
    return MaskGenerator(rtx_2060(), WINDOWS, regs, smem, local,
                         np.random.default_rng(seed))


class TestCycleSampling:
    def test_cycles_inside_windows(self):
        gen = make_generator()
        for _ in range(200):
            cycle = gen.random_cycle()
            assert (0 <= cycle < 1000) or (2500 <= cycle < 3000)

    def test_all_windows_sampled(self):
        gen = make_generator()
        cycles = {gen.random_cycle() >= 2500 for _ in range(300)}
        assert cycles == {True, False}

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError):
            MaskGenerator(rtx_2060(), [], 8, 0, 0,
                          np.random.default_rng(0))

    def test_zero_length_window_rejected(self):
        with pytest.raises(ValueError):
            MaskGenerator(rtx_2060(), [(5, 5)], 8, 0, 0,
                          np.random.default_rng(0))


class TestEntrySpaces:
    def test_register_file_entry_in_allocated_range(self):
        gen = make_generator(regs=12)
        for _ in range(100):
            mask = gen.generate(Structure.REGISTER_FILE)
            assert 0 <= mask.entry_index < 12
            assert all(0 <= b < 32 for b in mask.bit_offsets)

    def test_shared_entry_is_word_index(self):
        gen = make_generator(smem=2048)
        for _ in range(50):
            mask = gen.generate(Structure.SHARED_MEM)
            assert 0 <= mask.entry_index < 512

    def test_cache_entry_is_line_index(self):
        gen = make_generator()
        card = rtx_2060()
        for _ in range(50):
            mask = gen.generate(Structure.L2_CACHE)
            assert 0 <= mask.entry_index < card.l2.num_lines
            assert all(0 <= b < 128 * 8 + 57 for b in mask.bit_offsets)

    def test_l1d_uses_per_core_lines(self):
        gen = make_generator()
        card = rtx_2060()
        mask = gen.generate(Structure.L1D_CACHE)
        assert mask.entry_index < card.l1d.num_lines


class TestMultiBit:
    def test_single_bit_default(self):
        mask = make_generator().generate(Structure.REGISTER_FILE)
        assert len(mask.bit_offsets) == 1

    def test_triple_bit_same_entry_distinct(self):
        gen = make_generator()
        for _ in range(50):
            mask = gen.generate(Structure.REGISTER_FILE, n_bits=3)
            assert len(set(mask.bit_offsets)) == 3

    def test_adjacent_mode_consecutive(self):
        gen = make_generator()
        for _ in range(50):
            mask = gen.generate(Structure.REGISTER_FILE, n_bits=3,
                                mode=MultiBitMode.ADJACENT)
            bits = mask.bit_offsets
            assert bits[1] == bits[0] + 1 and bits[2] == bits[0] + 2

    def test_bits_clamped_to_entry_width(self):
        gen = make_generator()
        mask = gen.generate(Structure.REGISTER_FILE, n_bits=64)
        assert len(mask.bit_offsets) == 32


class TestDeterminism:
    def test_same_seed_same_masks(self):
        masks_a = [make_generator(7).generate(Structure.REGISTER_FILE)
                   for _ in range(1)]
        masks_b = [make_generator(7).generate(Structure.REGISTER_FILE)
                   for _ in range(1)]
        assert masks_a == masks_b

    def test_different_seeds_differ(self):
        a = make_generator(1).generate(Structure.L2_CACHE)
        b = make_generator(2).generate(Structure.L2_CACHE)
        assert a != b


class TestSerialisation:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, seed):
        gen = make_generator(seed)
        structure = [Structure.REGISTER_FILE, Structure.SHARED_MEM,
                     Structure.L2_CACHE][seed % 3]
        mask = gen.generate(structure, n_bits=1 + seed % 3,
                            warp_level=bool(seed % 2))
        assert FaultMask.from_dict(mask.to_dict()) == mask

    def test_dict_is_json_safe(self):
        import json

        mask = make_generator().generate(Structure.L1T_CACHE)
        json.dumps(mask.to_dict())

    def test_pickle_roundtrip_keeps_every_field(self):
        # a spec carries its mask to pool workers; the slots refused
        # the unpickler's setattr before FaultMask rebuilt itself
        import pickle

        mask = FaultMask(Structure.L1D_CACHE, 812, 33, (4, 29),
                         warp_level=True, n_blocks=2, n_cores=3, seed=2**40,
                         fault_model="cache_hook",
                         extra={"newer": [1, {"x": None}]})
        revived = pickle.loads(pickle.dumps(mask))
        assert revived == mask and hash(revived) == hash(mask)
        assert revived.to_dict() == mask.to_dict()
        assert revived.extra is not mask.extra
