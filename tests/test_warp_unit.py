"""Direct unit tests of the Warp and CTA state objects."""

import numpy as np
import pytest

from repro.sim.cta import CTA
from repro.sim.errors import MemoryViolation
from repro.sim.kernel import Kernel, KernelLaunch
from repro.sim.warp import StackEntry, Warp


class _FakeCTA:
    def on_warp_done(self):
        self.done_called = True


def make_warp(num_threads=32, num_regs=8, local_bytes=0):
    return Warp(0, num_threads, num_regs, local_bytes, cta=_FakeCTA(),
                age=0)


class TestWarpState:
    def test_initial_masks(self):
        warp = make_warp(num_threads=20)
        assert warp.active_mask().sum() == 20
        assert warp.live_count == 20
        assert list(warp.live_lanes()) == list(range(20))

    def test_pt_predicate_always_true(self):
        warp = make_warp()
        assert warp.preds[7].all()

    def test_stack_pop_on_empty_mask(self):
        warp = make_warp(num_threads=4)
        warp.exited[:] = True
        warp.normalize_stack()
        assert warp.done
        assert warp.cta.done_called

    def test_stack_pop_on_reconvergence(self):
        warp = make_warp()
        mask = np.ones(32, dtype=bool)
        warp.stack.append(StackEntry(7, mask.copy(), 7))  # pc == reconv
        warp.normalize_stack()
        assert len(warp.stack) == 1

    def test_done_transition_fires_once(self):
        warp = make_warp(num_threads=1)

        calls = []
        warp.cta.on_warp_done = lambda: calls.append(1)
        warp.exited[:] = True
        warp.normalize_stack()
        warp.normalize_stack()
        assert calls == [1]


class TestScoreboard:
    """``hazards_clear_at`` over an instruction's sources (RAW) and
    destinations (WAW), as the core's issue plans ask it."""

    def test_ready_when_untracked(self):
        warp = make_warp()
        assert warp.hazards_clear_at((1, 2), (0,)) == 0

    def test_raw_hazard(self):
        warp = make_warp()
        warp.mark_ready((3,), (), 50)
        assert warp.hazards_clear_at((1, 3), ()) == 50

    def test_waw_hazard(self):
        warp = make_warp()
        warp.mark_ready((3,), (2,), 40)
        assert warp.hazards_clear_at((3,), ()) == 40
        assert warp.hazards_clear_at((), (2,)) == 40

    def test_sb_latest_fast_path(self):
        warp = make_warp()
        warp.mark_ready((3,), (), 99)
        assert warp.sb_latest == 99
        warp.mark_ready((4,), (), 50)
        assert warp.sb_latest == 99  # keeps the max
        warp.mark_ready((), (), 500)
        assert warp.sb_latest == 99  # nothing written, nothing in flight


class TestWarpLocalMemory:
    def test_roundtrip(self):
        warp = make_warp(local_bytes=32)
        warp.local_write(5, 8, 0xABCD)
        assert warp.local_read(5, 8) == 0xABCD
        assert warp.local_read(4, 8) == 0  # thread-private

    def test_oob(self):
        warp = make_warp(local_bytes=32)
        with pytest.raises(MemoryViolation):
            warp.local_read(0, 32)

    def test_no_local_mem(self):
        warp = make_warp(local_bytes=0)
        with pytest.raises(MemoryViolation):
            warp.local_write(0, 0, 1)


class TestCTAUnit:
    def make_cta(self, block=(32, 1), smem=256):
        kernel = Kernel("k", "    EXIT", smem_bytes=smem)
        launch = KernelLaunch.create(kernel, grid=1, block=block)
        return CTA((0, 0), launch, core=None, age_base=0,
                   smem_ceiling=64 * 1024)

    def test_special_registers_2d(self):
        kernel = Kernel("k", "    EXIT")
        launch = KernelLaunch.create(kernel, grid=(2, 3), block=(8, 4))
        cta = CTA((1, 2), launch, core=None, age_base=0,
                  smem_ceiling=64 * 1024)
        warp = cta.warps[0]
        assert warp.sregs["SR_CTAID_X"][0] == 1
        assert warp.sregs["SR_CTAID_Y"][0] == 2
        assert warp.sregs["SR_NTID_X"][0] == 8
        assert warp.sregs["SR_TID_X"][9] == 1   # linear 9 -> (1, 1)
        assert warp.sregs["SR_TID_Y"][9] == 1

    @staticmethod
    def words(cta, *addrs):
        return cta.smem_word_indices(np.array(addrs, dtype=np.int64))

    def test_smem_roundtrip(self):
        cta = self.make_cta()
        cta.smem_words[:, self.words(cta, 12, 16)] = (77, 78)
        assert cta.smem_words[0, self.words(cta, 16, 12)].tolist() == [78, 77]
        assert cta.smem[0, 12] == 77  # the byte view is the same buffer

    def test_smem_misaligned(self):
        cta = self.make_cta()
        with pytest.raises(MemoryViolation, match="misaligned"):
            self.words(cta, 4, 6)

    def test_smem_alias_within_window(self):
        cta = self.make_cta(smem=256)
        # past the CTA's allocation: wraps into it
        assert self.words(cta, 0, 256, 260).tolist() == [0, 0, 1]

    def test_smem_beyond_window_faults(self):
        cta = self.make_cta()
        with pytest.raises(MemoryViolation):
            self.words(cta, 0, 64 * 1024)

    def test_barrier_release_all_live(self):
        cta = self.make_cta(block=(64, 1))
        for warp in cta.warps:
            warp.at_barrier = True
        assert cta.try_release_barrier()
        assert not any(w.at_barrier for w in cta.warps)

    def test_barrier_waits_for_stragglers(self):
        cta = self.make_cta(block=(64, 1))
        cta.warps[0].at_barrier = True
        assert not cta.try_release_barrier()
        assert cta.warps[0].at_barrier


class TestVectorisedAddressResolution:
    """``smem_word_indices``/``local_word_indices`` against the scalar
    resolvers they vectorise: same words, or the same violation for
    the first offending address in the order given."""

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except MemoryViolation as exc:
            return (exc.space, exc.address, exc.reason)

    def check(self, vector, scalar, addrs):
        addrs = np.asarray(addrs, dtype=np.int64)
        expected = self.outcome(lambda: [scalar(int(a)) for a in addrs])
        got = self.outcome(lambda: vector(addrs).tolist())
        assert got == expected

    @pytest.mark.parametrize("smem", [0, 6, 64, 256])
    def test_shared_matches_scalar_resolver(self, smem):
        cta = TestCTAUnit().make_cta(smem=smem)
        cta.smem_ceiling = 1024
        rng = np.random.default_rng(smem)

        def scalar(addr):
            return cta._resolve_smem(addr) >> 2

        self.check(cta.smem_word_indices, scalar,
                   np.arange(0, max(smem, 4), 4))
        for _ in range(200):
            n = int(rng.integers(1, 33))
            addrs = rng.integers(0, 1024 // 4, n) * 4
            kind = rng.integers(0, 4)
            if kind == 1:  # misaligned somewhere
                addrs[rng.integers(0, n)] += int(rng.integers(1, 4))
            elif kind == 2:  # out of the window somewhere
                addrs[rng.integers(0, n)] = int(
                    rng.choice([-4, 1021, 1024, 4096]))
            elif kind == 3:  # several offenders: the first one counts
                addrs[rng.integers(0, n, 3)] = [1024, 6, -8]
            self.check(cta.smem_word_indices, scalar, addrs)

    @pytest.mark.parametrize("local_bytes", [0, 16, 30])
    def test_local_matches_scalar_resolver(self, local_bytes):
        warp = make_warp(local_bytes=local_bytes)
        rng = np.random.default_rng(local_bytes)
        for _ in range(200):
            n = int(rng.integers(1, 33))
            addrs = rng.integers(-1, 12, n) * 4
            if rng.integers(0, 3) == 0:
                addrs[rng.integers(0, n)] += int(rng.integers(1, 4))
            self.check(warp.local_word_indices, warp._local_word, addrs)
