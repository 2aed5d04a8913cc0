"""Direct unit tests of the Warp and CTA state objects."""

import numpy as np
import pytest

from repro.sim.core import SIMTCore
from repro.sim.cta import CTA
from repro.sim.device import Device
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
        assert warp.active_lanes(warp.stack[-1]).sum() == 20
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
        warp.reg_ready[3] = 50
        assert warp.hazards_clear_at((1, 3), ()) == 50

    def test_waw_hazard(self):
        warp = make_warp()
        warp.reg_ready[3] = warp.pred_ready[2] = 40
        assert warp.hazards_clear_at((3,), ()) == 40
        assert warp.hazards_clear_at((), (2,)) == 40

    def test_sb_latest_fast_path(self, monkeypatch):
        # the scheduler skips the hazard walk while ``sb_latest`` is not
        # in the future, so the issue path must keep it at the latest
        # completion of anything in flight
        seen = []
        issue = SIMTCore._issue

        def spy(core, warp, plan, now):
            issue(core, warp, plan, now)
            seen.append((plan.inst.opcode, now, warp.sb_latest))

        monkeypatch.setattr(SIMTCore, "_issue", spy)
        dev = Device("RTX2060")
        dev.launch(Kernel("sb", """
    MOV R1, 0x3f800000
    MUFU.RCP R2, R1
    IADD R3, RZ, 1
    IADD R4, R2, 1
    NOP
    EXIT
"""), grid=1, block=32)
        alu, sfu = dev.gpu.config.alu_latency, dev.gpu.config.sfu_latency
        (_, t0, mov), (_, t1, rcp), (_, t2, iadd), (_, t3, last), \
            (_, t4, nop), _ = seen
        assert (mov, rcp, last) == (t0 + alu, t1 + sfu, t3 + alu)
        assert t2 + alu < rcp and iadd == rcp  # keeps the max
        assert t4 + alu > last and nop == last  # NOP writes nothing


class TestWarpLocalMemory:
    """A lane's private local memory, through LDL/STL: each lane's
    ``R12`` ends up in ``out[lane]``."""

    @staticmethod
    def run(body, local_bytes):
        dev = Device("RTX2060")
        out = dev.malloc(128)
        kernel = Kernel("local", """
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R1
    MOV R2, 0xABCD
    ISETP.EQ.AND P0, PT, R0, 5, PT
""" + body + """
    STG [R9], R12
    EXIT
""", num_params=1, local_bytes=local_bytes)
        dev.launch(kernel, grid=1, block=32, params=[out])
        return dev.read_array(out, (32,), np.uint32).tolist()

    def test_roundtrip(self):
        out = self.run("""
@P0 STL [0x8], R2            ; lane 5 only
    LDL R12, [0x8]
""", local_bytes=32)
        # thread-private: only lane 5 reads back what it stored
        assert out == [0xABCD if lane == 5 else 0 for lane in range(32)]

    def test_oob(self):
        with pytest.raises(MemoryViolation):
            self.run("    LDL R12, [0x20]\n", local_bytes=32)

    def test_no_local_mem(self):
        with pytest.raises(MemoryViolation):
            self.run("    STL [RZ], R2\n", local_bytes=0)


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
