"""The issue path's memos are invalidated where they must be.

``repro.sim`` remembers five things between issues instead of
recomputing them: the active lanes of a SIMT-stack entry
(``StackEntry.active``, :mod:`repro.sim.warp`), the lanes a guard
leaves them (``guard_masks``, :mod:`repro.sim.core`;
``tests/test_guard_masks.py`` holds it against the algebra), what a
shared-memory address pattern decides (``CTA.smem_pattern``,
:mod:`repro.sim.cta`), what a global access's operands and addresses
decide (``GlobalMemory.shape``, two levels, :mod:`repro.sim.memory`;
``tests/test_global_access.py`` holds it against a per-lane walk) and
the occupancy sums over the busy cores (``StatsCollector.occupancy``).  The checks here are made from the test side, at every
issue and every cycle-loop iteration of real runs, against the values
recomputed from scratch; nothing in ``src/`` exists for them.
"""

import numpy as np
import pytest

from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import (Campaign, CampaignConfig,
                                   profile_application)
from repro.faults.targets import Structure
from repro.sim import cta as cta_module, memory as memory_module
from repro.sim.core import SIMTCore
from repro.sim.device import Device
from repro.sim.errors import MemoryViolation
from repro.sim.gpu import GPU
from repro.sim.kernel import Kernel
from repro.sim.stats import StatsCollector
from tests.conftest import tiny_config


class IssueChecker:
    """Rides every GPU built while it is installed: ``before`` runs
    ahead of ``SIMTCore._issue`` (the state an issue starts from),
    ``on_issue`` hears what the core reports (the lanes it uses)."""

    def __init__(self):
        self.issues = 0
        self.memo_hits = 0
        self.recomputed = 0
        self.samples = 0
        self.expected = None
        #: Every warp that issued, when asked to keep them.
        self.keep_warps = False
        self.warps = {}

    def before(self, warp, plan):
        top = warp.stack[-1]
        lanes = top.mask & ~warp.exited
        # what lets an unguarded memory instruction skip its .any()
        assert lanes.any(), "an issuing warp has no active lane"
        if top.active is None:
            self.recomputed += 1
        else:
            self.memo_hits += 1
            assert np.array_equal(top.active, lanes), "stale active lanes"
            assert (top.where is True) == bool(lanes.all())
            assert top.where is True or top.where is top.active
        if plan.guard is not None:
            guard = warp.preds[plan.guard][0]
            lanes = lanes & (~guard if plan.guard_negate else guard)
        self.expected = lanes

    def on_issue(self, core_id, warp, plan, exec0, now):
        inst = plan.inst
        self.issues += 1
        assert np.array_equal(exec0, self.expected), str(inst)
        if inst.is_memory and inst.guard is None:
            assert exec0.any(), str(inst)
        if self.keep_warps:
            self.warps.setdefault(id(warp), warp)

    def after_sample(self, stats, cores):
        """The sums ``sample`` used are those of polling the cores."""
        if stats.current is None:
            return
        self.samples += 1
        busy = [core for core in cores if core.ctas]
        assert stats.occupancy[1:] == (
            len(busy),
            sum(core.live_warps for core in busy),
            sum(core.live_threads for core in busy),
            sum(len(core.ctas) for core in busy))
        assert stats.current.cores_used >= {core.core_id for core in busy}


@pytest.fixture
def checker(monkeypatch):
    checker = IssueChecker()
    gpu_init, issue = GPU.__init__, SIMTCore._issue
    sample = StatsCollector.sample

    def checked_init(self, config):
        gpu_init(self, config)
        self.listen(checker)

    def checked_issue(self, warp, plan, now):
        checker.before(warp, plan)
        issue(self, warp, plan, now)

    def checked_sample(self, cores, delta):
        sample(self, cores, delta)
        checker.after_sample(self, cores)

    monkeypatch.setattr(GPU, "__init__", checked_init)
    monkeypatch.setattr(SIMTCore, "_issue", checked_issue)
    monkeypatch.setattr(StatsCollector, "sample", checked_sample)
    return checker


class TestActiveLanesAndOccupancy:
    # divergence, early EXIT and barriers between them
    @pytest.mark.parametrize("app", ["pathfinder", "needle", "lud"])
    def test_golden_runs(self, checker, app):
        profile_application(app, "RTX2060")
        assert checker.issues > 1000 and checker.samples > 100
        # the memo serves nearly every issue, and is recomputed at all
        assert checker.memo_hits > 4 * checker.recomputed > 0

    def test_partial_exits_inside_and_outside_divergence(self, checker):
        """Lanes that EXIT while the rest of their entry goes on, at
        the top level and inside a divergent region whose sibling then
        reconverges onto an entry that was buried meanwhile."""
        source = """
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    LDC R2, c[0x0]
    IADD R2, R2, R1
    MOV R3, 1
    ISETP.GE.AND P0, PT, R0, 24, PT
@P0 EXIT                            ; lanes 24..31 leave, 0..23 go on
    IADD R3, R3, 1
    ISETP.LT.AND P1, PT, R0, 8, PT
@P1 BRA low
    ISETP.GE.AND P2, PT, R0, 16, PT
@P2 EXIT                            ; 16..23 leave inside the region
    IADD R3, R3, 10
    BRA join
low:
    IADD R3, R3, 100
join:
    STG [R2], R3                    ; lanes 0..15, reconverged
    EXIT
"""
        dev = Device("RTX2060")
        out = dev.malloc(128)
        dev.launch(Kernel("exits", source, num_params=1), grid=1, block=32,
                   params=[out])
        assert dev.read_array(out, (32,), np.uint32).tolist() == (
            [102] * 8 + [12] * 8 + [0] * 16)
        assert checker.memo_hits and checker.samples

    def test_stack_written_from_outside(self, checker):
        """SIMT-stack writes from outside the warp, the way the
        injector makes them: a lane masked off followed by ``wake()``
        alone, and a warp emptied (no EXIT issued) -- the lanes and
        the occupancy sums follow."""
        source = """
    S2R R0, SR_TID_X
    MOV R1, 0
loop:
    IADD R1, R1, 1
    ISETP.LT.AND P0, PT, R1, 40, PT
@P0 BRA loop
    EXIT
"""

        class Writes:
            due = [30, 60]

            def due_cycle(self):
                return self.due[0] if self.due else None

            def apply_due(self, gpu, now):
                if not self.due or now != self.due[0]:
                    return
                warps = gpu.cores[0].ctas[0].warps
                if self.due.pop(0) == 30:
                    warps[0].stack[-1].mask[5] = False
                    warps[0].wake()
                    return
                assert not warps[1].done
                warps[1].stack[-1].mask[:] = False
                warps[1].normalize_stack()
                warps[1].wake()
                assert warps[1].done

        dev = Device("RTX2060")
        dev.gpu.injector = Writes()
        stats = dev.launch(Kernel("spin", source), grid=1, block=96)
        assert not dev.gpu.injector.due
        # two warps ran to the end, one stopped at cycle 60
        assert stats.cycles > 200
        assert stats.warp_cycles < 3 * stats.busy_sm_cycles

    @pytest.mark.parametrize("model", ["transient", "stuck_at_1"])
    def test_injected_solo_pack_restored(self, checker, tmp_path, model):
        """Faults that rewrite the SIMT stack, the scoreboard and the
        registers from outside the warp -- solo, in a lockstep pack
        and restored from a checkpoint: the invariants hold at every
        issue, and the three give the same canonical records."""
        texts = {}
        for label, how in (("solo", dict(batch=1)), ("pack", dict(batch=8)),
                           ("restored", dict(batch=1,
                                             checkpoint_dir=tmp_path))):
            config = CampaignConfig(
                benchmark="pathfinder", card="RTX2060", fault_model=model,
                structures=(Structure.SIMT_STACK, Structure.SCOREBOARD,
                            Structure.REGISTER_FILE),
                runs_per_structure=5, seed=3, early_stop="off", **how)
            seen = checker.issues
            result = Campaign(config).run(jobs=1)
            assert checker.issues > seen
            texts[label] = canonical_log_text(result.records)
            effects = {(r["structure"], r["effect"]) for r in result.records}
            # the control-unit faults bite: this is not all "Masked"
            assert {effect for structure, effect in effects
                    if structure != "register_file"} - {"Masked"}
        assert texts["solo"] == texts["pack"] == texts["restored"]


class TestSpecialRegistersAreLaunchConstants:
    @pytest.mark.parametrize("app", ["hotspot", "pathfinder"])
    def test_values_and_read_only(self, checker, app):
        checker.keep_warps = True
        profile_application(app, "RTX2060")
        assert checker.warps
        lane = np.arange(32, dtype=np.int64)
        for warp in checker.warps.values():
            launch = warp.cta.launch
            bx, by = launch.block
            linear = warp.warp_id * 32 + lane
            expected = {
                "SR_TID_X": linear % bx, "SR_TID_Y": linear // bx,
                "SR_TID_Z": 0, "SR_CTAID_X": warp.cta.cta_id[0],
                "SR_CTAID_Y": warp.cta.cta_id[1], "SR_CTAID_Z": 0,
                "SR_NTID_X": bx, "SR_NTID_Y": by, "SR_NTID_Z": 1,
                "SR_NCTAID_X": launch.grid[0], "SR_NCTAID_Y": launch.grid[1],
                "SR_NCTAID_Z": 1, "SR_LANEID": lane,
                "SR_WARPID": warp.warp_id,
            }
            assert sorted(warp.sregs) == sorted(expected)
            for name, value in expected.items():
                lanes = warp.sregs[name]
                assert lanes.dtype == np.uint32 and lanes.shape == (32,)
                assert np.array_equal(lanes, np.broadcast_to(value, 32)), name
                with pytest.raises(ValueError):
                    lanes[0] = 7

    def test_shared_between_the_ctas_of_a_launch(self, monkeypatch):
        arrivals = []
        add_cta = SIMTCore.add_cta

        def spy(core, cta):
            arrivals.append([warp.sregs for warp in cta.warps])
            add_cta(core, cta)

        monkeypatch.setattr(SIMTCore, "add_cta", spy)
        kernel = Kernel("k", "S2R R0, SR_TID_X\nEXIT", num_params=0)
        Device(tiny_config()).launch(kernel, grid=3, block=64)
        first, _, third = arrivals
        for name in first[0]:
            shared = first[0][name] is third[0][name]
            assert shared == (name not in ("SR_CTAID_X", "SR_CTAID_Y")), name
        assert first[0]["SR_LANEID"] is first[1]["SR_LANEID"]
        assert first[0]["SR_TID_X"] is not first[1]["SR_TID_X"]
        assert third[1]["SR_CTAID_X"][0] == 2


STS_LDS = """
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    LDC R2, c[0x0]          ; out
    LDC R3, c[0x4]          ; shared byte offset added to every lane
    IADD R4, R1, R3
    IADD R5, R0, 100
    STS [R1], R5            ; smem[tid] = tid + 100
    BAR.SYNC
    LDS R6, [R4]            ; smem[tid + offset/4], may alias or fault
    IADD R7, R2, R1
    STG [R7], R6
    EXIT
"""

LDG_AT = """
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    LDC R2, c[0x0]          ; out
    LDC R3, c[0x4]          ; address added to every lane's
    IADD R4, R2, R1
    IADD R5, R4, R3
    LDG R6, [R5]
    STG [R4], R6
    EXIT
"""


def run_shared(offset, config="RTX2060", smem_bytes=1024):
    """``out[tid] = smem[tid + offset / 4]`` after ``smem[tid] = tid +
    100``; returns the 32 words, or the violation's text."""
    dev = Device(config)
    out = dev.malloc(128)
    kernel = Kernel("sts_lds", STS_LDS, num_params=2, smem_bytes=smem_bytes)
    try:
        dev.launch(kernel, grid=1, block=32, params=[out, offset])
    except MemoryViolation as exc:
        return str(exc)
    return dev.read_array(out, (32,), np.uint32).tolist()


def run_global(delta):
    dev = Device("RTX2060")
    out = dev.to_device(np.arange(32, dtype=np.uint32))
    kernel = Kernel("ldg_at", LDG_AT, num_params=2)
    try:
        dev.launch(kernel, grid=1, block=32, params=[out, delta])
    except MemoryViolation as exc:
        return str(exc)
    return dev.read_array(out, (32,), np.uint32).tolist()


def clear_memos():
    cta_module._PATTERNS.clear()
    memory_module._SHAPES.clear()
    memory_module._ACCESSES.clear()


class TestAccessPatternMemo:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        clear_memos()
        yield
        clear_memos()

    def test_faulting_patterns_do_not_poison(self):
        """A corrupted address that faults -- in shared, in global
        memory -- then a clean run, then the same fault again: each
        gives what it gives in a process that ran nothing before."""
        sequence = [lambda: run_shared(1 << 20), lambda: run_shared(0),
                    lambda: run_shared(1 << 20), lambda: run_shared(2),
                    lambda: run_global(1 << 30), lambda: run_global(0),
                    lambda: run_global(1 << 30), lambda: run_global(2)]
        fresh = []
        for run in sequence:
            clear_memos()
            fresh.append(run())
        clear_memos()
        warm = [run() for run in sequence]
        assert warm == fresh
        assert fresh[1] == [tid + 100 for tid in range(32)]
        assert "shared" in fresh[0] and "misaligned" in fresh[3]
        assert "global" in fresh[4] and "misaligned" in fresh[7]
        # only the patterns that resolved were kept: the STS and the
        # clean LDS, which are the same pattern; and every clean LDG /
        # STG, at one line offset and lane offsets 4 * tid, and on
        # the same operands
        assert len(cta_module._PATTERNS) == 1
        assert len(memory_module._SHAPES) == 1
        assert len(memory_module._ACCESSES) == 1

    def test_resolved_per_kernel_and_per_card(self):
        """One lane-address pattern, three answers: past the CTA's own
        bytes it aliases back (by those bytes), past the SM's ceiling
        it faults (by the card)."""
        small_sm = tiny_config(shared_mem_per_sm=2048)
        written = [tid + 100 for tid in range(32)]
        for _ in range(2):  # the second round meets a filled memo
            # lanes at 4096 + 4 * tid: past 1 KiB of smem they alias
            # back into it, unless the SM ends at 2 KiB
            assert run_shared(4096, "RTX2060", smem_bytes=1024) == written
            assert "shared" in run_shared(4096, small_sm, smem_bytes=1024)
            # lanes at 1024 + 4 * tid: inside 2 KiB (never written),
            # aliased by 1 KiB
            assert run_shared(1024, "RTX2060", smem_bytes=2048) == [0] * 32
            assert run_shared(1024, "RTX2060", smem_bytes=1024) == written

    def test_bounded(self):
        """10 000 distinct patterns in one run: the memo stays at or
        under its cap (and the run is right)."""
        words = 10_000
        source = """
    S2R R0, SR_TID_X
    LDC R2, c[0x0]
    MOV R1, 0               ; byte address, the same in every lane
    MOV R3, 0               ; sum
loop:
    STS [R1], R1
    LDS R4, [R1]
    IADD R3, R3, R4
    IADD R1, R1, 4
    ISETP.LT.AND P0, PT, R1, %d, PT
@P0 BRA loop
    SHL R5, R0, 2
    IADD R5, R2, R5
    STG [R5], R3
    EXIT
""" % (4 * words)
        dev = Device("RTX2060")
        out = dev.malloc(128)
        kernel = Kernel("sweep", source, num_params=1, smem_bytes=4 * words)
        dev.launch(kernel, grid=1, block=32, params=[out])
        total = sum(range(0, 4 * words, 4)) & 0xFFFFFFFF
        assert dev.read_array(out, (32,), np.uint32).tolist() == [total] * 32
        assert 0 < len(cta_module._PATTERNS) <= cta_module.PATTERN_CAP

    def test_global_shapes_bounded(self, monkeypatch):
        """40 distinct global shapes in one run under a cap of 8: both
        memos empty when full, stay under the cap, and the run is
        right."""
        monkeypatch.setattr(memory_module, "SHAPE_CAP", 8)
        source = """
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    LDC R2, c[0x0]          ; out
    LDC R3, c[0x4]          ; in
    SHR R4, R0, 4           ; 0 for lanes 0..15, 1 for 16..31
    MOV R6, 0               ; shift of the upper half, in bytes
    MOV R7, 0               ; sum
loop:
    IMAD R8, R4, R6, R1     ; 4 * tid, + the shift above lane 15
    IADD R8, R3, R8
    LDG R9, [R8]
    IADD R7, R7, R9
    IADD R6, R6, 4
    ISETP.LT.AND P0, PT, R6, 160, PT
@P0 BRA loop
    IADD R5, R2, R1
    STG [R5], R7
    EXIT
"""
        dev = Device("RTX2060")
        words = np.arange(128, dtype=np.uint32)
        data, out = dev.to_device(words), dev.malloc(128)
        kernel = Kernel("shapes", source, num_params=2)
        dev.launch(kernel, grid=1, block=32, params=[out, data])
        want = [sum(int(words[tid + (tid >> 4) * k]) for k in range(40))
                for tid in range(32)]
        assert dev.read_array(out, (32,), np.uint32).tolist() == want
        assert 0 < len(memory_module._SHAPES) <= 8
        assert 0 < len(memory_module._ACCESSES) <= 8
