"""GigaThread CTA scheduling, occupancy limits, launch statistics."""

import numpy as np
import pytest

from repro.faults.injector import Injector
from repro.faults.mask import FaultMask
from repro.faults.targets import Structure
from repro.sim.device import Device, RunOptions
from repro.sim.kernel import Kernel, KernelLaunch
from repro.sim.trace import Tracer
from tests.conftest import page_source, tiny_config

COUNTER = Kernel("counter", """
    S2R R0, SR_CTAID_X
    S2R R2, SR_TID_X
    ISETP.NE.AND P0, PT, R2, RZ, PT
@P0 EXIT
    LDC R4, c[0x0]
    SHL R5, R0, 2
    IADD R5, R5, R4
    MOV R6, 1
    STG [R5], R6
    EXIT
""", num_params=1)


class TestOccupancyLimits:
    def make_kernel(self, smem=0, regs_body="    MOV R1, 1\n"):
        return Kernel("k", regs_body + "    EXIT", smem_bytes=smem)

    def test_thread_limit(self, device):
        launch = KernelLaunch.create(self.make_kernel(), grid=1, block=512)
        # 1024 threads/SM / 512 per CTA = 2 CTAs
        assert device.gpu.max_ctas_per_core(launch) == 2

    def test_cta_count_limit(self, device):
        launch = KernelLaunch.create(self.make_kernel(), grid=1, block=32)
        assert device.gpu.max_ctas_per_core(launch) == 32

    def test_smem_limit(self, device):
        kernel = self.make_kernel(smem=16 * 1024)  # 64 KB / 16 KB = 4
        launch = KernelLaunch.create(kernel, grid=1, block=32)
        assert device.gpu.max_ctas_per_core(launch) == 4

    def test_register_limit(self, device):
        body = "    MOV R255, 1\n"  # R255 is RZ -> invalid; use R254
        kernel = Kernel("k", "    MOV R254, 1\n    EXIT")
        launch = KernelLaunch.create(kernel, grid=1, block=256)
        # 255 regs * 256 threads = 65280 <= 65536 -> exactly 1 CTA
        assert device.gpu.max_ctas_per_core(launch) == 1

    def test_oversized_cta_rejected(self, device):
        kernel = self.make_kernel()
        launch = KernelLaunch.create(kernel, grid=1, block=(32, 64))
        with pytest.raises(ValueError, match="exceeds SM capacity"):
            device.gpu.max_ctas_per_core(launch)


class TestCTADistribution:
    def test_all_ctas_complete(self, device):
        out = device.malloc(4 * 64)
        device.launch(COUNTER, grid=64, block=32, params=[out])
        flags = device.read_array(out, (64,), np.uint32)
        assert (flags == 1).all()

    def test_small_grid_spreads_across_cores(self, device):
        out = device.malloc(4 * 8)
        stats = device.launch(COUNTER, grid=8, block=32, params=[out])
        assert len(stats.cores_used) == 8

    def test_grid_larger_than_chip_wraps(self, device):
        # 64 CTAs > 30 SMs: every SM used, some get two
        out = device.malloc(4 * 64)
        stats = device.launch(COUNTER, grid=64, block=32, params=[out])
        assert len(stats.cores_used) == 30

    def test_2d_grid_and_block(self, device):
        kernel = Kernel("k2d", """
    S2R R0, SR_CTAID_X
    S2R R1, SR_CTAID_Y
    S2R R2, SR_TID_X
    S2R R3, SR_TID_Y
    ISETP.NE.AND P0, PT, R2, RZ, PT
@P0 EXIT
    ISETP.NE.AND P0, PT, R3, RZ, PT
@P0 EXIT
    S2R R4, SR_NCTAID_X
    IMAD R5, R1, R4, R0      ; linear cta id
    LDC R6, c[0x0]
    SHL R7, R5, 2
    IADD R7, R7, R6
    MOV R8, 1
    STG [R7], R8
    EXIT
""", num_params=1)
        out = device.malloc(4 * 12)
        device.launch(kernel, grid=(4, 3), block=(8, 4), params=[out])
        assert (device.read_array(out, (12,), np.uint32) == 1).all()


class TestLaunchStats:
    def test_cycles_accumulate_across_launches(self, device):
        out = device.malloc(4 * 8)
        device.launch(COUNTER, grid=8, block=32, params=[out])
        first = device.cycle
        device.launch(COUNTER, grid=8, block=32, params=[out])
        assert device.cycle > first
        assert len(device.launches) == 2
        assert device.launches[1].start_cycle == first

    def test_occupancy_bounded(self, device):
        out = device.malloc(4 * 8)
        stats = device.launch(COUNTER, grid=8, block=32, params=[out])
        assert 0.0 < stats.occupancy <= 1.0

    def test_mean_threads_reflect_block_size(self, device):
        out = device.malloc(4 * 4)
        stats = device.launch(COUNTER, grid=4, block=32, params=[out])
        # one 32-thread CTA per SM; threads drain as warps exit
        assert 0 < stats.mean_threads_per_sm <= 32

    def test_instructions_counted(self, device):
        out = device.malloc(4)
        stats = device.launch(COUNTER, grid=1, block=32, params=[out])
        assert stats.instructions == len(COUNTER.instructions)

    def test_determinism(self):
        cycles = []
        for _ in range(2):
            dev = Device("RTX2060")
            out = dev.malloc(4 * 16)
            dev.launch(COUNTER, grid=16, block=32, params=[out])
            cycles.append(dev.cycle)
        assert cycles[0] == cycles[1]


class TestSchedulerPolicies:
    def _run(self, policy):
        dev = Device("RTX2060", RunOptions(scheduler_policy=policy))
        bench_out = dev.malloc(4 * 64)
        dev.launch(COUNTER, grid=64, block=32, params=[bench_out])
        return dev.cycle

    def test_lrr_and_gto_both_complete(self):
        assert self._run("gto") > 0
        assert self._run("lrr") > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            RunOptions(scheduler_policy="fifo")


class TestKernelLaunchValidation:
    def test_param_count_enforced(self):
        with pytest.raises(ValueError, match="expects 1 parameter"):
            KernelLaunch.create(COUNTER, grid=1, block=32, params=[])

    def test_float_params_packed_as_bits(self):
        kernel = Kernel("k", "    EXIT", num_params=1)
        launch = KernelLaunch.create(kernel, grid=1, block=32, params=[1.0])
        assert launch.params[0] == 0x3F800000

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            KernelLaunch.create(COUNTER, grid=0, block=32, params=[0])

    def test_warps_per_cta_rounds_up(self):
        kernel = Kernel("k", "    EXIT")
        launch = KernelLaunch.create(kernel, grid=1, block=33)
        assert launch.warps_per_cta == 2


# ---------------------------------------------------------------------------
# The warp scheduler: issue order, stalls and wake-ups, cycle by cycle.
#
# The expected sequences below are derived by hand from the rules, not
# from a run: one issue per scheduler per cycle; a destination is ready
# ``latency`` cycles after the issue (ALU 4, L1 hit 28, first touch of
# a line 200: DRAM); GTO asks the warp it issued last, then the others
# by age; LRR asks from just after that warp; a cycle in which nothing
# can issue jumps to the earliest wake-up.
# ---------------------------------------------------------------------------

ORDER = Kernel("order", """
    MOV R1, 1                ; pc0   R1 ready +4
    LDG R2, [0x1000]         ; pc1   warp 0 misses to DRAM, the rest hit L1
    IADD R3, R2, R1          ; pc2   waits for the load
    BAR.SYNC                 ; pc3
    STG [0x1000], R3         ; pc4
    EXIT                     ; pc5
""")

GTO_ORDER = [
    # (cycle, warp, pc)
    (0, 0, 0), (1, 0, 1),                # greedy warp 0 until it stalls
    (2, 1, 0), (3, 1, 1),                # then the oldest that can go
    (4, 2, 0), (5, 2, 1),
    (6, 3, 0), (7, 3, 1),
    (31, 1, 2), (32, 1, 3),              # L1 hits return: 3+28, 5+28, 7+28
    (33, 2, 2), (34, 2, 3),
    (35, 3, 2), (36, 3, 3),
    (201, 0, 2), (202, 0, 3),            # DRAM returns: 1+200; last arrival
    (203, 1, 4), (204, 1, 5),            # warp 0 is greedy but R3 lands at 205
    (205, 0, 4), (206, 0, 5),
    (207, 2, 4), (208, 2, 5),
    (209, 3, 4), (210, 3, 5),
]

LRR_ORDER = [
    (0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0),
    (4, 0, 1), (5, 1, 1), (6, 2, 1), (7, 3, 1),
    (33, 1, 2), (34, 2, 2), (35, 3, 2),  # 5+28, 6+28, 7+28
    (36, 1, 3), (37, 2, 3), (38, 3, 3),
    (204, 0, 2), (205, 0, 3),            # 4+200; last arrival releases
    (206, 1, 4), (207, 2, 4), (208, 3, 4), (209, 0, 4),
    (210, 1, 5), (211, 2, 5), (212, 3, 5), (213, 0, 5),
]


def one_scheduler(**overrides):
    return tiny_config(num_sms=1, num_schedulers_per_sm=1, **overrides)


def traced_launch(config, kernel, block, policy="gto", checkpointer=None):
    dev = Device(config, RunOptions(scheduler_policy=policy,
                                    checkpointer=checkpointer))
    assert dev.malloc(128) == 0x1000
    tracer = Tracer().attach(dev)
    dev.launch(kernel, grid=1, block=block)
    return dev, [(r.cycle, r.warp, r.pc) for r in tracer.records]


class TestIssueOrder:
    def test_gto_greedy_then_oldest(self):
        dev, order = traced_launch(one_scheduler(), ORDER, block=128)
        assert order == GTO_ORDER
        assert dev.cycle == 211
        # every visited cycle issued: a scheduler that issues wakes at
        # the earliest stall of its warps, the issuer's next one
        # included (7 -> 31 and 36 -> 201)
        assert dev.gpu.loop_iterations == len(GTO_ORDER)
        assert dev.gpu.idle_cycles_skipped == 211 - dev.gpu.loop_iterations

    def test_lrr_rotates(self):
        dev, order = traced_launch(one_scheduler(), ORDER, block=128,
                                   policy="lrr")
        assert order == LRR_ORDER
        assert dev.cycle == 214
        # one iteration per issue (7 -> 33 and 38 -> 204): each warp's
        # next instruction is resolved when it issues, so the warps the
        # issuer's visit did not ask are known to stall too
        assert dev.gpu.loop_iterations == len(LRR_ORDER)

    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_result_is_the_sum(self, policy):
        dev, _ = traced_launch(one_scheduler(), ORDER, block=128,
                               policy=policy)
        assert dev.read_array(0x1000, (1,), np.uint32)[0] == 1


EXIT_RELEASES = """
    S2R R0, SR_WARPID                    ; pc0
    ISETP.EQ.AND P0, PT, R0, {exiter}, PT  ; pc1
@P0 BRA leave                            ; pc2
    BAR.SYNC                             ; pc3   the other warp waits here
    MOV R5, 1                            ; pc4
    EXIT                                 ; pc5
leave:
    LDG R2, [0x1000]                     ; pc6   issued at 9, back at 209
    IADD R3, R2, 1                       ; pc7
    EXIT                                 ; pc8   at 210: releases the barrier
"""


class TestBarrierReleasedByExit:
    """Two warps on two schedulers; scheduler 0 is asked first."""

    def run(self, exiter):
        kernel = Kernel("release", EXIT_RELEASES.format(exiter=exiter))
        _, order = traced_launch(tiny_config(num_sms=1), kernel, block=64)
        return order

    def test_released_in_the_same_cycle_when_asked_later(self):
        order = self.run(exiter=0)
        assert order[-4:] == [(209, 0, 7), (210, 0, 8),
                              (210, 1, 4), (211, 1, 5)]

    def test_released_for_the_next_cycle_when_asked_earlier(self):
        order = self.run(exiter=1)
        assert order[-4:] == [(209, 1, 7), (210, 1, 8),
                              (211, 0, 4), (212, 0, 5)]

    def test_waiting_warp_costs_no_iterations(self):
        order = self.run(exiter=0)
        assert (9, 1, 3) in order  # BAR
        assert not [rec for rec in order if 9 < rec[0] < 209]

    @pytest.mark.parametrize("exiter", [0, 1])
    def test_only_cycles_that_issue_are_visited(self, exiter):
        # the cycle after an issue is skipped once every warp of its
        # scheduler is known to stall past it (9 -> 209 for the load)
        kernel = Kernel("release", EXIT_RELEASES.format(exiter=exiter))
        dev, order = traced_launch(tiny_config(num_sms=1), kernel, block=64)
        assert dev.gpu.loop_iterations == len({rec[0] for rec in order})


class TestFetchMissWakeUp:
    def test_miss_wakes_at_ifetch_ready(self):
        config = one_scheduler(model_icache=True, ifetch_miss_latency=50)
        kernel = Kernel("two", "    MOV R1, 1\n    EXIT")
        dev, order = traced_launch(config, kernel, block=32)
        # cycle 0 misses; both words share the line that arrives at 50
        assert order == [(50, 0, 0), (51, 0, 1)]
        assert dev.gpu.loop_iterations == 3
        assert dev.gpu.idle_cycles_skipped == 49


class _SnapshotAt:
    """Checkpointer stand-in: one snapshot at the first visited cycle
    at or after ``cycle``."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.snap = None

    def on_cycle(self, gpu, launch, queue):
        if self.snap is None and gpu.cycle >= self.cycle:
            self.snap = gpu.snapshot(launch, queue)
            self.pages = page_source(gpu.memory)


class TestRestoreMidStall:
    @pytest.mark.parametrize("policy,order,at", [
        ("gto", GTO_ORDER, 31),    # warps 0, 2, 3 stalled on their loads
        ("gto", GTO_ORDER, 203),   # after the barrier release
        ("lrr", LRR_ORDER, 36),    # warp 0 stalled, the others before BAR
    ])
    def test_resumes_to_the_same_cycles(self, policy, order, at):
        capture = _SnapshotAt(at)
        dev, full = traced_launch(one_scheduler(), ORDER, block=128,
                                  policy=policy, checkpointer=capture)
        assert full == order
        assert capture.snap["rest"]["cycle"] == at

        resumed = Device(one_scheduler(),
                         RunOptions(scheduler_policy=policy))
        resumed.malloc(128)
        tracer = Tracer().attach(resumed)
        request = KernelLaunch.create(ORDER, grid=1, block=128)
        queue = resumed.gpu.restore(capture.snap, request, capture.pages)
        resumed.gpu.resume_launch(request, queue)
        assert [(r.cycle, r.warp, r.pc) for r in tracer.records] == \
            [rec for rec in order if rec[0] >= at]
        assert resumed.cycle == dev.cycle

    def test_remembered_stall_is_not_snapshotted(self):
        capture = _SnapshotAt(31)
        traced_launch(one_scheduler(), ORDER, block=128,
                      checkpointer=capture)
        warp = capture.snap["c0.cta0.w0"]
        assert sorted(warp) == sorted([
            "regs", "preds", "exited", "live_count", "stack", "local_mem",
            "reg_ready", "pred_ready", "sb_latest", "at_barrier", "done",
            "ifetch_ready"])


class TestInjectedControlStateWakesTheWarp:
    """One warp, stalled on its load from cycle 2 until 201; a fault
    at cycle 100 changes when it may issue from outside the warp."""

    def run(self, mask):
        injector = Injector([mask])
        dev = Device(one_scheduler(), RunOptions(injector=injector))
        dev.malloc(128)
        tracer = Tracer().attach(dev)
        dev.launch(ORDER, grid=1, block=32)
        assert injector.log[0]["applied"]
        return dev, [(r.cycle, r.pc) for r in tracer.records]

    def test_lowered_scoreboard_entry_releases_the_stall(self):
        # R2 is ready at 201 = 0b11001001; clearing bit 7 makes it 73
        dev, order = self.run(FaultMask(
            structure=Structure.SCOREBOARD, cycle=100, entry_index=2,
            bit_offsets=(7,)))
        # IADD at the injection cycle (reading R2 before the load
        # lands), BAR, then STG once R3 is ready at 100+4
        assert order == [(0, 0), (1, 1), (100, 2), (101, 3), (104, 4),
                         (105, 5)]
        assert dev.cycle == 106

    def test_raised_scoreboard_entry_extends_the_stall(self):
        # bit 8: 201 -> 457
        _, order = self.run(FaultMask(
            structure=Structure.SCOREBOARD, cycle=100, entry_index=2,
            bit_offsets=(8,)))
        assert order[2] == (457, 2)

    def test_corrupted_stack_pc_is_fetched_at_once(self):
        # entry bits 32-47 hold the pc: 2 -> 3 skips the stalled IADD;
        # BAR has no operands and issues in the injection cycle
        _, order = self.run(FaultMask(
            structure=Structure.SIMT_STACK, cycle=100, entry_index=0,
            bit_offsets=(32,)))
        assert order == [(0, 0), (1, 1), (100, 3), (101, 4), (102, 5)]
