"""The cycle loop against a polling reference.

:func:`polling_loop` runs a launch the slow, obvious way: it advances
one cycle at a time and asks every warp at every cycle whether it can
issue (with the L1I modelled asking is a cache access, so there it asks
at the cycles below only), and no scheduler runs an issue ahead.  What
the riders see is defined without the real loop's memos: a cycle is
*eventful* when it is a loop's first, follows an issue or a CTA
retirement, has a witness, injector or pack due, or has a warp that can
issue; every rider is asked at every eventful cycle, and the budget's
watchdog and the deadlock check act at eventful cycles only, as
:meth:`repro.sim.gpu.GPU._cycle_loop` documents.

The real loop must visit a subset of the eventful cycles and give the
same issues at the same cycles, launch integrals, checkpoint manifests,
canonical records and errors: on golden runs under both schedulers,
launches in waves, with a checkpoint capture, under transient,
``stuck_at_1`` and control-unit (SIMT stack, scoreboard) injectors, a
witness and a lockstep pack, a corrupted reconvergence pc, into a
budget's timeout and into deadlocks (one that follows an issue, also
with a rider due after it).  Tier-1 runs three workloads (and the
control faults on one); ``pytest --hypothesis-profile nightly`` all
twelve, the control faults on all twelve under both schedulers, and
both instruction-cache cases.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from repro.bench import BENCHMARK_CLASSES, make_benchmark
from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.early_stop import EarlyConvergence
from repro.faults.executor import CampaignExecutor
from repro.faults.runner import run_application
from repro.faults.targets import Structure
from repro.sim.batch import LockstepPack
from repro.sim.cards import get_card
from repro.sim.checkpoint import CheckpointRecorder
from repro.sim.core import NEVER, IssuePlan, SIMTCore
from repro.sim.device import Device, RunOptions
from repro.sim.errors import DeadlockError, SimTimeout
from repro.sim.gpu import GPU
from repro.sim.kernel import Kernel
from repro.sim.stats import StatsCollector
from repro.sim.trace import Tracer

CARD = "RTX2060"
NIGHTLY = settings.default is settings.get_profile("nightly")
# (hotspot and gaussian have schedulers of two warps)
WORKLOADS = ([cls.name for cls in BENCHMARK_CLASSES] if NIGHTLY
             else ["hotspot", "gaussian", "needle"])


def first_issue(warp, now: int) -> int:
    """The first cycle from ``now`` at which asking ``warp`` issues (or
    raises), if nothing else happens before."""
    if warp.done or warp.at_barrier:
        return NEVER
    pc, instructions = warp.stack[-1].pc, warp.cta.instructions
    if not 0 <= pc < len(instructions):
        return now
    plan = instructions[pc].plan or IssuePlan(instructions[pc])
    return max(now, warp.hazards_clear_at(plan.hazard_regs,
                                          plan.hazard_preds))


def can_issue(warp, now: int) -> bool:
    """Whether asking ``warp`` at ``now`` issues (or raises)."""
    return first_issue(warp, now) == now


def forget(core) -> None:
    """Drop every next instruction the core and its warps remember."""
    core.ready_at = 0
    core._sched_ready = [0] * len(core._sched_ready)
    for cta in core.ctas:
        for warp in cta.warps:
            warp.ready_at, warp.next_plan = 0, None


def polling_loop(gpu, launch, queue, limit):
    """:meth:`GPU._cycle_loop`, one cycle at a time, every warp asked."""
    busy = [core for core in gpu.cores if core.ctas]
    icache = gpu.config.model_icache
    budget = NEVER if gpu.cycle_budget is None else gpu.cycle_budget
    gpu.skip_to, eventful = NEVER, True
    gpu.in_loop = True
    try:
        with np.errstate(all="ignore"):
            while queue or busy:
                now = gpu.cycle
                if eventful:
                    gpu.eventful.append(now)
                    gpu._ride(launch, queue, True)  # due or not
                issued = False
                for core in busy if eventful or not icache else ():
                    if not icache:
                        forget(core)
                    # horizon 0: no scheduler runs an issue ahead
                    issued = core.cycle(now, 0) or issued
                assert eventful or not issued, f"unforeseen issue at {now}"
                retired = bool(gpu.drained)
                for cta in gpu.drained:
                    cta.core.retire(cta)
                gpu.drained.clear()
                if retired and queue:
                    gpu._assign_ctas(launch, queue, limit,
                                     visible_from=now + 1)
                if eventful and not issued and not retired and all(
                        warp.done or warp.at_barrier for core in busy
                        for cta in core.ctas for warp in cta.warps):
                    raise DeadlockError(now, "no warp can make progress")
                gpu.stats.sample(busy, 1)
                gpu.cycle = now + 1
                if retired:
                    busy = [core for core in gpu.cores if core.ctas]
                eventful = (issued or retired or gpu.skip_to <= gpu.cycle
                            or any(
                                core.ready_at <= gpu.cycle if icache
                                else can_issue(warp, gpu.cycle)
                                for core in busy for cta in core.ctas
                                for warp in cta.warps))
                if gpu.cycle > budget and not eventful:
                    # the run times out at the next eventful cycle, which
                    # a flipped scoreboard entry can put 2**31 cycles
                    # away: find it without stepping there
                    later = min([gpu.skip_to] + [
                        core.ready_at if icache
                        else first_issue(warp, gpu.cycle)
                        for core in busy for cta in core.ctas
                        for warp in cta.warps])
                    gpu.stats.sample(busy, later - gpu.cycle)
                    gpu.cycle, eventful = later, True
                if eventful and gpu.cycle > budget:
                    raise SimTimeout(gpu.cycle)
    finally:
        gpu.in_loop = False
    return gpu.stats.end_launch(gpu.cycle)


@pytest.fixture(autouse=True)
def visits(monkeypatch):
    """Each GPU's stats keep the cycles its loops visit in ``visited``:
    read off the occupancy sampling, which every iteration does once;
    each GPU keeps every issue, as (cycle, core, warp age, pc), in
    ``issued`` (not as a listener: one would stop runs ahead)."""
    sample, issue = StatsCollector.sample, SIMTCore._issue

    def issuing(core, warp, plan, now):
        core.gpu.__dict__.setdefault("issued", []).append(
            (now, core.core_id, warp.age, plan.inst.pc))
        issue(core, warp, plan, now)

    def sampling(stats, cores, delta):
        launch = stats.current
        if getattr(stats, "probe", None) is not launch:
            stats.probe, stats.probe_at = launch, launch.start_cycle
        stats.__dict__.setdefault("visited", []).append(stats.probe_at)
        stats.probe_at += delta
        sample(stats, cores, delta)

    monkeypatch.setattr(StatsCollector, "sample", sampling)
    monkeypatch.setattr(SIMTCore, "_issue", issuing)


def both(monkeypatch, run):
    """``run()`` through the real loop, then through the polling one;
    every GPU the latter builds lists its eventful cycles."""
    real = run()
    with monkeypatch.context() as patch:
        init = GPU.__init__

        def eventful_init(gpu, config):
            init(gpu, config)
            gpu.eventful = []

        patch.setattr(GPU, "__init__", eventful_init)
        patch.setattr(GPU, "_cycle_loop", polling_loop)
        polled = run()
    return real, polled


def golden(name, policy, icache, directory=None):
    card = get_card(CARD)
    if icache:
        card = dataclasses.replace(card, model_icache=True)
    recorder = None if directory is None else CheckpointRecorder(directory)
    result = run_application(
        make_benchmark(name), card, keep_device=True,
        options=RunOptions(scheduler_policy=policy, checkpointer=recorder))
    assert result.status == "completed" and result.passed
    gpu = result.device.gpu
    return {"cycles": result.cycles,
            "launches": [dataclasses.asdict(ls)
                         for ls in result.device.launches],
            "manifest": recorder and recorder.checkpoints,
            "visited": gpu.stats.visited,
            "issued": sorted(gpu.issued),
            "eventful": getattr(gpu, "eventful", None)}


CASES = [(name, policy, False) for name in WORKLOADS
         for policy in ("gto", "lrr")]
CASES += [(name, "gto", True) for name in ("vectoradd", "pathfinder")
          if NIGHTLY or name == "vectoradd"]


@pytest.mark.parametrize("name,policy,icache", CASES, ids=[
    f"{n}/{p}" + ("/icache" if i else "") for n, p, i in CASES])
def test_golden_runs(monkeypatch, tmp_path, name, policy, icache):
    sets = iter(("real", "polled"))
    real, polled = both(monkeypatch, lambda: golden(
        name, policy, icache, None if icache else tmp_path / next(sets)))
    for key in ("cycles", "launches", "manifest", "issued"):
        assert real[key] == polled[key], key
    assert set(real["visited"]) <= set(polled["eventful"])
    assert len(real["visited"]) < len(polled["eventful"]) or icache
    assert len(polled["eventful"]) < polled["cycles"]


@pytest.mark.parametrize("name", ["hotspot", "backprop", "kmeans"])
def test_launches_in_waves(monkeypatch, name):
    # one SM holding two CTAs: the rest arrive mid-launch, into
    # schedulers whose other CTA's warps must not have run ahead
    card = dataclasses.replace(get_card(CARD), num_sms=1, max_ctas_per_sm=2)

    def run():
        result = run_application(make_benchmark(name), card, keep_device=True)
        assert result.status == "completed" and result.passed
        return ([dataclasses.asdict(ls) for ls in result.device.launches],
                sorted(result.device.gpu.issued))

    real, polled = both(monkeypatch, run)
    assert real == polled


def campaign_log(**settings_):
    config = CampaignConfig(**{
        "benchmark": "pathfinder", "card": CARD, "runs_per_structure": 6,
        "structures": (Structure.REGISTER_FILE, Structure.SHARED_MEM,
                       Structure.L1D_CACHE), "seed": 5, **settings_})
    executor = CampaignExecutor(batch=config.batch)
    records = executor.execute(Campaign(config).plan())
    return canonical_log_text(records), executor.batch_stats


# SIMT-stack and scoreboard flips rewrite, from outside a warp, what its
# scheduler remembers of it; on single-wave apps (every app here, on
# this card) a GTO scheduler may run ALU issues ahead
CONTROL = [(cls.name, policy) for cls in BENCHMARK_CLASSES
           if NIGHTLY or cls.name == "scalarprod"
           for policy in ("gto", "lrr") if NIGHTLY or policy == "gto"]


@pytest.mark.parametrize("settings_", [
    dict(early_stop="off"),
    dict(early_stop="full", checkpoint_dir=True),
    dict(early_stop="full", checkpoint_dir=True, batch=8,
         benchmark="scalarprod", runs_per_structure=16),
    dict(fault_model="stuck_at_1", early_stop="off"),
    dict(structures=(Structure.REGISTER_FILE,), runs_per_structure=12,
         seed=3, early_stop="off", batch=2),
] + [dict(benchmark=name, scheduler_policy=policy, fault_model="control",
          structures=(Structure.SIMT_STACK, Structure.SCOREBOARD),
          runs_per_structure=8, early_stop="off") for name, policy in CONTROL],
    ids=["transient", "witness", "pack", "stuck_at_1", "peeled_pack"]
    + [f"control/{name}/{policy}" for name, policy in CONTROL])
def test_campaign_records(monkeypatch, tmp_path, settings_):
    ends = []  # where each pack ended its simulation
    on_cycle = LockstepPack.on_cycle

    def ending(pack, gpu, launch, queue):
        try:
            on_cycle(pack, gpu, launch, queue)
        except EarlyConvergence:
            ends.append(gpu.cycle)
            raise

    monkeypatch.setattr(LockstepPack, "on_cycle", ending)
    sets = iter(("real", "polled"))  # a warm set would skip the capture

    def run():
        ends.clear()
        return (*campaign_log(**{
            **settings_, "checkpoint_dir": settings_.get("checkpoint_dir")
            and tmp_path / next(sets)}), list(ends))

    real, polled = both(monkeypatch, run)
    assert real == polled
    assert real[1]["packs"] > 0 or not settings_.get("batch")


class Marks:
    """Injector stand-in that notes when each of its cycles is applied."""

    log = ()

    def __init__(self, cycles):
        self.cycles, self.applied = list(cycles), []

    def due_cycle(self):
        return self.cycles[0] if self.cycles else None

    def apply_due(self, gpu, now):
        while self.cycles and self.cycles[0] <= now:
            self.applied.append((self.cycles.pop(0), now))


def test_riders_are_asked_when_due(monkeypatch):
    def run():
        marks = Marks(range(0, 4000, 7))
        run_application(make_benchmark("pathfinder"), CARD,
                        options=RunOptions(injector=marks))
        return marks.applied

    real, polled = both(monkeypatch, run)
    assert real == polled and all(due == at for due, at in real)


def test_budget_timeout(monkeypatch):
    # the budget ends at an issue after which the loop skips: the
    # cycle past it is where the run times out
    traced = Device(CARD)
    tracer = Tracer().attach(traced)
    make_benchmark("pathfinder").run(traced)
    issues = sorted({record.cycle for record in tracer.records})
    budget = next(cycle for cycle, after in zip(issues, issues[1:])
                  if after > cycle + 2 and cycle > 1000)

    def run():
        result = run_application(make_benchmark("pathfinder"), CARD,
                                 options=RunOptions(cycle_budget=budget),
                                 keep_device=True)
        return (result.status, result.error, result.cycles,
                sorted(result.device.gpu.issued))

    real, polled = both(monkeypatch, run)
    assert real == polled and real[0] == "timeout"
    assert str(budget + 1) in real[1]


SPIN = """
    S2R R0, SR_WARPID
    ISETP.EQ.AND P0, PT, R0, 1, PT
@P0 BRA spin
    LDG R2, [0x1000]
    {wait}
    BAR.SYNC
    BRA out
spin:
    IADD R1, R1, 1
    BRA spin
out:
    EXIT
"""
LATER = 5000


class Kill:
    """Injector stand-in: at cycle 90 the spinning warp stops.  Drained,
    it leaves the warp waiting for it at the barrier waiting for ever;
    only marked done (its CTA is never told), it lets the other warp go
    on to an EXIT that is the last issue and retires nothing.  ``then``:
    a later cycle it is due at, which must not delay the deadlock."""

    log = ()

    def __init__(self, drain, then=None):
        self.cycle, self.drain, self.then = 90, drain, then

    def due_cycle(self):
        return self.then if self.cycle is None else self.cycle

    def apply_due(self, gpu, now):
        if self.cycle is not None and now >= self.cycle:
            self.cycle = None
            warp = gpu.cores[0].ctas[0].warps[1]
            if self.drain:
                warp.stack[-1].mask[:] = False
                warp.normalize_stack()
            else:
                warp.done = True
            warp.wake()
        elif self.then is not None and now >= self.then:
            self.then = None


# drained: the waiting warp is at the barrier before the kill, and
# nothing issues at the deadlock; marked done: the waiting warp waits
# for its load past the kill, and the deadlock follows an issue
@pytest.mark.parametrize("drain,wait,then", [
    (True, "NOP", None), (False, "IADD R3, R2, 1", None),
    (False, "IADD R3, R2, 1", LATER)],
    ids=["idle", "after_issue", "after_issue_rider_later"])
def test_deadlock(monkeypatch, drain, wait, then):
    kernel = Kernel("spin", SPIN.format(wait=wait))

    def run():
        dev = Device(CARD)
        dev.malloc(128)
        dev.gpu.injector = Kill(drain, then)
        with pytest.raises(DeadlockError) as raised:
            dev.launch(kernel, grid=1, block=64)
        return str(raised.value), dev.gpu.cycle

    real, polled = both(monkeypatch, run)
    assert real == polled and real[1] < LATER


RUN = """
    MOV R1, 1
    IADD R1, R1, 1
    IADD R1, R1, 1          ; pc2
    IADD R1, R1, 1
    IADD R1, R1, 1          ; pc4: its pc + 1 is the corrupted reconv pc
    IADD R1, R1, 1
    IADD R1, R1, 1
    EXIT
"""


class Reconverge:
    """Injector stand-in: at cycle 3 the bottom stack entry's
    reconvergence pc becomes 5, as a SIMT-stack flip makes it."""

    log = ()

    def __init__(self):
        self.cycle = 3

    def due_cycle(self):
        return self.cycle

    def apply_due(self, gpu, now):
        if self.cycle is not None and now >= self.cycle:
            self.cycle = None
            warp = gpu.cores[0].ctas[0].warps[0]
            warp.stack[0].reconv_pc = 5
            warp.normalize_stack()
            warp.wake()


def test_a_corrupted_reconvergence_pc_drains_at_its_cycle(monkeypatch):
    # the dependent IADDs leave gaps a run ahead would cover in one
    # visit; the one that reaches pc 5 drains the warp, and the CTA
    # retires right after its cycle, not after the visit's
    def run(injector):
        dev = Device(CARD)
        dev.gpu.injector = injector
        stats = dev.launch(Kernel("run", RUN), grid=1, block=32)
        return stats.cycles, stats.instructions, sorted(dev.gpu.issued)

    real, polled = both(monkeypatch, lambda: run(Reconverge()))
    assert real == polled
    assert real[1] == 5 and real[0] < run(None)[0]
