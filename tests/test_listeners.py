"""The access report, and those who hear it.

The simulator says once what an instruction did -- ``on_issue``,
``on_words``, ``on_cache`` (:meth:`repro.sim.gpu.GPU.listen`) -- and the
golden trace, the propagation tracer and the instruction tracer all
hear that one report.  Checked here, on all twelve workloads:

- the report itself: as many issues heard as instructions counted, and
  every reported word the one its instruction's addresses resolve to
  (as the tracer derived them itself before there was a report), with
  cycles, statistics integrals and state digests those of
  ``data/golden_timing.json`` whoever listens, joins or leaves (the
  loop runs no issue ahead while anyone listens, so it may take more
  iterations than the table's run alone);
- judge ≡ tracer: on one stream, every site
  :meth:`~repro.faults.early_stop.Prescreener.judge` proves dead from
  the recorded trace is closed with that fate by a tracer that watched
  the same cell live.  ``pytest --hypothesis-profile nightly`` (CI's
  ``fuzz`` job) watches twenty times the sites.
"""

import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.bench import BENCHMARK_CLASSES, make_benchmark
from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import (Campaign, CampaignConfig,
                                   profile_from_launches)
from repro.faults.early_stop import Prescreener
from repro.faults.runner import run_application
from repro.faults.sites import LiveState, resolve
from repro.faults.targets import Structure
from repro.obs.propagation import PropagationTracer
from repro.sim.cards import get_card
from repro.sim.device import Device, RunOptions
from repro.sim.errors import MemoryViolation
from repro.sim.gpu import EVENTS, GPU
from repro.sim.kernel import Kernel
from repro.sim.liveness import LivenessTrace
from repro.sim.trace import Tracer
from tests.test_golden_timing import measure
from tests.test_sites import Probe

CARD = "RTX2060"
TIMING = json.loads((Path(__file__).parent / "data"
                     / "golden_timing.json").read_text(encoding="utf-8"))
WORKLOADS = [cls.name for cls in BENCHMARK_CLASSES]
NIGHTLY = settings.default is settings.get_profile("nightly")
PROBE_CYCLES = 250 if NIGHTLY else 12
#: The workloads whose kernels use shared / local memory.
SHARED = {"backprop", "hotspot", "lud", "needle", "pathfinder", "scalarprod",
          "srad1"}
LOCAL = {"scalarprod"}


# -- the report itself -----------------------------------------------------------


def test_every_listener_of_an_event_has_its_one_signature():
    for event in EVENTS:
        signatures = {tuple(inspect.signature(getattr(cls, event)).parameters)
                      for cls in (LivenessTrace, PropagationTracer, Tracer)
                      if hasattr(cls, event)}
        assert len(signatures) == 1, (event, signatures)
    assert not any(name in vars(holder) for name in
                   ("liveness", "propagation", "tracer")
                   for holder in (Device(CARD).gpu, Device(CARD).gpu.l2))


class Report:
    """Counts what it hears and holds every word against the
    addresses of its instruction, read before it executes (a load may
    overwrite its own base).  Brings a :class:`Tracer` along for its
    issues 100..199 only."""

    def __init__(self):
        self.issues = 0
        self.words = Counter()
        self.heard = []  # (space, words, is_load)
        self.lines = Counter()
        self.passer_by = Tracer()
        self.addrs = self.lanes = None

    def on_issue(self, core_id, warp, plan, exec0, now):
        self.issues += 1
        if self.issues in (100, 200):
            (self.gpu.listen if self.issues == 100
             else self.gpu.unlisten)(self.passer_by)
        self.lanes = np.nonzero(exec0)[0].tolist()
        inst = plan.inst
        if inst.is_memory and inst.spec.space != "const":
            self.addrs = plan.addrs if plan.base is None else (
                warp.regs[plan.base][0].astype(np.int64) + plan.offset)

    def on_words(self, space, core_id, owner_age, words, lanes, is_load,
                 warp, plan, now):
        assert now == self.gpu.cycle
        assert lanes.tolist() == self.lanes
        if space == "shared":
            expected = [warp.cta._resolve_smem(int(self.addrs[lane])) >> 2
                        for lane in self.lanes]
            owner = warp.cta.warps[0].age
        elif space == "local":
            expected = [int(self.addrs[lane]) >> 2 for lane in self.lanes]
            owner = warp.age
        else:  # the end of a load through the caches: lines, no words
            assert space == "global" and is_load
            assert plan.is_load or plan.is_atomic
            expected, owner = [], warp.age
        assert (list(words), owner_age) == (expected, owner), str(plan.inst)
        assert space == "global" or is_load == plan.is_load
        self.words[space] += len(words)
        self.heard.append((space, list(words), is_load))

    def on_cache(self, name, line, kind):
        self.lines[kind] += 1


def keep_company(monkeypatch, recorder=LivenessTrace):
    """Every GPU built from here on is heard by a fresh recorder (it
    wants a run from cycle 0), a :class:`Report` and a tracer; returns
    the reports, in build order."""
    reports, init = [], GPU.__init__

    def init_and_listen(self, config):
        init(self, config)
        reports.append(Report())
        for listener in (recorder(), reports[-1], Tracer()):
            self.listen(listener)

    monkeypatch.setattr(GPU, "__init__", init_and_listen)
    return reports


@pytest.fixture
def company(monkeypatch):
    return keep_company(monkeypatch)


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_run_in_company_is_the_run_alone(name, company, tmp_path):
    entry = measure(name, "gto", False, tmp_path)
    alone = dict(TIMING["runs"][f"{name}/gto"])
    # a listener hears issues in cycle order, so with one the loop runs
    # no issue ahead: it may visit more cycles than the run alone, and
    # simulates the same ones -- cycles, occupancy integrals, every
    # state digest
    assert entry.pop("loop_iterations") >= alone.pop("loop_iterations")
    del entry["idle_cycles_skipped"], alone["idle_cycles_skipped"]
    assert entry == alone
    (report,) = company
    assert report.issues == sum(launch["instructions"]
                                for launch in entry["launches"])
    assert len(report.passer_by.records) == 100
    assert report.lines["fill"] and report.lines["rh"]
    assert "global" in report.words
    assert bool(report.words["shared"]) == (name in SHARED), report.words
    assert bool(report.words["local"]) == (name in LOCAL), report.words


def test_company_changes_no_record(tmp_path, monkeypatch):
    def log(checkpoint_dir):
        return canonical_log_text(Campaign(CampaignConfig(
            benchmark="pathfinder", card=CARD, runs_per_structure=3,
            structures=(Structure.REGISTER_FILE, Structure.SHARED_MEM,
                        Structure.L1D_CACHE, Structure.L2_CACHE),
            seed=7, early_stop="converge", propagation=True,
            checkpoint_dir=checkpoint_dir)).run().records)

    alone = log(tmp_path / "alone")
    with monkeypatch.context() as patch:
        reports = keep_company(patch, recorder=Tracer)  # restored runs
        assert log(tmp_path / "heard") == alone
    assert len(reports) > 5 and all(report.issues for report in reports)


STORES = Kernel("stores", """
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    IADD R4, R1, 1024
    STS [R4], R0            ; 1024 + 4 * tid: past the CTA's 1 KiB
    LDS R5, [R1+1024]       ; ... and so is this
    LDC R8, c[0x0]
    IADD R9, R8, R1
    STG [R9], R5
    EXIT
""", num_params=1, smem_bytes=1024)


def test_words_past_a_ctas_allocation_alias_back_into_it(company):
    dev = Device(CARD)
    out = dev.malloc(128)
    dev.launch(STORES, grid=1, block=32, params=[out])
    assert dev.read_array(out, (32,), np.uint32).tolist() == list(range(32))
    assert company[0].heard == [("shared", list(range(32)), False),
                                ("shared", list(range(32)), True)]


def test_an_issue_that_raises_is_heard_not_counted(company):
    dev = Device(CARD)
    with pytest.raises(MemoryViolation):
        dev.launch(STORES, grid=1, block=32, params=[1 << 40])
    assert company[0].issues == dev.gpu.stats.current.instructions + 1 == 8


# -- judge ≡ tracer --------------------------------------------------------------


class Watchers(Probe):
    """Rides the injector slot of a traced golden run like
    ``tests/test_sites.py``'s probe; at every probe cycle it has the
    sites one generated mask per structure lands on watched -- not
    corrupted -- by a tracer of their own, from that cycle to the end
    of the run."""

    def __init__(self, cycles, trace, seed, tag_bits):
        super().__init__(cycles, trace, seed)
        self.tag_bits = tag_bits

    def apply_due(self, gpu, now):
        if not self.cycles or self.cycles[0] > now:
            return
        while self.cycles and self.cycles[0] <= now:
            self.cycles.pop(0)
        for structure in Structure:
            if structure.is_control:
                continue  # the trace declines to resolve them
            # a data bit: a valid line's tag bits are never judged dead
            mask = self.mask(structure, now, bits=(
                int(self.rng.integers(0, 32))
                + (self.tag_bits if structure.is_cache else 0),))
            hook = bool(self.rng.integers(0, 2))
            sites = resolve(mask, LiveState(gpu), hook)
            if isinstance(sites, str):
                continue
            tracer = PropagationTracer(now, max_events=1 << 30)
            for site in sites:
                tracer.watch(site, gpu=gpu)
            self.resolved.append((mask, hook, tracer))


#: What only a simulation knows of a site's record.
SIMULATED = ("fate", "fate_cycle", "pc", "kernel", "events")
#: The events that observe a corrupted cell, by what holds it.
OBSERVERS = {"flip": {"rh", "wb", "peek"}, "hook": {"rh"}, None: {"read"}}
#: The events that can end a fate, by fate.
CLOSERS = {"overwritten": {"write", "wh"}, "evicted": {"fill", "inv"}}


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_site_judged_dead_is_closed_by_its_tracer_with_that_fate(name):
    golden_cycles = TIMING["runs"][f"{name}/gto"]["cycles"]
    card = get_card(CARD)
    rng = np.random.default_rng(24)
    trace = LivenessTrace()
    probe = Watchers(rng.choice(golden_cycles,
                                size=min(PROBE_CYCLES, golden_cycles),
                                replace=False), trace, rng, card.tag_bits)
    result = run_application(
        make_benchmark(name), CARD, keep_device=True,
        options=RunOptions(liveness=trace, injector=probe))
    assert result.passed and result.cycles == golden_cycles
    kernels = profile_from_launches(
        name, card, result.device.launches).kernels.values()
    result.device.gpu.release()

    judges = {hook: Prescreener(trace, card, hook) for hook in (False, True)}
    fates = Counter()
    for mask, hook, tracer in probe.resolved:
        kp = next(kp for kp in kernels
                  if any(start <= mask.cycle < end
                         for start, end in kp.windows))
        verdict = judges[hook].evaluate(mask, kp.regs_per_thread,
                                        kp.smem_bytes, kp.local_bytes)
        watched = tracer.finalize()["sites"]
        assert len(watched) == len(verdict.sites), mask
        for site, fate, seen in zip(verdict.sites, verdict.fates, watched):
            # the same cell: kind, coordinates, lanes, line validity
            assert all(seen[key] == value
                       for key, value in site.record().items()
                       if key not in SIMULATED), (mask, seen)
            if fate is None:
                continue  # may be observed: the run decides
            fates[site.kind, fate] += 1
            assert seen["fate"] == fate, (mask, seen)
            events = seen["events"]
            if fate in CLOSERS:
                closed = next(
                    at for at, (kind, cycle) in enumerate(events)
                    if cycle == seen["fate_cycle"] and kind in CLOSERS[fate])
                events = events[:closed]
            assert not OBSERVERS[site.mode].intersection(
                kind for kind, _ in events), (mask, seen)
    assert len(probe.resolved) >= 4 * min(PROBE_CYCLES, golden_cycles)
    assert sum(fates.values()) >= len(probe.resolved) // 4, fates
    assert {kind for kind, _ in fates} >= {"register", "cache"}, fates
