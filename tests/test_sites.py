"""One fault site: the resolver's two populations agree, and a
pre-screened record says what the trace of the same spec says.

Pre-screen soundness rests on :func:`repro.faults.sites.resolve` giving
the golden trace's reconstruction (:class:`GoldenState`) the sites it
gives the live GPU (:class:`LiveState`).  ``TestPopulationsAgree``
compares the two directly on all twelve workloads: a probe with the
injector's ``due_cycle()`` / ``apply_due(gpu, now)`` that corrupts
nothing rides one traced golden run and resolves generated masks
against the live GPU at sampled cycles; the finished trace then has to
resolve the same masks to the same sites -- coordinates, lanes and
line validity.  Fixed seed, a few seconds for the twelve (the budget
``tests/conftest.py::generated`` gives a generated test in tier-1).
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BENCHMARK_CLASSES, make_benchmark
from repro.faults.campaign import (Campaign, CampaignConfig,
                                   profile_from_launches)
from repro.faults.executor import execute_run
from repro.faults.mask import FaultMask
from repro.faults.runner import run_application
from repro.faults.sites import GoldenState, LiveState, Site, resolve
from repro.faults.targets import Structure
from repro.obs.propagation import explain_record
from repro.sim.cards import get_card
from repro.sim.device import RunOptions
from repro.sim.liveness import LivenessTrace

CARD = "RTX2060"
TIMING = json.loads((Path(__file__).parent / "data"
                     / "golden_timing.json").read_text(encoding="utf-8"))
SAMPLES = 250


class Probe:
    """Rides the injector slot of a traced golden run and resolves
    generated masks against the live GPU; changes nothing."""

    def __init__(self, cycles, trace, seed):
        self.cycles = sorted(int(c) for c in cycles)
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.log = []  # what a run reads off its injector
        #: ``(mask, what it resolved to on the live GPU)``
        self.resolved = []

    def due_cycle(self):
        return self.cycles[0] if self.cycles else None

    def apply_due(self, gpu, now):
        if not self.cycles or self.cycles[0] > now:
            return
        while self.cycles and self.cycles[0] <= now:
            self.cycles.pop(0)
        live = LiveState(gpu)
        for structure in Structure:
            mask = self.mask(structure, now)
            found = resolve(mask, live)
            if not isinstance(found, str):
                found = tuple(dataclasses.replace(site, handle=None)
                              for site in found)
            self.resolved.append((mask, found))

    def mask(self, structure, cycle, bits=(0,)):
        rng = self.rng
        entry = int(rng.integers(0, 1 << 16))
        if structure.is_cache and rng.random() < 0.75:
            # a uniformly drawn line is almost always invalid: mostly
            # aim at lines this level has filled (or dropped) so far
            touched = sorted({line for (kind, name), lines
                              in self.trace.events.items()
                              if kind == "cache"
                              and name.startswith(structure.cache.upper())
                              for line in lines})
            if touched:
                entry = touched[int(rng.integers(0, len(touched)))]
        return FaultMask(structure, cycle, entry, bits,
                         warp_level=bool(rng.integers(0, 2)),
                         n_blocks=int(rng.integers(1, 3)),
                         n_cores=int(rng.integers(1, 3)),
                         seed=int(rng.integers(0, 2**31 - 1)),
                         # half of them land in caches through hooks
                         fault_model=("cache_hook" if rng.integers(0, 2)
                                      else "transient"))


class TestPopulationsAgree:
    @pytest.mark.parametrize("name", [cls.name for cls in BENCHMARK_CLASSES])
    def test_live_gpu_and_golden_trace_resolve_alike(self, name):
        golden_cycles = TIMING["runs"][f"{name}/gto"]["cycles"]
        rng = np.random.default_rng(22)
        trace = LivenessTrace()
        probe = Probe(rng.choice(golden_cycles,
                                 size=min(SAMPLES, golden_cycles),
                                 replace=False), trace, seed=rng)
        result = run_application(
            make_benchmark(name), CARD, keep_device=True,
            options=RunOptions(liveness=trace, injector=probe))
        assert result.passed and result.cycles == golden_cycles
        card = get_card(CARD)
        kernels = profile_from_launches(
            name, card, result.device.launches).kernels.values()
        result.device.gpu.release()
        assert len(probe.resolved) >= 0.9 * len(Structure) * min(
            SAMPLES, golden_cycles)

        kinds, valid_lines = set(), 0
        for mask, live in probe.resolved:
            kp = next(kp for kp in kernels
                      if any(start <= mask.cycle < end
                             for start, end in kp.windows))
            golden = resolve(mask, GoldenState(
                trace, mask.cycle, card, kp.regs_per_thread,
                kp.smem_bytes, kp.local_bytes))
            if mask.structure.is_control and not isinstance(live, str):
                assert golden is None, mask  # the trace declines
                continue
            assert golden == live, mask
            if not isinstance(live, str):
                kinds.add(live[0].kind)
                valid_lines += sum(bool(site.valid) for site in live)
        assert {"register", "cache"} <= kinds
        assert valid_lines, "no valid cache line compared"


def sites_modulo_simulation(record):
    """A record's propagation sites without what only a simulation
    knows about them."""
    return [{key: value for key, value in site.items()
             if key not in ("events", "events_truncated", "fate_cycle",
                            "pc", "kernel")}
            for site in record["propagation"]["sites"]]


class TestPrescreenedRecordSaysWhatTheTraceSays:
    """The sites of a pre-screened run's instant record -- kind,
    coordinates, lanes, line validity, mode, each site's own fate --
    are the sites the tracer reports when the same spec is simulated."""

    @pytest.mark.parametrize("bench,structures,runs,overrides", [
        ("vectoradd", (Structure.REGISTER_FILE, Structure.SHARED_MEM,
                       Structure.L1T_CACHE, Structure.L2_CACHE), 12, {}),
        ("scalarprod", (Structure.SHARED_MEM, Structure.LOCAL_MEM), 8,
         {"n_blocks": 2}),
        ("pathfinder", (Structure.L1T_CACHE,), 6, {"n_cores": 2}),
        ("pathfinder", (Structure.L1D_CACHE, Structure.L2_CACHE), 8,
         {"fault_model": "cache_hook"}),
    ], ids=["vectoradd", "scalarprod-blocks2", "pathfinder-cores2",
            "pathfinder-hook"])
    def test_instant_sites_equal_traced_sites(self, bench, structures,
                                              runs, overrides):
        cfg = CampaignConfig(
            benchmark=bench, card=CARD, structures=structures,
            runs_per_structure=runs, seed=5, early_stop="full",
            propagation=True, **overrides)
        screened = [s for s in Campaign(cfg).plan() if s.prescreened]
        assert len(screened) >= runs
        for spec in screened:
            instant = execute_run(spec)
            assert instant["propagation"]["source"] == "prescreen"
            traced = execute_run(dataclasses.replace(
                spec, early_stop="off", prescreened=False,
                prescreen_reason="", prescreen_site=""))
            assert traced["propagation"]["source"] == "trace"
            assert traced["effect"] == "Masked", spec.key
            assert sites_modulo_simulation(instant) \
                == sites_modulo_simulation(traced), spec.key
            assert sites_modulo_simulation(instant), spec.key

    def test_explain_run_names_the_lanes(self):
        cfg = CampaignConfig(
            benchmark="vectoradd", card=CARD,
            structures=(Structure.REGISTER_FILE,), runs_per_structure=12,
            seed=5, early_stop="full", propagation=True)
        spec = next(s for s in Campaign(cfg).plan() if s.prescreened)
        record = execute_run(spec)
        (site,) = record["propagation"]["sites"]
        assert len(site["lanes"]) == 1
        assert f"(lanes {site['lanes'][0]})" in explain_record(record)


class TestSiteValue:
    def test_handle_is_not_part_of_the_value(self):
        a = Site("register", 3, core=0, age=1, lanes=(2,), handle=object())
        b = Site("register", 3, core=0, age=1, lanes=(2,))
        assert a == b and hash(a) == hash(b)
        assert "handle" not in repr(a)
