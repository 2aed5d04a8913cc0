"""Masked-fault early termination: parity, liveness and soundness.

The contract under test: ``early_stop`` in any mode ("off",
"converge", "full") yields *identical per-class effect counts* -- the
modes only change how much wall-clock is spent proving the Masked
class.  Convergence-terminated records carry a ``terminated_at``
cycle and pre-screened records a ``prescreen_reason`` as provenance.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.early_stop import (ConvergenceMonitor, EarlyConvergence,
                                     Prescreener)
from repro.faults.executor import execute_run
from repro.faults.mask import FaultMask
from repro.faults.sites import Site
from repro.faults.targets import Structure
from repro.obs.events import Tally, run_event
from repro.sim.cards import rtx_2060
from repro.sim.checkpoint import state_digest
from repro.sim.device import Device, RunOptions
from repro.sim.kernel import Kernel
from repro.sim.liveness import LivenessTrace


def effect_counts(result):
    """Per-(kernel, structure, effect) record counts."""
    return Counter((r["kernel"], r["structure"], r["effect"])
                   for r in result.records)


def run_campaign(tmp_path, benchmark, structures, early_stop, runs=8,
                 seed=5, interval=None, hook=False, jobs=1,
                 checkpoints=True):
    cfg = CampaignConfig(
        benchmark=benchmark, card="RTX2060", structures=structures,
        runs_per_structure=runs, seed=seed,
        checkpoint_dir=(tmp_path / f"ckpt_{early_stop}"
                        if checkpoints else None),
        checkpoint_interval=interval,
        cache_hook_mode=hook, early_stop=early_stop)
    return Campaign(cfg).run(jobs=jobs)


class TestClassificationParity:
    """Effect counts must be identical across every early-stop mode,
    benchmark, structure, job count and checkpoint interval."""

    @pytest.mark.parametrize("bench,structures,runs", [
        ("vectoradd", (Structure.REGISTER_FILE, Structure.L2_CACHE), 8),
        ("scalarprod", (Structure.SHARED_MEM, Structure.LOCAL_MEM), 5),
    ])
    def test_modes_agree(self, tmp_path, bench, structures, runs):
        baseline = run_campaign(tmp_path, bench, structures, "off",
                                runs=runs)
        base = effect_counts(baseline)
        assert not any("terminated_at" in r or r.get("prescreened")
                       for r in baseline.records)
        for mode in ("converge", "full"):
            got = run_campaign(tmp_path, bench, structures, mode,
                               runs=runs)
            assert effect_counts(got) == base, mode
        # the matrix is only meaningful if pre-screening actually fired
        full = run_campaign(tmp_path, bench, structures, "full",
                            runs=runs)
        assert any(r.get("prescreened") for r in full.records)

    def test_jobs_and_interval_independent(self, tmp_path):
        structures = (Structure.REGISTER_FILE, Structure.L2_CACHE)
        base = effect_counts(run_campaign(
            tmp_path, "vectoradd", structures, "off", runs=6))
        got = effect_counts(run_campaign(
            tmp_path, "vectoradd", structures, "full", runs=6,
            jobs=2, interval=64))
        assert got == base

    def test_hook_mode_parity(self, tmp_path):
        structures = (Structure.L2_CACHE,)
        base = effect_counts(run_campaign(
            tmp_path, "vectoradd", structures, "off", runs=10,
            hook=True))
        got = effect_counts(run_campaign(
            tmp_path, "vectoradd", structures, "full", runs=10,
            hook=True))
        assert got == base

    def test_full_without_checkpoints_still_prescreens(self, tmp_path):
        """Pre-screening needs only the liveness trace, not snapshots."""
        structures = (Structure.REGISTER_FILE,)
        base = effect_counts(run_campaign(
            tmp_path, "vectoradd", structures, "off", runs=8,
            checkpoints=False))
        full = run_campaign(tmp_path, "vectoradd", structures, "full",
                            runs=8, checkpoints=False)
        assert effect_counts(full) == base
        assert any(r.get("prescreened") for r in full.records)

    def test_bad_mode_rejected(self, tmp_path):
        cfg = CampaignConfig(benchmark="vectoradd", card="RTX2060",
                             early_stop="sometimes")
        with pytest.raises(ValueError, match="early_stop"):
            Campaign(cfg).plan()


class TestConvergence:
    def test_termination_fires_and_stays_masked(self, tmp_path):
        """With dense checkpoints, some Masked runs must terminate
        early -- and every terminated record is Masked with the exact
        golden cycle count (the inherited suffix)."""
        result = run_campaign(tmp_path, "vectoradd",
                              (Structure.REGISTER_FILE,), "converge",
                              runs=12, interval=50)
        terminated = [r for r in result.records
                      if r.get("terminated_at") is not None]
        assert terminated, "no run converged despite dense checkpoints"
        for record in terminated:
            assert record["effect"] == "Masked"
            assert record["cycles"] == record["golden_cycles"]
            assert record["terminated_at"] <= record["golden_cycles"]
            assert record["terminated_at"] > record["mask"]["cycle"]

    def test_monitor_orders_entries(self):
        entries = [{"cycle": 100, "launch_index": 0, "state_hash": "aa"},
                   {"cycle": 50, "launch_index": 0, "state_hash": "bb"}]
        monitor = ConvergenceMonitor(entries, [], golden_cycles=500)
        assert monitor.due_cycle() == 50

    def test_monitor_disabled_by_host_divergence(self):
        entries = [{"cycle": 50, "launch_index": 0, "state_hash": "aa"}]
        reads = [{"tag": 0, "addr": 64, "nbytes": 4,
                  "data": np.array([1, 2, 3, 4], dtype=np.uint8)}]
        monitor = ConvergenceMonitor(entries, reads, golden_cycles=500)
        monitor.on_host_read(0, 64, 4,
                             np.array([1, 2, 3, 9], dtype=np.uint8))
        assert monitor.diverged
        assert monitor.due_cycle() is None

    def test_monitor_accepts_matching_reads(self):
        entries = [{"cycle": 50, "launch_index": 0, "state_hash": "aa"}]
        data = np.array([1, 2, 3, 4], dtype=np.uint8)
        reads = [{"tag": 0, "addr": 64, "nbytes": 4, "data": data}]
        monitor = ConvergenceMonitor(entries, reads, golden_cycles=500)
        monitor.on_host_read(0, 64, 4, data.copy())
        assert not monitor.diverged
        # more reads than golden performed: host flow diverged
        monitor.on_host_read(0, 64, 4, data.copy())
        assert monitor.diverged

    def test_early_convergence_is_not_a_crash(self):
        from repro.sim.errors import SimulationError

        exc = EarlyConvergence(120, 400)
        assert not isinstance(exc, SimulationError)
        assert exc.cycle == 120 and exc.golden_cycles == 400


class TestStateDigest:
    def test_deterministic_and_sensitive(self):
        snap = {"cycle": 7, "regs": np.arange(8, dtype=np.uint32),
                "nested": {"b": [1, 2], "a": (3, None, True)}}
        again = {"cycle": 7, "regs": np.arange(8, dtype=np.uint32),
                 "nested": {"a": (3, None, True), "b": [1, 2]}}
        assert state_digest(snap) == state_digest(again)
        mutated = {"cycle": 7, "regs": np.arange(8, dtype=np.uint32),
                   "nested": {"b": [1, 2], "a": (3, None, True)}}
        mutated["regs"][3] ^= 1
        assert state_digest(snap) != state_digest(mutated)

    def test_type_tags_disambiguate(self):
        assert state_digest({"x": 1}) != state_digest({"x": True})
        assert state_digest({"x": 1}) != state_digest({"x": 1.0})
        assert state_digest({"x": "1"}) != state_digest({"x": b"1"})

    def test_byte_stream_is_the_documented_one(self):
        """Stored ``state_hash`` values depend on the exact bytes fed
        to the hash: tag, value, ``;`` per value, in walk order.
        Format 3: global memory contributes its page table -- page
        index -> blake2b-128 of the 4 KiB page, non-zero pages only --
        never the image."""
        import hashlib

        from repro.sim.memory import SNAP_PAGE, GlobalMemory
        from repro.sim.stats import LaunchStats

        def reference(h, obj):
            if obj is None:
                h.update(b"N")
            elif isinstance(obj, (bool, np.bool_)):
                h.update(b"B1" if obj else b"B0")
            elif isinstance(obj, (int, np.integer)):
                h.update(b"I" + str(int(obj)).encode())
            elif isinstance(obj, (float, np.floating)):
                h.update(b"F" + repr(float(obj)).encode())
            elif isinstance(obj, str):
                h.update(b"S" + obj.encode("utf-8", "surrogatepass"))
            elif isinstance(obj, bytes):
                h.update(b"Y" + obj)
            elif isinstance(obj, np.ndarray):
                h.update(b"A" + str(obj.dtype).encode()
                         + repr(obj.shape).encode())
                h.update(np.ascontiguousarray(obj).tobytes())
            elif isinstance(obj, (list, tuple)):
                h.update(b"L" + str(len(obj)).encode())
                for item in obj:
                    reference(h, item)
            elif isinstance(obj, dict):
                h.update(b"D" + str(len(obj)).encode())
                for key in sorted(obj, key=repr):
                    reference(h, key)
                    reference(h, obj[key])
            elif isinstance(obj, (set, frozenset)):
                h.update(b"E" + str(len(obj)).encode())
                for item in sorted(obj, key=repr):
                    reference(h, item)
            else:
                h.update(b"O" + type(obj).__name__.encode())
                reference(h, vars(obj))
            h.update(b";")

        mem = GlobalMemory(16 * SNAP_PAGE)
        ptr = mem.malloc(3 * SNAP_PAGE)
        mem.write_bytes(ptr + 5, np.arange(SNAP_PAGE, dtype=np.uint8))
        mem.write_word(ptr + 2 * SNAP_PAGE, 0)  # written, still zero
        image = mem.data.tobytes()
        assert mem.snapshot() == {
            "pages": {index: hashlib.blake2b(
                image[index * SNAP_PAGE:(index + 1) * SNAP_PAGE],
                digest_size=16).digest() for index in (1, 2)},
            "next": mem._next, "allocations": [(ptr, ptr + 3 * SNAP_PAGE)]}

        big = np.arange(1 << 15, dtype=np.uint32).reshape(64, -1)
        snap = {
            "memory": mem.snapshot(),
            "scalars": [None, True, False, 0, -7, 1 << 70, 0.0, -0.0, 1.5,
                        float("inf"), "", "caf\u00e9", b"", b"\x00;"],
            "numpy": (np.bool_(True), np.uint32(7), np.int64(-3),
                      np.float32(0.1), np.float64(2.5)),
            "arrays": [big, big[:, ::3], big.T, np.zeros((0, 4)),
                       np.array(5, dtype=np.int16),
                       np.ones(3, dtype=bool), np.arange(4, dtype="<u4")],
            "sets": {frozenset({3, 1, 2}), frozenset()},
            7: {"a": [], "b": (), "c": {}},
            "stats": LaunchStats("k", 0, 10, 32, cores_used={4, 2}),
        }
        expected = hashlib.blake2b(digest_size=16)
        reference(expected, snap)
        assert state_digest(snap) == expected.hexdigest()

    def test_checkpoints_carry_state_hash(self, tmp_path):
        from repro.sim.checkpoint import CheckpointRecorder

        recorder = CheckpointRecorder(tmp_path / "set", interval=50)
        dev = Device("RTX2060", RunOptions(checkpointer=recorder))
        out = dev.malloc(128)
        dev.launch(REG_KERNEL, grid=1, block=32, params=[out])
        recorder.finalize(dev.gpu.stats.launches, dev.cycle)
        assert recorder.checkpoints
        for entry in recorder.checkpoints:
            assert len(entry["state_hash"]) == 32  # blake2b-128 hex


REG_KERNEL = Kernel("live_regs", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    MOV R10, 0x55
    STG [R9], R10
    EXIT
""", num_params=1)

SMEM_KERNEL = Kernel("live_smem", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    MOV R10, 0x7
    STS [R3], R10
    LDS R12, [R3]
    EXIT
""", smem_bytes=128)


def trace_kernel(kernel, params=()):
    trace = LivenessTrace()
    dev = Device("RTX2060", RunOptions(liveness=trace))
    args = [dev.malloc(128)] if params is None else list(params)
    dev.launch(kernel, grid=1, block=32, params=args)
    return trace, dev


class TestLivenessTrace:
    """Unit tests on hand-written kernels with known lifetimes."""

    def setup_method(self):
        self.trace, self.dev = trace_kernel(REG_KERNEL, params=None)
        cta = self.trace.cores[0][0]
        self.age = cta["warps"][0]["age"]

    def events(self, reg):
        return self.trace.cell_events("register", (0, self.age), reg)

    def test_register_event_sequences(self):
        # R0: written by S2R, read by SHL, never touched again
        assert [k for _, k in self.events(0)] == ["k", "r"]
        # R10: written by MOV, read by STG
        assert [k for _, k in self.events(10)] == ["k", "r"]
        # R9: written by IADD, read (as STG address base) once
        assert [k for _, k in self.events(9)] == ["k", "r"]
        # a register the kernel never names has no events
        assert self.events(14) == []

    def test_register_dead_transitions(self):
        pre = Prescreener(self.trace, rtx_2060())

        def dead(reg, cycle):
            fate, _ = pre.judge(Site("register", reg, core=0, age=self.age),
                                cycle)
            return fate is not None

        (kill_cycle, _), (read_cycle, _) = self.events(10)
        assert kill_cycle < read_cycle
        # injected at the kill cycle: the write lands after the
        # injector and overwrites the flip -> dead
        assert dead(10, kill_cycle)
        # injected between the write and the last read: live
        assert not dead(10, kill_cycle + 1)
        assert not dead(10, read_cycle)
        # injected after the last read: dead forever
        assert dead(10, read_cycle + 1)
        # never-accessed registers are dead at any cycle
        assert dead(14, 0)

    def test_judge_names_fate_and_first_read(self):
        pre = Prescreener(self.trace, rtx_2060())
        (kill_cycle, _), (read_cycle, _) = self.events(10)
        site = Site("register", 10, core=0, age=self.age)
        assert pre.judge(site, kill_cycle) == ("overwritten", None)
        assert pre.judge(site, kill_cycle + 1) == (None, read_cycle)
        assert pre.judge(site, read_cycle + 1) == ("never_touched", None)

    def test_warp_retirement_recorded(self):
        wrec = self.trace.cores[0][0]["warps"][0]
        assert wrec["done_cycle"] is not None
        assert self.trace.live_warps(wrec["done_cycle"] + 1) == []

    def test_shared_word_lifetimes(self):
        trace, _dev = trace_kernel(SMEM_KERNEL)
        cta = trace.cores[0][0]
        age_base = cta["age_base"]
        for tid in (0, 7, 31):
            kinds = [k for _, k in
                     trace.cell_events("shared", (0, age_base), tid)]
            assert kinds == ["k", "r"], tid  # STS kill then LDS read
        # word 32 is beyond the 32 touched words: never accessed
        assert trace.cell_events("shared", (0, age_base), 32) == []

    def test_shared_prescreen_verdicts(self):
        trace, _dev = trace_kernel(SMEM_KERNEL)
        cta = trace.cores[0][0]
        (kill_cycle, _), (read_cycle, _) = trace.cell_events(
            "shared", (0, cta["age_base"]), 5)

        def mask_at(cycle):
            return FaultMask(structure=Structure.SHARED_MEM, cycle=cycle,
                             entry_index=5, bit_offsets=(3,), seed=1)

        pre = Prescreener(trace, rtx_2060())
        live = pre.evaluate(mask_at(read_cycle), 16, 128, 0)
        # flip lands before the LDS observes it
        assert live.reason is None and live.first_read == read_cycle
        dead = pre.evaluate(mask_at(read_cycle + 1), 16, 128, 0)
        assert dead.reason is not None  # never read again
        assert dead.fates == ("never_touched",)
        overwritten = pre.evaluate(mask_at(kill_cycle), 16, 128, 0)
        assert overwritten.reason is not None  # STS rewrites the word
        assert overwritten.fates == ("overwritten",)


class TestPrescreenSoundness:
    """Every pre-screened verdict must be confirmed by full
    simulation: Masked, with exactly the golden cycle count.  (That
    the resolver predicts the injector's spatial target is
    ``tests/test_sites.py``'s, on all twelve workloads.)"""

    @pytest.mark.parametrize("bench,structures,runs", [
        ("vectoradd", (Structure.REGISTER_FILE, Structure.L2_CACHE), 8),
        ("scalarprod", (Structure.SHARED_MEM, Structure.LOCAL_MEM), 4),
    ])
    def test_prescreened_runs_confirmed_by_simulation(
            self, tmp_path, bench, structures, runs):
        cfg = CampaignConfig(
            benchmark=bench, card="RTX2060", structures=structures,
            runs_per_structure=runs, seed=5, early_stop="full")
        specs = Campaign(cfg).plan()
        screened = [s for s in specs if s.prescreened]
        assert screened, "matrix entry produced no pre-screened run"
        for spec in screened:
            live_spec = dataclasses.replace(
                spec, early_stop="off", prescreened=False,
                prescreen_reason="")
            record = execute_run(live_spec)
            assert record["effect"] == "Masked", spec.key
            assert record["cycles"] == spec.golden_cycles, spec.key


class TestProgressLine:
    """The tally's progress line, from the run events of records."""

    @staticmethod
    def tally(total, instant=0):
        return Tally().apply({"ts": 0.0, "event": "campaign_start",
                              "total": total, "instant": instant})

    @staticmethod
    def run(tally, ts=10.0, **record):
        tally.apply({"ts": ts, **run_event(record, "t", 0)})

    def test_instant_runs_excluded_from_eta(self):
        tally = self.tally(total=10, instant=5)
        # 4 simulated + 2 instant runs done in 10s
        for _ in range(4):
            self.run(tally, effect="Masked")
        for _ in range(2):
            self.run(tally, effect="Masked", prescreened=True)
        # 4 runs remain: 3 instant (free) + 1 simulated at 0.4/s
        assert tally.eta() == pytest.approx(2.5)
        assert "pre-screened=2" in tally.progress()

    def test_early_stopped_counted(self):
        tally = self.tally(total=2)
        self.run(tally, effect="Masked", terminated_at=120)
        assert tally.converged == 1
        assert "early-stopped=1" in tally.progress()
