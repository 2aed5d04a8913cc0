"""Batched lockstep execution: pack grouping, record parity with the
solo path across batch/jobs/early-stop, peel-off correctness, and the
persistent-model gate."""

import dataclasses
import gc
import json

import numpy as np
import pytest

from repro.bench import REGISTRY
from repro.bench.base import Benchmark
from repro.dist.protocol import canonical_log_text
from repro.faults.batch_executor import (batch_eligible, execute_pack,
                                         group_packs)
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.executor import CampaignExecutor, execute_run
from repro.faults.targets import Structure
from repro.obs.metrics import metrics_path_for
from repro.sim.kernel import Kernel

BATCHABLE = (Structure.REGISTER_FILE, Structure.SHARED_MEM,
             Structure.LOCAL_MEM)


def make_config(**overrides):
    kwargs = dict(benchmark="vectoradd", card="RTX2060",
                  structures=(Structure.REGISTER_FILE,),
                  runs_per_structure=6, seed=11, early_stop="off")
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


def assert_rode_in_packs(stats):
    """``execute_pack`` answers *any* exception inside the wide engine
    with an all-solo re-run, and solo records equal solo records: a
    parity gate proves nothing unless members resolved in-pack."""
    assert stats["packs"] >= 1, stats
    assert stats["solo_fallback"] == 0, stats
    assert stats["completed_in_pack"] + stats["converged"] >= 1, stats


class TestEligibilityAndGrouping:
    def test_cache_structures_stay_solo(self):
        campaign = Campaign(make_config(
            structures=(Structure.L2_CACHE, Structure.REGISTER_FILE)))
        specs = campaign.plan()
        for spec in specs:
            eligible = batch_eligible(spec)
            assert eligible == (spec.structure
                                is Structure.REGISTER_FILE)

    def test_persistent_model_stays_solo(self):
        campaign = Campaign(make_config(fault_model="stuck_at_0"))
        specs = campaign.plan()
        assert specs and not any(batch_eligible(s) for s in specs)
        units = group_packs(specs, 4)
        assert all(kind == "solo" for kind, _ in units)

    def test_groups_chunk_to_batch_size(self):
        campaign = Campaign(make_config(runs_per_structure=10))
        specs = campaign.plan()
        units = group_packs(specs, 4)
        packs = [payload for kind, payload in units if kind == "pack"]
        solos = [payload for kind, payload in units if kind == "solo"]
        assert all(2 <= len(p) <= 4 for p in packs)
        # every spec appears exactly once across units
        keys = ([s.key for p in packs for s in p]
                + [s.key for s in solos])
        assert sorted(keys) == sorted(s.key for s in specs)

    def test_batch_one_never_packs(self):
        campaign = Campaign(make_config())
        executor = CampaignExecutor(batch=1)
        units = executor._build_units(campaign.plan())
        assert all(kind == "solo" for kind, _ in units)


class TestRecordParity:
    """batch=1 and batch=N produce canonically identical records at
    any jobs count, with and without prescreening, checkpointed."""

    @pytest.fixture(scope="class")
    def baselines(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("batch_parity")
        out = {}
        for early in ("off", "full"):
            cfg = self._config(root, early, batch=1, label="base")
            result = Campaign(cfg).run(jobs=1)
            out[early] = canonical_log_text(result.records)
        return root, out

    @staticmethod
    def _config(root, early, batch, label, jobs_label=""):
        log = root / f"{early}-{label}{jobs_label}.jsonl"
        return CampaignConfig(
            benchmark="vectoradd", card="RTX2060",
            structures=BATCHABLE, runs_per_structure=8, seed=7,
            early_stop=early, batch=batch, log_path=log,
            metrics=True, checkpoint_dir=root / "ckpts")

    @pytest.mark.parametrize("early", ["off", "full"])
    @pytest.mark.parametrize("batch", [4, 16])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_canonical_identity(self, baselines, early, batch, jobs):
        root, base = baselines
        cfg = self._config(root, early, batch,
                           label=f"b{batch}", jobs_label=f"-j{jobs}")
        result = Campaign(cfg).run(jobs=jobs)
        assert canonical_log_text(result.records) == base[early]
        doc = json.loads(metrics_path_for(cfg.log_path).read_text())
        # "full" pre-screens all but one of this plan's simulated runs,
        # which leaves nothing to pack (and no batch section)
        if early == "off" or "batch" in doc:
            assert_rode_in_packs(doc["batch"])

    def test_metrics_sidecar_batch_section(self, baselines):
        root, base = baselines
        cfg = self._config(root, "off", batch=4, label="metrics")
        Campaign(cfg).run(jobs=1)
        doc = json.loads(metrics_path_for(cfg.log_path).read_text())
        batch = doc["batch"]
        assert batch["packs"] >= 1
        assert batch["members"] == (batch["completed_in_pack"]
                                    + batch["converged"]
                                    + batch["peeled"]
                                    + batch["solo_fallback"])
        assert set(batch["peel_cycle_histogram"])
        if batch["lockstep_fraction"] is not None:
            assert 0.0 <= batch["lockstep_fraction"] <= 1.0


class TestPeelOff:
    """A member whose fault steers control flow peels to the solo path
    and still lands the exact solo record."""

    def test_branchy_kernel_peels_and_matches(self, tmp_path):
        # pathfinder's kernel branches on data the injected registers
        # feed, so register faults regularly diverge from column 0
        def run(batch):
            cfg = CampaignConfig(
                benchmark="pathfinder", card="RTX2060",
                structures=(Structure.REGISTER_FILE,),
                runs_per_structure=10, seed=3, early_stop="off",
                batch=batch)
            campaign = Campaign(cfg)
            specs = campaign.plan()
            executor = CampaignExecutor(batch=batch)
            records = executor.execute(specs)
            return records, executor.batch_stats

        solo_records, _ = run(1)
        batched_records, stats = run(8)
        assert (canonical_log_text(batched_records)
                == canonical_log_text(solo_records))
        assert_rode_in_packs(stats)
        assert stats["peeled"] >= 1, stats
        assert len(stats["peel_cycles"]) == stats["peeled"]

    def test_pack_falls_back_solo_on_internal_error(self, tmp_path,
                                                    monkeypatch):
        campaign = Campaign(make_config())
        specs = campaign.plan()
        units = group_packs(specs, 4)
        pack = next(payload for kind, payload in units
                    if kind == "pack")

        import repro.faults.batch_executor as bx

        def boom(runs, watch):
            raise RuntimeError("injected pack failure")

        monkeypatch.setattr(bx, "_ride", boom)
        records, stats = execute_pack(pack)
        assert len(records) == len(pack)
        assert stats["solo_fallback"] == len(pack)
        solo = [execute_run(spec) for spec in pack]
        assert (canonical_log_text(records)
                == canonical_log_text(solo))


#: Every way an instruction can touch per-column state or ask for
#: agreement, in one kernel: guarded EXIT and BRANCH, a barrier, shared
#: and local accesses through register (not RZ) addresses, and an
#: atomic whose returned value is stored.
_MIXMEM = Kernel("mixmem", """
    S2R R0, SR_TID_X
    S2R R1, SR_CTAID_X
    S2R R2, SR_NTID_X
    LDC R4, c[0x0]             ; out
    LDC R5, c[0x4]             ; counter
    LDC R6, c[0x8]             ; order
    LDC R21, c[0xc]            ; n
    IMUL R18, R1, R2
    IADD R18, R18, R0          ; gid
    ISETP.GE.AND P2, PT, R18, R21, PT
@P2 EXIT
    SHL R3, R0, 2
    IADD R7, R0, 1
    STS [R3], R7               ; smem[tid] = tid + 1
    AND R8, R0, 3
    SHL R8, R8, 2
    STL [R8], R0               ; local[tid % 4] = tid
    BAR.SYNC
    XOR R9, R0, 1
    SHL R9, R9, 2
    LDS R10, [R9]              ; (tid ^ 1) + 1
    LDL R11, [R8]              ; tid
    IADD R12, R10, R11
    AND R13, R0, 1
    ISETP.NE.AND P0, PT, R13, RZ, PT
@P0 BRA odd
    IADD R12, R12, 100
    BRA join
odd:
    IADD R12, R12, 7
join:
    MOV R14, 0
spin:
    IADD R14, R14, 1
    ISETP.LT.AND P1, PT, R14, 12, PT
@P1 BRA spin
    MOV R15, 1
    ATOM.ADD R16, [R5], R15    ; old count: a unique arrival ticket
    SHL R18, R18, 2
    IADD R19, R4, R18
    STG [R19], R12
    IADD R20, R6, R18
    STG [R20], R16
    EXIT
""", num_params=4, smem_bytes=64 * 4, local_bytes=16)


class MixMem(Benchmark):
    name = "mixmem"
    abbrev = "MM"
    N = 120  # 2 CTAs x 64 threads, the last 8 exit at the guard

    def kernels(self):
        return [_MIXMEM]

    def build(self, dev):
        return {"out": dev.malloc(4 * self.N),
                "order": dev.malloc(4 * self.N),
                "counter": dev.to_device(np.zeros(1, dtype=np.uint32))}

    def execute(self, dev, state):
        dev.launch(_MIXMEM, grid=2, block=64,
                   params=[state["out"], state["counter"],
                           state["order"], self.N])

    def check(self, dev, state):
        tid = np.arange(self.N, dtype=np.uint32) % 64
        want = (tid ^ 1) + 1 + tid + np.where(tid & 1, 7, 100)
        out = dev.read_array(state["out"], (self.N,), np.uint32)
        order = dev.read_array(state["order"], (self.N,), np.uint32)
        count = dev.read_array(state["counter"], (1,), np.uint32)
        return (np.array_equal(out, want) and int(count[0]) == self.N
                and np.array_equal(np.sort(order), np.arange(self.N)))


class TestMemoryHandlerParity:
    """pack == solo where the engine's columns do the most work: the
    shared/local/atomic handlers, which vectoradd never reaches."""

    @staticmethod
    def _both(tmp_path, benchmark, structure, early):
        out = []
        for batch in (1, 4):
            cfg = CampaignConfig(
                benchmark=benchmark, card="RTX2060",
                structures=(structure,), runs_per_structure=16, seed=4,
                early_stop=early, batch=batch,
                checkpoint_dir=tmp_path / "ckpts")
            executor = CampaignExecutor(batch=batch)
            out.append((executor.execute(Campaign(cfg).plan()),
                        executor.batch_stats))
        (solo, _), (packed, stats) = out
        assert canonical_log_text(packed) == canonical_log_text(solo)
        assert_rode_in_packs(stats)

    @pytest.mark.parametrize("structure", BATCHABLE,
                             ids=lambda s: s.value)
    def test_scalarprod(self, tmp_path, structure):
        self._both(tmp_path, "scalarprod", structure, "off")

    @pytest.mark.parametrize("early", ["off", "converge"])
    @pytest.mark.parametrize("structure", BATCHABLE,
                             ids=lambda s: s.value)
    def test_handwritten_kernel(self, tmp_path, monkeypatch, structure,
                                early):
        monkeypatch.setitem(REGISTRY, MixMem.name, MixMem)
        self._both(tmp_path, MixMem.name, structure, early)

    def test_handwritten_kernel_is_correct_solo(self):
        from repro.faults.runner import run_application

        result = run_application(MixMem(), "RTX2060")
        assert result.status == "completed" and result.passed


class TestPackTelemetry:
    """One cycle loop serves a whole pack: its counters are reported
    once (they used to be hard-coded to 0 for every batched run)."""

    @staticmethod
    def _packs(tmp_path, **overrides):
        cfg = make_config(**{"runs_per_structure": 16,
                             "checkpoint_dir": tmp_path / "ckpts",
                             **overrides})
        specs = [dataclasses.replace(spec, telemetry=True)
                 for spec in Campaign(cfg).plan()]
        return [payload for kind, payload in group_packs(specs, 4)
                if kind == "pack"]

    @staticmethod
    def _check(pack):
        records, stats = execute_pack(pack)
        assert stats["solo_fallback"] == 0, stats
        batched = [r["timings"] for r in records
                   if r["timings"].get("batched")]
        assert batched[0]["loop_iterations"] > 0
        assert all(t["loop_iterations"] == 0 == t["idle_cycles_skipped"]
                   for t in batched[1:])
        return stats

    def test_counters_once_per_completed_pack(self, tmp_path):
        for pack in self._packs(tmp_path):
            self._check(pack)

    def test_counters_survive_a_drained_pack(self, tmp_path, monkeypatch):
        monkeypatch.setitem(REGISTRY, MixMem.name, MixMem)
        packs = self._packs(tmp_path, benchmark=MixMem.name, seed=5,
                            structures=(Structure.SHARED_MEM,),
                            runs_per_structure=8, early_stop="converge")
        drained = [stats for stats in map(self._check, packs)
                   if stats["converged"] == stats["members"]]
        assert drained  # every member converged before the run ended


    def test_member_timings_add_up_to_the_pack(self, tmp_path):
        """A member's ``timings`` are its equal share of what the pack
        spent on all of them plus what was spent on it alone.  Fails
        at the parent, where a member's share was read off a clock
        that had already run through its peeled siblings' solo
        re-runs (the members' seconds summed to more than the call
        took) and restore and classify read 0."""
        import time

        cfg = make_config(benchmark="pathfinder", runs_per_structure=16,
                          seed=3, checkpoint_dir=tmp_path / "ckpts")
        specs = [dataclasses.replace(spec, telemetry=True)
                 for spec in Campaign(cfg).plan()]
        peeled = 0
        for kind, pack in group_packs(specs, 8):
            if kind != "pack":
                continue
            started = time.perf_counter()
            records, stats = execute_pack(pack)
            wall_s = time.perf_counter() - started
            assert stats["solo_fallback"] == 0, stats
            peeled += stats["peeled"]
            timings = [record["timings"] for record in records]
            lockstep = [t for t in timings if t.get("batched")]
            assert len(lockstep) == len(pack) - stats["peeled"]
            assert len({t["simulate_s"] for t in lockstep}) <= 1
            assert all(t["fast_forwarded"] and t["restore_s"] > 0
                       and t["classify_s"] > 0 for t in lockstep)
            # each total_s is rounded to the microsecond
            assert sum(t["total_s"] for t in timings) <= wall_s + 1e-5
        assert peeled  # the common case, not a corner: it must be covered


class TestFinishedRunsAreFreed:
    """A finished GPU must die with its last reference.  Left as
    cyclic garbage it waits for the collector's next full pass, and a
    campaign's peak memory becomes however many dead GPUs fit between
    two passes: a number that differs from one run to the next."""

    def test_no_simulator_state_in_cyclic_garbage(self):
        cfg = CampaignConfig(
            benchmark="pathfinder", card="RTX2060",
            structures=(Structure.REGISTER_FILE,),
            runs_per_structure=10, seed=3, early_stop="off", batch=8)
        gc.collect()
        gc.disable()
        try:
            specs = Campaign(cfg).plan()  # the golden run
            executor = CampaignExecutor(batch=8)
            executor.execute(specs)  # packs, and solo runs of the peeled
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            dead = {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert executor.batch_stats["peeled"] >= 1
        assert not dead & {"GPU", "SIMTCore", "CTA", "Warp", "Cache",
                           "CacheLine", "LockstepPack"}, dead


class TestPlanGate:
    def test_batched_persistent_model_dispatches_solo(self):
        """``batch > 1`` is no error under a persistent model: its
        runs are ineligible, like cache targets, and go solo."""
        def run(batch):
            cfg = make_config(fault_model="stuck_at_1", batch=batch)
            executor = CampaignExecutor(batch=batch)
            return executor.execute(Campaign(cfg).plan()), executor

        solo, _ = run(1)
        batched, executor = run(8)
        assert canonical_log_text(batched) == canonical_log_text(solo)
        assert executor.batch_stats["packs"] == 0

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="batch"):
            make_config(batch=0)
        with pytest.raises(ValueError, match="batch"):
            CampaignExecutor(batch=0)

    def test_config_file_round_trip(self):
        from repro.faults.config_file import (dump_config,
                                              parse_config_text)

        cfg = make_config(batch=8)
        parsed = parse_config_text(dump_config(cfg))
        assert parsed.batch == 8
        default = parse_config_text(dump_config(make_config()))
        assert default.batch == 1
