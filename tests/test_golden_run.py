"""One golden run per configuration: planning from the checkpoint set.

The contract under test: a campaign on a ``checkpoint_dir`` that holds
a complete set for its fingerprint plans exactly what a simulating
campaign plans -- without constructing a device -- and anything wrong
with the stored artifacts costs a simulation, never a wrong plan.
"""

import dataclasses
import json
import shutil
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import benchmark_names, make_benchmark
from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import (Campaign, CampaignConfig, GoldenRun,
                                   profile_application)
from repro.faults.targets import Structure
from repro.obs import Tally, events_path_for, read_events
from repro.obs.live import format_event, render_top
from repro.sim import checkpoint
from repro.sim.cards import rtx_2060
from repro.sim.checkpoint import (GOLDEN_FILE, LIVENESS_FILE, CheckpointStore,
                                  RestoreParityError, _dumps, _loads,
                                  campaign_fingerprint)
from repro.sim.core import SIMTCore
from repro.sim.device import Device, RunOptions
from repro.sim.liveness import LivenessTrace

PAPER_STRUCTURES = (Structure.REGISTER_FILE, Structure.LOCAL_MEM,
                    Structure.SHARED_MEM, Structure.L1D_CACHE,
                    Structure.L1T_CACHE, Structure.L2_CACHE)


def config(benchmark="vectoradd", **overrides) -> CampaignConfig:
    defaults = dict(benchmark=benchmark, card="RTX2060",
                    structures=(Structure.REGISTER_FILE,
                                Structure.SHARED_MEM, Structure.L2_CACHE),
                    runs_per_structure=4, seed=9, early_stop="full")
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def no_simulation():
    """Nothing inside may construct a device (no cycle loop can run)."""
    return mock.patch.object(
        Device, "__init__",
        side_effect=AssertionError("a device was constructed"))


def set_directory(root):
    (directory,) = root.iterdir()
    return directory


# -- (a) a warm plan equals a simulating plan ---------------------------


class WarmSets:
    """Per benchmark, made on first use: a directory whose set a traced
    golden run captured, and the golden run a campaign without any
    directory simulated."""

    def __init__(self, root):
        self.root = root
        self.simulated = {}

    def get(self, benchmark):
        if benchmark not in self.simulated:
            Campaign(config(benchmark, checkpoint_dir=self.root)).plan()
            self.simulated[benchmark] = Campaign(
                config(benchmark)).golden_run(traced=True)
        return self.root, self.simulated[benchmark]


@pytest.fixture(scope="module")
def warm_sets(tmp_path_factory):
    return WarmSets(tmp_path_factory.mktemp("warm"))


@st.composite
def plan_settings(draw):
    """What a plan depends on besides the golden run."""
    benchmark = draw(st.sampled_from(benchmark_names()))
    kernels = [k.name for k in make_benchmark(benchmark).kernels()]
    fault_model = draw(st.sampled_from(
        ["transient", "transient", "stuck_at_0", "stuck_at_1", "control"]))
    structures = draw(st.lists(st.sampled_from(PAPER_STRUCTURES),
                               min_size=1, max_size=3, unique=True))
    return dict(
        benchmark=benchmark, fault_model=fault_model,
        structures=(None if fault_model == "control" and draw(st.booleans())
                    else tuple(structures)),
        kernels=draw(st.one_of(
            st.none(),
            st.lists(st.sampled_from(kernels), min_size=1, max_size=2,
                     unique=True).map(tuple))),
        invocation=draw(st.sampled_from([None, 0])),
        bits_per_fault=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31)),
        early_stop=draw(st.sampled_from(["off", "converge", "full"])),
        runs_per_structure=3)


class TestWarmPlanEqualsSimulatingPlan:
    @given(plan_settings())
    @settings(max_examples=60, deadline=None)
    def test_generated_configs(self, warm_sets, overrides):
        root, simulated = warm_sets.get(overrides["benchmark"])
        cfg = config(checkpoint_dir=root, **overrides)
        expected = Campaign(cfg, golden=simulated).plan()
        warm = Campaign(cfg)
        with no_simulation():
            assert warm.plan() == expected
        assert warm.plan_timing["golden"] == "loaded"
        loaded = warm.golden_run()
        assert (loaded.profile, loaded.cycles) == (simulated.profile,
                                                   simulated.cycles)

    @pytest.mark.parametrize("app", benchmark_names())
    def test_every_benchmark_loads_what_it_simulated(self, warm_sets, app):
        root, simulated = warm_sets.get(app)
        with no_simulation():
            loaded = Campaign(config(app, checkpoint_dir=root)
                              ).golden_run(traced=True)
        assert loaded.source == "loaded" and simulated.source == "simulated"
        assert loaded == simulated  # profile, cycles and liveness trace
        assert loaded.liveness.gpu is None

    def test_aggregate_on_loaded_records_asks_for_the_golden_run_only(
            self, warm_sets, monkeypatch):
        root, simulated = warm_sets.get("pathfinder")
        cfg = config("pathfinder", checkpoint_dir=root)
        records = Campaign(cfg).run().records
        monkeypatch.setattr(Campaign, "plan", None)  # not callable
        with no_simulation():
            result = Campaign(cfg).aggregate(records)
        assert result.profile == simulated.profile
        assert result.golden_cycles == simulated.cycles

    def test_adaptive_rounds_share_the_one_golden_run(self, warm_sets):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return profile_application(*args, **kwargs)

        with mock.patch("repro.faults.campaign.profile_application",
                        counted):
            campaign = Campaign(config(
                "pathfinder", adaptive="on", error_target=0.2,
                structures=(Structure.REGISTER_FILE,),
                runs_per_structure=24))
            campaign.run()
        assert campaign.last_plan.rounds >= 1
        assert len(calls) == 1


# -- (b) damaged artifacts cost a simulation, never a wrong plan -------------


def damage_truncate(name):
    def damage(directory):
        path = directory / name
        path.write_bytes(path.read_bytes()[:-9])
    return damage


def damage_delete(name):
    return lambda directory: (directory / name).unlink()


def damage_wrong_type(name):
    return lambda directory: (directory / name).write_bytes(
        _dumps(["not", "what", "belongs", "here"]))


def tamper_meta_cycles(directory):
    path = directory / "meta.json"
    meta = json.loads(path.read_text())
    meta["golden_cycles"] += 1
    path.write_text(json.dumps(meta))


def tamper_manifest_cycles(directory):
    path = directory / GOLDEN_FILE
    golden = _loads(path.read_bytes())
    golden["golden_cycles"] += 1
    path.write_bytes(_dumps(golden))


def tamper_manifest_stats(directory):
    path = directory / GOLDEN_FILE
    golden = _loads(path.read_bytes())
    golden["launch_stats"][0].start_cycle += 1
    path.write_bytes(_dumps(golden))


def tamper_trace(directory):
    path = directory / LIVENESS_FILE
    trace = _loads(path.read_bytes())
    trace.events.clear()
    path.write_bytes(_dumps(trace))


class TestDamagedArtifacts:
    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pristine")
        specs = Campaign(config("pathfinder", checkpoint_dir=root)).plan()
        return root, specs

    @pytest.fixture
    def copy(self, pristine, tmp_path):
        """A private copy of the pristine directory and the plan it
        must keep giving (the key does not depend on the path)."""
        root, specs = pristine
        shutil.copytree(root, tmp_path / "ckpt")
        return tmp_path / "ckpt", [
            dataclasses.replace(spec, checkpoint_dir=str(tmp_path / "ckpt"))
            for spec in specs]

    @pytest.mark.parametrize("damage", [
        damage_truncate(LIVENESS_FILE), damage_delete(LIVENESS_FILE),
        damage_wrong_type(LIVENESS_FILE),
        damage_truncate(GOLDEN_FILE), damage_delete(GOLDEN_FILE),
        damage_wrong_type(GOLDEN_FILE),
        tamper_meta_cycles, tamper_manifest_cycles],
        ids=["trace-truncated", "trace-missing", "trace-wrong-type",
             "manifest-truncated", "manifest-missing", "manifest-wrong-type",
             "meta-cycles", "manifest-cycles"])
    def test_plan_falls_back_to_simulating(self, copy, damage):
        root, expected = copy
        damage(set_directory(root))
        campaign = Campaign(config("pathfinder", checkpoint_dir=root))
        assert campaign.plan() == expected
        assert campaign.plan_timing["golden"] == "simulated"
        # ... which repaired the set: the next campaign loads again
        repaired = Campaign(config("pathfinder", checkpoint_dir=root))
        with no_simulation():
            assert repaired.plan() == expected
        records = repaired.execute(
            [dataclasses.replace(spec, telemetry=True) for spec in expected])
        restored = [r["timings"]["fast_forwarded"] for r in records
                    if not (r.get("prescreened") or r["synthesized"])]
        assert restored and all(restored)

    def test_untraced_plans_never_read_the_trace(self, copy):
        root, _ = copy
        damage_wrong_type(LIVENESS_FILE)(set_directory(root))
        campaign = Campaign(config("pathfinder", checkpoint_dir=root,
                                   early_stop="converge"))
        with no_simulation():
            campaign.plan()
        assert campaign.plan_timing["golden"] == "loaded"

    @pytest.mark.parametrize("tamper", [
        tamper_meta_cycles, tamper_manifest_cycles, tamper_manifest_stats,
        tamper_trace])
    def test_verify_restore_raises_on_a_tampered_set(self, copy, tamper):
        root, _ = copy
        before = sorted((p.name, p.stat().st_mtime_ns)
                        for p in set_directory(root).iterdir())
        tamper(set_directory(root))
        after_tamper = sorted((p.name, p.stat().st_mtime_ns)
                              for p in set_directory(root).iterdir())
        assert before != after_tamper
        with pytest.raises(RestoreParityError):
            Campaign(config("pathfinder", checkpoint_dir=root,
                            verify_restore=True)).plan()
        # the evidence is left as found
        assert after_tamper == sorted(
            (p.name, p.stat().st_mtime_ns)
            for p in set_directory(root).iterdir())

    def test_verify_restore_passes_on_an_intact_set(self, copy):
        root, expected = copy
        campaign = Campaign(config("pathfinder", checkpoint_dir=root,
                                   verify_restore=True))
        specs = campaign.plan()
        assert campaign.plan_timing["golden"] == "simulated"
        assert specs == [dataclasses.replace(spec, verify_restore=True)
                         for spec in expected]


# -- (c) converge, then full, on one directory -----------------------------------


def test_converge_then_full_adds_the_trace_and_keeps_the_snapshots(tmp_path):
    root = tmp_path / "ckpt"
    Campaign(config("pathfinder", checkpoint_dir=root,
                    early_stop="converge")).run()
    directory = set_directory(root)
    assert not (directory / LIVENESS_FILE).exists()
    captured = {p.name: p.stat().st_mtime_ns for p in directory.iterdir()}
    assert len(captured) > 4  # meta, manifest, pool and snapshots

    full = Campaign(config("pathfinder", checkpoint_dir=root))
    specs = full.plan()
    assert full.plan_timing["golden"] == "simulated"
    assert any(spec.prescreened for spec in specs)
    now = {p.name: p.stat().st_mtime_ns for p in directory.iterdir()}
    assert set(now) == set(captured) | {LIVENESS_FILE}
    assert all(now[name] == mtime for name, mtime in captured.items())

    records = full.execute(
        [dataclasses.replace(spec, telemetry=True) for spec in specs])
    restored = [r["timings"]["fast_forwarded"] for r in records
                if not (r.get("prescreened") or r["synthesized"])]
    assert restored and all(restored)
    expected = Campaign(config(
        "pathfinder", checkpoint_dir=tmp_path / "fresh")).run().records
    assert canonical_log_text(records) == canonical_log_text(expected)

    again = Campaign(config("pathfinder", checkpoint_dir=root))
    with no_simulation():
        assert again.plan() == specs
    assert again.golden_run(traced=True) == full.golden_run(traced=True)


# -- (d) the key covers the source of what a golden run executes -----------------


class TestFingerprintCoversTheSource:
    @pytest.fixture(autouse=True)
    def fresh_digests(self):
        checkpoint.source_digest.cache_clear()
        yield
        checkpoint.source_digest.cache_clear()

    @staticmethod
    def key(benchmark="vectoradd"):
        return campaign_fingerprint(make_benchmark(benchmark), rtx_2060(),
                                    "gto")

    @staticmethod
    def edited(monkeypatch, *suffixes):
        """Append a byte to every source file whose path ends so."""
        read = checkpoint._read_source
        seen = []

        def reader(path):
            seen.append(path)
            edit = any(path.as_posix().endswith(s) for s in suffixes)
            return read(path) + (b"#" if edit else b"")

        checkpoint.source_digest.cache_clear()
        monkeypatch.setattr(checkpoint, "_read_source", reader)
        return seen

    @pytest.mark.parametrize("suffix", [
        "repro/sim/core.py", "repro/sim/liveness.py", "repro/isa/cfg.py",
        "repro/bench/common.py", "repro/bench/vectoradd.py"])
    def test_an_edit_to_what_the_run_executes_moves_the_key(
            self, monkeypatch, suffix):
        key = self.key()
        self.edited(monkeypatch, suffix)
        assert self.key() != key

    def test_nothing_else_does(self, monkeypatch):
        key, other = self.key(), self.key("pathfinder")
        seen = self.edited(monkeypatch, "repro/bench/pathfinder.py",
                           "repro/faults/campaign.py", "repro/cli.py")
        assert self.key() == key
        assert self.key("pathfinder") != other
        packages = {path.parent.name for path in seen}
        assert packages == {"sim", "isa", "bench"}
        assert not any(path.name == "lud.py" for path in seen)

    def test_sources_are_read_once_per_process(self, monkeypatch):
        seen = self.edited(monkeypatch)
        self.key()
        count = len(seen)
        assert count > 20
        self.key()
        self.key("pathfinder")
        assert len(seen) == count + 1  # pathfinder's own module


# -- (e) concurrent captures of one key ------------------------------------------


def test_racing_plans_on_a_cold_key_leave_one_complete_set(tmp_path):
    root = tmp_path / "ckpt"
    cfg = config("pathfinder", checkpoint_dir=root)
    racers = 5  # more than this machine has cores
    barrier = threading.Barrier(racers)
    plans, errors = [], []

    def race():
        try:
            barrier.wait(timeout=60)
            plans.append(Campaign(cfg).plan())
        except BaseException as exc:  # reported below, in the test thread
            errors.append(exc)

    threads = [threading.Thread(target=race) for _ in range(racers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(plans) == racers and all(plan == plans[0] for plan in plans)

    directory = set_directory(root)  # and no staging directory left
    key = directory.name
    ckpt_set = CheckpointStore(root).open(key)
    assert ckpt_set is not None
    for entry in ckpt_set.meta["checkpoints"]:
        snap = ckpt_set.load_snapshot(entry["file"])
        for digest in snap["memory"]["pages"].values():
            ckpt_set.page(digest)
    after = Campaign(cfg)
    with no_simulation():
        assert after.plan() == plans[0]
    records = after.execute([dataclasses.replace(spec, telemetry=True)
                             for spec in plans[0]])
    restored = [r["timings"]["fast_forwarded"] for r in records
                if not (r.get("prescreened") or r["synthesized"])]
    assert restored and all(restored)


def test_a_recapture_replaces_the_set_only_when_complete(tmp_path):
    """The stale set stays whole while its replacement is captured."""
    root = tmp_path / "ckpt"
    Campaign(config(checkpoint_dir=root, checkpoint_interval=500)).plan()
    directory = set_directory(root)
    store = CheckpointStore(root)
    recorder = checkpoint.CheckpointRecorder(directory, interval=100)
    device = Device("RTX2060", RunOptions(checkpointer=recorder))
    bench = make_benchmark("vectoradd")
    bench.execute(device, bench.build(device))
    assert len(list(root.iterdir())) == 2  # the set and the staging area
    assert store.open(directory.name).meta["placement"] == "every 500"
    recorder.finalize(device.launches, device.cycle)
    assert set_directory(root) == directory
    assert store.open(directory.name).meta["placement"] == "every 100"


# -- (f) a capture supersedes what nothing can reach any more -----------------


class TestOrphanedSetsAreSuperseded:
    edited = staticmethod(TestFingerprintCoversTheSource.edited)

    @pytest.fixture(autouse=True)
    def fresh_digests(self):
        checkpoint.source_digest.cache_clear()
        yield
        checkpoint.source_digest.cache_clear()

    def test_a_source_edit_leaves_one_set_per_configuration(
            self, tmp_path, monkeypatch):
        root = tmp_path / "ckpt"
        plan = Campaign(config(checkpoint_dir=root)).plan()
        Campaign(config("pathfinder", checkpoint_dir=root)).plan()
        Campaign(config(checkpoint_dir=root, scheduler_policy="lrr")).plan()
        before = {path.name for path in root.iterdir()}
        assert len(before) == 3
        self.edited(monkeypatch, "repro/sim/core.py")
        assert Campaign(config(checkpoint_dir=root)).plan() != plan  # key
        after = {path.name for path in root.iterdir()}
        # vectoradd x gto was recaptured under its new key and its old
        # set removed; the other two configurations are untouched
        assert len(after) == 3 and len(after & before) == 2
        (new,) = after - before
        meta = json.loads((root / new / "meta.json").read_text())
        assert meta["format"] == checkpoint.SNAPSHOT_FORMAT
        (old,) = before - after
        assert meta["identity"] == new[:8] == old[:8] and new != old
        assert len({name[:8] for name in after}) == 3

    def test_an_older_format_is_recaptured_never_read(self, tmp_path):
        """A format-3 set -- under any key, this configuration's own
        included -- is not opened, and goes at the first capture."""
        root = tmp_path / "ckpt"
        key = Campaign(config(checkpoint_dir=root)).plan()[0].checkpoint_key
        shutil.rmtree(root)
        for name in (key, "0123456789abcdef0123"):
            (root / name).mkdir(parents=True)
            (root / name / "meta.json").write_text(json.dumps(
                {"format": 3, "interval": None, "golden_cycles": 438,
                 "checkpoints": [], "pages": [], "complete": True}))
            (root / name / "golden.bin").write_bytes(b"not a manifest")
        unrelated = root / "notes"
        unrelated.mkdir()
        (unrelated / "meta.json").write_text(json.dumps({"format": 1}))
        store = CheckpointStore(root)
        assert store.open(key) is None
        specs = Campaign(config(checkpoint_dir=root)).plan()
        assert {path.name for path in root.iterdir()} == {key, "notes"}
        assert store.open(key).meta["format"] == checkpoint.SNAPSHOT_FORMAT
        assert all(spec.checkpoint_key == key for spec in specs)


# -- the trace itself ----------------------------------------------------------


class ReferenceTrace(LivenessTrace):
    """The recording as first written: register sets from the
    instruction, live lanes recomputed per issue, one event object per
    word, a warp's completion read off the warp once it has issued."""

    def on_issue(self, core_id, warp, plan, exec_mask, now):
        inst = plan.inst
        src_regs, dst_regs, _sp, _dp = inst.scoreboard_sets()
        if src_regs or dst_regs:
            events = self.events.setdefault(
                ("register", (core_id, warp.age)), {})
            for reg in src_regs:
                events.setdefault(reg, []).append((now, "r"))
            if dst_regs:
                live = warp.live_lanes()
                kind = "k" if len(live) and exec_mask[live].all() else "r"
                for reg in dst_regs:
                    events.setdefault(reg, []).append((now, kind))
        if inst.is_exit:
            lanes = np.nonzero(exec_mask)[0]
            if len(lanes):
                wrec, _ = self._warp_recs[(core_id, warp.age)]
                wrec["exits"].append((now, tuple(int(l) for l in lanes)))

    def after_issue(self, core_id, warp, now):
        if warp.done:
            wrec, cta = self._warp_recs[(core_id, warp.age)]
            wrec["done_cycle"] = now
            if all(w["done_cycle"] is not None for w in cta["warps"]):
                cta["done_cycle"] = now

    def on_words(self, space, core_id, owner_age, words, lanes, is_load,
                 warp, plan, now):
        for lane, word in zip(lanes.tolist(), words):
            events = self.events.setdefault((space, (core_id, owner_age)), {})
            events.setdefault(word, []).append(
                (self.gpu.cycle, *([lane] if space == "local" else []),
                 "r" if is_load else "k"))


@pytest.mark.parametrize("app", benchmark_names())
def test_trace_content_equals_the_reference_recording(app, monkeypatch):
    issue = SIMTCore._issue

    def issue_then_tell(self, warp, plan, now):
        issue(self, warp, plan, now)
        for listener in self.gpu.listeners:
            if isinstance(listener, ReferenceTrace):
                listener.after_issue(self.core_id, warp, now)

    monkeypatch.setattr(SIMTCore, "_issue", issue_then_tell)
    trace, reference = LivenessTrace(), ReferenceTrace()
    profile_application(app, "RTX2060", liveness=trace)
    profile_application(app, "RTX2060", liveness=reference)
    kinds = {kind for kind, _ in trace.events}
    assert {"register", "cache"} <= kinds <= {"register", "cache", "shared",
                                              "local"}
    assert all(wrec["done_cycle"] is not None and cta["done_cycle"]
               for ctas in trace.cores.values() for cta in ctas
               for wrec in cta["warps"])
    for name in LivenessTrace.CONTENT:
        # repr: equal down to the order events and keys were added in
        assert repr(getattr(trace, name)) == repr(getattr(reference, name)), \
            name
    assert trace == reference


# -- observability ---------------------------------------------------------------


def test_campaign_start_says_where_the_plan_time_went(tmp_path):
    root = tmp_path / "ckpt"
    logs = []
    for index, expected in enumerate(["simulated", "loaded"]):
        log = tmp_path / f"c{index}.jsonl"
        campaign = Campaign(config(checkpoint_dir=root, metrics=True,
                                   log_path=log, seed=index))
        campaign.run()
        start = read_events(events_path_for(log))[0]
        assert start["event"] == "campaign_start"
        assert start["golden"] == expected
        assert 0 <= start["golden_s"] <= start["plan_s"]
        sidecar = json.loads((tmp_path / f"c{index}.jsonl.metrics.json")
                             .read_text())["campaign"]
        assert {k: sidecar[k] for k in ("plan_s", "golden", "golden_s")} == \
            {k: start[k] for k in ("plan_s", "golden", "golden_s")}
        assert f"golden run {expected} in" in format_event(start)
        assert f"golden run {expected} in" in render_top(
            Tally().apply(start))
        logs.append(log)
    # none of it reaches the campaign log
    assert "plan_s" not in logs[1].read_text()


def test_a_shared_golden_run_is_not_simulated_again():
    first = Campaign(config())
    golden = first.golden_run(traced=True)
    assert isinstance(golden, GoldenRun) and golden.liveness is not None
    with no_simulation():
        assert first.golden_run() is golden
        second = Campaign(config(seed=4), golden=golden)
        second.plan()
        assert second.profile is golden.profile
        assert second.golden_cycles == golden.cycles
