"""Golden-run checkpointing and fast-forward injection.

The contract under test: a campaign executed with ``checkpoint_dir``
set produces records *byte-identical* to the same campaign executed
from scratch, for any capture interval, because every fault run
restores a full architectural snapshot taken at a cycle at or before
its injection cycle and replays only the suffix.
"""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.targets import Structure
from repro.sim.cards import rtx_2060
from repro.sim.checkpoint import (POOL_FILE, CheckpointRecorder,
                                  CheckpointStore, campaign_fingerprint,
                                  _dumps, _loads)
from repro.sim.device import Device, RunOptions
from repro.sim.kernel import Kernel, KernelLaunch
from repro.sim.memory import SNAP_PAGE, page_digest
from tests.conftest import page_source


def run_campaign(tmp_path, benchmark, runs, checkpoint_dir=None,
                 interval=None, verify=False, seed=7):
    # early_stop="off": the byte-identical contract under test is
    # scoped to full simulation (early termination adds provenance
    # keys by design; its own parity is covered in test_early_stop.py)
    config = CampaignConfig(
        benchmark=benchmark, card="RTX2060",
        structures=(Structure.REGISTER_FILE, Structure.L2_CACHE),
        runs_per_structure=runs, seed=seed,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=interval,
        verify_restore=verify,
        early_stop="off")
    return Campaign(config).run()


class TestCampaignParity:
    """>= 32 fast-forwarded runs over two benchmarks and two
    structures must be byte-identical to from-scratch execution."""

    @pytest.mark.parametrize("bench_name,runs", [
        ("vectoradd", 8),   # 8 runs x 2 structures x 1 kernel  = 16
        ("bfs", 4),         # 4 runs x 2 structures x 2 kernels = 16
    ])
    def test_checkpointed_records_byte_identical(self, tmp_path,
                                                 bench_name, runs):
        scratch = run_campaign(tmp_path, bench_name, runs)
        ckpt = run_campaign(tmp_path, bench_name, runs,
                            checkpoint_dir=tmp_path / "ckpt")
        assert len(scratch.records) >= 16
        assert (json.dumps(scratch.records, sort_keys=True)
                == json.dumps(ckpt.records, sort_keys=True))

    def test_interval_independent(self, tmp_path):
        """Records do not depend on the capture stride."""
        baseline = run_campaign(tmp_path, "vectoradd", 4)
        for interval in (64, 256):
            got = run_campaign(tmp_path, "vectoradd", 4,
                               checkpoint_dir=tmp_path / f"i{interval}",
                               interval=interval)
            assert (json.dumps(baseline.records, sort_keys=True)
                    == json.dumps(got.records, sort_keys=True)), interval

    def test_verify_restore_cross_check(self, tmp_path):
        """--verify-restore re-runs every fast-forwarded run from
        scratch and raises on any divergence; passing is the test."""
        result = run_campaign(tmp_path, "vectoradd", 2,
                              checkpoint_dir=tmp_path / "ckpt",
                              verify=True)
        assert len(result.records) == 4


    def test_verify_restore_with_convergence(self, tmp_path):
        """A restored run must digest like the run it was captured
        from, or it misses the convergence its from-scratch twin finds
        (here: restore at a launch boundary, where the scheduler's
        last-issued warps belong to retired CTAs)."""
        config = CampaignConfig(
            benchmark="kmeans", card="RTX2060",
            structures=(Structure.REGISTER_FILE,), runs_per_structure=4,
            seed=23, checkpoint_dir=tmp_path / "ckpt",
            verify_restore=True, early_stop="converge")
        records = Campaign(config).run().records
        assert any("terminated_at" in r for r in records)


class TestCheckpointStore:
    def test_set_reused_across_plans(self, tmp_path):
        root = tmp_path / "ckpt"
        run_campaign(tmp_path, "vectoradd", 1, checkpoint_dir=root)
        key = next(p.name for p in root.iterdir() if p.is_dir())
        meta = root / key / "meta.json"
        before = meta.stat().st_mtime_ns
        run_campaign(tmp_path, "vectoradd", 1, checkpoint_dir=root)
        assert meta.stat().st_mtime_ns == before  # no recapture

    def test_interval_change_recaptures(self, tmp_path):
        root = tmp_path / "ckpt"
        run_campaign(tmp_path, "vectoradd", 1, checkpoint_dir=root,
                     interval=500)
        key = next(p.name for p in root.iterdir() if p.is_dir())
        run_campaign(tmp_path, "vectoradd", 1, checkpoint_dir=root,
                     interval=100)
        meta = json.loads((root / key / "meta.json").read_text())
        assert meta["placement"] == "every 100"

    def test_torn_set_ignored(self, tmp_path):
        """A directory without a complete meta.json (crashed capture)
        must read as absent, not as a corrupt set."""
        store = CheckpointStore(tmp_path)
        d = store.path("deadbeef")
        d.mkdir(parents=True)
        (d / "ckpt_000_000000000100.bin").write_bytes(b"partial")
        assert store.open("deadbeef") is None

    def test_format_mismatch_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path)
        d = store.path("cafe")
        d.mkdir(parents=True)
        (d / "meta.json").write_text(json.dumps(
            {"format": -1, "interval": None, "golden_cycles": 1,
             "checkpoints": [], "complete": True}))
        assert store.open("cafe") is None

    def test_fingerprint_tracks_code_and_card(self):
        from repro.bench import make_benchmark

        bench = make_benchmark("vectoradd")
        base = campaign_fingerprint(bench, rtx_2060(), "gto")
        assert base == campaign_fingerprint(
            make_benchmark("vectoradd"), rtx_2060(), "gto")
        assert base != campaign_fingerprint(bench, rtx_2060(), "lrr")
        assert base != campaign_fingerprint(
            make_benchmark("pathfinder"), rtx_2060(), "gto")

    def test_older_format_sets_are_unreachable(self, monkeypatch):
        """The format is part of the key: a set another format wrote
        lives under a directory this one never opens (or deletes)."""
        from repro.bench import make_benchmark
        from repro.sim import checkpoint

        assert checkpoint.SNAPSHOT_FORMAT == 4
        bench = make_benchmark("vectoradd")
        key = campaign_fingerprint(bench, rtx_2060(), "gto")
        monkeypatch.setattr(checkpoint, "SNAPSHOT_FORMAT", 3)
        assert campaign_fingerprint(bench, rtx_2060(), "gto") != key


class TestSnapshotRoundtrip:
    KERNEL = Kernel("snap_probe", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    MOV R10, 0x55
    STG [R9], R10
    EXIT
""", num_params=1)

    def test_blob_roundtrip(self):
        obj = {"a": np.arange(8, dtype=np.uint32), "b": [1, 2, 3]}
        back = _loads(_dumps(obj))
        assert np.array_equal(back["a"], obj["a"])
        assert back["b"] == obj["b"]

    def test_gpu_state_roundtrip(self):
        """snapshot -> clobber -> restore leaves memory, cycle and
        stats identical."""
        dev = Device("RTX2060")
        out = dev.malloc(128)
        dev.launch(self.KERNEL, grid=1, block=32, params=[out])
        gpu = dev.gpu
        request = KernelLaunch.create(self.KERNEL, grid=1, block=32,
                                      params=[out])
        dev.to_device(np.arange(1, 33, dtype=np.uint32))  # non-zero DRAM
        snap = _loads(_dumps(gpu.snapshot(request, [])))
        pages = page_source(gpu.memory)
        cycle = gpu.cycle
        mem = gpu.memory.data.copy()
        assert mem.any()
        gpu.memory.restore({"pages": {}, "next": 0, "allocations": []},
                           pages)
        assert not gpu.memory.data.any()
        gpu.cycle = 0
        gpu.restore(snap, request, pages)
        assert gpu.cycle == cycle
        assert np.array_equal(gpu.memory.data, mem)
        assert gpu.memory.snapshot() == snap["memory"]
        assert (dev.read_array(out, (32,), np.uint32) == 0x55).all()

    def test_recorder_writes_complete_set(self, tmp_path):
        rec = CheckpointRecorder(tmp_path / "set", interval=50)
        dev = Device("RTX2060", RunOptions(checkpointer=rec))
        out = dev.malloc(128)
        dev.launch(self.KERNEL, grid=1, block=32, params=[out])
        rec.finalize(dev.gpu.stats.launches, dev.cycle)
        meta = json.loads((tmp_path / "set" / "meta.json").read_text())
        assert meta["complete"] and meta["checkpoints"]
        ckpt_set = CheckpointStore(tmp_path).open("set")
        assert ckpt_set is not None
        assert ckpt_set.golden_cycles == dev.cycle

    def test_checkpointer_and_fast_forward_exclusive(self):
        rec = CheckpointRecorder("/tmp/unused")
        with pytest.raises(ValueError):
            RunOptions(checkpointer=rec, fast_forward=object())


def capture_golden(directory, name="pathfinder"):
    """One golden run with auto-stride capture; returns the open set."""
    from repro.faults.campaign import profile_application

    profile_application(
        name, "RTX2060", checkpointer=CheckpointRecorder(directory / "set"))
    return CheckpointStore(directory).open("set")


class TestSnapshotsCostWhatChanged:
    def test_each_distinct_page_is_stored_once(self, tmp_path):
        ckpt_set = capture_golden(tmp_path)
        tables = [ckpt_set.load_snapshot(entry["file"])["memory"]["pages"]
                  for entry in ckpt_set.meta["checkpoints"]]
        distinct = {digest for table in tables for digest in table.values()}
        references = sum(len(table) for table in tables)
        assert len(tables) >= 3 and references > len(distinct) >= 1
        pooled = [bytes.fromhex(h) for h in ckpt_set.meta["pages"]]
        assert sorted(pooled) == sorted(distinct)
        pool = (ckpt_set.directory / POOL_FILE).read_bytes()
        assert len(pool) == len(pooled) * SNAP_PAGE
        for slot, digest in enumerate(pooled):
            page = pool[slot * SNAP_PAGE:(slot + 1) * SNAP_PAGE]
            assert page_digest(page) == digest == page_digest(
                ckpt_set.page(digest))
        # and a snapshot file no longer carries an image
        largest = max(p.stat().st_size
                      for p in ckpt_set.directory.glob("ckpt_*.bin"))
        assert largest < 64 * 1024

    @pytest.mark.parametrize("scribbles", [0, 1, 3])
    def test_convergence_check_hashes_only_dirtied_pages(self, tmp_path,
                                                         scribbles):
        """A restored run's digest check rehashes the pages written
        since the restore -- none on an untouched run -- and the
        restore fetches only the pages that differ."""
        from repro.bench import make_benchmark
        from repro.faults.early_stop import ConvergenceMonitor
        from repro.faults.runner import run_application

        ckpt_set = capture_golden(tmp_path)
        entries = ckpt_set.meta["checkpoints"]
        restore_at = entries[2]
        check_at = ckpt_set.digests_after(restore_at["cycle"])[0]
        assert restore_at["launch_index"] == check_at["launch_index"]
        seen = {}

        class Monitor(ConvergenceMonitor):
            def on_cycle(self, gpu, launch, queue):
                before = gpu.memory.pages_hashed
                try:
                    super().on_cycle(gpu, launch, queue)
                finally:
                    if gpu.cycle == check_at["cycle"]:
                        seen["hashed"] = gpu.memory.pages_hashed - before

        class Scribbler:
            """Injector stand-in: DRAM word writes after the restore."""
            log = ()
            cycle = restore_at["cycle"] + 1

            def due_cycle(self):
                return self.cycle

            def apply_due(self, gpu, now):
                if self.cycle is not None and now >= self.cycle:
                    self.cycle = None
                    for page in range(scribbles):
                        gpu.memory.write_word(
                            0x1000 + page * SNAP_PAGE + 4 * page, 0xBAD)
                        gpu.memory.write_word(
                            0x1000 + page * SNAP_PAGE + 64, 0xBAD)

        fetched = []
        ckpt_set.page = lambda digest, fetch=ckpt_set.page: (
            fetched.append(digest) or fetch(digest))
        result = run_application(
            make_benchmark("pathfinder"), "RTX2060", options=RunOptions(
                injector=Scribbler(),
                fast_forward=ckpt_set.fast_forward(restore_at["cycle"]),
                convergence=Monitor([check_at], ckpt_set.golden()["host_reads"],
                                    ckpt_set.golden_cycles)))
        assert result.restored_at == restore_at["cycle"]
        assert seen["hashed"] == scribbles
        assert (result.terminated_at == check_at["cycle"]) == (scribbles == 0)
        # the host re-uploaded the inputs before the restore: nothing,
        # or only what the skipped prefix wrote back, needs fetching
        snap = ckpt_set.load_snapshot(restore_at["file"])
        assert len(fetched) < len(snap["memory"]["pages"])


class TestSnapshotCacheIsSizedInBytes:
    """Every snapshot of the sets a worker serves stays decompressed
    (an eight-entry LRU reloaded 103 times for 120 restores); what
    bounds the cache is the bytes it holds."""

    @pytest.fixture
    def loads(self, monkeypatch):
        from repro.sim import checkpoint

        seen = []
        real = checkpoint.pickle.loads
        monkeypatch.setattr(checkpoint, "_blobs", {})
        monkeypatch.setattr(
            checkpoint, "pickle", type("Pickle", (), {
                "loads": staticmethod(
                    lambda raw: seen.append(len(raw)) or real(raw)),
                "dumps": staticmethod(checkpoint.pickle.dumps),
                "UnpicklingError": checkpoint.pickle.UnpicklingError}))
        return seen

    def test_a_whole_set_stays_resident(self, tmp_path, loads):
        ckpt_set = capture_golden(tmp_path)
        files = [entry["file"] for entry in ckpt_set.meta["checkpoints"]]
        assert len(files) > 8
        for _ in range(3):
            for name in files:
                ckpt_set.load_snapshot(name)
        assert len(loads) == len(files)
        ckpt_set.part_digests(), ckpt_set.golden()
        assert len(loads) == len(files) + 2

    def test_the_liveness_trace_goes_past_it(self, tmp_path, loads):
        from repro.faults.campaign import profile_application
        from repro.sim import checkpoint
        from repro.sim.liveness import LivenessTrace

        profile_application(
            "vectoradd", "RTX2060", liveness=LivenessTrace(),
            checkpointer=CheckpointRecorder(tmp_path / "set"))
        ckpt_set = CheckpointStore(tmp_path).open("set")
        assert ckpt_set.liveness() is not None
        assert ckpt_set.liveness() is not None
        assert [Path(path).name for path, *_ in checkpoint._blobs] == [
            "meta.json"]

    def test_least_recently_used_goes_first(self, tmp_path, loads,
                                            monkeypatch):
        from repro.sim import checkpoint

        ckpt_set = capture_golden(tmp_path)
        first, second, third = [
            entry["file"] for entry in ckpt_set.meta["checkpoints"][:3]]
        ckpt_set.load_snapshot(first)
        ckpt_set.load_snapshot(second)
        third_bytes = len(zlib.decompress(
            (ckpt_set.directory / third).read_bytes()))
        monkeypatch.setattr(checkpoint, "_BLOB_CACHE_BYTES",
                            loads[0] + third_bytes + 1)  # room for two
        ckpt_set.load_snapshot(first)   # a hit: now the most recent
        ckpt_set.load_snapshot(third)   # evicts ``second``
        assert len(loads) == 3
        ckpt_set.load_snapshot(first)
        assert len(loads) == 3
        ckpt_set.load_snapshot(second)
        assert len(loads) == 4
        # one blob over the budget is still served (and kept alone)
        monkeypatch.setattr(checkpoint, "_BLOB_CACHE_BYTES", 1)
        assert ckpt_set.load_snapshot(third) is not None
        assert len(checkpoint._blobs) == 1


def damage_truncated_snapshots(directory):
    for path in directory.glob("ckpt_*.bin"):
        path.write_bytes(path.read_bytes()[:-7])


def damage_deleted_snapshots(directory):
    for path in directory.glob("ckpt_*.bin"):
        path.unlink()


def damage_truncated_pool(directory):
    (directory / POOL_FILE).write_bytes(b"")


def damage_truncated_manifest(directory):
    path = directory / "golden.bin"
    path.write_bytes(path.read_bytes()[:40])


def damage_deleted_part_digests(directory):
    (directory / "parts.bin").unlink()


class TestDamagedSetFallsBack:
    """``execute_run``'s contract: any checkpoint problem falls back
    to a from-scratch run -- the campaign neither aborts nor changes a
    record.  The card's L2 is small enough to write back mid-run, so
    restores do fetch pages (on the paper's cards the 12 benchmarks'
    stores stay in the L2 and a restore finds every page in place)."""

    @pytest.fixture(autouse=True, scope="class")
    def small_l2_card(self):
        import dataclasses

        from repro.sim.cards import CARDS
        from repro.sim.config import CacheGeometry

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(CARDS, "SmallL2", dataclasses.replace(
                rtx_2060(), name="SmallL2",
                l2=CacheGeometry(8 * 1024, assoc=4), l2_banks=4))
            yield

    @staticmethod
    def run(checkpoint_dir, batch=1, damage=None):
        """Canonical log text and each record's ``fast_forwarded``."""
        import dataclasses

        from repro.dist.protocol import canonical_log_text

        campaign = Campaign(CampaignConfig(
            benchmark="bfs", card="SmallL2",
            structures=(Structure.REGISTER_FILE,), runs_per_structure=5,
            seed=3, checkpoint_dir=checkpoint_dir, checkpoint_interval=2000,
            early_stop="off", batch=batch))
        specs = campaign.plan()
        if damage is not None:
            (directory,) = checkpoint_dir.iterdir()
            damage(directory)
        # telemetry: the volatile ``timings`` say how each run was made
        records = campaign.execute(
            [dataclasses.replace(spec, telemetry=True) for spec in specs])
        return canonical_log_text(records), [
            r["timings"]["fast_forwarded"] for r in records]

    @pytest.fixture(scope="class")
    def expected(self, small_l2_card):
        return self.run(None)[0]

    def test_intact_set_is_restored_from(self, tmp_path, expected):
        text, forwarded = self.run(tmp_path / "ckpt")
        assert text == expected and all(forwarded)

    @pytest.mark.parametrize("batch", [1, 4], ids=["solo", "packs"])
    @pytest.mark.parametrize("damage", [
        damage_truncated_snapshots, damage_deleted_snapshots,
        damage_truncated_pool, damage_truncated_manifest,
        damage_deleted_part_digests])
    def test_records_equal_the_no_checkpoint_run(self, tmp_path, expected,
                                                 damage, batch):
        text, forwarded = self.run(tmp_path / "ckpt", batch, damage)
        assert text == expected
        if damage is damage_truncated_pool:
            # launch 0 restores find every page in place and never
            # open the pool; the later ones fell back
            assert 0 < sum(forwarded) < len(forwarded)
        else:
            assert not any(forwarded)

    def test_pool_errors_are_checkpoint_errors(self, tmp_path):
        from repro.sim.checkpoint import CheckpointError

        ckpt_set = capture_golden(tmp_path, "vectoradd")
        digest = bytes.fromhex(ckpt_set.meta["pages"][-1])
        assert page_digest(ckpt_set.page(digest)) == digest
        with pytest.raises(CheckpointError, match="not in the pool"):
            ckpt_set.page(bytes(16))
        pool = ckpt_set.directory / POOL_FILE
        pool.write_bytes(pool.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match="does not hold"):
            ckpt_set.page(digest)
        pool.unlink()
        with pytest.raises(CheckpointError, match="unreadable page pool"):
            ckpt_set.page(digest)
        with pytest.raises(CheckpointError, match="unreadable ckpt_"):
            ckpt_set.load_snapshot("ckpt_missing.bin")
