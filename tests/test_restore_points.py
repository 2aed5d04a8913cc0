"""Restore points: snapshots a run may restore from but never compares
against (:data:`repro.sim.checkpoint.RESTORE_STRIDE`).

- sound: a golden run restored at a restore point ends golden -- same
  cycles, host reads, output and final state -- on all twelve
  workloads (captured at a short stride so that every one has some;
  ``pytest --hypothesis-profile nightly`` restores at all of them);
- never witnesses: the witness stream of a set is the one pinned in
  ``data/golden_timing.json`` however many restore points sit between,
  and neither a solo run's monitor nor a pack member is handed one;
- dense where it matters: within a launch no two snapshots are further
  apart than the stride plus the idle skip straddling its end;
- placement is part of what a set is: a campaign reuses a set only
  when it asks for the placement it was captured with.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import settings

from repro.bench import BENCHMARK_CLASSES, make_benchmark
from repro.dist.protocol import canonical_log_text
from repro.faults import batch_executor, executor
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.runner import run_application
from repro.faults.targets import Structure
from repro.sim import checkpoint
from repro.sim.checkpoint import (CheckpointRecorder, CheckpointStore,
                                  FastForward, part_digest)
from repro.sim.device import RunOptions

CARD = "RTX2060"
WORKLOADS = [cls.name for cls in BENCHMARK_CLASSES]
PINNED = json.loads((Path(__file__).parent / "data" / "golden_timing.json")
                    .read_text(encoding="utf-8"))["runs"]
NIGHTLY = settings.default is settings.get_profile("nightly")


def short_stride(name: str) -> int:
    """A restore stride at which every workload's set holds restore
    points, however short its run."""
    return max(16, PINNED[f"{name}/gto"]["cycles"] // 24)


def is_witness(entry: dict) -> bool:
    return "state_hash" in entry


class Visits(CheckpointRecorder):
    """A recorder that also notes every (launch, cycle) the loop visits."""

    def __init__(self, directory):
        super().__init__(directory)
        self.visited = []

    def on_cycle(self, gpu, launch, queue):
        self.visited.append((gpu.stats.current.launch_index, gpu.cycle))
        super().on_cycle(gpu, launch, queue)


class HostReads:
    """A convergence rider that compares nothing and keeps every DtoH
    copy of the run."""

    def __init__(self):
        self.reads = []

    def next_cycle(self):
        return None

    def on_cycle(self, gpu, launch, queue):
        pass

    def on_host_read(self, tag, addr, nbytes, data):
        self.reads.append((tag, addr, nbytes, data.tobytes()))


def final_state(gpu) -> bytes:
    """Digest of everything a GPU holds once its application ended."""
    state = {"cycle": gpu.cycle, "memory": gpu.memory.snapshot(),
             "l2": gpu.l2.snapshot(), "stats": gpu.stats.snapshot()}
    for core in gpu.cores:
        state.update((name, capture()) for name, capture in core.parts())
    return part_digest(state)


class Golden:
    """One workload's golden run, captured into a set."""

    def __init__(self, directory: Path, name: str):
        recorder = Visits(directory / "set")
        result = run_application(make_benchmark(name), CARD,
                                 keep_device=True,
                                 options=RunOptions(checkpointer=recorder))
        assert result.status == "completed" and result.passed
        recorder.finalize(result.device.launches, result.cycles)
        self.cycles = result.cycles
        self.final = final_state(result.device.gpu)
        result.device.gpu.release()
        self.visited = recorder.visited
        self.set = CheckpointStore(directory).open("set")
        self.entries = self.set.meta["checkpoints"]
        self.reads = [(r["tag"], r["addr"], r["nbytes"], r["data"].tobytes())
                      for r in self.set.golden()["host_reads"]]


class Captures:
    """Per (workload, stride), made on first use."""

    def __init__(self, factory):
        self.factory = factory
        self.made = {}

    def __call__(self, name: str, stride: int = checkpoint.RESTORE_STRIDE):
        if (name, stride) not in self.made:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(checkpoint, "RESTORE_STRIDE", stride)
                self.made[name, stride] = Golden(
                    self.factory.mktemp(f"{name}_{stride}"), name)
        return self.made[name, stride]


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    return Captures(tmp_path_factory)


def sampled(points: list) -> list:
    """At most three of ``points`` -- first, middle, last -- or all of
    them under the nightly profile."""
    if NIGHTLY or len(points) <= 3:
        return points
    return [points[0], points[len(points) // 2], points[-1]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_run_restored_at_a_restore_point_ends_golden(captured, name):
    golden = captured(name, short_stride(name))
    points = [entry for entry in golden.entries if not is_witness(entry)]
    assert points
    for entry in sampled(points):
        reads = HostReads()
        result = run_application(
            make_benchmark(name), CARD, keep_device=True,
            options=RunOptions(fast_forward=FastForward(golden.set, entry),
                               convergence=reads))
        assert result.restored_at == entry["cycle"]
        assert (result.status, result.passed, result.cycles) == (
            "completed", True, golden.cycles)
        assert reads.reads == golden.reads
        assert final_state(result.device.gpu) == golden.final
        result.device.gpu.release()


@pytest.mark.parametrize("name", ["pathfinder", "needle", "lud",
                                  "scalarprod"])
def test_the_witnesses_are_the_pinned_ones(captured, name):
    # at the default stride tests/test_golden_timing.py pins them
    golden = captured(name, short_stride(name))
    assert [[entry["cycle"], entry["state_hash"]] for entry in golden.entries
            if is_witness(entry)] == PINNED[f"{name}/gto"]["checkpoint_roots"]
    assert sorted(golden.set.part_digests()) == sorted(
        entry["file"] for entry in golden.entries if is_witness(entry))


@pytest.mark.parametrize("name", ["lud", "needle"])
def test_digests_after_returns_witnesses_only(captured, name):
    golden = captured(name)
    witnesses = [entry for entry in golden.entries if is_witness(entry)]
    assert len(witnesses) < len(golden.entries)
    for cycle in [0] + [entry["cycle"] for entry in golden.entries]:
        after = golden.set.digests_after(cycle)
        assert [dict(entry, parts=None) for entry in after] == [
            dict(entry, parts=None) for entry in witnesses
            if entry["cycle"] > cycle]


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_two_snapshots_of_a_launch_are_a_stride_apart(captured, name):
    golden = captured(name)
    stride = checkpoint.RESTORE_STRIDE
    visited = {}
    for launch, cycle in golden.visited:
        visited.setdefault(launch, []).append(cycle)
    for before, after in zip(golden.entries, golden.entries[1:]):
        if before["launch_index"] != after["launch_index"]:
            continue
        # at the latest, the first iteration at or past the deadline
        due = next((cycle for cycle in visited[after["launch_index"]]
                    if cycle >= before["cycle"] + stride), None)
        assert due is None or after["cycle"] <= due, (before, after)


def campaign(benchmark, checkpoint_dir, **overrides) -> Campaign:
    settings_ = dict(benchmark=benchmark, card=CARD,
                     structures=(Structure.REGISTER_FILE,
                                 Structure.SHARED_MEM),
                     runs_per_structure=8, seed=5,
                     checkpoint_dir=checkpoint_dir, early_stop="full")
    settings_.update(overrides)
    return Campaign(CampaignConfig(**settings_))


@pytest.mark.parametrize("name", ["needle", "lud"])
def test_verified_runs_restore_at_restore_points(tmp_path, name):
    """Every fast-forwarded run is re-run from scratch and compared
    (a difference raises RestoreParityError); most restore at a
    restore point."""
    verified = campaign(name, tmp_path, verify_restore=True)
    specs = verified.plan()
    records = verified.execute([dataclasses.replace(spec, telemetry=True)
                                for spec in specs])
    (ckpt_set,) = [CheckpointStore(tmp_path).open(path.name)
                   for path in tmp_path.iterdir()]
    points = {entry["cycle"] for entry in ckpt_set.meta["checkpoints"]
              if not is_witness(entry)}
    simulated = [record for record in records
                 if not (record.get("prescreened") or record["synthesized"])]
    restored = [record for record in simulated
                if record["timings"]["skipped_fast_forward"] in points]
    assert simulated and 2 * len(restored) >= len(simulated)


def test_no_monitor_and_no_pack_member_is_handed_a_restore_point(
        tmp_path, monkeypatch):
    handed = []

    class Monitor(executor.ConvergenceMonitor):
        def __init__(self, entries, *args, **kwargs):
            handed.append(("solo", list(entries)))
            super().__init__(entries, *args, **kwargs)

    class Member(batch_executor.PackMember):
        __slots__ = ()

        def __init__(self, mask, col, entries):
            handed.append(("pack", list(entries)))
            super().__init__(mask, col, entries)

    monkeypatch.setattr(executor, "ConvergenceMonitor", Monitor)
    monkeypatch.setattr(batch_executor, "PackMember", Member)
    needle = campaign("needle", tmp_path, batch=8)
    needle.execute(needle.plan())
    assert {kind for kind, _ in handed} == {"solo", "pack"}
    assert all(is_witness(entry) for _, entries in handed
               for entry in entries)


def test_a_set_is_reused_only_under_its_placement(tmp_path):
    """``terminated_at`` depends on the witnesses: a default campaign
    on a directory an ``--checkpoint-interval`` campaign captured into
    logs what it logs on an empty one, byte for byte."""

    def log(directory, interval=None):
        pathfinder = campaign("pathfinder", directory, runs_per_structure=12,
                              seed=7, checkpoint_interval=interval)
        return canonical_log_text(pathfinder.execute(pathfinder.plan()))

    cold = log(tmp_path / "cold")
    interval = log(tmp_path / "warm", interval=500)
    assert log(tmp_path / "warm") == cold != interval
    (directory,) = (tmp_path / "warm").iterdir()
    meta = CheckpointStore(tmp_path / "warm").open(directory.name).meta
    assert meta["placement"] == checkpoint.placement(None)
    records = [json.loads(line) for line in cold.splitlines()]
    assert [record.get("terminated_at") for record in records
            if (record["kernel"], record["structure"], record["run"])
            == ("dynproc_kernel", "shared_mem", 10)] == [1839]
