"""Cross-commit timing and record fixtures for the simulator.

Every other byte-identity gate compares a commit with itself (solo vs
batched, jobs 1 vs jobs 2, fleet vs local).  These two fixtures were
generated by the simulator of an *earlier* commit and must keep
matching exactly, so a change to the scheduler, the cycle loop or the
occupancy accounting that moves a single cycle shows up here:

``data/golden_timing.json``
    all 12 benchmarks x {gto, lrr} on RTX2060 (plus vectoradd and
    pathfinder with the instruction cache modelled): total cycles,
    the per-launch statistics integrals, the cycle-loop counters (the
    one thing a loop that polls every warp every cycle would count
    differently), and
    for four benchmarks the ``(cycle, state_hash)`` stream of the
    auto-geometric checkpoint set -- twice: ``checkpoints`` are the
    values snapshot format 3 stored, one walk of
    :func:`~tests.conftest.state_digest` over the whole nested
    snapshot, unedited since and now recomputed from the captured
    snapshot files (:func:`tests.conftest.format3`), so the *state* a snapshot holds is
    pinned across the format change; ``checkpoint_roots`` are format
    4's own ``state_hash``, the root over the part digests.
``data/golden_control_pathfinder.jsonl``
    the canonical log of a pathfinder campaign with the ``control``
    fault model on the SIMT stack, the scoreboard, the L1D and the
    register file -- the injections that rewrite scheduler-visible
    state from outside the warp.

Regenerate (only from a commit whose simulator is trusted)::

    PYTHONPATH=src:. python tests/test_golden_timing.py
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest

from repro.bench import BENCHMARK_CLASSES, make_benchmark
from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.runner import run_application
from repro.faults.targets import Structure
from repro.sim.cards import get_card
from repro.sim.checkpoint import CheckpointRecorder, _loads
from repro.sim.device import RunOptions
from tests.conftest import format3, state_digest

DATA = Path(__file__).parent / "data"
TIMING = DATA / "golden_timing.json"
CONTROL_LOG = DATA / "golden_control_pathfinder.jsonl"

CARD = "RTX2060"
ICACHE_BENCHMARKS = ("vectoradd", "pathfinder")
DIGEST_BENCHMARKS = ("pathfinder", "needle", "lud", "scalarprod")

CASES = [(cls.name, policy, False)
         for cls in BENCHMARK_CLASSES for policy in ("gto", "lrr")]
CASES += [(name, "gto", True) for name in ICACHE_BENCHMARKS]


def case_key(name: str, policy: str, icache: bool) -> str:
    return f"{name}/{policy}" + ("/icache" if icache else "")


def measure(name: str, policy: str, icache: bool, scratch: Path) -> dict:
    """One golden run, reduced to what the fixture pins."""
    card = get_card(CARD)
    if icache:
        card = dataclasses.replace(card, model_icache=True)
    recorder = None
    if name in DIGEST_BENCHMARKS and policy == "gto" and not icache:
        recorder = CheckpointRecorder(scratch / case_key(name, policy, icache))
    result = run_application(
        make_benchmark(name), card, keep_device=True,
        options=RunOptions(scheduler_policy=policy, checkpointer=recorder))
    assert result.status == "completed" and result.passed
    entry = {
        "cycles": result.cycles,
        "loop_iterations": result.loop_iterations,
        "idle_cycles_skipped": result.idle_cycles_skipped,
        "launches": [
            {"kernel": ls.kernel_name, "cycles": ls.cycles,
             "instructions": ls.instructions,
             "busy_sm_cycles": ls.busy_sm_cycles,
             "warp_cycles": ls.warp_cycles,
             "thread_cycles": ls.thread_cycles,
             "cta_cycles": ls.cta_cycles,
             "cores_used": sorted(ls.cores_used)}
            for ls in result.device.launches],
    }
    if recorder is not None:
        # the witnesses: restore points carry no digest and are not pinned
        witnesses = [c for c in recorder.checkpoints if "state_hash" in c]
        entry["checkpoints"] = [
            [c["cycle"], state_digest(format3(_loads(
                (recorder._staging() / c["file"]).read_bytes())))]
            for c in witnesses]
        entry["checkpoint_roots"] = [[c["cycle"], c["state_hash"]]
                                     for c in witnesses]
    result.device.gpu.release()
    return entry


def control_config(checkpoint_dir: Path, batch: int = 1) -> CampaignConfig:
    return CampaignConfig(
        benchmark="pathfinder", card=CARD, fault_model="control",
        structures=(Structure.SIMT_STACK, Structure.SCOREBOARD,
                    Structure.L1D_CACHE, Structure.REGISTER_FILE),
        runs_per_structure=6, seed=11, checkpoint_dir=checkpoint_dir,
        early_stop="full", batch=batch)


def control_log_text(checkpoint_dir: Path, jobs: int, batch: int) -> str:
    campaign = Campaign(control_config(checkpoint_dir, batch))
    return canonical_log_text(campaign.execute(campaign.plan(), jobs=jobs))


@pytest.fixture(scope="module")
def golden():
    return json.loads(TIMING.read_text(encoding="utf-8"))


class TestGoldenTiming:
    def test_fixture_covers_every_case(self, golden):
        assert golden["card"] == CARD
        assert sorted(golden["runs"]) == sorted(
            case_key(*case) for case in CASES)
        pinned = 0
        for name in DIGEST_BENCHMARKS:
            run = golden["runs"][f"{name}/gto"]
            assert len(run["checkpoints"]) >= 3
            assert [c for c, _ in run["checkpoint_roots"]] == [
                c for c, _ in run["checkpoints"]]
            pinned += len(run["checkpoints"])
        assert pinned == 46  # format 3's, unedited since PR 16

    def test_every_cycle_is_visited_or_skipped(self, golden):
        for run in golden["runs"].values():
            assert (run["loop_iterations"] + run["idle_cycles_skipped"]
                    == run["cycles"])

    @pytest.mark.parametrize("name,policy,icache", CASES,
                             ids=[case_key(*case) for case in CASES])
    def test_same_cycles_same_integrals(self, golden, tmp_path, name,
                                        policy, icache):
        expected = golden["runs"][case_key(name, policy, icache)]
        measured = measure(name, policy, icache, tmp_path)
        for key in expected:
            assert measured[key] == expected[key], key


class TestGoldenControlLog:
    """Scoreboard and SIMT-stack flips change when a warp may issue
    from outside the warp: whatever the scheduler remembers about a
    stalled warp must not survive them."""

    @pytest.mark.parametrize("jobs,batch", [(1, 1), (2, 1), (1, 4)],
                             ids=["jobs1", "jobs2", "batch4"])
    def test_matches_parent_generated_log(self, tmp_path, jobs, batch):
        golden = CONTROL_LOG.read_text(encoding="utf-8")
        assert control_log_text(tmp_path / "ckpt", jobs, batch) == golden

    def test_log_exercises_the_control_paths(self):
        records = [json.loads(line) for line in
                   CONTROL_LOG.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 24
        by_structure = {}
        for record in records:
            by_structure.setdefault(record["structure"], []).append(record)
        assert sorted(by_structure) == ["l1d_cache", "register_file",
                                        "scoreboard", "simt_stack"]
        # simulated (not pre-screened) control-unit runs are what
        # exercise the invalidation
        for structure in ("simt_stack", "scoreboard"):
            assert any(not r.get("prescreened") and not r.get("synthesized")
                       for r in by_structure[structure])
        assert len({r["effect"] for r in records}) >= 2


def regenerate() -> None:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        runs = {case_key(*case): measure(*case, Path(scratch))
                for case in CASES}
        if TIMING.exists():
            # the loop never takes more iterations than it did
            before = json.loads(TIMING.read_text(encoding="utf-8"))["runs"]
            rose = [key for key, run in runs.items() if key in before
                    and run["loop_iterations"]
                    > before[key]["loop_iterations"]]
            assert not rose, rose
        TIMING.write_text(
            json.dumps({"card": CARD, "runs": runs}, indent=1,
                       sort_keys=True) + "\n", encoding="utf-8")
        text = control_log_text(Path(scratch) / "ckpt", jobs=1, batch=1)
        assert text == control_log_text(Path(scratch) / "ckpt2", jobs=2,
                                        batch=1)
        CONTROL_LOG.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
