"""A configuration's golden run is simulated -- or loaded -- once per
process.

:meth:`Campaign.golden_run` keeps the runs it simulated without a
checkpoint directory, and those it loaded from a checkpoint set, in a
bounded process-wide memo keyed by the configuration's fingerprint and
the set's manifest stamp.  Defended here:

- a second campaign on the same configuration -- another seed, other
  structures, runs or kernels -- simulates nothing and plans what a
  campaign with an empty memo plans;
- a traced entry serves an untraced request; an untraced entry asked
  for a trace simulates once and is replaced;
- a different card, ``model_icache``, scheduler policy or benchmark
  constructor state misses;
- ``verify_restore`` and a capture neither read nor fill it;
- a second campaign on a set reads no ``liveness.bin``; a recaptured
  or rewritten set misses; an untraced entry of a set never answers a
  traced request; set entries count against the cap;
- a golden run that raises is not kept, the memo is bounded, and a
  kept trace holds no simulator and no recording state;
- a campaign that holds its golden run does not compute the key;
- plans racing on it in threads are the plans of an empty memo, and
  two dispatcher submits of one configuration simulate once.
"""

import dataclasses
import os
import pickle
import shutil
import sys
import threading
import time

import pytest
from hypothesis import given

import repro.faults.campaign as campaign_module
from repro.bench.vectoradd import VectorAdd
from repro.dist.protocol import canonical_log_text
from repro.dist.server import Dispatcher
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config
from repro.faults.targets import Structure
from repro.obs.events import events_path_for, read_events
from repro.sim.checkpoint import CheckpointSet
from tests.conftest import generated
from tests.test_golden_run import plan_settings
from tests.test_instant_runs import drain

memo = campaign_module._GOLDEN_RUNS


def config(benchmark="gaussian", **overrides) -> CampaignConfig:
    defaults = dict(benchmark=benchmark, card="RTX2060",
                    structures=(Structure.REGISTER_FILE,
                                Structure.SHARED_MEM),
                    runs_per_structure=3, seed=9, early_stop="full")
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture
def simulations(monkeypatch):
    """The golden runs simulated from here on, as a list of their
    benchmark names."""
    calls = []
    simulate = campaign_module.profile_application

    def counted(benchmark_name, *args, **kwargs):
        calls.append(benchmark_name)
        return simulate(benchmark_name, *args, **kwargs)

    monkeypatch.setattr(campaign_module, "profile_application", counted)
    return calls


def cold_plan(cfg: CampaignConfig):
    """The plan of a campaign whose process has simulated nothing."""
    saved = dict(memo)
    memo.clear()
    try:
        campaign = Campaign(cfg)
        return campaign.plan(), campaign.plan_timing["golden"]
    finally:
        memo.clear()
        memo.update(saved)


@pytest.mark.parametrize("overrides", [
    dict(seed=10),
    dict(structures=(Structure.L2_CACHE, Structure.L1D_CACHE)),
    dict(runs_per_structure=5),
    dict(kernels=("Fan2",)),
    dict(seed=3, kernels=("Fan1",), early_stop="off", bits_per_fault=3),
], ids=["seed", "structures", "runs", "kernels", "untraced-other-run"])
def test_a_second_campaign_plans_from_the_memo(simulations, overrides):
    first = Campaign(config())
    first.plan()
    assert first.plan_timing["golden"] == "simulated"
    assert simulations == ["gaussian"]
    second = Campaign(config(**overrides))
    specs = second.plan()
    assert simulations == ["gaussian"]
    assert second.plan_timing["golden"] == "memo"
    assert second.plan_timing["golden_s"] == 0.0
    assert second.golden_run().source == "memo"
    assert first.golden_run().source == "simulated"  # its own copy
    assert second.profile is first.profile  # shared, read-only
    assert (specs, "simulated") == cold_plan(config(**overrides))


def test_a_traced_request_after_an_untraced_entry_simulates_once(
        simulations):
    untraced = Campaign(config(early_stop="converge"))
    untraced.plan()
    assert untraced.golden_run().liveness is None
    traced = Campaign(config())
    specs = traced.plan()
    assert traced.plan_timing["golden"] == "simulated"
    assert traced.golden_run().liveness is not None
    assert simulations == ["gaussian"] * 2
    # the traced entry replaced the untraced one and serves both asks
    for early_stop in ("full", "off", "converge"):
        campaign = Campaign(config(early_stop=early_stop, seed=4))
        campaign.plan()
        assert campaign.plan_timing["golden"] == "memo"
    assert simulations == ["gaussian"] * 2
    assert len(memo) == 1
    assert (specs, "simulated") == cold_plan(config())


def other_constructor_state(monkeypatch):
    make = campaign_module._make_benchmark
    monkeypatch.setattr(
        campaign_module, "_make_benchmark",
        lambda name: VectorAdd(seed=7) if name == "vectoradd" else make(name))
    return {}


@pytest.mark.parametrize("change", [
    lambda monkeypatch: dict(card="QuadroGV100"),
    lambda monkeypatch: dict(model_icache=True),
    lambda monkeypatch: dict(scheduler_policy="lrr"),
    other_constructor_state,
], ids=["card", "model_icache", "scheduler", "benchmark-state"])
def test_what_changes_the_golden_run_misses(simulations, monkeypatch,
                                            change):
    Campaign(config("vectoradd")).plan()
    assert simulations == ["vectoradd"]
    overrides = change(monkeypatch)
    campaign = Campaign(config("vectoradd", **overrides))
    specs = campaign.plan()
    assert campaign.plan_timing["golden"] == "simulated"
    assert simulations == ["vectoradd"] * 2
    assert len(memo) == 2
    again = Campaign(config("vectoradd", seed=1, **overrides))
    again.plan()
    assert again.plan_timing["golden"] == "memo"
    assert again.golden_cycles == campaign.golden_cycles
    assert (specs, "simulated") == cold_plan(config("vectoradd",
                                                    **overrides))


def test_verify_restore_neither_reads_nor_fills_the_memo(simulations):
    checked = Campaign(config(verify_restore=True))
    checked.plan()
    assert checked.plan_timing["golden"] == "simulated"
    assert not memo
    Campaign(config()).plan()
    assert len(memo) == 1
    again = Campaign(config(verify_restore=True))
    again.plan()
    assert again.plan_timing["golden"] == "simulated"
    assert simulations == ["gaussian"] * 3


def test_a_capture_neither_reads_nor_fills_the_memo(simulations, tmp_path):
    Campaign(config()).plan()
    assert len(memo) == 1
    captured = Campaign(config(checkpoint_dir=tmp_path / "a"))
    captured.plan()
    assert captured.plan_timing["golden"] == "simulated"
    assert len(memo) == 1  # the entry without a set answers no set
    assert simulations == ["gaussian"] * 2
    # a cold directory captures, a warm one loads, once per process
    cold = Campaign(config(checkpoint_dir=tmp_path / "b"))
    cold.plan()
    warm = Campaign(config(checkpoint_dir=tmp_path / "b"))
    warm.plan()
    again = Campaign(config(checkpoint_dir=tmp_path / "b", seed=3))
    again.plan()
    assert [cold.plan_timing["golden"], warm.plan_timing["golden"],
            again.plan_timing["golden"]] == ["simulated", "loaded", "memo"]
    assert simulations == ["gaussian"] * 3


@pytest.fixture
def trace_reads(monkeypatch):
    """The ``liveness.bin`` reads from here on, by set directory."""
    reads = []
    load = CheckpointSet.liveness

    def counted(self):
        reads.append(self.directory.name)
        return load(self)

    monkeypatch.setattr(CheckpointSet, "liveness", counted)
    return reads


def set_config(root, **overrides) -> CampaignConfig:
    return config("vectoradd", checkpoint_dir=root, **overrides)


def test_a_second_campaign_on_a_set_reads_no_trace(simulations, trace_reads,
                                                   tmp_path):
    Campaign(set_config(tmp_path)).plan()  # captures the set
    assert simulations == ["vectoradd"] and not trace_reads and not memo
    first = Campaign(set_config(tmp_path, seed=10))
    specs = first.plan()
    assert first.plan_timing["golden"] == "loaded"
    assert len(trace_reads) == 1 and len(memo) == 1
    second = Campaign(set_config(tmp_path, seed=10))
    assert second.plan() == specs
    assert second.plan_timing["golden"] == "memo"
    assert second.plan_timing["golden_s"] == 0.0
    assert second.golden_run().liveness is first.golden_run().liveness
    assert len(trace_reads) == 1 and simulations == ["vectoradd"]
    # what the memo answered is what the set holds
    memo.clear()
    cold = Campaign(set_config(tmp_path, seed=10))
    assert cold.plan() == specs and cold.plan_timing["golden"] == "loaded"


@pytest.mark.parametrize("change", ["recapture", "rewrite"])
def test_a_recaptured_set_misses(simulations, trace_reads, tmp_path,
                                 change):
    Campaign(set_config(tmp_path)).plan()
    Campaign(set_config(tmp_path)).plan()
    (manifest,) = tmp_path.glob("*/meta.json")
    if change == "recapture":
        shutil.rmtree(manifest.parent)
        Campaign(set_config(tmp_path)).plan()
        assert simulations == ["vectoradd"] * 2
    else:  # the same manifest, written again
        stat = manifest.stat()
        os.utime(manifest, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1000))
    campaign = Campaign(set_config(tmp_path, seed=2))
    campaign.plan()
    assert campaign.plan_timing["golden"] == "loaded"
    assert len(trace_reads) == 2 and len(memo) == 2
    again = Campaign(set_config(tmp_path, seed=3))
    again.plan()
    assert again.plan_timing["golden"] == "memo" and len(trace_reads) == 2


def test_verify_restore_bypasses_the_memo_of_a_set(simulations, tmp_path):
    Campaign(set_config(tmp_path)).plan()
    Campaign(set_config(tmp_path)).plan()
    (kept,) = memo.values()
    checked = Campaign(set_config(tmp_path, verify_restore=True))
    checked.plan()
    assert checked.plan_timing["golden"] == "simulated"
    assert simulations == ["vectoradd"] * 2
    (entry,) = memo.values()
    assert entry is kept


def test_an_untraced_entry_of_a_set_never_answers_a_trace(
        simulations, trace_reads, tmp_path):
    # early_stop converge plans untraced: the set is captured without
    # a trace and its entry holds none
    Campaign(set_config(tmp_path, early_stop="converge")).plan()
    loaded = Campaign(set_config(tmp_path, early_stop="converge"))
    loaded.plan()
    assert loaded.plan_timing["golden"] == "loaded"
    assert loaded.golden_run().liveness is None and not trace_reads
    traced = Campaign(set_config(tmp_path))
    specs = traced.plan()
    assert traced.plan_timing["golden"] == "simulated"  # adds the trace
    assert traced.golden_run().liveness is not None
    assert simulations == ["vectoradd"] * 2
    for early_stop in ("full", "converge"):
        campaign = Campaign(set_config(tmp_path, early_stop=early_stop))
        campaign.plan()
        assert campaign.plan_timing["golden"] == "memo"
    assert len(memo) == 1 and simulations == ["vectoradd"] * 2
    memo.clear()
    assert Campaign(set_config(tmp_path)).plan() == specs
    assert len(trace_reads) == 2  # the set gained the trace


def test_set_entries_count_against_the_cap(simulations, monkeypatch,
                                           tmp_path):
    monkeypatch.setattr(campaign_module, "GOLDEN_CAP", 2)
    configs = [set_config(tmp_path, scheduler_policy=policy,
                          early_stop="off") for policy in ("gto", "lrr")]
    configs.append(dataclasses.replace(configs[0], card="QuadroGV100"))
    for cfg in configs:
        Campaign(cfg).plan()  # captures: keeps nothing
    assert not memo
    for cfg in configs:
        campaign = Campaign(cfg)
        campaign.plan()
        assert campaign.plan_timing["golden"] == "loaded"
        assert 0 < len(memo) <= 2
    last = Campaign(dataclasses.replace(configs[-1], seed=2))
    last.plan()
    assert last.plan_timing["golden"] == "memo"
    assert len(simulations) == 3


def test_a_golden_run_that_raises_is_not_kept(monkeypatch):
    def fails(*args, **kwargs):
        raise RuntimeError("fault-free run did not pass")

    monkeypatch.setattr(campaign_module, "profile_application", fails)
    with pytest.raises(RuntimeError):
        Campaign(config()).plan()
    assert not memo
    monkeypatch.undo()
    campaign = Campaign(config())
    campaign.plan()
    assert campaign.plan_timing["golden"] == "simulated"


def test_the_memo_is_bounded(simulations, monkeypatch):
    monkeypatch.setattr(campaign_module, "GOLDEN_CAP", 2)
    configs = [config("vectoradd", scheduler_policy=policy, early_stop="off")
               for policy in ("gto", "lrr")]
    configs.append(dataclasses.replace(configs[0], card="QuadroGV100"))
    for cfg in configs:
        Campaign(cfg).plan()
        assert 0 < len(memo) <= 2
    assert len(simulations) == 3
    last = Campaign(dataclasses.replace(configs[-1], seed=2))
    last.plan()
    assert last.plan_timing["golden"] == "memo"


def test_a_kept_trace_holds_no_simulator():
    campaign = Campaign(config())
    campaign.plan()
    (kept,) = memo.values()
    assert kept.liveness is not None and kept.liveness.gpu is None
    # nor any recording state: it is what a trace loaded from disk is
    loaded = pickle.loads(pickle.dumps(kept.liveness))
    assert vars(kept.liveness) == vars(loaded)
    assert campaign.golden_run().liveness is kept.liveness


def test_a_campaign_holding_its_golden_run_computes_no_key(monkeypatch):
    campaign = Campaign(config())
    campaign.golden_run(traced=True)

    def fingerprint(self):
        raise AssertionError("fingerprint computed for a golden run "
                             "the campaign holds")

    monkeypatch.setattr(Campaign, "_fingerprint", fingerprint)
    assert campaign.golden_run().source == "simulated"
    assert campaign.golden_run(traced=True).source == "simulated"


class YieldingMemo(dict):
    """A memo whose lookups let other threads run before they return,
    so that their stores land between a lookup and what follows it."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0.001)
        return value


def test_racing_plans_get_the_plans_of_an_empty_memo(monkeypatch):
    """Threads planning two configurations at once, on a memo so small
    that every store empties it: a race costs a simulation, never a
    wrong plan or an error."""
    configs = [config("vectoradd", scheduler_policy=policy)
               for policy in ("gto", "lrr")]
    expected = [cold_plan(cfg)[0] for cfg in configs]
    monkeypatch.setattr(campaign_module, "GOLDEN_CAP", 1)
    monkeypatch.setattr(campaign_module, "_GOLDEN_RUNS", YieldingMemo())
    plans, errors = [], []

    def race(index):
        try:
            for _ in range(6):
                which = index % 2
                plans.append((which, Campaign(configs[which]).plan()))
        except BaseException as exc:  # reported below, in the test thread
            errors.append(exc)

    threads = [threading.Thread(target=race, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(plans) == 24
    assert all(plan == expected[which] for which, plan in plans)


def test_two_submits_of_one_configuration_simulate_once(simulations,
                                                        tmp_path):
    settings = dict(benchmark="vectoradd", card="RTX2060",
                    structures=(Structure.REGISTER_FILE,),
                    runs_per_structure=4, early_stop="off")
    dispatcher = Dispatcher(log_dir=tmp_path, shard_size=2)
    cids = [dispatcher.submit(dump_config(CampaignConfig(
        **settings, seed=seed)))["campaign"] for seed in (1, 2)]
    assert simulations == ["vectoradd"]
    starts = [read_events(events_path_for(tmp_path / f"{cid}.jsonl"))[0]
              for cid in cids]
    assert [start["golden"] for start in starts] == ["simulated", "memo"]
    assert drain(dispatcher)
    for cid, seed in zip(cids, (1, 2)):
        assert dispatcher.status(cid)["state"] == "complete"
        memo.clear()
        local = Campaign(CampaignConfig(**settings, seed=seed))
        expected = canonical_log_text(local.execute(local.plan()))
        assert local.plan_timing["golden"] == "simulated"
        assert canonical_log_text(
            dispatcher.records(cid)["records"]) == expected


@given(plan_settings())
@generated(24)
def test_a_plan_from_the_memo_is_the_plan_of_an_empty_memo(overrides):
    memo.clear()
    Campaign(config(overrides["benchmark"], seed=overrides["seed"] + 1,
                    early_stop="full")).plan()
    campaign = Campaign(config(**overrides))
    specs = campaign.plan()
    assert campaign.plan_timing["golden"] == "memo"
    assert (specs, "simulated") == cold_plan(config(**overrides))
