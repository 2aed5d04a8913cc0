"""Instant runs are recorded where they are planned.

A synthesized or pre-screened run simulates nothing: the plan already
knows its verdict.  The dispatcher records such runs at submit and
leases only the runs that simulate; a local pool of more than one
process records them in the coordinating process before the pool
starts.  Defended here:

- an all-instant campaign is complete when ``submit`` returns, with
  no lease;
- no lease of a mixed campaign carries an instant spec, and its fleet
  log equals a local run's at early-stop full and off;
- a dispatcher restart records nothing twice, and the live tally is
  the fold of the journal;
- a submit draws each pre-screened mask once;
- ``--jobs 2`` gives ``--jobs 1``'s log, and no pool unit holds an
  instant spec.
"""

import collections
import json
import re

import pytest

import repro.faults.executor as executor
from repro.dist.protocol import canonical_log_text, spec_from_wire
from repro.dist.server import Dispatcher
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config
from repro.faults.executor import CampaignExecutor, execute_run
from repro.faults.ledger import record_key
from repro.faults.mask import MaskGenerator
from repro.faults.parser import scan_completed_records
from repro.faults.targets import Structure
from repro.obs.events import Tally, events_path_for, read_events

#: vectoradd has no shared memory, so its shared-memory runs are
#: synthesized; under early-stop full its L1T runs are all proven dead
#: (the benchmark's ``fleet_instant`` shape).
ALL_INSTANT = dict(benchmark="vectoradd", card="RTX2060",
                   structures=(Structure.SHARED_MEM, Structure.L1T_CACHE),
                   runs_per_structure=16, seed=11)

#: backprop allocates no local memory (synthesized runs); under
#: early-stop full most register-file runs are pre-screened and one
#: simulates, under off all of them simulate.
MIXED = dict(benchmark="backprop", card="RTX2060",
             structures=(Structure.REGISTER_FILE, Structure.LOCAL_MEM),
             runs_per_structure=4, seed=3)


def text_of(**config) -> str:
    return dump_config(CampaignConfig(**config))


def drain(dispatcher: Dispatcher, worker: str = "w", limit=None) -> list:
    """Execute leases until none is left (or ``limit`` of them), as a
    fleet worker would; returns every lease granted."""
    leases = []
    while limit is None or len(leases) < limit:
        lease = dispatcher.lease(worker)
        if lease.get("idle"):
            break
        leases.append(lease)
        records = [execute_run(spec_from_wire(wire))
                   for wire in lease["specs"]]
        dispatcher.collect(lease["campaign"], lease["lease"],
                           lease["fingerprint"], records, done=True,
                           worker=worker)
    return leases


def local_log(config: dict) -> str:
    campaign = Campaign(CampaignConfig(**config))
    return canonical_log_text(campaign.execute(campaign.plan()))


def fold(dispatcher: Dispatcher, cid: str) -> Tally:
    """The fold of a campaign's journal, as its dispatcher keeps it: a
    finished campaign sheds its per-run latencies (only the sidecar,
    written at close, reads them)."""
    tally = Tally().apply_all(read_events(events_path_for(
        dispatcher.log_dir / f"{cid}.jsonl")))
    if dispatcher._jobs[cid].complete:
        tally.latency.clear()
    return tally


def test_an_all_instant_campaign_is_complete_at_submit(tmp_path):
    dispatcher = Dispatcher(log_dir=tmp_path, shard_size=2)
    cid = dispatcher.submit(text_of(**ALL_INSTANT))["campaign"]
    status = dispatcher.status(cid)
    assert status["state"] == "complete"
    assert status["done"] == status["total"] == 32
    assert status["shards"]["total"] == 0
    text = dispatcher.metrics_text()
    assert re.search(r"^gpufi_leases_granted_total 0$", text, re.M)
    assert "gpufi_worker_runs_total{" not in text
    assert dispatcher.lease("w") == {"idle": True}
    assert dispatcher.record_batches == 0
    assert canonical_log_text(dispatcher.records(cid)["records"]) \
        == local_log(ALL_INSTANT)
    events = read_events(events_path_for(tmp_path / f"{cid}.jsonl"))
    runs = [event for event in events if event["event"] == "run"]
    assert len(runs) == 32
    assert all(e["worker"] is None and e["instant"] for e in runs)
    assert events[-1]["event"] == "campaign_end" and events[-1]["complete"]
    assert vars(dispatcher._jobs[cid].tally) == vars(
        fold(dispatcher, cid))


@pytest.mark.parametrize("early_stop", ["full", "off"])
def test_a_mixed_campaign_leases_only_runs_that_simulate(tmp_path,
                                                         early_stop):
    config = dict(MIXED, early_stop=early_stop)
    plan = Campaign(CampaignConfig(**config)).plan()
    simulated = {spec.key for spec in plan if not spec.instant}
    assert simulated and len(simulated) < len(plan)  # mixed
    dispatcher = Dispatcher(log_dir=tmp_path, shard_size=2)
    cid = dispatcher.submit(text_of(**config))["campaign"]
    # the instant runs are in the ledger before anything is leased
    status = dispatcher.status(cid)
    assert status["done"] == len(plan) - len(simulated)
    assert status["shards"]["total"] == -(-len(simulated) // 2)
    leases = drain(dispatcher)
    wires = [wire for lease in leases for wire in lease["specs"]]
    assert not any(w["synthesized"] or w["prescreened"] for w in wires)
    assert {spec_from_wire(w).key for w in wires} == simulated
    assert dispatcher.status(cid)["state"] == "complete"
    assert canonical_log_text(dispatcher.records(cid)["records"]) \
        == local_log(config)
    assert vars(dispatcher._jobs[cid].tally) == vars(
        fold(dispatcher, cid))


@pytest.mark.parametrize("finished", [False, True])
def test_a_restart_records_nothing_twice(tmp_path, finished):
    text = text_of(**MIXED, early_stop="off", metrics=True)
    dispatcher = Dispatcher(log_dir=tmp_path, shard_size=2)
    cid = dispatcher.submit(text)["campaign"]
    drain(dispatcher, limit=None if finished else 1)
    assert dispatcher.status(cid)["state"] == (
        "complete" if finished else "running")

    revived = Dispatcher(log_dir=tmp_path, shard_size=2)
    assert vars(revived._jobs[cid].tally) == vars(
        fold(revived, cid))
    drain(revived, worker="w2")
    assert revived.status(cid)["state"] == "complete"
    assert vars(revived._jobs[cid].tally) == vars(
        fold(revived, cid))

    log = tmp_path / f"{cid}.jsonl"
    lines = [json.loads(line) for line in log.read_text().splitlines()][1:]
    keys = [record_key(record) for record in lines]
    runs = [record_key(event) for event in read_events(events_path_for(log))
            if event["event"] == "run"]
    assert collections.Counter(keys) == collections.Counter(runs)
    assert len(set(keys)) == len(keys) == revived.status(cid)["total"]
    # instant records name no worker, simulated ones the one that ran them
    for record in scan_completed_records(log).values():
        assert (record["worker"] is None) == record["synthesized"]
    assert canonical_log_text(lines) == local_log(dict(MIXED,
                                                       early_stop="off"))


def test_a_submit_draws_each_prescreened_mask_once(tmp_path, monkeypatch):
    config = dict(ALL_INSTANT, seed=12)
    drawn = collections.Counter()
    draw = MaskGenerator.generate

    def counted(*args, **kwargs):  # every mask of the process
        mask = draw(*args, **kwargs)
        drawn[json.dumps(mask.to_dict(), sort_keys=True)] += 1
        return mask

    monkeypatch.setattr(MaskGenerator, "generate", counted)
    executor._PLANNED_MASKS.clear()
    dispatcher = Dispatcher(log_dir=tmp_path)
    cid = dispatcher.submit(text_of(**config))["campaign"]
    records = dispatcher.records(cid)["records"]
    prescreened = [r for r in records if r.get("prescreened")]
    assert len(prescreened) == 16
    assert drawn == {json.dumps(r["mask"], sort_keys=True): 1
                     for r in prescreened}
    assert not executor._PLANNED_MASKS  # each record took its mask
    monkeypatch.undo()
    # the masks the records carry are the ones a fresh draw gives
    plan = {spec.key: spec for spec in Campaign(CampaignConfig(
        **config)).plan()}
    executor._PLANNED_MASKS.clear()
    for record in prescreened:
        assert record["mask"] == executor.regenerate_mask(
            plan[record_key(record)]).to_dict()


def test_planned_masks_are_bounded(monkeypatch):
    monkeypatch.setattr(executor, "PLANNED_MASK_CAP", 4)
    executor._PLANNED_MASKS.clear()
    campaign = Campaign(CampaignConfig(**ALL_INSTANT, early_stop="full"))
    plan = campaign.plan()
    assert 0 < len(executor._PLANNED_MASKS) <= 4
    records = [execute_run(spec) for spec in plan]
    assert not executor._PLANNED_MASKS
    executor._PLANNED_MASKS.clear()
    assert records == [execute_run(spec) for spec in plan]


def test_a_pool_gets_only_runs_that_simulate(tmp_path, monkeypatch):
    units = []
    drained = CampaignExecutor._pool_completions

    def spied(self, pool, pool_units, runner, ledger):
        units.extend(pool_units)
        return drained(self, pool, pool_units, runner, ledger)

    monkeypatch.setattr(CampaignExecutor, "_pool_completions", spied)
    config = dict(MIXED, early_stop="full")
    logs = {}
    for jobs in (1, 2):
        log = tmp_path / f"j{jobs}.jsonl"
        Campaign(CampaignConfig(**config, log_path=log)).run(jobs=jobs)
        logs[jobs] = canonical_log_text(
            list(scan_completed_records(log).values()))
    assert logs[1] == logs[2]
    specs = [spec for kind, payload in units
             for spec in ((payload,) if kind == "solo" else payload)]
    plan = Campaign(CampaignConfig(**config)).plan()
    assert specs and not any(spec.instant for spec in specs)
    assert sorted(spec.key for spec in specs) == sorted(
        spec.key for spec in plan if not spec.instant)
