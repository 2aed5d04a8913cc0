"""A finished campaign costs the dispatcher its counts, not its runs.

Once a campaign is complete its dispatcher keeps its identity, counts
and tally (:class:`repro.dist.server.FinishedCampaign`); its records
and events are read back from its files.  Defended here:

- the dispatcher's memory does not grow with the campaigns it has
  finished, and shedding their runs changes no reply;
- a restart loads finished campaigns from their files -- no plan, no
  run, no ``campaign_resume`` ... ``campaign_end`` bracket -- and
  answers for them as before it, while an unfinished one resumes;
- a resubmitted campaign executes nothing;
- a fleet worker does not import the dispatcher's HTTP server.
"""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import repro.dist.server as server_module
from repro.dist.protocol import spec_from_wire
from repro.dist.server import Dispatcher
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config
from repro.faults.ledger import CampaignLedger
from repro.faults.targets import Structure
from repro.obs.events import events_path_for, read_events

REPO = Path(__file__).resolve().parents[1]

#: All instant (``fleet_instant``'s shape): complete at submit.
INSTANT = dict(benchmark="vectoradd", card="RTX2060",
               structures=(Structure.SHARED_MEM, Structure.L1T_CACHE),
               runs_per_structure=128, early_stop="full")
#: Two kernels and two structures, named against their sorted order:
#: the local-memory runs are synthesized, the register-file ones leased.
LEASED = dict(benchmark="backprop", card="RTX2060",
              kernels=("bpnn_layerforward_CUDA", "bpnn_adjust_weights_cuda"),
              structures=(Structure.LOCAL_MEM, Structure.REGISTER_FILE),
              runs_per_structure=3, seed=4, early_stop="off")
#: Every run simulates: left unfinished by a restart.
UNFINISHED = dict(benchmark="vectoradd", card="RTX2060",
                  structures=(Structure.REGISTER_FILE,),
                  runs_per_structure=4, seed=3, early_stop="off")
#: ``/metrics`` families a dispatcher process counts itself.
PROCESS_FAMILIES = ("gpufi_uptime_seconds", "gpufi_record_batches_total",
                    "gpufi_workers", "gpufi_worker_")


def text_of(**config) -> str:
    return dump_config(CampaignConfig(**config))


def fake_record(spec) -> dict:
    return {"kernel": spec.kernel, "structure": spec.structure.value,
            "run": spec.run_index, "effect": "Masked"}


def drain(dispatcher: Dispatcher, limit=None) -> None:
    """Deliver fake records for leases until none is left (or ``limit``
    of them)."""
    granted = 0
    while limit is None or granted < limit:
        lease = dispatcher.lease("w")
        if lease.get("idle"):
            return
        granted += 1
        dispatcher.collect(
            lease["campaign"], lease["lease"], lease["fingerprint"],
            [fake_record(spec_from_wire(wire)) for wire in lease["specs"]],
            done=True, worker="w")


def replies(dispatcher: Dispatcher, cid: str) -> str:
    """Everything the dispatcher answers about one campaign, as sent."""
    pages = [dispatcher.events(cid, cursor=cursor, limit=limit)
             for cursor, limit in ((0, 500), (0, 5), (7, 5), (10**6, 5))]
    return json.dumps([dispatcher.status(cid), dispatcher.records(cid),
                       pages])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def at_close(monkeypatch, dispatcher: Dispatcher) -> dict:
    """Each campaign's :func:`replies` (digested) the moment its ledger
    closes, before the dispatcher sheds its runs."""
    seen, close = {}, CampaignLedger.close

    def closed(ledger, complete, **sections):
        close(ledger, complete, **sections)
        seen[ledger.campaign] = digest(replies(dispatcher, ledger.campaign))

    monkeypatch.setattr(CampaignLedger, "close", closed)
    return seen


def campaign_families(text: str) -> list:
    return [line for line in text.splitlines()
            if not line.startswith(PROCESS_FAMILIES)
            and not re.match(r"# (HELP|TYPE) (%s)" % "|".join(
                PROCESS_FAMILIES), line)]


class Spies:
    """Counts of ``Campaign.plan`` and of the dispatcher's
    ``execute_run`` calls."""

    def __init__(self, monkeypatch):
        self.plans = self.runs = 0
        plan, run = Campaign.plan, server_module.execute_run

        def counted_plan(campaign):
            self.plans += 1
            return plan(campaign)

        def counted_run(spec):
            self.runs += 1
            return run(spec)

        monkeypatch.setattr(Campaign, "plan", counted_plan)
        monkeypatch.setattr(server_module, "execute_run", counted_run)


def test_finished_campaigns_cost_the_dispatcher_no_runs(tmp_path,
                                                        monkeypatch):
    dispatcher = Dispatcher(log_dir=tmp_path)
    before = at_close(monkeypatch, dispatcher)
    held = []
    cids = []
    for seed in range(4):
        if seed == 1:
            tracemalloc.start()
        cids.append(dispatcher.submit(text_of(**INSTANT, seed=seed))
                    ["campaign"])
        gc.collect()
        held.append(tracemalloc.get_traced_memory()[0])
    tracemalloc.stop()
    # 256 runs a campaign: the parent commit held ~1.5 MB for two
    assert held[3] - held[1] < 64 * 1024, held
    for cid in cids:
        status = dispatcher.status(cid)
        assert status["state"] == "complete" and status["done"] == 256
        assert digest(replies(dispatcher, cid)) == before[cid]
        journal = read_events(events_path_for(tmp_path / f"{cid}.jsonl"))
        assert dispatcher.events(cid)["events"] == journal
        for cursor in (0, 7, 255, 256, 257, len(journal) - 1):
            page = dispatcher.events(cid, cursor=cursor, limit=3)
            assert page["events"] == journal[cursor:cursor + 3]
            assert page["total"] == len(journal)


def test_a_restart_loads_finished_campaigns_from_their_files(
        tmp_path, monkeypatch):
    dispatcher = Dispatcher(log_dir=tmp_path, shard_size=2)
    with monkeypatch.context() as patch:
        # the replies of a ledger in memory, in its plan's order
        before = at_close(patch, dispatcher)
        cids = [dispatcher.submit(text_of(**INSTANT, seed=seed))
                ["campaign"] for seed in (1, 2)]
        cids.append(dispatcher.submit(text_of(**LEASED))["campaign"])
        drain(dispatcher)
    text = dispatcher.metrics_text()
    assert {cid: digest(replies(dispatcher, cid)) for cid in cids} == before
    assert dispatcher.status(cids[2])["shards"]["total"] == 3

    spies = Spies(monkeypatch)
    revived = Dispatcher(log_dir=tmp_path, shard_size=2)
    assert (spies.plans, spies.runs) == (0, 0)
    assert {cid: digest(replies(revived, cid)) for cid in cids} == before
    assert campaign_families(revived.metrics_text()) \
        == campaign_families(text)
    assert revived.lease("w") == {"idle": True}

    # an unfinished campaign beside them resumes, the finished stay
    unfinished = revived.submit(text_of(**UNFINISHED))["campaign"]
    drain(revived, limit=1)
    spies.plans = spies.runs = 0
    again = Dispatcher(log_dir=tmp_path, shard_size=2)
    assert (spies.plans, spies.runs) == (1, 0)
    assert {cid: digest(replies(again, cid)) for cid in cids} == before
    kinds = [event["event"] for event in again.events(unfinished)["events"]]
    assert kinds.count("campaign_resume") == 1
    assert again.status(unfinished)["state"] == "running"
    drain(again)
    assert again.status(unfinished)["state"] == "complete"
    for cid in [*cids, unfinished]:
        kinds = [event["event"] for event in
                 read_events(events_path_for(tmp_path / f"{cid}.jsonl"))]
        assert kinds.count("campaign_end") == 1, cid
    assert again.submit(text_of(**UNFINISHED))["campaign"] == unfinished


def test_a_finished_campaign_keeps_no_latency_sample(tmp_path):
    """Its tally's per-run latencies feed only the sidecar, written at
    close: at the parent one finished here held 256 of them, and one
    loaded at a restart as many again."""
    dispatcher = Dispatcher(log_dir=tmp_path)
    cid = dispatcher.submit(text_of(**INSTANT))["campaign"]
    revived = Dispatcher(log_dir=tmp_path)
    for finished in (dispatcher._jobs[cid], revived._jobs[cid]):
        assert finished.complete and finished.tally.done == 256
        assert not any(finished.tally.latency.values())


def test_a_resubmission_executes_nothing(tmp_path, monkeypatch):
    dispatcher = Dispatcher(log_dir=tmp_path)
    text = text_of(**{**INSTANT, "runs_per_structure": 8})
    first = dispatcher.submit(text)
    spies = Spies(monkeypatch)
    again = dispatcher.submit(text)
    assert again == {**first, "reused": True}
    assert (spies.plans, spies.runs) == (1, 0)


def test_a_worker_imports_no_server():
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import repro.dist.worker\n"
         "print([m for m in ('repro.dist.server', 'http.server') "
         "if m in sys.modules])\n"
         "from repro.dist import Dispatcher, server\n"
         "print(Dispatcher.__module__, server.__name__)"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}).stdout
    assert loaded.splitlines() == [
        "[]", "repro.dist.server repro.dist.server"]
