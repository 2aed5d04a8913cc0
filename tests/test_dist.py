"""Distributed campaign fabric: shards, leases, dedup, byte-identity.

The headline invariant under test: a fleet of N workers produces a
merged log that is byte-identical -- after canonical sort, minus the
volatile ``timings``/``worker`` keys -- to a local ``--jobs N`` run of
the same plan (see :mod:`repro.dist.protocol`).
"""

import json
import re
import threading

import pytest

from repro.dist.client import DispatchError, DispatcherClient
from repro.dist.protocol import (canonical_log_text, canonical_records,
                                 plan_fingerprint, plan_shards,
                                 record_key, spec_from_wire,
                                 spec_to_wire, strip_volatile)
from repro.dist.server import Dispatcher, DispatcherServer
from repro.dist.worker import FleetWorker
from repro.faults.campaign import Campaign, CampaignConfig, aggregate_counts
from repro.faults.config_file import dump_config
from repro.faults.executor import execute_run
from repro.faults.targets import Structure

#: Every run simulates (a dispatcher records instant ones itself, so
#: only simulating runs exercise leases).
SMALL = dict(benchmark="vectoradd", card="RTX2060",
             structures=(Structure.REGISTER_FILE,),
             runs_per_structure=4, seed=3, early_stop="off")


@pytest.fixture(scope="module")
def small_plan():
    return Campaign(CampaignConfig(**SMALL)).plan()


@pytest.fixture(scope="module")
def screened_plan():
    """SMALL under early-stop full: specs with pre-screen fields set."""
    plan = Campaign(CampaignConfig(**{**SMALL, "early_stop": "full"})).plan()
    assert any(spec.prescreened for spec in plan)
    return plan


@pytest.fixture(scope="module")
def small_records(small_plan):
    """The ground truth: every run executed locally, in plan order."""
    return [execute_run(spec) for spec in small_plan]


def fake_record(spec):
    """A plausible record without running any simulation (scheduling
    tests care about keys and counts, not physics)."""
    return {"kernel": spec.kernel, "structure": spec.structure.value,
            "run": spec.run_index, "effect": "Masked"}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def small_config_text(**overrides):
    return dump_config(CampaignConfig(**{**SMALL, **overrides}))


class TestShardPlanning:
    def test_exact_partition_for_any_shard_size(self, small_plan):
        for size in range(1, len(small_plan) + 3):
            shards = plan_shards(small_plan, size)
            flat = [spec for shard in shards for spec in shard]
            assert flat == list(small_plan)  # every run, exactly once
            assert all(len(shard) <= size for shard in shards)
            assert all(len(shard) == size for shard in shards[:-1])

    def test_partition_is_pure_function_of_plan(self, small_plan):
        first = plan_shards(small_plan, 3)
        second = plan_shards(small_plan, 3)
        assert [[s.key for s in shard] for shard in first] == \
               [[s.key for s in shard] for shard in second]

    def test_invalid_shard_size(self, small_plan):
        with pytest.raises(ValueError, match="shard_size"):
            plan_shards(small_plan, 0)


class TestWireFormat:
    def test_spec_round_trips_through_json(self, screened_plan):
        for spec in screened_plan:
            wire = json.loads(json.dumps(spec_to_wire(spec)))
            assert spec_from_wire(wire) == spec

    def test_unknown_keys_ignored(self, screened_plan):
        wire = spec_to_wire(screened_plan[0])
        wire["from_the_future"] = {"x": 1}
        assert spec_from_wire(wire) == screened_plan[0]


class TestFingerprint:
    def test_order_independent(self, small_plan):
        assert plan_fingerprint(small_plan) == \
               plan_fingerprint(list(reversed(small_plan)))

    def test_seed_changes_fingerprint(self, small_plan):
        other = Campaign(CampaignConfig(**{**SMALL, "seed": 4})).plan()
        assert plan_fingerprint(other) != plan_fingerprint(small_plan)

    def test_subset_changes_fingerprint(self, small_plan):
        assert plan_fingerprint(small_plan[:-1]) != \
               plan_fingerprint(small_plan)


class TestCanonicalForm:
    def test_dedup_strip_sort(self):
        records = [
            {"kernel": "k", "structure": "s", "run": 1, "effect": "SDC",
             "timings": {"total_s": 9.9}, "worker": "w1"},
            {"kernel": "k", "structure": "s", "run": 0, "effect": "Masked"},
            {"kernel": "k", "structure": "s", "run": 1, "effect": "SDC",
             "worker": "w2"},  # re-executed shard: same run, new worker
        ]
        canonical = canonical_records(records)
        assert [record_key(r) for r in canonical] == [
            ("k", "s", 0), ("k", "s", 1)]
        assert all("timings" not in r and "worker" not in r
                   for r in canonical)

    def test_text_ignores_jobs_and_order(self, small_records):
        shuffled = list(reversed(small_records))
        assert canonical_log_text(shuffled) == \
               canonical_log_text(small_records)


class TestDispatcherCore:
    """Scheduling semantics, no HTTP, no simulation (fake records)."""

    def make(self, tmp_path, **kwargs):
        clock = FakeClock()
        dispatcher = Dispatcher(log_dir=tmp_path / "logs", clock=clock,
                                **kwargs)
        return dispatcher, clock

    def drain(self, dispatcher, worker, limit=100):
        """Lease-execute-collect until idle; returns shards served."""
        served = 0
        for _ in range(limit):
            lease = dispatcher.lease(worker)
            if lease.get("idle"):
                return served
            specs = [spec_from_wire(w) for w in lease["specs"]]
            dispatcher.collect(
                lease["campaign"], lease["lease"], lease["fingerprint"],
                [fake_record(s) for s in specs], done=True, worker=worker)
            served += 1
        raise AssertionError("dispatcher never went idle")

    def test_resubmit_is_deduplicated(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        first = dispatcher.submit(small_config_text())
        second = dispatcher.submit(small_config_text())
        assert second == {"campaign": first["campaign"], "reused": True,
                          "total": first["total"]}

    def test_rejects_remote_backend_submission(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        text = small_config_text() + "-gpufi_backend remote\n" \
            "-gpufi_backend_url http://elsewhere:1\n"
        with pytest.raises(ValueError, match="local backend"):
            dispatcher.submit(text)

    def test_round_robin_across_campaigns(self, tmp_path):
        dispatcher, _ = self.make(tmp_path, shard_size=1)
        a = dispatcher.submit(small_config_text(seed=1))["campaign"]
        b = dispatcher.submit(small_config_text(seed=2))["campaign"]
        first_four = [dispatcher.lease("w")["campaign"] for _ in range(4)]
        # fair alternation: neither campaign is starved behind the other
        assert first_four == [a, b, a, b]

    def test_worker_arrival_order_is_irrelevant(self, tmp_path):
        results = []
        for order in (("w1", "w2"), ("w2", "w1")):
            root = tmp_path / "-".join(order)
            dispatcher = Dispatcher(log_dir=root, shard_size=2)
            cid = dispatcher.submit(small_config_text())["campaign"]
            for worker in order * 4:
                lease = dispatcher.lease(worker)
                if lease.get("idle"):
                    continue
                specs = [spec_from_wire(w) for w in lease["specs"]]
                dispatcher.collect(
                    cid, lease["lease"], lease["fingerprint"],
                    [fake_record(s) for s in specs], done=True,
                    worker=worker)
            assert dispatcher.status(cid)["state"] == "complete"
            results.append(canonical_log_text(
                dispatcher.records(cid)["records"]))
        assert results[0] == results[1]

    def test_expired_lease_requeues_shard_and_dedups(self, tmp_path):
        dispatcher, clock = self.make(tmp_path, shard_size=2,
                                      lease_timeout=10.0)
        cid = dispatcher.submit(small_config_text())["campaign"]
        stale = dispatcher.lease("w-dead")
        clock.advance(11.0)  # w-dead goes silent past the timeout
        fresh = dispatcher.lease("w-live")
        # the lost shard is re-queued first, ahead of the backlog
        assert fresh["shard"] == stale["shard"]
        assert fresh["lease"] != stale["lease"]
        specs = [spec_from_wire(w) for w in stale["specs"]]
        records = [fake_record(s) for s in specs]
        # the dead worker's records still arrive (slow network, not
        # dead after all): accepted, because they are correct
        late = dispatcher.collect(cid, stale["lease"],
                                  stale["fingerprint"], records,
                                  done=True, worker="w-dead")
        assert late["expired"] and late["accepted"] == len(records)
        # the replacement re-executes: everything deduplicates
        again = dispatcher.collect(cid, fresh["lease"],
                                   fresh["fingerprint"], records,
                                   done=True, worker="w-live")
        assert again["accepted"] == 0
        self.drain(dispatcher, "w-live")
        status = dispatcher.status(cid)
        assert status["state"] == "complete"
        # identical classification counts to an undisturbed execution
        plan = Campaign(CampaignConfig(**SMALL)).plan()
        expected = aggregate_counts([fake_record(s) for s in plan])
        got = aggregate_counts(dispatcher.records(cid)["records"])
        assert got == expected

    def test_late_delivery_of_an_expired_lease_completes_its_shard(
            self, tmp_path):
        """A shard is complete when the ledger holds its runs, whoever
        delivered them.  A dispatcher that kept a shard queue of its
        own read ``done 2/4`` but ``complete 0, pending 2`` after this
        late ``done``, and leased shard 0 again, whose re-execution was
        ``accepted 0 of 2``."""
        dispatcher, clock = self.make(tmp_path, shard_size=2,
                                      lease_timeout=10.0)
        cid = dispatcher.submit(small_config_text())["campaign"]
        stale = dispatcher.lease("w-slow")
        clock.advance(11.0)
        specs = [spec_from_wire(w) for w in stale["specs"]]
        late = dispatcher.collect(cid, stale["lease"], stale["fingerprint"],
                                  [fake_record(s) for s in specs],
                                  done=True, worker="w-slow")
        assert late["expired"] and late["accepted"] == 2
        status = dispatcher.status(cid)
        assert (status["done"], status["total"]) == (2, 4)
        assert status["shards"] == {"total": 2, "complete": 1, "pending": 1,
                                    "leased": 0, "lease_expired": 1}
        assert dispatcher.lease("w")["shard"] == 1

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        dispatcher, clock = self.make(tmp_path, lease_timeout=10.0)
        cid = dispatcher.submit(small_config_text())["campaign"]
        lease = dispatcher.lease("w")
        for _ in range(5):
            clock.advance(8.0)
            assert dispatcher.heartbeat(lease["lease"])["ok"]
        # 40 fake seconds later the lease is still the worker's
        assert dispatcher.status(cid)["shards"]["leased"] == 1
        clock.advance(11.0)
        assert dispatcher.heartbeat(lease["lease"]) == {
            "ok": False, "expired": True}

    def test_collect_rejects_foreign_fingerprint(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(small_config_text())["campaign"]
        lease = dispatcher.lease("w")
        with pytest.raises(ValueError, match="refusing to mix"):
            dispatcher.collect(cid, lease["lease"], "0" * 64,
                               [], done=False)

    def test_collect_rejects_unknown_campaign(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        with pytest.raises(KeyError):
            dispatcher.collect("c999", "l", "f", [])

    def test_collect_rejects_record_outside_plan(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(small_config_text())["campaign"]
        lease = dispatcher.lease("w")
        alien = {"kernel": "nope", "structure": "register_file",
                 "run": 0, "effect": "Masked"}
        with pytest.raises(ValueError, match="not part of campaign"):
            dispatcher.collect(cid, lease["lease"],
                               lease["fingerprint"], [alien])

    def test_restart_resumes_from_persisted_state(self, tmp_path):
        root = tmp_path / "logs"
        dispatcher = Dispatcher(log_dir=root, shard_size=2)
        cid = dispatcher.submit(small_config_text())["campaign"]
        lease = dispatcher.lease("w")
        specs = [spec_from_wire(w) for w in lease["specs"]]
        dispatcher.collect(cid, lease["lease"], lease["fingerprint"],
                           [fake_record(s) for s in specs], done=True,
                           worker="w")
        done_before = dispatcher.status(cid)["done"]
        assert 0 < done_before < dispatcher.status(cid)["total"]

        # the dispatcher process dies; a new one starts on the same dir
        revived = Dispatcher(log_dir=root, shard_size=2)
        status = revived.status(cid)
        assert status["done"] == done_before
        assert status["shards"]["complete"] == 1
        # only the missing shard remains; finishing it completes the
        # campaign with exactly one record per run
        self.drain(revived, "w2")
        final = revived.status(cid)
        assert final["state"] == "complete"
        records = revived.records(cid)["records"]
        assert len(records) == final["total"]
        assert len({record_key(r) for r in records}) == len(records)
        # and the revived server allocates fresh ids after the old ones
        other = revived.submit(small_config_text(seed=99))["campaign"]
        assert other != cid

    def test_a_lease_of_before_a_restart_ends_no_lease_of_after(
            self, tmp_path):
        root, clock = tmp_path / "logs", FakeClock()
        dispatcher = Dispatcher(log_dir=root, shard_size=2, clock=clock)
        cid = dispatcher.submit(small_config_text())["campaign"]
        old = dispatcher.lease("w-old")
        revived = Dispatcher(log_dir=root, shard_size=2, clock=clock)
        new = revived.lease("w-new")
        assert new["shard"] == old["shard"]
        records = [fake_record(spec_from_wire(w)) for w in old["specs"]]
        # the old holder's late heartbeat and done find no lease ...
        assert revived.heartbeat(old["lease"]) == {"ok": False,
                                                   "expired": True}
        late = revived.collect(cid, old["lease"], old["fingerprint"],
                               records, done=True, worker="w-old")
        assert late["expired"] and late["accepted"] == len(records)
        # ... and the new holder's lease is still its own
        assert revived.heartbeat(new["lease"]) == {"ok": True}
        reply = revived.collect(cid, new["lease"], new["fingerprint"],
                                records, done=True, worker="w-new")
        assert reply["ok"] and not reply["expired"]
        assert revived.status(cid)["shards"]["leased"] == 0

    def test_completion_writes_metrics_sidecar(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(
            small_config_text(metrics=True))["campaign"]
        self.drain(dispatcher, "w")
        sidecar = (tmp_path / "logs" / f"{cid}.jsonl.metrics.json")
        candidates = list((tmp_path / "logs").glob("*.metrics.json"))
        assert sidecar.exists() or candidates, \
            "no metrics sidecar written at completion"


class TestDispatcherTelemetry:
    """Event journaling, cursor pages, /metrics -- still no HTTP."""

    make = TestDispatcherCore.make
    drain = TestDispatcherCore.drain

    def test_events_bracket_the_campaign(self, tmp_path):
        dispatcher, _ = self.make(tmp_path, shard_size=2)
        cid = dispatcher.submit(small_config_text())["campaign"]
        self.drain(dispatcher, "w")
        page = dispatcher.events(cid)
        events = page["events"]
        assert events[0]["event"] == "campaign_start"
        assert events[0]["schema"] >= 2
        # where the submit's plan spent its time
        assert events[0]["golden"] == "simulated"
        assert 0 < events[0]["golden_s"] <= events[0]["plan_s"]
        assert events[-1]["event"] == "campaign_end"
        assert events[-1]["complete"]
        runs = [e for e in events if e["event"] == "run"]
        assert len(runs) == SMALL["runs_per_structure"]
        # the trace chain threads campaign -> shard -> run
        trace = page["trace"]
        assert trace.startswith(cid + "@")
        assert all(r["trace"].startswith(f"{trace}/s") for r in runs)
        leased = [e for e in events if e["event"] == "shard_leased"]
        assert {e["shard"] for e in leased} == {0, 1}
        assert all(e["trace"] == f"{trace}/s{e['shard']}.g1"
                   for e in leased)

    def test_events_cursor_pages_are_resumable(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(small_config_text())["campaign"]
        self.drain(dispatcher, "w")
        whole = dispatcher.events(cid)
        collected, cursor = [], 0
        while True:
            page = dispatcher.events(cid, cursor=cursor, limit=2)
            assert page["cursor"] == cursor
            if not page["events"]:
                break
            collected.extend(page["events"])
            cursor = page["next"]
        assert collected == whole["events"]
        assert cursor == whole["total"]

    def test_events_unknown_campaign_raises(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        with pytest.raises(KeyError):
            dispatcher.events("c404")

    def test_recovered_lease_journals_each_run_once(self, tmp_path):
        dispatcher, clock = self.make(tmp_path, shard_size=2,
                                      lease_timeout=10.0)
        cid = dispatcher.submit(small_config_text())["campaign"]
        stale = dispatcher.lease("w-dead")
        clock.advance(11.0)
        fresh = dispatcher.lease("w-live")  # reap + re-queue
        assert fresh["shard"] == stale["shard"]
        specs = [spec_from_wire(w) for w in stale["specs"]]
        records = [fake_record(s) for s in specs]
        run_events = [{"event": "run", "worker": name, **r}
                      for name, r in
                      [("w-dead", records[0]), ("w-dead", records[1])]]
        dispatcher.collect(cid, stale["lease"], stale["fingerprint"],
                           records, done=True, worker="w-dead",
                           events=run_events)
        # the replacement re-delivers the exact same runs
        relived = [{**e, "worker": "w-live"} for e in run_events]
        dispatcher.collect(cid, fresh["lease"], fresh["fingerprint"],
                           records, done=True, worker="w-live",
                           events=relived)
        self.drain(dispatcher, "w-live")
        events = dispatcher.events(cid)["events"]
        runs = [e for e in events if e["event"] == "run"]
        keys = [record_key(e) for e in runs]
        assert len(keys) == len(set(keys)) == SMALL["runs_per_structure"]
        # first delivery wins, matching canonical_records
        by_key = {record_key(e): e["worker"] for e in runs}
        for record in records:
            assert by_key[record_key(record)] == "w-dead"
        expired = [e for e in events if e["event"] == "lease_expired"]
        assert len(expired) == 1 and expired[0]["shard"] == 0

    def test_worker_without_events_gets_synthesized_runs(self, tmp_path):
        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(small_config_text())["campaign"]
        self.drain(dispatcher, "w-old")  # old worker: no events field
        runs = [e for e in dispatcher.events(cid)["events"]
                if e["event"] == "run"]
        assert len(runs) == SMALL["runs_per_structure"]
        assert all(e["worker"] == "w-old" and e["trace"] for e in runs)

    def test_restart_appends_campaign_resume_to_journal(self, tmp_path):
        root = tmp_path / "logs"
        dispatcher = Dispatcher(log_dir=root, shard_size=2)
        cid = dispatcher.submit(
            small_config_text(metrics=True))["campaign"]
        lease = dispatcher.lease("w")
        specs = [spec_from_wire(w) for w in lease["specs"]]
        dispatcher.collect(cid, lease["lease"], lease["fingerprint"],
                           [fake_record(s) for s in specs], done=True,
                           worker="w")
        before = dispatcher.events(cid)["events"]

        revived = Dispatcher(log_dir=root, shard_size=2)
        events = revived.events(cid)["events"]
        # the journal survived the restart and grew a resume marker
        assert [e["event"] for e in events[:len(before)]] == \
               [e["event"] for e in before]
        assert events[len(before)]["event"] == "campaign_resume"
        assert events[len(before)]["resumed"] == len(specs)
        self.drain(revived, "w2")
        final = revived.events(cid)["events"]
        runs = [e for e in final if e["event"] == "run"]
        keys = [record_key(e) for e in runs]
        # pre-restart runs were not re-journaled after the resume
        assert len(keys) == len(set(keys)) == SMALL["runs_per_structure"]
        assert final[-1]["event"] == "campaign_end"
        # the sidecar follows the local --resume rule: its wall-clock
        # sections cover the session since campaign_resume, those
        # derived from the records the whole campaign
        doc = json.loads((root / f"{cid}.jsonl.metrics.json").read_text())
        resumed = final[len(before)]
        assert doc["campaign"]["resumed"] == resumed["resumed"] == 2
        assert doc["campaign"]["executed"] == final[-1]["executed"] == 2
        assert doc["campaign"]["wall_s"] == pytest.approx(
            final[-1]["ts"] - resumed["ts"], abs=2e-6)
        assert doc["workers"] == {"w2": {
            **doc["workers"]["w2"], "runs": 2}}
        assert sum(entry["count"]
                   for entry in doc["latency"].values()) == 2
        assert sum(doc["effects"].values()) == 4
        assert doc["savings"]["runs"]["simulated"] == 4

    def test_metrics_exposition_lints_clean(self, tmp_path):
        from tests.promlint import (lint_prometheus,
                                    required_families_present)

        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(small_config_text())["campaign"]
        text = dispatcher.metrics_text()
        assert lint_prometheus(text) == []
        self.drain(dispatcher, "w")
        text = dispatcher.metrics_text()
        assert lint_prometheus(text) == []
        assert required_families_present(text, [
            "gpufi_uptime_seconds", "gpufi_campaigns", "gpufi_shards",
            "gpufi_runs_total", "gpufi_run_effects_total",
            "gpufi_leases_granted_total", "gpufi_lease_expired_total",
            "gpufi_workers", "gpufi_worker_runs_total"]) == []
        assert 'state="complete"' in text
        assert re.search(r"gpufi_runs_total \d", text)
        assert 'gpufi_worker_runs_total{worker="w"} 4' in text
        assert dispatcher.status(cid)["state"] == "complete"

    def test_sidecar_dist_section_matches_journal(self, tmp_path):
        from repro.obs.events import Tally

        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(
            small_config_text(metrics=True))["campaign"]
        self.drain(dispatcher, "w")
        sidecar = tmp_path / "logs" / f"{cid}.jsonl.metrics.json"
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
        dist = doc["dist"]
        tally = Tally().apply_all(dispatcher.events(cid)["events"])
        # offline report numbers == what a live tail aggregated
        assert dist["events"] == {"total": tally.events,
                                  "by_type": tally.by_type}
        assert dist["workers"] == {"w": {
            "runs": 4, "shards": tally.completed, "heartbeats": 0}}
        assert dist["campaign"] == cid
        assert dist["shards"]["complete"] == dist["shards"]["total"]

    def test_fleet_sidecar_counts_the_workers_that_ran(self, tmp_path,
                                                        capsys):
        """A session without a pool says how many workers delivered
        its runs.  At the parent, only the local pool stamped ``jobs``
        on the opening event: the sidecar read ``jobs: 0`` and
        ``report-metrics`` "12 runs (12 executed, 0 resumed) on 0
        worker(s)"."""
        from repro.cli import main

        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(small_config_text(
            structures=(Structure.REGISTER_FILE, Structure.L1T_CACHE),
            runs_per_structure=6, metrics=True))["campaign"]
        self.drain(dispatcher, "w1")
        log = tmp_path / "logs" / f"{cid}.jsonl"
        doc = json.loads((tmp_path / "logs"
                          / f"{cid}.jsonl.metrics.json").read_text())
        assert doc["campaign"]["jobs"] == 1
        assert main(["report-metrics", str(log)]) == 0
        assert "12 runs (12 executed, 0 resumed) on 1 worker(s)" \
            in capsys.readouterr().out


class TestFleetEndToEnd:
    """Real HTTP, real workers, real simulation: the headline test."""

    def run_fleet(self, tmp_path, config, n_workers=2, shard_size=2):
        dispatcher = Dispatcher(log_dir=tmp_path / "server",
                                shard_size=shard_size)
        server = DispatcherServer(dispatcher, port=0).start()
        try:
            client = DispatcherClient(server.url)
            cid = client.submit(config)["campaign"]
            workers = [FleetWorker(server.url, name=f"w{i}", poll=0.05,
                                   max_idle=5.0)
                       for i in range(n_workers)]
            threads = [threading.Thread(target=w.run, daemon=True)
                       for w in workers]
            for thread in threads:
                thread.start()
            status = client.wait(cid, timeout=300)
            for thread in threads:
                thread.join(timeout=30)
            return dispatcher, cid, status, workers
        finally:
            server.shutdown()

    def test_two_worker_fleet_matches_local_run(self, tmp_path,
                                                small_records):
        config = CampaignConfig(**SMALL)
        dispatcher, cid, status, workers = self.run_fleet(
            tmp_path, config)
        assert status["state"] == "complete"
        fleet = dispatcher.records(cid)["records"]
        assert canonical_log_text(fleet) == \
               canonical_log_text(small_records)
        # the merged on-disk log carries the same records plus a header
        from repro.faults.parser import load_records, read_log_header
        log_path = tmp_path / "server" / f"{cid}.jsonl"
        header = read_log_header(log_path)
        assert header["fingerprint"] == dispatcher.records(
            cid)["fingerprint"]
        assert canonical_log_text(load_records(log_path)) == \
               canonical_log_text(small_records)
        # work stealing actually spread the load
        assert sum(w.runs_done for w in workers) == len(small_records)

    def test_submitted_campaign_with_metrics_gets_telemetry(self,
                                                            tmp_path):
        """``metrics`` on a submitted campaign reaches whoever executes
        its shards.  Fails at the parent, where only the local pool
        stamped ``telemetry`` on specs: no fleet record had
        ``timings``, and the sidecar read ``untracked 6``, ``mean_s
        0.0`` and one worker, ``"0"``."""
        config = CampaignConfig(**{**SMALL, "runs_per_structure": 6,
                                   "early_stop": "off", "metrics": True})
        dispatcher, cid, status, workers = self.run_fleet(
            tmp_path, config)
        assert status["state"] == "complete"
        records = dispatcher.records(cid)["records"]
        names = {worker.name for worker in workers}
        assert all(len(r["timings"]) == 13 for r in records)
        assert {r["worker"] for r in records} <= names
        doc = json.loads((tmp_path / "server"
                          / f"{cid}.jsonl.metrics.json").read_text())
        assert doc["checkpoint"] == {"hits": 0, "misses": 6,
                                     "untracked": 0, "hit_rate": 0.0}
        assert doc["latency"] and all(
            entry["mean_s"] > 0 for entry in doc["latency"].values())
        fleet_runs = {name: entry["runs"]
                      for name, entry in doc["dist"]["workers"].items()
                      if entry["runs"]}
        assert {name: entry["runs"]
                for name, entry in doc["workers"].items()} == fleet_runs
        assert set(fleet_runs) <= names and sum(fleet_runs.values()) == 6
        # the wall-clock sections tell the fleet's time: that of the
        # journal's bracket, on the clocks that stamped the events.
        # At the parent they replayed the records against a clock born
        # at completion: wall_s 5.7e-05, utilization 2135.2.
        journal = dispatcher.events(cid)["events"]
        assert journal[0]["event"] == "campaign_start"
        assert journal[-1]["event"] == "campaign_end"
        campaign = doc["campaign"]
        assert campaign["executed"] == journal[-1]["executed"] == 6
        assert 0.01 < campaign["wall_s"] == pytest.approx(
            journal[-1]["ts"] - journal[0]["ts"], abs=2e-6)
        assert campaign["runs_per_s"] == pytest.approx(
            campaign["executed"] / campaign["wall_s"], rel=1e-4)
        for entry in doc["workers"].values():
            assert 0 < entry["utilization"] <= 1
            assert (0 <= entry["first_seen_s"]
                    <= entry["last_heartbeat_s"] <= campaign["wall_s"])
        # run events carry the stage seconds of the records' timings
        runs = [event for event in dispatcher.events(cid)["events"]
                if event["event"] == "run"]
        assert len(runs) == 6 and all(
            event["simulate_s"] > 0 and event["worker"] in names
            for event in runs)
        # the telemetry keys are volatile: same canonical log as local
        local = [execute_run(spec) for spec in Campaign(config).plan()]
        assert all("timings" not in record for record in local)
        assert canonical_log_text(records) == canonical_log_text(local)

    def test_http_error_mapping(self, tmp_path):
        dispatcher = Dispatcher(log_dir=tmp_path / "server")
        server = DispatcherServer(dispatcher, port=0).start()
        try:
            client = DispatcherClient(server.url)
            assert client.ping()["ok"]
            with pytest.raises(DispatchError, match="404"):
                client.status("c404")
            with pytest.raises(DispatchError, match="409"):
                cid = client.submit(small_config_text())["campaign"]
                lease = client.call("/api/lease", {"worker": "w"})
                client.call("/api/records", {
                    "campaign": cid, "lease": lease["lease"],
                    "fingerprint": "f" * 64, "records": []})
        finally:
            server.shutdown()

    def test_events_and_metrics_over_http(self, tmp_path):
        from tests.promlint import lint_prometheus

        dispatcher = Dispatcher(log_dir=tmp_path / "server")
        server = DispatcherServer(dispatcher, port=0).start()
        try:
            client = DispatcherClient(server.url)
            cid = client.submit(small_config_text())["campaign"]
            lease = client.call("/api/lease", {"worker": "w"})
            specs = [spec_from_wire(w) for w in lease["specs"]]
            client.call("/api/records", {
                "campaign": cid, "lease": lease["lease"],
                "fingerprint": lease["fingerprint"],
                "records": [fake_record(s) for s in specs],
                "done": True, "worker": "w"})
            page = client.events(cid)
            kinds = [e["event"] for e in page["events"]]
            assert kinds[0] == "campaign_start"
            assert kinds.count("run") == len(specs)
            # cursor resume over HTTP: second page picks up where the
            # first left off, limit clamps the page size
            head = client.events(cid, limit=2)
            assert len(head["events"]) == 2
            tail = client.events(cid, cursor=head["next"])
            assert head["events"] + tail["events"] == page["events"]
            with pytest.raises(DispatchError, match="404"):
                client.events("c404")
            text = client.metrics_text()
            assert lint_prometheus(text) == []
            assert "gpufi_runs_total" in text
        finally:
            server.shutdown()

    def test_unreachable_dispatcher(self):
        client = DispatcherClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(DispatchError, match="cannot reach"):
            client.ping()


class TestRemoteBackend:
    def test_remote_backend_matches_local(self, tmp_path, small_plan,
                                          small_records):
        import dataclasses

        dispatcher = Dispatcher(log_dir=tmp_path / "server",
                                shard_size=2)
        server = DispatcherServer(dispatcher, port=0).start()
        stop = threading.Event()
        worker = FleetWorker(server.url, name="w", poll=0.05, stop=stop)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            config = dataclasses.replace(
                CampaignConfig(**SMALL), backend="remote",
                backend_url=server.url,
                log_path=tmp_path / "client.jsonl")
            result = Campaign(config).run()
            assert canonical_log_text(result.records) == \
                   canonical_log_text(small_records)
            # the client-side log is a complete, ordered artifact
            from repro.faults.parser import load_records
            local = load_records(tmp_path / "client.jsonl")
            assert [strip_volatile(r) for r in local] == \
                   [strip_volatile(r) for r in result.records]
        finally:
            stop.set()
            thread.join(timeout=10)
            server.shutdown()

    def test_remote_backend_requires_url(self):
        import dataclasses

        config = dataclasses.replace(CampaignConfig(**SMALL),
                                     backend="remote")
        campaign = Campaign(config)
        specs = campaign.plan()
        with pytest.raises(ValueError, match="backend_url"):
            campaign.execute(specs)


class TestRequestBodyLength:
    """``Content-Length`` is checked before the body is read."""

    @pytest.fixture
    def server(self, tmp_path):
        server = DispatcherServer(Dispatcher(log_dir=tmp_path),
                                  port=0).start()
        yield server
        server.shutdown()

    @staticmethod
    def post(server, headers, body=b""):
        """One raw POST /api/lease; returns ``(status, json body)``.
        A handler stuck in ``read()`` shows as a socket timeout."""
        import socket

        request = ("POST /api/lease HTTP/1.1\r\nHost: test\r\n"
                   + "".join(f"{k}: {v}\r\n" for k, v in headers.items())
                   + "\r\n").encode("ascii") + body
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(request)
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(65536)
                assert chunk, "connection closed before a reply"
                reply += chunk
            head, _, rest = reply.partition(b"\r\n\r\n")
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            while len(rest) < length:
                rest += sock.recv(65536)
        return int(head.split()[1]), json.loads(rest)

    @pytest.mark.parametrize("declared", ["-1", "abc", "1.5", "", "+3"])
    def test_bad_length_is_400(self, server, declared):
        status, body = self.post(server, {"Content-Length": declared})
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_missing_length_is_400(self, server):
        status, body = self.post(server, {})
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_length_is_413_without_reading(self, server):
        from repro.dist.server import MAX_BODY_BYTES

        # nothing is sent after the headers: a server that tried to
        # read (or allocate) the declared body would never answer
        status, body = self.post(
            server, {"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]

    def test_bound_is_far_above_a_record_batch(self, small_records):
        from repro.dist.server import DEFAULT_SHARD_SIZE, MAX_BODY_BYTES

        # a send carries at most the records of one shard
        largest = max(len(json.dumps(r)) for r in small_records)
        assert MAX_BODY_BYTES > 1000 * DEFAULT_SHARD_SIZE * largest

    def test_good_requests_still_served(self, server):
        body = json.dumps({"worker": "w0"}).encode()
        assert self.post(server, {"Content-Length": len(body)},
                         body)[0] == 200
        # and after a rejected one, on a new connection
        assert self.post(server, {"Content-Length": "-1"})[0] == 400
        assert self.post(server, {"Content-Length": len(body)},
                         body)[0] == 200
        assert DispatcherClient(server.url).ping()


# -- the one-request steady state --------------------------------------------


def scrape(dispatcher, name):
    """One unlabelled sample of the dispatcher's ``/metrics`` text."""
    match = re.search(rf"^{name} (\S+)$", dispatcher.metrics_text(),
                      re.MULTILINE)
    assert match, f"{name} not exposed"
    return float(match.group(1))


def effect_counters(dispatcher):
    return {effect: int(float(count)) for effect, count in re.findall(
        r'^gpufi_run_effects_total\{effect="(\w+)"\} (\S+)$',
        dispatcher.metrics_text(), re.MULTILINE)}


class WorkerThread:
    """A :class:`FleetWorker` running on a thread, joined on exit; an
    exception that ended its loop is re-raised in the test."""

    def __init__(self, url, **kwargs):
        self.stop = threading.Event()
        kwargs.setdefault("poll", 0.02)
        self.worker = FleetWorker(url, name="w", stop=self.stop, **kwargs)
        self.error = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            self.worker.run()
        except BaseException as exc:  # noqa: B036 (reported on exit)
            self.error = exc

    def __enter__(self):
        self.thread.start()
        return self.worker

    def __exit__(self, *exc_info):
        self.stop.set()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "worker did not stop"
        if self.error is not None:
            raise self.error


@pytest.fixture
def fleet(tmp_path):
    """Build dispatchers with a live HTTP server; all are shut down."""
    servers = []

    def build(cls=Dispatcher, port=0, **kwargs):
        kwargs.setdefault("shard_size", 2)
        dispatcher = cls(log_dir=tmp_path / "server", **kwargs)
        server = DispatcherServer(dispatcher, port=port).start()
        servers.append(server)
        return dispatcher, server

    yield build
    for server in servers:
        server.shutdown()


class TestPiggybackedLease:
    """``lease_next`` on a ``done`` send, ``next`` in its reply."""

    make = TestDispatcherCore.make

    def test_next_is_what_lease_returns(self, tmp_path):
        dispatcher, _ = self.make(tmp_path, shard_size=1)
        a = dispatcher.submit(small_config_text(seed=1))["campaign"]
        b = dispatcher.submit(small_config_text(seed=2))["campaign"]
        lease = dispatcher.lease("w")
        reference = dict(lease)
        served = [lease["campaign"]]
        for _ in range(3):
            specs = [spec_from_wire(w) for w in lease["specs"]]
            reply = dispatcher.collect(
                lease["campaign"], lease["lease"], lease["fingerprint"],
                [fake_record(s) for s in specs], done=True, worker="w",
                lease_next=True)
            lease = reply["next"]
            assert set(lease) == set(reference)
            served.append(lease["campaign"])
        # the same fairness scan, count and journal event as lease()
        assert served == [a, b, a, b]
        assert scrape(dispatcher, "gpufi_leases_granted_total") == 4
        leased = [e for e in dispatcher.events(a)["events"]
                  if e["event"] == "shard_leased"]
        assert [e["shard"] for e in leased] == [0, 1]

    def test_next_is_idle_when_nothing_is_pending(self, tmp_path):
        dispatcher, _ = self.make(tmp_path, shard_size=4)
        cid = dispatcher.submit(small_config_text())["campaign"]
        lease = dispatcher.lease("w")
        specs = [spec_from_wire(w) for w in lease["specs"]]
        records = [fake_record(s) for s in specs]
        args = (cid, lease["lease"], lease["fingerprint"])
        # only a done send is a lease request
        early = dispatcher.collect(*args, records[:2], worker="w",
                                   lease_next=True)
        assert "next" not in early
        last = dispatcher.collect(*args, records[2:], done=True,
                                  worker="w", lease_next=True)
        assert last["next"] == {"idle": True}
        assert last["campaign_complete"]
        kinds = [e["event"] for e in dispatcher.events(cid)["events"]]
        assert kinds[-2:] == ["shard_complete", "campaign_end"]

    def test_reply_follows_the_flushed_log_and_journal(self, tmp_path):
        from repro.faults.parser import load_records
        from repro.obs.events import events_path_for, read_events

        dispatcher, _ = self.make(tmp_path, shard_size=2)
        cid = dispatcher.submit(small_config_text())["campaign"]
        lease = dispatcher.lease("w")
        specs = [spec_from_wire(w) for w in lease["specs"]]
        records = [fake_record(s) for s in specs]
        dispatcher.collect(cid, lease["lease"], lease["fingerprint"],
                           records, done=True, worker="w")
        # nothing closed, nothing more called: what was acknowledged
        # is in the files as another process would read them
        log_path = tmp_path / "logs" / f"{cid}.jsonl"
        assert load_records(log_path) == records
        on_file = read_events(events_path_for(log_path))
        assert on_file == dispatcher.events(cid)["events"]
        assert [record_key(e) for e in on_file
                if e["event"] == "run"] == [s.key for s in specs]

    def test_rejected_batch_still_journals_the_reaped_lease(self, tmp_path):
        from repro.obs.events import events_path_for, read_events

        dispatcher, clock = self.make(tmp_path, lease_timeout=10.0)
        cid = dispatcher.submit(small_config_text())["campaign"]
        lease = dispatcher.lease("w")
        clock.advance(11.0)
        with pytest.raises(ValueError, match="refusing to mix"):
            dispatcher.collect(cid, lease["lease"], "0" * 64, [])
        on_file = read_events(
            events_path_for(tmp_path / "logs" / f"{cid}.jsonl"))
        assert on_file[-1]["event"] == "lease_expired"


class TestWireCodec:
    def test_flat_read_equals_asdict_for_a_real_plan(self):
        import dataclasses

        def reference(spec):
            wire = dataclasses.asdict(spec)
            wire["structure"] = spec.structure.value
            wire["multibit_mode"] = spec.multibit_mode.value
            wire["windows"] = [list(window) for window in spec.windows]
            wire["mask"] = spec.mask and spec.mask.to_dict()
            return wire

        plan = [spec for benchmark in ("vectoradd", "pathfinder")
                for spec in Campaign(CampaignConfig(
                    benchmark=benchmark, card="RTX2060",
                    structures=(Structure.REGISTER_FILE,
                                Structure.SHARED_MEM),
                    runs_per_structure=8, seed=3,
                    propagation=True)).plan()]
        assert any(spec.synthesized for spec in plan)
        assert any(spec.prescreened and spec.prescreen_site
                   for spec in plan)
        assert any(not spec.synthesized and not spec.prescreened
                   for spec in plan)
        for spec in plan:
            assert spec_to_wire(spec) == reference(spec)
            assert json.dumps(spec_to_wire(spec)) == \
                   json.dumps(reference(spec))
            assert spec_from_wire(json.loads(
                json.dumps(spec_to_wire(spec)))) == spec

    def test_re_lease_wire_form_is_the_missing_runs(self, tmp_path):
        clock = FakeClock()
        dispatcher = Dispatcher(log_dir=tmp_path, clock=clock,
                                lease_timeout=10.0)
        cid = dispatcher.submit(small_config_text())["campaign"]
        first = dispatcher.lease("w-dead")
        delivered = spec_from_wire(first["specs"][0])
        dispatcher.collect(cid, first["lease"], first["fingerprint"],
                           [fake_record(delivered)], worker="w-dead")
        clock.advance(11.0)
        again = dispatcher.lease("w-live")
        assert again["shard"] == first["shard"]
        # the same wire form, of the runs the first lease did not deliver
        assert again["specs"] == first["specs"][1:]


def aggregate_effects(records):
    counts = {}
    for record in records:
        counts[record["effect"]] = counts.get(record["effect"], 0) + 1
    return dict(sorted(counts.items()))


class TestEffectCounts:
    """``effects`` is kept per record, never recounted per poll."""

    @staticmethod
    def varied(spec):
        effect = ("Masked", "SDC", "Crash")[spec.run_index % 3]
        return {**fake_record(spec), "effect": effect}

    def check(self, dispatcher, cid):
        recount = aggregate_effects(dispatcher.records(cid)["records"])
        assert dispatcher.status(cid)["effects"] == recount
        assert effect_counters(dispatcher) == recount
        return recount

    def test_counts_survive_duplicates_expiry_and_restart(self, tmp_path):
        clock = FakeClock()
        root = tmp_path / "logs"
        dispatcher = Dispatcher(log_dir=root, shard_size=2, clock=clock,
                                lease_timeout=10.0)
        cid = dispatcher.submit(small_config_text())["campaign"]
        assert self.check(dispatcher, cid) == {}
        stale = dispatcher.lease("w-dead")
        specs = [spec_from_wire(w) for w in stale["specs"]]
        records = [self.varied(s) for s in specs]
        args = (cid, stale["lease"], stale["fingerprint"])
        dispatcher.collect(*args, records[:1], worker="w-dead")
        dispatcher.collect(*args, records[:1], worker="w-dead")  # again
        assert sum(self.check(dispatcher, cid).values()) == 1
        clock.advance(11.0)
        fresh = dispatcher.lease("w-live")  # the re-queued shard
        assert fresh["shard"] == stale["shard"]
        dispatcher.collect(cid, fresh["lease"], fresh["fingerprint"],
                           records, done=True, worker="w-live")
        assert sum(self.check(dispatcher, cid).values()) == 2

        revived = Dispatcher(log_dir=root, shard_size=2)
        assert sum(self.check(revived, cid).values()) == 2
        lease = revived.lease("w")
        specs = [spec_from_wire(w) for w in lease["specs"]]
        revived.collect(cid, lease["lease"], lease["fingerprint"],
                        [self.varied(s) for s in specs], done=True)
        counts = self.check(revived, cid)
        assert sum(counts.values()) == SMALL["runs_per_structure"]
        assert len(counts) == 3


class TestKeptConnection:
    def test_fifty_requests_on_one_connection_do_not_stall(self, fleet):
        import time

        _, server = fleet()
        client = DispatcherClient(server.url)
        client.ping()
        connection = client._local.connection.sock
        started = time.perf_counter()
        for _ in range(25):
            assert client.ping()["ok"]
            assert client.call("/api/lease", {"worker": "w"})["idle"]
        elapsed = time.perf_counter() - started
        # a reply sent as head then body stalls ~40 ms on a kept
        # connection (Nagle against the peer's delayed ACK): 2 s
        assert elapsed < 1.0, f"50 requests took {elapsed:.2f}s"
        assert client._local.connection.sock is connection
        client.close()

    def test_rejection_is_followed_by_a_served_request(self, fleet,
                                                       monkeypatch):
        from repro.dist import server as server_module

        _, server = fleet()
        client = DispatcherClient(server.url)
        assert client.ping()["ok"]
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        with pytest.raises(DispatchError, match="HTTP 413"):
            client.call("/api/lease", {"worker": "w" * 100})
        # the dispatcher closed that connection (the body it refused
        # to read is still in it); the client is not stuck on it
        assert client.call("/api/lease", {"worker": "w"})["idle"]
        assert client.ping()["ok"]
        client.close()

    def test_dropped_idle_connection_is_retried_once(self, fleet):
        _, server = fleet()
        client = DispatcherClient(server.url)
        assert client.ping()["ok"]
        server.shutdown()
        _, server = fleet(port=server.port)
        # the kept connection died with the first server: found on
        # use, the request goes out again on a new one
        assert client.ping()["ok"]
        client.close()

    def test_shutdown_ends_idle_connections_quietly(self, fleet, capfd):
        import time

        _, server = fleet()
        clients = [DispatcherClient(server.url, timeout=5.0)
                   for _ in range(3)]
        for client in clients:
            assert client.ping()["ok"]
        started = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - started < 1.0
        with pytest.raises(DispatchError, match="cannot reach"):
            clients[1].ping()
        assert capfd.readouterr().err == ""

    def test_threads_of_one_client_do_not_share_a_connection(self, fleet):
        _, server = fleet()
        client = DispatcherClient(server.url)
        client.ping()
        seen = []

        def other():
            client.ping()
            seen.append(client._local.connection)
            client.close()

        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=10)
        assert seen and seen[0] is not client._local.connection
        assert client._local.connection.sock is not None
        client.close()


class TestWorkerProtocol:
    """The worker's side, over real HTTP, with stubbed runs."""

    def complete(self, dispatcher, server, cid, **worker_kwargs):
        worker_kwargs.setdefault("run_fn", fake_record)
        with WorkerThread(server.url, **worker_kwargs) as worker:
            DispatcherClient(server.url).wait(cid, timeout=60, poll=0.01)
        assert dispatcher.status(cid)["state"] == "complete"
        return worker

    def test_instant_runs_cost_one_send_per_shard(self, fleet):
        dispatcher, server = fleet()
        cid = dispatcher.submit(small_config_text())["campaign"]
        worker = self.complete(dispatcher, server, cid, clock=FakeClock())
        shards = dispatcher.status(cid)["shards"]["total"]
        assert shards == 2 and worker.shards_done == shards
        assert scrape(dispatcher, "gpufi_record_batches_total") == shards
        assert scrape(dispatcher, "gpufi_leases_granted_total") == shards
        assert scrape(dispatcher, "gpufi_lease_expired_total") == 0

    def test_slow_runs_are_streamed_as_they_finish(self, fleet):
        from repro.dist.worker import FLUSH_AFTER_S

        clock = FakeClock()

        def slow(spec):
            clock.advance(FLUSH_AFTER_S + 0.1)
            return fake_record(spec)

        dispatcher, server = fleet()
        cid = dispatcher.submit(small_config_text())["campaign"]
        self.complete(dispatcher, server, cid, clock=clock, run_fn=slow)
        # every run its own send; the shard's last one carries `done`
        assert scrape(dispatcher, "gpufi_record_batches_total") == \
            SMALL["runs_per_structure"]
        kinds = [e["event"] for e in dispatcher.events(cid)["events"]]
        assert kinds[1:6] == ["shard_leased", "run", "run",
                              "shard_complete", "shard_leased"]

    def test_runs_just_under_the_age_are_buffered(self, fleet):
        from repro.dist.worker import FLUSH_AFTER_S

        clock = FakeClock()

        def run(spec):
            clock.advance(FLUSH_AFTER_S * 0.4)
            return fake_record(spec)

        dispatcher, server = fleet(shard_size=4)
        cid = dispatcher.submit(small_config_text())["campaign"]
        self.complete(dispatcher, server, cid, clock=clock, run_fn=run)
        # ages 0.2, 0.4, 0.6 (sent, 3 records), then the last (done)
        assert scrape(dispatcher, "gpufi_record_batches_total") == 2

    def test_lease_reported_expired_mid_shard_is_abandoned(self, fleet):
        from repro.dist.worker import FLUSH_AFTER_S

        worker_clock, server_clock = FakeClock(), FakeClock()
        executed = []

        def run(spec):
            if not executed:
                server_clock.advance(11.0)  # the lease times out
            executed.append(spec.key)
            worker_clock.advance(FLUSH_AFTER_S + 0.1)
            return fake_record(spec)

        dispatcher, server = fleet(clock=server_clock, lease_timeout=10.0)
        cid = dispatcher.submit(small_config_text())["campaign"]
        self.complete(dispatcher, server, cid, clock=worker_clock,
                      run_fn=run)
        # the first send came back `expired`: the rest of the shard
        # was left to its new lease, which this worker then took --
        # with only the run the first one had not delivered, so every
        # run was executed once
        plan = Campaign(CampaignConfig(**SMALL)).plan()
        assert executed == [spec.key for spec in plan]
        assert dispatcher.status(cid)["shards"]["lease_expired"] == 1
        leased = [e for e in dispatcher.events(cid)["events"]
                  if e["event"] == "shard_leased"]
        assert [(e["shard"], e["generation"], e["runs"])
                for e in leased] == [(0, 1, 2), (0, 2, 1), (1, 1, 2)]

    def test_old_worker_loop_against_the_new_dispatcher(self, fleet,
                                                        small_plan,
                                                        small_records):
        by_key = {record_key(r): r for r in small_records}
        dispatcher, server = fleet()
        client = DispatcherClient(server.url)
        cid = client.submit(CampaignConfig(**SMALL))["campaign"]
        while True:  # lease -> records x 2 -> an empty `done`
            lease = client.call("/api/lease", {"worker": "w-old"})
            if lease.get("idle"):
                break
            base = {"campaign": cid, "lease": lease["lease"],
                    "fingerprint": lease["fingerprint"],
                    "worker": "w-old"}
            records = [by_key[spec_from_wire(w).key]
                       for w in lease["specs"]]
            for part in (records[:1], records[1:]):
                reply = client.call("/api/records",
                                    {**base, "records": part})
                assert "next" not in reply
            reply = client.call("/api/records",
                                {**base, "records": [], "done": True})
            assert "next" not in reply
        assert client.status(cid)["state"] == "complete"
        assert canonical_log_text(client.records(cid)) == \
            canonical_log_text(small_records)
        client.close()

    def test_new_worker_against_replies_without_next(self, fleet,
                                                     small_records):
        class OldDispatcher(Dispatcher):
            """Ignores ``lease_next``, as one that predates it does."""

            def collect(self, *args, lease_next=False, **kwargs):
                return super().collect(*args, **kwargs)

        dispatcher, server = fleet(cls=OldDispatcher)
        cid = dispatcher.submit(small_config_text())["campaign"]
        worker = self.complete(dispatcher, server, cid,
                               run_fn=execute_run)
        assert worker.runs_done == len(small_records)
        assert canonical_log_text(dispatcher.records(cid)["records"]) == \
            canonical_log_text(small_records)
        assert scrape(dispatcher, "gpufi_leases_granted_total") == 2

    def test_main_and_heartbeat_thread_share_a_client(self, fleet,
                                                      small_records):
        import sys
        import time

        class FastBeat(Dispatcher):
            """Every lease asks for a heartbeat each 10 ms."""

            def lease(self, worker):
                reply = super().lease(worker)
                return ({**reply, "heartbeat_s": 0.01}
                        if "lease" in reply else reply)

            def collect(self, *args, **kwargs):
                reply = super().collect(*args, **kwargs)
                if "lease" in reply.get("next", ()):
                    reply["next"] = {**reply["next"], "heartbeat_s": 0.01}
                return reply

        def run(spec):
            time.sleep(0.05)
            return execute_run(spec)

        dispatcher, server = fleet(cls=FastBeat)
        cid = dispatcher.submit(small_config_text())["campaign"]
        exchanges = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerThread(server.url, run_fn=run) as worker:
                call = worker.client.call

                def recorded(path, payload=None):
                    reply = call(path, payload)
                    exchanges.append((path, reply))
                    return reply

                worker.client.call = recorded
                DispatcherClient(server.url).wait(cid, timeout=60,
                                                  poll=0.01)
        finally:
            sys.setswitchinterval(interval)
        # every request got the reply of its own endpoint
        expected = {"/api/lease": {"lease", "idle"},
                    "/api/heartbeat": {"ok"}, "/api/records": {"accepted"}}
        assert all(expected[path] & set(reply)
                   for path, reply in exchanges)
        beats = [reply for path, reply in exchanges
                 if path == "/api/heartbeat"]
        assert len(beats) >= len(small_records)
        journaled = [e for e in dispatcher.events(cid)["events"]
                     if e["event"] == "worker_heartbeat"]
        assert len(journaled) == sum(reply["ok"] for reply in beats)
        assert dispatcher.status(cid)["shards"]["lease_expired"] == 0
        assert canonical_log_text(dispatcher.records(cid)["records"]) == \
            canonical_log_text(small_records)


class TestWorkerDiesMidShard:
    def test_replacement_runs_only_what_was_not_delivered(self, fleet):
        """A worker streams half a shard and dies -- it hangs in its
        third run while the dispatcher's clock passes the lease's
        deadline -- and a second one finishes the campaign, over real
        HTTP.  The replacement lease carries the two runs that were not
        delivered, and nothing delivered is executed again."""
        from repro.dist.worker import FLUSH_AFTER_S
        from repro.faults.parser import load_records

        config = CampaignConfig(**{**SMALL, "runs_per_structure": 8})
        plan = Campaign(config).plan()
        server_clock, dying_clock = FakeClock(), FakeClock()
        stalled, release = threading.Event(), threading.Event()
        dying_runs, replacement_runs = [], []

        def dying(spec):
            if len(dying_runs) == 2:  # both sent: this run never ends
                stalled.set()
                release.wait(timeout=60)
            dying_runs.append(spec.key)
            dying_clock.advance(FLUSH_AFTER_S + 0.1)  # each run sent alone
            return execute_run(spec)

        def replacement(spec):
            replacement_runs.append(spec.key)
            return execute_run(spec)

        dispatcher, server = fleet(clock=server_clock, lease_timeout=10.0,
                                   shard_size=4)
        cid = dispatcher.submit(dump_config(config))["campaign"]
        stop = threading.Event()
        worker = FleetWorker(server.url, name="w-dies", poll=0.02,
                             run_fn=dying, stop=stop, clock=dying_clock)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            assert stalled.wait(timeout=60)
            assert dispatcher.status(cid)["done"] == 2
            delivered = list(dying_runs)
            server_clock.advance(11.0)  # past the silent lease's deadline
            with WorkerThread(server.url, run_fn=replacement):
                DispatcherClient(server.url).wait(cid, timeout=60, poll=0.01)
        finally:
            stop.set()
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive(), "the stalled worker did not stop"
        keys = [spec.key for spec in plan]
        assert delivered == keys[:2]
        # after the replacement lease, every run executed once, and
        # none of those delivered before
        assert replacement_runs == keys[2:]
        leased = [(e["shard"], e["generation"], e["worker"], e["runs"])
                  for e in dispatcher.events(cid)["events"]
                  if e["event"] == "shard_leased"]
        assert leased == [(0, 1, "w-dies", 4), (0, 2, "w", 2),
                          (1, 1, "w", 4)]
        merged = load_records(dispatcher.log_dir / f"{cid}.jsonl")
        assert canonical_log_text(merged) == \
            canonical_log_text([execute_run(spec) for spec in plan])


class TestOneRunEvent:
    def test_same_event_whoever_reports_the_record(self, fleet, tmp_path):
        """A record's ``run`` event is built by one function for the
        pool, a fleet worker and the dispatcher (for a record that
        arrives without one): same keys, same values, apart from when
        and where.  At the parent the three were written out
        separately and none carried the stage seconds."""
        from repro.faults.executor import CampaignExecutor
        from repro.obs.events import events_path_for, read_events

        config = CampaignConfig(**{**SMALL, "metrics": True,
                                   "early_stop": "off"})
        text = dump_config(config)

        def runs(events):
            return {record_key(event): event for event in events
                    if event["event"] == "run"}

        # a fleet worker, executing
        dispatcher, server = fleet()
        cid = dispatcher.submit(text)["campaign"]
        with WorkerThread(server.url):
            DispatcherClient(server.url).wait(cid, timeout=120, poll=0.01)
        records = dispatcher.records(cid)["records"]
        by_worker = runs(dispatcher.events(cid)["events"])
        # the dispatcher, handed the same records without events
        other = Dispatcher(log_dir=tmp_path / "other", shard_size=2)
        assert other.submit(text)["campaign"] == cid
        for _ in range(2):
            lease = other.lease("w")
            keys = {spec_from_wire(w).key for w in lease["specs"]}
            other.collect(cid, lease["lease"], lease["fingerprint"],
                          [r for r in records if record_key(r) in keys],
                          done=True, worker="w")
        by_dispatcher = runs(other.events(cid)["events"])
        # the pool, "executing" the same records
        log = tmp_path / "pool.jsonl"
        by_key = {record_key(record): record for record in records}
        CampaignExecutor(telemetry=True, log_path=log,
                         run_fn=lambda spec: by_key[spec.key]).execute(
            Campaign(config).plan())
        by_pool = runs(read_events(events_path_for(log)))

        assert set(by_pool) == set(by_worker) == set(by_dispatcher) \
            == set(by_key)
        for key, record in by_key.items():
            reported = [dict(events[key]) for events
                        in (by_pool, by_worker, by_dispatcher)]
            for event in reported:
                for volatile in ("ts", "worker", "shard"):
                    event.pop(volatile, None)
                # ...under the campaign's trace or the shard lease's
                event["trace"] = event["trace"].rsplit("/", 1)[-1]
            assert reported[0] == reported[1] == reported[2]
            for stage in ("total_s", "restore_s", "simulate_s",
                          "classify_s"):
                assert reported[0][stage] == record["timings"][stage]


class TestWorkerOutlivesTheDispatcher:
    def test_restart_mid_campaign(self, fleet, small_records):
        import time

        second_run, resume = threading.Event(), threading.Event()
        executed = []

        def run(spec):
            executed.append(spec.key)
            if len(executed) == 2:
                second_run.set()  # shard 0 is in; shard 1 is in hand
                assert resume.wait(timeout=30)
            return execute_run(spec)

        dispatcher, server = fleet(shard_size=1)
        cid = dispatcher.submit(small_config_text())["campaign"]
        with WorkerThread(server.url, run_fn=run, poll=0.02,
                          max_idle=30.0) as worker:
            assert second_run.wait(timeout=60)
            server.shutdown()
            resume.set()
            # the send of shard 1 fails, then lease after lease does
            time.sleep(0.3)
            assert worker.shards_done == 1
            revived, server = fleet(shard_size=1, port=server.port)
            status = DispatcherClient(server.url).wait(cid, timeout=60,
                                                       poll=0.01)
        assert status["done"] == len(small_records)
        # shard 1 was abandoned with the old dispatcher and run again
        assert len(executed) == len(small_records) + 1
        assert worker.shards_done == len(small_records)
        from repro.faults.parser import load_records
        merged = load_records(revived.log_dir / f"{cid}.jsonl")
        assert canonical_log_text(merged) == \
            canonical_log_text(small_records)
        kinds = [e["event"] for e in revived.events(cid)["events"]]
        assert kinds.count("campaign_resume") == 1

    def test_unreachable_dispatcher_ends_the_worker(self):
        from repro.cli import main as cli_main
        from repro.dist.worker import main as worker_main

        url = "http://127.0.0.1:9"
        with pytest.raises(DispatchError, match="cannot reach"):
            FleetWorker(url, max_idle=0.0).run()
        # one definition behind both entry points: the message is the
        # exit status, so the process prints it and exits 1
        for entry in (worker_main, lambda argv: cli_main(["worker"] + argv)):
            with pytest.raises(SystemExit, match="error: cannot reach"):
                entry(["--connect", url])
