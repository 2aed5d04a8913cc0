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

SMALL = dict(benchmark="vectoradd", card="RTX2060",
             structures=(Structure.REGISTER_FILE,),
             runs_per_structure=4, seed=3)


@pytest.fixture(scope="module")
def small_plan():
    return Campaign(CampaignConfig(**SMALL)).plan()


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
    def test_spec_round_trips_through_json(self, small_plan):
        for spec in small_plan:
            wire = json.loads(json.dumps(spec_to_wire(spec)))
            assert spec_from_wire(wire) == spec

    def test_unknown_keys_ignored(self, small_plan):
        wire = spec_to_wire(small_plan[0])
        wire["from_the_future"] = {"x": 1}
        assert spec_from_wire(wire) == small_plan[0]


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
        cid = dispatcher.submit(small_config_text())["campaign"]
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

    def test_metrics_exposition_lints_clean(self, tmp_path):
        from repro.obs.live import (lint_prometheus,
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
        from repro.obs.live import summarize_dist_events

        dispatcher, _ = self.make(tmp_path)
        cid = dispatcher.submit(
            small_config_text(metrics=True))["campaign"]
        self.drain(dispatcher, "w")
        sidecar = tmp_path / "logs" / f"{cid}.jsonl.metrics.json"
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
        dist = doc["dist"]
        events = dispatcher.events(cid)["events"]
        summary = summarize_dist_events(events)
        # offline report numbers == what a live tail aggregated
        assert dist["events"] == summary["events"]
        assert dist["workers"] == summary["workers"]
        assert dist["campaign"] == cid
        assert dist["shards"]["complete"] == dist["shards"]["total"]


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
        from repro.obs.live import lint_prometheus

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
        from repro.dist.server import MAX_BODY_BYTES
        from repro.dist.worker import DEFAULT_BATCH_SIZE

        largest = max(len(json.dumps(r)) for r in small_records)
        assert MAX_BODY_BYTES > 1000 * DEFAULT_BATCH_SIZE * largest

    def test_good_requests_still_served(self, server):
        body = json.dumps({"worker": "w0"}).encode()
        assert self.post(server, {"Content-Length": len(body)},
                         body)[0] == 200
        # and after a rejected one, on a new connection
        assert self.post(server, {"Content-Length": "-1"})[0] == 400
        assert self.post(server, {"Content-Length": len(body)},
                         body)[0] == 200
        assert DispatcherClient(server.url).ping()
