"""Live telemetry: exposition rendering/linting, tailing, dashboards.

Everything here exercises the pure render/aggregate half of the
observability layer (:mod:`repro.obs.live` and the event-stream
plumbing in :mod:`repro.obs.events`) plus the client-side polling
cadence -- no HTTP servers, no simulation.
"""

import json

import pytest

from repro.dist.client import DispatcherClient
from repro.faults.ledger import CampaignLedger
from repro.obs.events import (Tally, events_path_for, read_events,
                              trim_torn_tail)
from repro.obs.live import (EventFileTailer, format_event,
                            render_prometheus, render_top)
from repro.obs.metrics import MetricsCollector
from tests.promlint import lint_prometheus, required_families_present


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def run_event(ts, run, worker="w1", effect="Masked",
              structure="register_file"):
    return {"ts": ts, "event": "run", "kernel": "vectorAdd",
            "structure": structure, "run": run, "effect": effect,
            "worker": worker, "shard": 0, "total_s": 0.25,
            "trace": f"c1@abc/s0.g1/vectorAdd:{structure}:{run}"}


class TestPrometheusRender:
    def test_round_trip_lints_clean(self):
        text = render_prometheus([
            ("gpufi_runs_total", "counter", "Runs completed.",
             [({}, 42)]),
            ("gpufi_campaigns", "gauge", "Campaigns by state.",
             [({"state": "running"}, 1), ({"state": "complete"}, 3)]),
            ("gpufi_runs_per_second", "gauge", "Throughput.",
             [({}, 1.2345678)]),
            ("gpufi_workers", "gauge", "Known workers.", []),
        ])
        assert lint_prometheus(text) == []
        assert "# TYPE gpufi_runs_total counter" in text
        assert "gpufi_runs_total 42" in text
        assert 'gpufi_campaigns{state="running"} 1' in text
        # empty family still declares itself for the scraper
        assert "# TYPE gpufi_workers gauge" in text

    def test_label_values_are_escaped(self):
        text = render_prometheus([
            ("m", "gauge", "h",
             [({"worker": 'w"1\\x\n'}, 1)]),
        ])
        assert lint_prometheus(text) == []
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_rejects_bad_names_and_types(self):
        with pytest.raises(ValueError, match="metric name"):
            render_prometheus([("bad name", "gauge", "h", [])])
        with pytest.raises(ValueError, match="metric type"):
            render_prometheus([("ok", "speedometer", "h", [])])

    def test_lint_catches_malformations(self):
        errors = lint_prometheus(
            "# TYPE m speedometer\n"
            "undeclared_family 1\n"
            "m{label=unquoted} 2\n"
            "m not_a_number\n"
            "# TYPE m gauge\n")
        text = "\n".join(errors)
        assert "invalid type" in text
        assert "undeclared" in text
        assert "malformed label" in text
        assert "non-numeric" in text
        assert "TYPE for m after its samples" in text

    def test_lint_accepts_special_values_and_suffixes(self):
        assert lint_prometheus(
            "# TYPE lat histogram\n"
            'lat_bucket{le="+Inf"} 7\n'
            "lat_sum 1.5\n"
            "lat_count 7\n"
            "# TYPE g gauge\n"
            "g NaN\n") == []

    def test_required_families_present(self):
        text = "# TYPE a counter\n# TYPE b gauge\na 1\n"
        assert required_families_present(text, ["a", "b"]) == []
        assert required_families_present(text, ["a", "c"]) == ["c"]


class TestEventStreamFiles:
    def test_read_events_cursor_and_torn_tail(self, tmp_path):
        path = tmp_path / "log.events.jsonl"
        lines = [json.dumps({"event": "run", "run": i}) + "\n"
                 for i in range(3)]
        path.write_text("".join(lines) + '{"event": "run", "ru',
                        encoding="utf-8")
        events = read_events(path)
        assert [e["run"] for e in events] == [0, 1, 2]
        assert [e["run"] for e in read_events(path, cursor=2)] == [2]
        assert read_events(tmp_path / "missing") == []

    def test_tailer_waits_for_complete_lines(self, tmp_path):
        path = tmp_path / "log.events.jsonl"
        tailer = EventFileTailer(path)
        assert tailer.poll() == []  # file not there yet
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"event": "campaign_start", "total": 2}\n')
            handle.write('{"event": "run", "ru')  # torn mid-record
            handle.flush()
            assert [e["event"] for e in tailer.poll()] == \
                   ["campaign_start"]
            assert tailer.poll() == []  # torn tail: not consumed
            handle.write('n": 0}\n')
            handle.flush()
        events = tailer.poll()
        assert [e["event"] for e in events] == ["run"]
        assert events[0]["run"] == 0

    def test_event_log_append_resumes_the_stream(self, tmp_path):
        log = tmp_path / "campaign.jsonl"
        path = events_path_for(log)
        clock = FakeClock(10.0)
        with CampaignLedger([], log, journal=True, clock=clock) as first:
            first.event("heartbeat", pending=4)
        # simulate a crash that tore the last line
        with open(path, "ab") as handle:
            handle.write(b'{"event": "run", "ru')
        with CampaignLedger([], log, journal=True, clock=clock,
                            resume=True):
            pass
        events = read_events(path)
        assert [e["event"] for e in events] == \
               ["campaign_start", "heartbeat", "campaign_end",
                "campaign_resume", "campaign_end"]
        assert path.read_bytes().endswith(b"}\n")

    def test_trim_torn_tail_noop_on_clean_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "run"}\n', encoding="utf-8")
        trim_torn_tail(path)
        assert path.read_text(encoding="utf-8") == '{"event": "run"}\n'
        trim_torn_tail(tmp_path / "missing")  # no crash


class TestTally:
    def events(self):
        yield {"ts": 0.0, "event": "campaign_start", "schema": 2,
               "campaign": "c1", "total": 4, "pending": 4,
               "resumed": 0, "shards": 2, "trace": "c1@abc"}
        yield {"ts": 0.5, "event": "shard_leased", "shard": 0,
               "worker": "w1", "generation": 1, "runs": 2}
        for index in range(3):
            yield run_event(1.0 + index, index)
        yield {"ts": 4.0, "event": "shard_complete", "shard": 0,
               "worker": "w1"}
        yield {"ts": 4.5, "event": "lease_expired", "shard": 1,
               "worker": "w2", "generation": 1}
        yield {"ts": 5.0, "event": "worker_heartbeat", "worker": "w2"}

    def test_aggregates_the_stream(self):
        tally = Tally().apply_all(self.events())
        assert tally.opening["campaign"] == "c1"
        assert tally.total == 4 and tally.done == 3
        assert tally.effects == {"Masked": 3}
        assert tally.structures == {"register_file": {"Masked": 3}}
        assert (tally.leased, tally.completed, tally.expired) == (1, 1, 1)
        assert tally.generations == {0: 1}
        assert tally.fleet["w1"]["runs"] == 3
        assert tally.fleet["w1"]["leases"] == 1
        assert tally.fleet["w2"]["heartbeats"] == 1
        assert tally.state == "running"
        # 3 simulated runs in the 5 seconds since the opening
        assert tally.rate() == pytest.approx(0.6)
        assert tally.eta() == pytest.approx(1 / 0.6)

    def test_resume_opens_a_session_of_the_same_campaign(self):
        tally = Tally().apply_all(
            [{"ts": 0.0, "event": "campaign_start", "total": 6},
             *(run_event(1.0, index) for index in range(4)),
             {"ts": 2.0, "event": "campaign_end", "complete": False,
              "executed": 4},
             {"ts": 10.0, "event": "campaign_resume", "total": 6,
              "resumed": 4}])
        assert tally.done == 4 and tally.executed == 0
        assert tally.state == "running"  # this session has not ended
        tally.apply(run_event(11.0, 4))
        tally.apply({"ts": 12.0, "event": "campaign_end",
                     "complete": True, "executed": 1})
        assert tally.done == 5 and tally.executed == 1
        assert tally.effects == {"Masked": 5}
        assert tally.state == "complete"
        assert tally.wall_s == 2.0

    def test_local_pool_int_workers_are_not_fleet_workers(self):
        tally = Tally()
        tally.apply({"ts": 0.0, "event": "run", "run": 0,
                     "effect": "Masked", "structure": "s", "worker": 2})
        assert tally.done == 1 and tally.fleet == {}
        assert list(tally.workers) == [2]

    def test_rebuild_from_cursor_matches(self):
        events = list(self.events())
        whole = Tally().apply_all(events)
        split = Tally().apply_all(events[:3])
        split.apply_all(events[3:])  # a reconnecting dashboard
        assert vars(split) == vars(whole)


class TestRendering:
    def test_render_top_is_pure_and_complete(self):
        tally = Tally().apply_all(TestTally().events())
        frame = render_top(tally)
        assert frame == render_top(tally)  # now defaults to last ts
        assert "c1" in frame and "[c1@abc]" in frame
        assert "runs 3/4" in frame and "75.0%" in frame
        assert "Masked 3" in frame
        assert "register_file" in frame
        assert "w1" in frame and "w2" in frame
        assert "leases 1 granted, 1 expired" in frame

    def test_render_top_prefers_status_shards(self):
        tally = Tally().apply_all(TestTally().events())
        frame = render_top(tally, status={"shards": {
            "total": 2, "complete": 1, "pending": 0, "leased": 1}})
        assert "shards 1/2 complete, 0 pending, 1 leased" in frame

    def test_format_event_one_liners(self):
        lines = [format_event(e) for e in TestTally().events()]
        text = "\n".join(lines)
        assert "campaign_start total=4" in text
        assert "run vectorAdd/register_file/0 Masked worker=w1" in text
        assert "(0.250s)" in text
        assert "shard_leased s0 -> w1 (2 runs, gen 1)" in text
        assert "shard_complete s0 by w1" in text
        assert "lease_expired s1" in text and "re-queued" in text
        end = format_event({"ts": 9.0, "event": "campaign_end",
                            "complete": True, "executed": 4})
        assert "campaign_end complete executed=4" in end
        unknown = format_event({"event": "mystery", "x": 1})
        assert "mystery x=1" in unknown

    def test_sidecar_dist_section_folds_the_stream(self):
        tally = Tally().apply_all(TestTally().events())
        dist = MetricsCollector(tally=tally).finalize([])["dist"]
        assert dist["events"]["total"] == 8
        assert dist["events"]["by_type"]["run"] == 3
        assert dist["workers"]["w1"] == {
            "runs": 3, "shards": 1, "heartbeats": 0}
        assert dist["workers"]["w2"]["heartbeats"] == 1
        assert dist["lease_expired"] == 1
        assert dist["shards"] == {"total": 2, "complete": 2,
                                  "lease_expired": 1}


class TestClientWaitBackoff:
    def make_client(self, statuses, monkeypatch):
        client = DispatcherClient("http://dispatcher.invalid")
        feed = iter(statuses)
        monkeypatch.setattr(client, "status", lambda cid: next(feed))
        monkeypatch.setattr("repro.dist.client.random.uniform",
                            lambda low, high: 1.0)  # no jitter
        return client

    @staticmethod
    def status(done, state="running", pending=1, leased=1, complete=0):
        return {"id": "c1", "done": done, "total": 8, "state": state,
                "shards": {"pending": pending, "leased": leased,
                           "complete": complete}}

    def test_backoff_grows_then_resets_on_progress(self, monkeypatch):
        statuses = [self.status(0)] * 5 + [self.status(4)] + \
            [self.status(4, state="complete", pending=0, leased=0,
                         complete=4)]
        client = self.make_client(statuses, monkeypatch)
        sleeps = []
        final = client.wait("c1", poll=0.5, max_poll=2.0,
                            sleep=sleeps.append)
        assert final["state"] == "complete"
        # idle polls back off 0.5 -> 0.8 -> 1.28 -> capped at 2.0,
        # then the done-count change snaps the cadence back to 0.5
        assert sleeps == pytest.approx([0.5, 0.8, 1.28, 2.0, 2.0, 0.5])

    def test_progress_fires_on_shard_state_change(self, monkeypatch):
        statuses = [self.status(0, pending=2, leased=0),
                    self.status(0, pending=1, leased=1),
                    self.status(0, state="complete", pending=0,
                                leased=0, complete=2)]
        client = self.make_client(statuses, monkeypatch)
        updates = []
        client.wait("c1", sleep=lambda _s: None,
                    progress=updates.append)
        # done never moved, but every shard transition was reported
        assert len(updates) == 3
        assert "2 shards pending" in updates[0]
        assert "1 leased" in updates[1]

    def test_timeout_raises(self, monkeypatch):
        statuses = [self.status(0)] * 50
        client = self.make_client(statuses, monkeypatch)
        fake_now = {"t": 0.0}

        def tick(seconds):
            fake_now["t"] += seconds

        monkeypatch.setattr("repro.dist.client.time.monotonic",
                            lambda: fake_now["t"])
        with pytest.raises(TimeoutError, match="incomplete after"):
            client.wait("c1", timeout=3.0, sleep=tick)

    def test_follow_drains_pages_then_completes(self, monkeypatch):
        client = DispatcherClient("http://dispatcher.invalid")
        pages = iter([
            {"events": [{"event": "campaign_start"}], "next": 1,
             "complete": False, "total": 1},
            {"events": [{"event": "run"}, {"event": "campaign_end"}],
             "next": 3, "complete": True, "total": 3},
            {"events": [], "next": 3, "complete": True, "total": 3},
        ])
        seen_cursors = []

        def fake_events(cid, cursor=0, limit=None):
            seen_cursors.append(cursor)
            return next(pages)

        monkeypatch.setattr(client, "events", fake_events)
        events = list(client.follow("c1", sleep=lambda _s: None))
        assert [e["event"] for e in events] == \
               ["campaign_start", "run", "campaign_end"]
        assert seen_cursors == [0, 1, 3]  # resumable cursor advanced
