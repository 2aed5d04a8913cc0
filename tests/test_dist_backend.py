"""Backend selection, config surfaces and the campaign log header."""

import dataclasses
import json

import pytest

from repro.dist.backend import (Backend, LocalPoolBackend,
                                RemoteFleetBackend, make_backend)
from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config, parse_config_text
from repro.faults.executor import (CampaignExecutor, log_header,
                                   plan_fingerprint)
from repro.faults.parser import (load_records, read_log_header,
                                 scan_completed_records)
from repro.faults.targets import Structure

SMALL = dict(benchmark="vectoradd", card="RTX2060",
             structures=(Structure.REGISTER_FILE,),
             runs_per_structure=3, seed=7)


class TestBackendSelection:
    def test_registry(self):
        # the option table declares the names; nothing repeats them
        from types import SimpleNamespace

        from repro.faults.options import OPTIONS

        choices = OPTIONS["backend"].metadata["argparse"]["choices"]
        assert choices == ("local", "remote")
        with pytest.raises(ValueError, match="offers: local, remote"):
            make_backend(SimpleNamespace(backend="cloud"))
        local = make_backend(CampaignConfig(**SMALL))
        assert isinstance(local, LocalPoolBackend)
        remote = make_backend(dataclasses.replace(
            CampaignConfig(**SMALL), backend="remote",
            backend_url="http://x:1"))
        assert isinstance(remote, RemoteFleetBackend)
        assert isinstance(local, Backend)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            CampaignConfig(**SMALL, backend="cloud")

    def test_local_is_the_default_and_changes_nothing(self, tmp_path):
        """The Backend seam must be invisible on the default path."""
        config = CampaignConfig(**SMALL,
                                log_path=tmp_path / "via_campaign.jsonl")
        assert config.backend == "local"
        result = Campaign(config).run(jobs=1)
        # bypass the backend seam entirely: raw executor on the plan
        campaign = Campaign(CampaignConfig(**SMALL))
        specs = campaign.plan()
        direct = CampaignExecutor(
            jobs=1, log_path=tmp_path / "direct.jsonl").execute(specs)
        assert result.records == direct
        # serial execution logs in plan order: strictly byte-identical
        assert (tmp_path / "via_campaign.jsonl").read_text() == \
               (tmp_path / "direct.jsonl").read_text()
        # a parallel pool returns the same records through the seam
        assert Campaign(CampaignConfig(**SMALL)).run(jobs=2).records \
               == direct


class TestConfigFileSurface:
    def test_backend_options_round_trip(self):
        config = dataclasses.replace(
            CampaignConfig(**{**SMALL, "structures": None}),
            backend="remote", backend_url="http://host:8937")
        text = dump_config(config)
        assert "-gpufi_backend remote" in text
        assert "-gpufi_backend_url http://host:8937" in text
        parsed = parse_config_text(text)
        assert parsed.backend == "remote"
        assert parsed.backend_url == "http://host:8937"

    def test_local_backend_elided_from_dump(self):
        text = dump_config(CampaignConfig(**{**SMALL,
                                             "structures": None}))
        assert "-gpufi_backend" not in text
        assert parse_config_text(text).backend == "local"

    def test_url_survives_comment_stripping(self):
        # "//" only starts a comment at start-of-line or after
        # whitespace; http:// URLs must not be truncated
        config = parse_config_text(
            "-gpufi_benchmark vectoradd // trailing comment\n"
            "// a full-line comment\n"
            "-gpufi_card RTX2060\n"
            "-gpufi_backend_url http://host:8937\n"
            "-gpufi_backend remote\n")
        assert config.benchmark == "vectoradd"
        assert config.backend_url == "http://host:8937"


class TestLogHeader:
    def test_executor_stamps_header(self, tmp_path):
        campaign = Campaign(CampaignConfig(**SMALL,
                                           log_path=tmp_path / "a.jsonl"))
        specs = campaign.plan()
        campaign.execute(specs)
        header = read_log_header(tmp_path / "a.jsonl")
        assert header["gpufi_log"] == 1
        assert header["fingerprint"] == plan_fingerprint(specs)
        assert header["runs"] == len(specs)
        assert header["benchmark"] == "vectoradd"

    def test_header_is_shard_and_order_independent(self, tmp_path):
        campaign = Campaign(CampaignConfig(**SMALL))
        specs = campaign.plan()
        assert log_header(specs)["fingerprint"] == \
               log_header(list(reversed(specs)))["fingerprint"]

    def test_parsers_skip_header(self, tmp_path):
        log = tmp_path / "log.jsonl"
        campaign = Campaign(CampaignConfig(**SMALL, log_path=log))
        specs = campaign.plan()
        records = campaign.execute(specs)
        loaded = load_records(log)
        assert loaded == records  # header filtered, records intact
        scanned = scan_completed_records(log)
        assert len(scanned) == len(specs)
        assert all("gpufi_log" not in r for r in scanned.values())

    def test_headerless_logs_still_parse(self, tmp_path):
        log = tmp_path / "old.jsonl"
        log.write_text(json.dumps(
            {"kernel": "k", "structure": "register_file", "run": 0,
             "effect": "Masked"}) + "\n")
        assert read_log_header(log) is None
        assert len(load_records(log)) == 1

    def test_resume_appends_without_second_header(self, tmp_path):
        log = tmp_path / "resume.jsonl"
        campaign = Campaign(CampaignConfig(**SMALL, log_path=log))
        specs = campaign.plan()
        campaign.execute(specs)
        # cut the log after the header + one record, then resume
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:2]))
        resumed = Campaign(CampaignConfig(**SMALL, log_path=log))
        resumed_specs = resumed.plan()
        records = resumed.execute(resumed_specs, resume=True)
        text = log.read_text()
        assert text.count('"gpufi_log"') == 1
        assert len(records) == len(specs)
        assert len(load_records(log)) == len(specs)

    def test_canonicalize_cli(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "c.jsonl"
        campaign = Campaign(CampaignConfig(**SMALL, log_path=log))
        records = campaign.execute(campaign.plan())
        assert main(["canonicalize", str(log)]) == 0
        out = capsys.readouterr().out
        assert out == canonical_log_text(records)


class TestRemoteArtefacts:
    def test_remote_log_leaves_what_a_local_run_leaves(self, tmp_path):
        """``--backend remote --metrics --log``: log, journal and
        sidecar on the client's side.  At the parent only the log:
        journal and sidecar stayed on the dispatcher's disk, and
        ``campaign.last_metrics`` was ``None``."""
        import threading

        from repro.cli import main
        from repro.dist.server import Dispatcher, DispatcherServer
        from repro.dist.worker import FleetWorker
        from repro.faults.executor import format_log_header
        from repro.obs import events_path_for, metrics_path_for, read_events

        dispatcher = Dispatcher(log_dir=tmp_path / "server", shard_size=2)
        server = DispatcherServer(dispatcher, port=0).start()
        stop = threading.Event()
        worker = FleetWorker(server.url, name="fleet-w", poll=0.05,
                             stop=stop)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        log = tmp_path / "client" / "remote.jsonl"
        try:
            campaign = Campaign(CampaignConfig(
                **SMALL, early_stop="off", metrics=True, backend="remote",
                backend_url=server.url, log_path=log))
            specs = campaign.plan()
            records = campaign.execute(specs)
        finally:
            stop.set()
            thread.join(timeout=10)
            server.shutdown()
        # the log: header + plan-ordered records, as before
        assert log.read_text() == format_log_header(specs) + "".join(
            json.dumps(record) + "\n" for record in records)
        assert [record["run"] for record in records] == [0, 1, 2]
        # the journal: the client's bracket around the fleet's runs
        events = read_events(events_path_for(log))
        assert [event["event"] for event in events] == [
            "campaign_start", "run", "run", "run", "campaign_end"]
        assert all(event["worker"] == "fleet-w" and event["simulate_s"] > 0
                   for event in events[1:-1])
        (cid,) = [status["id"] for status
                  in dispatcher.status()["campaigns"]]
        fleet = [event for event in dispatcher.events(cid)["events"]
                 if event["event"] == "run"]
        assert events[1:-1] == fleet  # as the worker stamped them
        assert events[-1]["executed"] == 3 and events[-1]["complete"]
        # the sidecar: the dispatcher's, on the client's clock
        doc = json.loads(metrics_path_for(log).read_text())
        assert doc == campaign.last_metrics
        theirs = json.loads(metrics_path_for(
            tmp_path / "server" / f"{cid}.jsonl").read_text())
        for section in ("effects", "checkpoint", "savings"):
            assert doc[section] == theirs[section]
        assert list(doc["workers"]) == ["fleet-w"]
        assert doc["workers"]["fleet-w"]["runs"] == 3
        assert doc["campaign"]["executed"] == 3
        assert main(["report-metrics", str(log)]) == 0

    def test_remote_errors_keep_their_messages(self, tmp_path, monkeypatch):
        from repro.dist import client

        campaign = Campaign(CampaignConfig(
            **SMALL, backend="remote", backend_url="http://127.0.0.1:9"))
        specs = campaign.plan()
        fingerprint = plan_fingerprint(specs)
        answers = {"fingerprint": fingerprint, "records": []}
        for name, reply in (
                ("submit", lambda self, config: {"campaign": "c1",
                                                 "total": len(specs)}),
                ("wait", lambda self, cid, **kwargs: {
                    "fingerprint": answers["fingerprint"]}),
                ("records", lambda self, cid: answers["records"])):
            monkeypatch.setattr(client.DispatcherClient, name, reply)
        with pytest.raises(RuntimeError, match="returned 0 records but "
                                               "3 run"):
            campaign.execute(specs)
        answers["fingerprint"] = "0" * 64
        with pytest.raises(ValueError, match="client and server disagree "
                                             "about the plan"):
            campaign.execute(specs)
