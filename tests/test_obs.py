"""Campaign observability: metrics sidecar, event
stream, and the executor robustness fixes that ride along (resume
append, progress consistency, dead-worker/stall guard, torn tails)."""

import dataclasses
import json
import os
import signal
import time

import pytest

from repro.analysis.metrics import (find_metrics_path, load_metrics,
                                    render_metrics)
from repro.cli import main as cli_main
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.executor import (CampaignExecutor, RunSpec,
                                   WorkerPoolError, execute_run)
from repro.faults.parser import load_records, merge_logs
from repro.faults.targets import Structure
from repro.faults.ledger import CampaignLedger
from repro.obs import (MetricsCollector, derived_cycle_fields,
                       events_path_for, metrics_path_for)


def make_config(**overrides):
    kwargs = dict(benchmark="vectoradd", card="RTX2060",
                  structures=(Structure.REGISTER_FILE,),
                  runs_per_structure=6, seed=11)
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


def make_specs(n, structure=Structure.REGISTER_FILE, kernel="k"):
    """Minimal hand-built specs for run_fn-substituted executor tests."""
    return [RunSpec(benchmark="vectoradd", card="RTX2060", kernel=kernel,
                    structure=structure, run_index=i, seed=i,
                    windows=((0, 100),), regs_per_thread=8,
                    smem_bytes=0, local_bytes=0, golden_cycles=100,
                    cycle_budget=200) for i in range(n)]


def fake_record(spec):
    """A structurally valid record without any simulation."""
    return {"benchmark": spec.benchmark, "card": spec.card,
            "kernel": spec.kernel, "structure": spec.structure.value,
            "run": spec.run_index, "effect": "Masked",
            "golden_cycles": spec.golden_cycles, "synthesized": False}


def _die_on_run_one(spec):  # module-level: fork pickles by reference
    if spec.run_index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return fake_record(spec)


def _hang_on_run_one(spec):
    if spec.run_index == 1:
        time.sleep(300)
    return fake_record(spec)


def strip_observability(records):
    """Records with the opt-in telemetry annotations removed."""
    return [{k: v for k, v in record.items()
             if k not in ("timings", "worker")} for record in records]


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestDerivedCycleFields:
    def test_prefers_timings(self):
        record = {"golden_cycles": 100,
                  "timings": {"cycles_simulated": 40,
                              "skipped_fast_forward": 60}}
        fields = derived_cycle_fields(record)
        assert fields["cycles_simulated"] == 40
        assert fields["skipped_fast_forward"] == 60

    def test_reconstructs_without_timings(self):
        golden = {"golden_cycles": 100}
        assert derived_cycle_fields(
            {**golden, "synthesized": True})["skipped_synthesized"] == 100
        assert derived_cycle_fields(
            {**golden, "prescreened": True})["skipped_prescreen"] == 100
        converged = derived_cycle_fields({**golden, "terminated_at": 30})
        assert converged["cycles_simulated"] == 30
        assert converged["skipped_convergence"] == 70
        full = derived_cycle_fields({**golden, "cycles": 100})
        assert full["cycles_simulated"] == 100
        assert full["skipped_convergence"] == 0


class TestTelemetryRecordFields:
    def test_default_off_record_is_clean(self):
        spec = Campaign(make_config(runs_per_structure=1)).plan()[0]
        record = execute_run(spec)
        assert "timings" not in record
        assert "worker" not in record

    def test_timings_attached_and_consistent(self):
        spec = Campaign(make_config(runs_per_structure=1,
                                    early_stop="off")).plan()[0]
        record = execute_run(dataclasses.replace(spec, telemetry=True))
        timings = record["timings"]
        assert record["worker"] == 0
        for key in ("restore_s", "simulate_s", "classify_s", "total_s"):
            assert timings[key] >= 0.0
        assert timings["cycles_simulated"] == record["cycles"]
        assert timings["skipped_fast_forward"] == 0
        assert timings["fast_forwarded"] is False
        # from scratch, the whole golden prefix is simulated
        assert timings["prefix_cycles"] == record["mask"]["cycle"] > 0
        assert timings["loop_iterations"] > 0

    def test_classification_identical_with_telemetry(self):
        spec = Campaign(make_config(runs_per_structure=2)).plan()[1]
        plain = execute_run(spec)
        annotated = execute_run(dataclasses.replace(spec, telemetry=True))
        assert strip_observability([annotated]) == [plain]

    def test_instant_runs_attribute_skipped_cycles(self):
        spec = make_specs(1)[0]
        synth = execute_run(dataclasses.replace(
            spec, synthesized=True, telemetry=True))
        assert synth["timings"]["skipped_synthesized"] == 100
        assert synth["timings"]["cycles_simulated"] == 0
        prescreened = execute_run(dataclasses.replace(
            spec, prescreened=True, prescreen_reason="dead register",
            telemetry=True))
        assert prescreened["timings"]["skipped_prescreen"] == 100
        assert synth["timings"]["prefix_cycles"] == 0
        assert prescreened["timings"]["prefix_cycles"] == 0


class TestCampaignParity:
    """The acceptance bar: observability must change no result."""

    def _run(self, tmp_path, tag, jobs, metrics):
        config = make_config(
            log_path=tmp_path / f"{tag}.jsonl",
            checkpoint_dir=tmp_path / "ckpt",
            early_stop="full", metrics=metrics)
        return Campaign(config), Campaign(config).run(jobs=jobs)

    def test_enabled_vs_disabled_bit_identical(self, tmp_path):
        _, base = self._run(tmp_path, "off", jobs=1, metrics=False)
        _, obs1 = self._run(tmp_path, "on1", jobs=1, metrics=True)
        _, obs2 = self._run(tmp_path, "on2", jobs=2, metrics=True)
        want = json.dumps(base.records)
        assert json.dumps(strip_observability(obs1.records)) == want
        assert json.dumps(strip_observability(obs2.records)) == want
        assert json.dumps(str(base.counts)) == json.dumps(str(obs1.counts))
        assert json.dumps(str(base.counts)) == json.dumps(str(obs2.counts))

    def test_sidecar_deterministic_sections_jobs_independent(self, tmp_path):
        self._run(tmp_path, "j1", jobs=1, metrics=True)
        self._run(tmp_path, "j4", jobs=4, metrics=True)
        serial = load_metrics(tmp_path / "j1.jsonl")
        pooled = load_metrics(tmp_path / "j4.jsonl")
        for section in ("effects", "checkpoint", "savings"):
            assert (json.dumps(serial[section], sort_keys=True)
                    == json.dumps(pooled[section], sort_keys=True))

    def test_sidecar_schema_and_wall_clock_side(self, tmp_path):
        campaign = Campaign(make_config(
            log_path=tmp_path / "c.jsonl",
            checkpoint_dir=tmp_path / "ckpt", metrics=True))
        result = campaign.run(jobs=2)
        sidecar = load_metrics(tmp_path / "c.jsonl")
        assert sidecar["schema"] == 1
        assert sidecar["campaign"]["complete"] is True
        assert sidecar["campaign"]["total_runs"] == len(result.records)
        assert sidecar["campaign"]["executed"] == len(result.records)
        assert sidecar["campaign"]["jobs"] == 2
        assert sidecar["campaign"]["wall_s"] >= 0.0
        assert sum(sidecar["effects"].values()) == len(result.records)
        savings = sidecar["savings"]
        assert (savings["cycles_simulated"] + savings["cycles_skipped"]
                <= savings["golden_cycles_total"])
        assert savings["runs"]["simulated"] >= savings["runs"]["converged"]
        for stats in sidecar["latency"].values():
            assert stats["count"] > 0
            assert 0.0 <= stats["p50_s"] <= stats["p95_s"] <= stats["max_s"]
            assert sum(stats["histogram"].values()) == stats["count"]
        assert sidecar["workers"]
        for stats in sidecar["workers"].values():
            assert stats["runs"] > 0 and stats["busy_s"] >= 0.0
        assert campaign.last_metrics == sidecar

    def test_checkpoint_hits_accounted(self, tmp_path):
        self._run(tmp_path, "ck", jobs=1, metrics=True)
        sidecar = load_metrics(tmp_path / "ck.jsonl")
        checkpoint = sidecar["checkpoint"]
        assert checkpoint["untracked"] == 0
        assert (checkpoint["hits"] + checkpoint["misses"]
                == sidecar["savings"]["runs"]["simulated"])
        if checkpoint["hits"]:
            assert sidecar["savings"]["skipped_fast_forward"] > 0

    @pytest.mark.parametrize("batch", [1, 8])
    def test_prefix_is_each_runs_own(self, tmp_path, batch):
        """A run's prefix is the golden stretch it re-simulated, from
        its restore (a pack's, for a member) to its own injection; the
        sidecar sums them."""
        config = CampaignConfig(
            benchmark="needle", card="RTX2060",
            structures=(Structure.REGISTER_FILE, Structure.SHARED_MEM),
            runs_per_structure=8, seed=3, early_stop="converge",
            checkpoint_dir=tmp_path / "ckpt", batch=batch, metrics=True,
            log_path=tmp_path / "c.jsonl")
        records = Campaign(config).run().records
        assert any(r["timings"].get("batched") for r in records) == (batch > 1)
        for record in records:
            timings = record["timings"]
            assert timings["prefix_cycles"] == (
                record["mask"]["cycle"] - timings["skipped_fast_forward"])
            assert 0 <= timings["prefix_cycles"] <= timings["cycles_simulated"]
        savings = load_metrics(tmp_path / "c.jsonl")["savings"]
        prefix = sum(r["timings"]["prefix_cycles"] for r in records)
        assert savings["prefix_cycles"] == prefix > 0
        assert savings["prefix_share"] == round(
            prefix / savings["cycles_simulated"], 6)


class TestEventStream:
    def test_stream_brackets_the_campaign(self, tmp_path):
        log = tmp_path / "c.jsonl"
        Campaign(make_config(log_path=log, metrics=True)).run(jobs=1)
        events = [json.loads(line) for line in
                  events_path_for(log).read_text().splitlines()]
        assert events[0]["event"] == "campaign_start"
        assert events[0]["total"] == 6 and events[0]["jobs"] == 1
        assert events[-1]["event"] == "campaign_end"
        assert events[-1]["complete"] is True
        runs = [e for e in events if e["event"] == "run"]
        assert len(runs) == 6
        assert {(r["kernel"], r["structure"], r["run"]) for r in runs} \
            == {("vectorAdd", "register_file", i) for i in range(6)}
        assert all(r["total_s"] >= 0.0 for r in runs)

    def test_no_stream_without_metrics(self, tmp_path):
        log = tmp_path / "c.jsonl"
        Campaign(make_config(log_path=log)).run(jobs=1)
        assert not events_path_for(log).exists()
        assert not metrics_path_for(log).exists()

    def test_event_log_lazy_and_null(self, tmp_path):
        # the journal is on file as soon as its ledger opens...
        log = tmp_path / "e.jsonl"
        ledger = CampaignLedger([], log, journal=True,
                                clock=FakeClock(5.0))
        start = json.loads(events_path_for(log).read_text())
        assert (start["ts"], start["event"], start["total"]) == (
            5.0, "campaign_start", 0)
        ledger.close(True)
        # ...in memory only without a log to be next to, and not kept
        # at all unless asked for
        with CampaignLedger([], journal=True) as null:
            null.event("heartbeat")
        assert [e["event"] for e in null.journal] == [
            "campaign_start", "heartbeat", "campaign_end"]
        with CampaignLedger([], log) as off:
            off.event("heartbeat")
        assert off.journal == []
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "e.jsonl", "e.jsonl.events.jsonl"]

    def test_run_events_carry_the_trace_chain(self, tmp_path):
        log = tmp_path / "c.jsonl"
        Campaign(make_config(log_path=log, metrics=True)).run(jobs=1)
        events = [json.loads(line) for line in
                  events_path_for(log).read_text().splitlines()]
        start = events[0]
        assert start["schema"] >= 2
        assert start["campaign"] == "local"
        assert start["trace"].startswith("local@")
        runs = [e for e in events if e["event"] == "run"]
        assert all(e["trace"] ==
                   f"{start['trace']}/{e['kernel']}:"
                   f"{e['structure']}:{e['run']}" for e in runs)

    def test_log_byte_identical_with_events_on_or_off(self, tmp_path):
        from repro.dist.protocol import canonical_log_text

        texts = {}
        for tag, jobs, metrics in (("off1", 1, False), ("on1", 1, True),
                                   ("off2", 2, False), ("on2", 2, True)):
            log = tmp_path / f"{tag}.jsonl"
            Campaign(make_config(
                log_path=log, checkpoint_dir=tmp_path / "ckpt",
                early_stop="full", metrics=metrics)).run(jobs=jobs)
            texts[tag] = canonical_log_text(load_records(log))
            # the event stream exists exactly when telemetry is on
            assert events_path_for(log).exists() == metrics
        assert len(set(texts.values())) == 1, \
            "telemetry or jobs count changed the canonical log"

    def test_executor_resume_appends_campaign_resume(self, tmp_path):
        log = tmp_path / "c.jsonl"
        specs = make_specs(4)
        CampaignExecutor(log_path=log, telemetry=True,
                         run_fn=fake_record).execute(specs[:2])
        first = [json.loads(line) for line in
                 events_path_for(log).read_text().splitlines()]
        assert first[0]["event"] == "campaign_start"
        assert first[-1]["event"] == "campaign_end"

        CampaignExecutor(log_path=log, telemetry=True, resume=True,
                         run_fn=fake_record).execute(specs)
        events = [json.loads(line) for line in
                  events_path_for(log).read_text().splitlines()]
        # the first session's stream survived the resume (append mode)
        assert events[:len(first)] == first
        resume = events[len(first)]
        assert resume["event"] == "campaign_resume"
        assert resume["total"] == 4 and resume["resumed"] == 2
        fresh = [e for e in events[len(first):] if e["event"] == "run"]
        assert sorted(e["run"] for e in fresh) == [2, 3]
        assert events[-1]["event"] == "campaign_end"


class TestResumeNeverTruncates:
    def test_resume_with_disjoint_plan_appends(self, tmp_path):
        log = tmp_path / "c.jsonl"
        first = make_specs(3, structure=Structure.REGISTER_FILE)
        CampaignExecutor(log_path=log, run_fn=fake_record).execute(first)
        assert len(load_records(log)) == 3

        # a changed plan: same campaign log, zero overlapping keys --
        # the old records must survive the resumed session
        second = make_specs(2, structure=Structure.L2_CACHE)
        CampaignExecutor(log_path=log, resume=True,
                         run_fn=fake_record).execute(second)
        records = load_records(log)
        assert len(records) == 5
        structures = [r["structure"] for r in records]
        assert structures[:3] == ["register_file"] * 3
        assert structures[3:] == ["l2_cache"] * 2

    def test_resume_missing_log_still_works(self, tmp_path):
        log = tmp_path / "fresh.jsonl"
        CampaignExecutor(log_path=log, resume=True,
                         run_fn=fake_record).execute(make_specs(2))
        assert len(load_records(log)) == 2

    def test_without_resume_still_overwrites(self, tmp_path):
        log = tmp_path / "c.jsonl"
        CampaignExecutor(log_path=log,
                         run_fn=fake_record).execute(make_specs(3))
        CampaignExecutor(log_path=log,
                         run_fn=fake_record).execute(make_specs(2))
        assert len(load_records(log)) == 2


class TestProgressConsistency:
    """The progress line is the ledger's tally's."""

    def test_instant_burst_does_not_spike_rate(self):
        clock = FakeClock()
        plan = make_specs(20)
        plan[:10] = [dataclasses.replace(spec, synthesized=True)
                     for spec in plan[:10]]
        ledger = CampaignLedger(plan, clock=clock)
        clock.now = 4.0
        ledger.absorb([{**fake_record(spec), "synthesized": True}
                       for spec in plan[:10]])
        ledger.absorb([{**fake_record(spec), "effect": "SDC"}
                       for spec in plan[10:12]])
        tally = ledger.tally
        # 12 completions, but only 2 simulated: the rendered rate and
        # the ETA must share the same (simulated) throughput model
        assert tally.rate() == pytest.approx(0.5)
        assert tally.eta() == pytest.approx(8 / 0.5)
        assert "0.50 runs/s" in tally.progress()
        assert f"ETA {8 / 0.5:.0f}s" in tally.progress()

    def test_fully_resumed_campaign_eta_zero(self, tmp_path):
        log = tmp_path / "c.jsonl"
        CampaignExecutor(log_path=log, run_fn=fake_record).execute(
            make_specs(5))
        ledger = CampaignLedger(make_specs(5), log, resume=True,
                                clock=FakeClock())
        assert ledger.tally.eta() == 0.0
        # the resumed runs' effects add up to the resumed runs
        assert ledger.tally.progress().startswith(
            "5/5 runs (0.00 runs/s, ETA 0s) [Masked=5]")

    def test_no_estimate_before_first_simulated_run(self):
        clock = FakeClock()
        plan = make_specs(4)
        plan[:2] = [dataclasses.replace(spec, prescreened=True)
                    for spec in plan[:2]]
        ledger = CampaignLedger(plan, clock=clock)
        clock.now = 2.0
        ledger.absorb([{**fake_record(plan[0]), "prescreened": True}])
        # one instant completion: still no simulated-throughput sample
        assert ledger.tally.rate() == 0.0
        assert ledger.tally.eta() is None
        assert "ETA ?" in ledger.tally.progress()


class TestPoolGuards:
    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        executor = CampaignExecutor(jobs=2, heartbeat_interval=0.1,
                                    run_fn=_die_on_run_one)
        with pytest.raises(WorkerPoolError, match="died"):
            executor.execute(make_specs(4))

    def test_dead_worker_error_names_missing_runs(self):
        executor = CampaignExecutor(jobs=2, heartbeat_interval=0.1,
                                    run_fn=_die_on_run_one)
        with pytest.raises(WorkerPoolError, match="k/register_file/1"):
            executor.execute(make_specs(4))

    def test_run_timeout_guards_stalls(self):
        executor = CampaignExecutor(jobs=2, heartbeat_interval=0.1,
                                    run_timeout=0.5,
                                    run_fn=_hang_on_run_one)
        started = time.monotonic()
        with pytest.raises(WorkerPoolError, match="run_timeout"):
            executor.execute(make_specs(3))
        assert time.monotonic() - started < 60

    def test_heartbeats_observable_while_silent(self, tmp_path):
        log = tmp_path / "c.jsonl"
        executor = CampaignExecutor(jobs=2, heartbeat_interval=0.05,
                                    run_timeout=0.5, log_path=log,
                                    telemetry=True,
                                    run_fn=_hang_on_run_one)
        with pytest.raises(WorkerPoolError):
            executor.execute(make_specs(3))
        events = [json.loads(line) for line in
                  events_path_for(log).read_text().splitlines()]
        beats = [e for e in events if e["event"] == "heartbeat"]
        assert beats and all(b["pending"] >= 1 for b in beats)
        assert events[-1]["event"] == "campaign_end"
        assert events[-1]["complete"] is False
        # the partial sidecar still lands, flagged incomplete
        assert load_metrics(log)["campaign"]["complete"] is False

    def test_run_timeout_validation(self):
        with pytest.raises(ValueError, match="run_timeout"):
            CampaignExecutor(run_timeout=0)


class TestTornTails:
    def _write(self, path, n_good, torn="{\"kernel\": \"k\", \"str"):
        lines = [json.dumps(fake_record(spec))
                 for spec in make_specs(n_good)]
        path.write_text("\n".join(lines) + "\n" + torn,
                        encoding="utf-8")

    def test_load_records_strict_by_default(self, tmp_path):
        log = tmp_path / "torn.jsonl"
        self._write(log, 2)
        with pytest.raises(ValueError, match="bad JSON record"):
            load_records(log)

    def test_load_records_opt_in_tolerance(self, tmp_path):
        log = tmp_path / "torn.jsonl"
        self._write(log, 2)
        assert len(load_records(log, tolerate_torn_tail=True)) == 2

    def test_mid_file_corruption_always_raises(self, tmp_path):
        log = tmp_path / "bad.jsonl"
        good = json.dumps(fake_record(make_specs(1)[0]))
        log.write_text(f"{good}\nnot json\n{good}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            load_records(log, tolerate_torn_tail=True)

    def test_merge_logs_tolerates_interrupted_batches(self, tmp_path):
        log = tmp_path / "torn.jsonl"
        self._write(log, 3)
        counts = merge_logs([log])
        assert sum(counts["k"][Structure.REGISTER_FILE].values()) == 3

    def test_report_cli_tolerates_torn_tail(self, tmp_path, capsys):
        log = tmp_path / "torn.jsonl"
        self._write(log, 3)
        assert cli_main(["report", str(log)]) == 0
        assert "register_file" in capsys.readouterr().out


class TestReportMetricsCli:
    def test_report_after_campaign(self, tmp_path, capsys):
        log = tmp_path / "c.jsonl"
        assert cli_main(["campaign", "--benchmark", "vectoradd",
                         "--structures", "register_file", "--runs", "4",
                         "--jobs", "2", "--metrics",
                         "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert f"metrics written to {metrics_path_for(log)}" in out

        assert cli_main(["report-metrics", str(log)]) == 0
        out = capsys.readouterr().out
        assert "4 runs" in out
        assert "runs/s" in out
        assert "checkpoint fast-forward" in out
        assert "cycles:" in out
        assert "worker" in out

    def test_accepts_sidecar_path_directly(self, tmp_path):
        assert find_metrics_path(tmp_path / "c.jsonl.metrics.json") \
            == tmp_path / "c.jsonl.metrics.json"
        assert find_metrics_path(tmp_path / "c.jsonl") \
            == tmp_path / "c.jsonl.metrics.json"

    def test_missing_sidecar_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["report-metrics",
                         str(tmp_path / "absent.jsonl")]) == 1
        assert "--metrics" in capsys.readouterr().err

    def test_render_interrupted_marker(self):
        collector = MetricsCollector(jobs=1, clock=FakeClock())
        doc = collector.finalize([], complete=False, total=7)
        text = render_metrics(doc)
        assert "INTERRUPTED" in text
        assert "7 runs" in text


class TestPercentile:
    """Pin the ceil-based nearest-rank definition of ``_percentile``.

    The former ``round()`` implementation banker's-rounded ``.5``
    ranks to the even neighbor, so p50 of an even-sized sample picked
    inconsistent sides depending on N.
    """

    @pytest.mark.parametrize("ordered, q, expected", [
        # singleton: every percentile is the one sample
        ([7.0], 0.50, 7.0),
        ([7.0], 0.95, 7.0),
        # nearest-rank on 1..4: ceil(0.5*4)=2 -> 2nd value (round()
        # at rank 1.5 used to banker's-round down to the 1st)
        ([1.0, 2.0, 3.0, 4.0], 0.50, 2.0),
        ([1.0, 2.0, 3.0, 4.0], 0.25, 1.0),
        ([1.0, 2.0, 3.0, 4.0], 0.75, 3.0),
        ([1.0, 2.0, 3.0, 4.0], 0.95, 4.0),
        # 1..10: ceil(0.5*10)=5 -> 5, ceil(0.95*10)=10 -> 10
        (list(map(float, range(1, 11))), 0.50, 5.0),
        (list(map(float, range(1, 11))), 0.95, 10.0),
        # 1..20: ceil(0.95*20)=19 -> 19 (not the max)
        (list(map(float, range(1, 21))), 0.95, 19.0),
        (list(map(float, range(1, 21))), 0.50, 10.0),
        # 1..5 (odd): ceil(0.5*5)=3 -> the true median
        ([1.0, 2.0, 3.0, 4.0, 5.0], 0.50, 3.0),
        # extremes clamp to the sample
        ([1.0, 2.0, 3.0], 0.0, 1.0),
        ([1.0, 2.0, 3.0], 1.0, 3.0),
        # empty sample
        ([], 0.50, 0.0),
    ])
    def test_nearest_rank_table(self, ordered, q, expected):
        from repro.obs.metrics import _percentile

        assert _percentile(ordered, q) == expected

    def test_propagation_summary_uses_fractional_q(self):
        # summarize_propagation must pass 0.50/0.95 (not 50/95, which
        # would clamp both p50 and p95 to the sample max)
        from repro.obs.propagation import summarize_propagation

        records = []
        for i, dist in enumerate([10, 20, 30, 40]):
            records.append({
                "structure": "register_file", "run": i,
                "propagation": {
                    "source": "trace", "injection_cycle": 100,
                    "sites": [{"fate": "consumed",
                               "fate_cycle": 100 + dist}],
                    "chain": [], "divergence": None,
                }})
        doc = summarize_propagation(records)
        ttr = doc["time_to_first_read_cycles"]
        assert ttr["p50"] == 20
        assert ttr["p95"] == 40
