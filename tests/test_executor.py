"""Parallel campaign executor: order-independent seeding, worker-pool
parity, resumable runs, and the plan/execute/aggregate API."""

import dataclasses
import json
import pickle
import random

import pytest

from repro.cli import main as cli_main
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.executor import CampaignExecutor, RunSpec, execute_run
from repro.faults.ledger import CampaignLedger
from repro.faults.mask import derive_run_seed
from repro.faults.parser import load_records, scan_completed_records
from repro.faults.targets import Structure


def make_config(**overrides):
    kwargs = dict(benchmark="vectoradd", card="RTX2060",
                  structures=(Structure.REGISTER_FILE,),
                  runs_per_structure=6, seed=11)
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


class TestSeedDerivation:
    def test_keyed_on_all_coordinates(self):
        base = derive_run_seed(7, "k", Structure.REGISTER_FILE, 0)
        assert derive_run_seed(7, "k", Structure.REGISTER_FILE, 0) == base
        assert derive_run_seed(8, "k", Structure.REGISTER_FILE, 0) != base
        assert derive_run_seed(7, "k2", Structure.REGISTER_FILE, 0) != base
        assert derive_run_seed(7, "k", Structure.L2_CACHE, 0) != base
        assert derive_run_seed(7, "k", Structure.REGISTER_FILE, 1) != base

    def test_plan_seeds_independent_of_plan_shape(self):
        # the seed of (kernel, structure, run) must not depend on what
        # else the campaign sweeps -- that is what makes runs addressable
        wide = Campaign(make_config(
            structures=(Structure.L2_CACHE, Structure.REGISTER_FILE),
            runs_per_structure=4)).plan()
        narrow = Campaign(make_config(
            structures=(Structure.REGISTER_FILE,),
            runs_per_structure=2)).plan()
        wide_seeds = {spec.key: spec.seed for spec in wide}
        for spec in narrow:
            assert wide_seeds[spec.key] == spec.seed


class TestPlanApi:
    def test_plan_enumerates_every_run(self):
        campaign = Campaign(make_config(runs_per_structure=5))
        specs = campaign.plan()
        assert len(specs) == 5
        assert [s.run_index for s in specs] == list(range(5))
        assert all(s.kernel == "vectorAdd" for s in specs)
        assert campaign.golden_cycles > 0
        assert all(s.cycle_budget == 2 * campaign.golden_cycles
                   for s in specs)

    def test_runspec_pickle_roundtrip(self):
        spec = Campaign(make_config()).plan()[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key == spec.key

    def test_execute_run_is_pure(self):
        spec = Campaign(make_config()).plan()[3]
        assert execute_run(spec) == execute_run(spec)

    def test_execute_run_matches_run(self):
        campaign = Campaign(make_config())
        specs = campaign.plan()
        result = Campaign(make_config()).run()
        assert execute_run(specs[2]) == result.records[2]

    def test_aggregate_from_loaded_records(self, tmp_path):
        log = tmp_path / "c.jsonl"
        result = Campaign(make_config(log_path=log)).run()
        replay = Campaign(make_config()).aggregate(load_records(log))
        assert replay.counts == result.counts


class TestStageLaziness:
    """A run derives what it reports and no more -- checked by
    substitution, not by timing: the instant verdicts are most of a
    paper-shaped campaign's records."""

    @staticmethod
    def _specs(tmp_path):
        config = make_config(
            structures=(Structure.SHARED_MEM, Structure.L1T_CACHE),
            runs_per_structure=3, checkpoint_dir=tmp_path / "ckpts",
            propagation=True, metrics=True)
        specs = Campaign(config).plan()
        # vectoradd allocates no shared memory and never reads a texture
        assert all(spec.synthesized or spec.prescreened for spec in specs)
        return [dataclasses.replace(spec, telemetry=True)
                for spec in specs]

    def test_instant_verdicts_resolve_only_what_they_report(
            self, tmp_path, monkeypatch):
        import repro.faults.executor as executor

        specs = self._specs(tmp_path)
        regenerated = []
        real = executor.regenerate_mask

        def counting(spec):
            regenerated.append(spec.key)
            return real(spec)

        def never(*args):
            raise AssertionError("an instant verdict opened a "
                                 "checkpoint set")

        monkeypatch.setattr(executor, "regenerate_mask", counting)
        monkeypatch.setattr(executor, "CheckpointStore", never)
        records = [execute_run(spec) for spec in specs]
        assert regenerated == [spec.key for spec in specs
                               if not spec.synthesized]
        assert all(record["effect"] == "Masked"
                   and record["timings"]["cycles_simulated"] == 0
                   for record in records)


class TestWorkerPoolParity:
    def test_jobs4_byte_identical_to_jobs1(self):
        serial = Campaign(make_config()).run(jobs=1)
        pooled = Campaign(make_config()).run(jobs=4)
        assert serial.counts == pooled.counts
        assert json.dumps(serial.records) == json.dumps(pooled.records)

    def test_execution_order_does_not_matter(self):
        campaign = Campaign(make_config())
        specs = campaign.plan()
        shuffled = list(specs)
        random.Random(0).shuffle(shuffled)
        by_key = {r["run"]: r
                  for r in CampaignExecutor().execute(shuffled)}
        plan_order = CampaignExecutor().execute(specs)
        assert [by_key[r["run"]] for r in plan_order] == plan_order


class TestResume:
    def test_resume_from_partial_log(self, tmp_path):
        log = tmp_path / "campaign.jsonl"
        full = Campaign(make_config(log_path=log)).run()
        lines = log.read_text().splitlines()

        # keep half the records, plus a record cut mid-write when the
        # campaign was killed
        log.write_text("\n".join(lines[:3]) + "\n" + lines[3][:40])
        resumed = Campaign(make_config(log_path=log)).run(resume=True)

        assert json.dumps(resumed.records) == json.dumps(full.records)
        assert resumed.counts == full.counts
        # the log was completed in place
        assert scan_completed_records(log) == {
            (rec["kernel"], rec["structure"], rec["run"]): rec
            for rec in full.records}

    def test_resume_with_complete_log_runs_nothing(self, tmp_path):
        log = tmp_path / "campaign.jsonl"
        full = Campaign(make_config(log_path=log)).run()
        before = log.read_text()

        campaign = Campaign(make_config(log_path=log))
        specs = campaign.plan()
        records = campaign.execute(specs, resume=True)
        assert json.dumps(records) == json.dumps(full.records)
        assert log.read_text() == before

    def test_resume_rejects_foreign_log(self, tmp_path):
        log = tmp_path / "campaign.jsonl"
        Campaign(make_config(log_path=log)).run()
        with pytest.raises(ValueError, match="cannot resume"):
            Campaign(make_config(benchmark="scalarprod",
                                 log_path=log)).run(resume=True)


class TestScanCompletedRecords:
    def test_tolerates_truncated_tail_only(self, tmp_path):
        good = json.dumps({"kernel": "k", "structure": "register_file",
                           "run": 0, "effect": "Masked"})
        log = tmp_path / "log.jsonl"
        log.write_text(good + "\n" + good[:17])
        assert list(scan_completed_records(log)) == \
            [("k", "register_file", 0)]

        log.write_text(good[:17] + "\n" + good + "\n")
        with pytest.raises(ValueError, match="bad JSON"):
            scan_completed_records(log)

    def test_first_duplicate_wins(self, tmp_path):
        rec = {"kernel": "k", "structure": "register_file", "run": 1,
               "effect": "Masked"}
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(rec) + "\n"
                       + json.dumps({**rec, "effect": "SDC"}) + "\n")
        (record,) = scan_completed_records(log).values()
        assert record["effect"] == "Masked"


class TestProgressLine:
    """The progress line: the ledger's tally, resumed runs included."""

    @staticmethod
    def plan(n):
        """Hand-built specs, none of them instant."""
        return [RunSpec(benchmark="vectoradd", card="RTX2060", kernel="k",
                        structure=Structure.REGISTER_FILE, run_index=i,
                        seed=i, windows=((0, 100),), regs_per_thread=8,
                        smem_bytes=0, local_bytes=0, golden_cycles=100,
                        cycle_budget=200) for i in range(n)]

    @staticmethod
    def record(spec, effect="Masked"):
        return {"benchmark": spec.benchmark, "card": spec.card,
                "kernel": spec.kernel, "structure": spec.structure.value,
                "run": spec.run_index, "effect": effect}

    def test_rate_eta_and_counts(self, tmp_path):
        log = tmp_path / "c.jsonl"
        plan = self.plan(10)
        with CampaignLedger(plan, log) as first:
            first.absorb([self.record(spec) for spec in plan[:2]])
        now = [0.0]
        ledger = CampaignLedger(plan, log, resume=True,
                                clock=lambda: now[0])
        now[0] = 2.0
        ledger.absorb([self.record(spec) for spec in plan[2:6]])
        ledger.absorb([self.record(plan[6], "SDC")])
        tally = ledger.tally
        assert tally.rate() == pytest.approx(2.5)
        assert tally.eta() == pytest.approx(3 / 2.5)
        line = tally.progress()
        assert "7/10 runs" in line
        # the resumed runs' effects are counted too: they sum to 7
        assert "Masked=6" in line and "SDC=1" in line

    def test_no_rate_before_first_completion(self):
        tally = CampaignLedger(self.plan(5)).tally
        assert tally.eta() is None
        assert "0/5 runs" in tally.progress()

    def test_campaign_reports_throughput(self):
        lines = []
        Campaign(make_config(runs_per_structure=2),
                 progress=lines.append).run()
        assert any("runs/s" in line and "ETA" in line for line in lines)


class TestCliFlags:
    def test_campaign_jobs_and_resume(self, tmp_path, capsys):
        log = tmp_path / "out.jsonl"
        argv = ["campaign", "--benchmark", "vectoradd",
                "--structures", "register_file", "--runs", "2",
                "--seed", "3", "--jobs", "2", "--log", str(log)]
        assert cli_main(argv) == 0
        assert len(load_records(log)) == 2

        assert cli_main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming: 2 of 2 runs already recorded" in out
        assert len(load_records(log)) == 2

    def test_resume_requires_log(self):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "--benchmark", "vectoradd",
                      "--resume"])
