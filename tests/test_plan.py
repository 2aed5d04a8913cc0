"""Adaptive campaign planner: strata, estimator, driver, parity.

Three guarantees are pinned here:

* ``--adaptive off`` (the default) is canonically byte-identical to
  the seed behaviour at any jobs/batch split -- no stratum keys, no
  sidecar, no drift.
* The stratified estimator is unbiased (equals the pooled mean under
  uniform allocation; importance weights sum to 1 per stratum).
* A uniform campaign's margin is the Wilson half-width of its one
  stratum, matching the hand-computed value on a fixed fixture log.
"""

import json
import math
from pathlib import Path

import pytest

from repro.analysis.statistics import (margin_of_error,
                                       required_injections,
                                       wilson_halfwidth, wilson_interval)
from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.classify import FaultEffect
from repro.faults.parser import load_records
from repro.faults.targets import Structure
from repro.plan import plan_path_for
from repro.plan.driver import _allocate, _Group
from repro.plan.estimator import (MIN_STRATUM_RUNS, StratifiedEstimate,
                                  StratumStats)

FIXTURE = Path(__file__).parent / "data" / "golden_transient_vectoradd.jsonl"


def make_config(**overrides):
    kwargs = dict(benchmark="vectoradd", card="RTX2060",
                  structures=(Structure.REGISTER_FILE,),
                  runs_per_structure=24, seed=7)
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


class TestWilsonInterval:
    def test_zero_failures_is_not_degenerate(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and 0.0 < hi < 1.0

    def test_all_failures_is_not_degenerate(self):
        lo, hi = wilson_interval(10, 10)
        assert 0.0 < lo < 1.0 and hi == 1.0

    def test_contains_the_observed_rate(self):
        lo, hi = wilson_interval(3, 10)
        assert lo < 0.3 < hi

    def test_halfwidth_shrinks_with_n(self):
        assert wilson_halfwidth(5, 10) > wilson_halfwidth(50, 100) \
            > wilson_halfwidth(500, 1000)

    def test_exhaustive_sampling_collapses(self):
        assert wilson_interval(3, 10, population=10) == (0.3, 0.3)

    def test_finite_population_tightens(self):
        assert wilson_halfwidth(3, 10, population=20) \
            < wilson_halfwidth(3, 10, population=10**9)

    def test_invalid_successes(self):
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_no_runs_is_total_uncertainty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


def _estimate(spec, population=10000.0):
    """Build a StratifiedEstimate from {key: (cand, exec, fail)}."""
    est = StratifiedEstimate(kernel="k", structure="register_file",
                             population=population)
    for key, (candidates, executed, failures) in spec.items():
        est.strata[key] = StratumStats(
            key=key, candidates=candidates, executed=executed,
            counts={FaultEffect.SDC: failures} if failures else {})
    return est


class TestStratifiedEstimator:
    def test_uniform_allocation_equals_pooled_mean(self):
        # equal sampling fractions (half of each stratum): the
        # stratified estimate must equal the pooled per-run mean
        est = _estimate({"a": (10, 5, 2), "b": (30, 15, 6)})
        pooled = (2 + 6) / (5 + 15)
        assert est.failure_ratio() == pytest.approx(pooled)

    def test_importance_weights_sum_to_one_per_stratum(self):
        est = _estimate({"a": (10, 3, 1), "b": (30, 9, 0),
                         "c": (60, 2, 2)})
        # sum over a stratum's runs of W_s/n_s is W_s ...
        for key, stats in est.strata.items():
            total = est.run_weight(key) * stats.executed
            assert total == pytest.approx(
                stats.weight(est.pool_total))
        # ... and the weights themselves sum to 1 over the pool
        assert sum(s.weight(est.pool_total)
                   for s in est.strata.values()) == pytest.approx(1.0)

    def test_skewed_allocation_stays_unbiased_in_form(self):
        # oversampling stratum b does not change its weight, only
        # its per-run importance weight
        even = _estimate({"a": (50, 5, 0), "b": (50, 5, 5)})
        skew = _estimate({"a": (50, 5, 0), "b": (50, 45, 45)})
        assert even.failure_ratio() == pytest.approx(0.5)
        assert skew.failure_ratio() == pytest.approx(0.5)
        assert skew.run_weight("b") < even.run_weight("b")

    def test_dead_stratum_costs_no_runs_but_is_not_free_certainty(self):
        from repro.analysis.statistics import wilson_halfwidth
        est = _estimate({"dead": (80, 0, 0), "live": (20, 10, 5)})
        dead = est.strata["dead"]
        assert dead.proven_dead
        assert dead.p_hat() == 0.0
        assert est.failure_ratio() == pytest.approx(0.2 * 0.5)
        # the dead margin is the Wilson interval of 0 failures in the
        # 80 classified draws -- nonzero, so 8 dead draws can never
        # certify a whole fault space at a tight target
        margin = dead.margin(est.pool_total, est.population)
        assert margin == wilson_halfwidth(0, 80,
                                          population=0.8 * 10000.0)
        assert margin > 0.0
        assert dead.met(est.pool_total, est.population, 0.1)
        assert not dead.met(est.pool_total, est.population, 0.01)
        # more classification draws tighten it at zero run cost
        dead.extra_candidates = 2000
        assert dead.met(est.pool_total, est.population, 0.01)
        assert dead.executed == 0

    def test_met_requires_minimum_runs(self):
        est = _estimate({"live": (10, MIN_STRATUM_RUNS - 1, 0)})
        stats = est.strata["live"]
        assert not stats.met(est.pool_total, est.population, 1.0)
        stats.executed = MIN_STRATUM_RUNS
        assert stats.met(est.pool_total, est.population, 1.0)

    def test_small_strata_get_looser_targets(self):
        est = _estimate({"dead": (80, 0, 0), "a": (16, 0, 0),
                         "b": (4, 0, 0)})
        total = est.pool_total
        assert est.strata["b"].target(total, 0.1) \
            > est.strata["a"].target(total, 0.1) \
            > est.strata["dead"].target(total, 0.1) > 0.1

    def test_scaled_targets_bound_combined_margin(self):
        # once no stratum is unmet, sum (W_s hw_s)^2 <= e^2
        est = _estimate({"dead": (800, 0, 0), "a": (120, 60, 15),
                         "b": (80, 40, 40)})
        error = 0.2
        assert not est.unmet(error)
        assert est.combined_margin() <= error

    def test_run_weight_none_before_any_run(self):
        est = _estimate({"a": (10, 0, 0)})
        assert est.run_weight("a") is None

    def test_to_dict_is_json_and_consistent(self):
        est = _estimate({"dead": (6, 0, 0), "a": (4, 4, 1)})
        doc = json.loads(json.dumps(est.to_dict(error_target=0.1)))
        assert doc["pool_candidates"] == 10
        strata = doc["strata"]
        assert strata["dead"]["proven_dead"] is True
        assert strata["a"]["run_weight"] == pytest.approx(0.4 / 4)
        assert sum(s["weight"] for s in strata.values()) \
            == pytest.approx(1.0)
        assert not any("model_score" in s for s in strata.values())


class TestAllocation:
    """A round whose asks exceed the budget left splits it evenly."""

    def _group(self, pending, budget_left):
        """Three unmet live strata {key: (executed, failures)} with
        ``pending[key]`` candidates left beyond the executed ones."""
        tallies = {"hi:live": (8, 5), "lo:live": (10, 1),
                   "lo:short": (6, 3)}
        est = _estimate({key: (40, executed, failures)
                         for key, (executed, failures) in tallies.items()})
        group = _Group(kernel="k", structure=Structure.REGISTER_FILE,
                       estimate=est,
                       budget=est.executed() + budget_left)
        for key, (executed, _) in tallies.items():
            group.candidates[key] = [(key, i) for i
                                     in range(executed + pending[key])]
        return group

    def _split(self, group):
        selection = _allocate(None, None, group, error_target=0.01)
        split = {}
        for key, index in selection:
            # each stratum continues where its executed prefix ends
            assert index == group.estimate.stratum(key).executed \
                + split.get(key, 0)
            split[key] = split.get(key, 0) + 1
        return split

    def test_floor_shares_then_remainder_in_key_order(self):
        # asks 8, 10, 6 (doubling) exceed 11: floor 3 each, and the
        # remainder of 2 goes to the first key in sorted order ...
        group = self._group({"hi:live": 20, "lo:live": 20,
                             "lo:short": 20}, budget_left=11)
        assert self._split(group) == {"hi:live": 5, "lo:live": 3,
                                      "lo:short": 3}
        assert group.budget_exhausted
        # ... and on to the next one once the first's ask is granted
        group = self._group({"hi:live": 4, "lo:live": 20,
                             "lo:short": 20}, budget_left=11)
        assert self._split(group) == {"hi:live": 4, "lo:live": 4,
                                      "lo:short": 3}

    def test_each_stratum_is_capped_by_its_ask(self):
        # hi:live asks only its one pending run; the rest of its floor
        # share goes, in sorted key order, to lo:live up to its ask
        group = self._group({"hi:live": 1, "lo:live": 20,
                             "lo:short": 20}, budget_left=11)
        assert self._split(group) == {"hi:live": 1, "lo:live": 7,
                                      "lo:short": 3}
        group = self._group({"hi:live": 1, "lo:live": 5,
                             "lo:short": 20}, budget_left=11)
        assert self._split(group) == {"hi:live": 1, "lo:live": 5,
                                      "lo:short": 5}


class TestFixtureMargin:
    """A uniform campaign's margin: the Wilson half-width of its one
    stratum, against the hand-computed value."""

    #: register_file in the fixture: 15 regs x 32 bits x 438 cycles
    POPULATION = 15 * 32 * 438

    def _result(self):
        records = load_records(FIXTURE)
        return Campaign(make_config(runs_per_structure=12)) \
            .aggregate(records)

    def _tallies(self, result, structure=Structure.REGISTER_FILE):
        return (result.runs("vectorAdd", structure),
                result.failures("vectorAdd", structure))

    def test_fixture_margin_exact(self):
        # register_file in the fixture: 4 runs, 1 Crash.  The 99%
        # Wilson interval at p-hat = 1/4, finite-population corrected
        result = self._result()
        n, failures = self._tallies(result)
        assert (n, failures) == (4, 1)
        z = 2.5758  # 99% two-sided
        p = failures / n
        denom = 1 + z * z / n
        fpc = math.sqrt((self.POPULATION - n) / (self.POPULATION - 1))
        hand = (z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
                / denom) * fpc
        assert hand == pytest.approx(0.375899773856797, abs=1e-12)
        assert result.margin("vectorAdd", Structure.REGISTER_FILE) \
            == pytest.approx(hand, abs=1e-12)

    def test_per_structure_margins_match_fixture(self):
        # every group is one stratum of weight 1 over its records
        result = self._result()
        for structure in (Structure.REGISTER_FILE, Structure.SHARED_MEM,
                          Structure.L2_CACHE):
            est = result.estimate("vectorAdd", structure)
            n, failures = self._tallies(result, structure)
            assert list(est.strata) == ["all"]
            assert est.strata["all"].weight(est.pool_total) == 1.0
            assert result.failure_ratio("vectorAdd", structure) \
                == failures / n
            assert result.margin("vectorAdd", structure) == pytest.approx(
                wilson_halfwidth(failures, n, population=est.population),
                abs=1e-15)
        assert result.estimate("vectorAdd", Structure.REGISTER_FILE) \
            .population == self.POPULATION

    def test_margin_uses_observed_rate_not_worst_case(self):
        # the planning-time p = 0.5 margin is looser than the one the
        # observed p-hat = 1/4 achieves
        result = self._result()
        n, _ = self._tallies(result)
        assert result.margin("vectorAdd", Structure.REGISTER_FILE) \
            < margin_of_error(n, population=self.POPULATION)

    def test_degenerate_structures_use_wilson_centre(self):
        # shared_mem and l2_cache observe 0 failures in 4 runs; the
        # margin must not collapse to 0 (the Wilson interval does not)
        result = self._result()
        for structure in (Structure.SHARED_MEM, Structure.L2_CACHE):
            assert self._tallies(result, structure) == (4, 0)
            assert 0.0 < result.margin("vectorAdd", structure) < 1.0


class TestOneEstimator:
    """Every number of an adaptive campaign reads its stratified
    estimate, so it agrees with the uniform campaign of the same
    configuration within the latter's margins.  At the parent the
    adaptive wAVF, FIT and ratios read the allocation-weighted record
    pool (register-file FR 0.650 vs the uniform 0.140 at n = 200)."""

    CONFIG = dict(structures=(Structure.REGISTER_FILE,
                              Structure.SHARED_MEM),
                  runs_per_structure=60, seed=3, early_stop="full")

    def test_adaptive_numbers_lie_within_uniform_margins(self):
        from repro.analysis import avf, fit
        from repro.faults.targets import CHIP_STRUCTURES, chip_bits

        uniform = Campaign(make_config(**self.CONFIG)).run()
        adaptive = Campaign(make_config(adaptive="on", error_target=0.1,
                                        **self.CONFIG)).run()
        kernel = "vectorAdd"
        # the all-dead shared-memory group is reported, with no run
        assert list(adaptive.estimates) == list(uniform.estimates)
        assert adaptive.runs(kernel, Structure.SHARED_MEM) == 0
        # wAVF and FIT are linear in the groups' FRs: bound them by
        # each coefficient times the uniform group's margin
        card = uniform.config.resolved_card()
        kp = uniform.profile.kernels[kernel]
        total_bits = sum(chip_bits(s, card) for s in CHIP_STRUCTURES)
        wavf_margin = sum(
            uniform.profile.kernel_weight(kernel)
            * avf.derating_factor(kp, structure, card)
            * chip_bits(structure, card) / total_bits
            * uniform.margin(kernel, structure)
            for structure in self.CONFIG["structures"])
        assert wavf_margin > 0
        assert abs(avf.weighted_avf(adaptive) - avf.weighted_avf(uniform)) \
            <= wavf_margin
        fit_margin = wavf_margin * card.raw_fit_per_bit * total_bits
        assert abs(fit.chip_fit(adaptive) - fit.chip_fit(uniform)) \
            <= fit_margin
        sdc = [result.effect_ratio(kernel, Structure.REGISTER_FILE,
                                   FaultEffect.SDC)
               for result in (adaptive, uniform)]
        assert abs(sdc[0] - sdc[1]) \
            <= uniform.margin(kernel, Structure.REGISTER_FILE)


class TestAdaptiveOffParity:
    """--adaptive off must stay canonically byte-identical."""

    def _canonical(self, tmp_path, name, jobs=1, **overrides):
        log = tmp_path / f"{name}.jsonl"
        config = make_config(runs_per_structure=6, log_path=log,
                             **overrides)
        Campaign(config).run(jobs=jobs)
        return canonical_log_text(load_records(log)), log

    def test_byte_identical_across_jobs_and_batch(self, tmp_path):
        base, _ = self._canonical(tmp_path, "serial")
        para, _ = self._canonical(tmp_path, "parallel", jobs=3)
        batched, _ = self._canonical(tmp_path, "batched", jobs=2,
                                     batch=3)
        assert base == para == batched

    def test_no_stratum_keys_or_sidecar_by_default(self, tmp_path):
        _, log = self._canonical(tmp_path, "plain")
        records = load_records(log)
        assert records and all("stratum" not in r for r in records)
        assert not plan_path_for(log).exists()


class TestAdaptiveDriver:
    def _run(self, tmp_path, name="adaptive", **overrides):
        log = tmp_path / f"{name}.jsonl"
        kwargs = dict(adaptive="on", error_target=0.1,
                      runs_per_structure=200, seed=3, log_path=log)
        kwargs.update(overrides)
        campaign = Campaign(make_config(**kwargs))
        result = campaign.run()
        return campaign, result, log

    def test_reaches_target_with_fewer_runs_than_uniform(self, tmp_path):
        campaign, _, log = self._run(tmp_path)
        doc = json.loads(plan_path_for(log).read_text())
        assert doc["schema"] == 2
        assert doc["all_met"] is True
        uniform = required_injections(doc["groups"][0]["population"],
                                      error=0.1)
        assert doc["uniform_runs_total"] == uniform
        assert doc["executed"] < uniform  # measurably fewer
        assert doc["runs_saved"] == uniform - doc["executed"]

    def test_records_carry_strata_and_weights_are_consistent(
            self, tmp_path):
        campaign, result, log = self._run(tmp_path)
        doc = json.loads(plan_path_for(log).read_text())
        strata = doc["groups"][0]["strata"]
        assert sum(s["weight"] for s in strata.values()) \
            == pytest.approx(1.0, abs=1e-5)
        executed = {}
        for record in result.records:
            assert record["stratum"] in strata
            executed[record["stratum"]] = \
                executed.get(record["stratum"], 0) + 1
        assert executed  # live strata actually ran
        for key, n in executed.items():
            info = strata[key]
            assert info["executed"] == n
            # per-run importance weights sum back to the stratum weight
            assert info["run_weight"] * n \
                == pytest.approx(info["weight"], abs=1e-5)

    def test_adaptive_is_deterministic(self, tmp_path):
        _, _, log_a = self._run(tmp_path, "a")
        _, _, log_b = self._run(tmp_path, "b")
        doc_a = json.loads(plan_path_for(log_a).read_text())
        doc_b = json.loads(plan_path_for(log_b).read_text())
        assert doc_a == doc_b
        assert canonical_log_text(load_records(log_a)) \
            == canonical_log_text(load_records(log_b))

    def test_last_plan_summary_renders(self, tmp_path):
        campaign, _, _ = self._run(tmp_path)
        assert campaign.last_plan is not None
        text = campaign.last_plan.summary()
        assert "error target +/-10.0%" in text
        assert "vectorAdd/register_file" in text

    def test_budget_caps_spending(self, tmp_path):
        campaign, result, log = self._run(tmp_path, "tight",
                                          runs_per_structure=8,
                                          error_target=0.02)
        doc = json.loads(plan_path_for(log).read_text())
        assert doc["executed"] <= 8
        assert doc["groups"][0]["budget_exhausted"] is True
        assert doc["all_met"] is False

    def test_metrics_sidecar_gains_adaptive_block(self, tmp_path):
        campaign, _, _ = self._run(tmp_path, "metrics", metrics=True)
        assert campaign.last_metrics["adaptive"]["adaptive"] == "on"
        assert campaign.last_metrics["adaptive"]["groups"]

    @pytest.mark.parametrize("logged", [False, True])
    def test_a_round_executes_its_allocation_only(self, tmp_path,
                                                  monkeypatch, logged):
        """Each round is handed the records of the earlier ones: no
        run executes twice, with a log to resume from or without.
        Fails at the parent without a log: 265 calls for 56 records,
        the log file being the only memory between rounds."""
        import repro.faults.executor as executor

        calls = []
        real = executor.execute_run

        def counting(spec):
            calls.append(spec.key)
            return real(spec)

        monkeypatch.setattr(executor, "execute_run", counting)
        campaign, result, _ = self._run(
            tmp_path, runs_per_structure=60, seed=5, error_target=0.05,
            metrics=True, **({} if logged else {"log_path": None}))
        assert len(calls) == len(set(calls)) == len(result.records)
        # what the parent's planner did on this configuration
        report = campaign.last_plan
        assert (report.rounds, report.executed()) == (7, 56)
        assert len(result.records) == 56 and report.all_met()
        # the sidecar of the last round covers the whole selection
        assert campaign.last_metrics["campaign"]["total_runs"] == 56
        assert sum(campaign.last_metrics["effects"].values()) == 56

    QUOTED = dict(runs_per_structure=60, seed=5, error_target=0.05,
                  metrics=True)

    def test_an_adaptive_campaign_is_one_campaign(self, tmp_path):
        """One header naming the campaign, one bracket, one sidecar
        over all of it.  At the parent every round was a campaign of
        its own: the header said ``runs 11`` with the fingerprint of
        round 1's specs, the journal held seven ``campaign_end`` and
        six ``campaign_resume``, the sidecar's wall-clock sections
        described the last round (``executed 6``)."""
        from repro.faults.executor import plan_fingerprint
        from repro.obs import events_path_for, read_events

        campaign, result, log = self._run(tmp_path, **self.QUOTED)
        report = campaign.last_plan
        assert (report.rounds, report.executed()) == (7, 56)
        lines = log.read_text().splitlines()
        headers = [json.loads(line) for line in lines
                   if "gpufi_log" in line]
        candidate = Campaign(campaign.config).plan()
        assert headers == [{
            "gpufi_log": 1, "fingerprint": plan_fingerprint(candidate),
            "runs": len(candidate), "benchmark": "vectoradd",
            "card": "RTX2060", "adaptive": True}]
        assert lines.index(json.dumps(headers[0])) == 0

        events = read_events(events_path_for(log))
        kinds = [event["event"] for event in events]
        assert kinds.count("campaign_start") == 1 == kinds.index(
            "campaign_start") + 1
        assert kinds.count("campaign_resume") == 0
        assert kinds.count("campaign_end") == 1
        assert events[-1]["event"] == "campaign_end"
        assert events[-1]["executed"] == 56 and events[-1]["complete"]
        rounds = [event for event in events if event["event"] == "round"]
        assert [event["round"] for event in rounds] == list(range(1, 8))
        assert sum(event["runs"] for event in rounds) == 56
        assert rounds[-1]["total"] == 56
        assert kinds.count("run") == 56

        sidecar = json.loads(
            Path(str(log) + ".metrics.json").read_text())
        assert sidecar == campaign.last_metrics
        assert sidecar["campaign"]["executed"] == 56
        assert sidecar["campaign"]["resumed"] == 0
        assert sidecar["adaptive"] == report.to_dict()
        assert (sum(entry["count"] for entry in sidecar["latency"].values())
                == sum(entry["runs"] for entry in sidecar["workers"].values())
                == sum(sidecar["effects"].values())
                == sidecar["adaptive"]["executed"] == 56)
        # the ledger is the one writer of the sidecar
        driver = Path(__file__).parent.parent / "src/repro/plan/driver.py"
        assert "metrics_path_for" not in driver.read_text()
        assert ".metrics.json" not in driver.read_text()

    def test_a_cut_adaptive_campaign_resumes_where_it_stopped(
            self, tmp_path, monkeypatch):
        import repro.faults.executor as executor
        from repro.obs import events_path_for, read_events

        straight, result, log = self._run(tmp_path, "straight",
                                          **self.QUOTED)
        # killed in round 4: log and journal end in half a line
        events = read_events(events_path_for(log))
        fourth = [index for index, event in enumerate(events)
                  if event["event"] == "round"][3]
        kept = 1 + events[fourth]["total"] - events[fourth]["runs"]
        cut = tmp_path / "cut.jsonl"
        for path, keep in ((log, kept), (events_path_for(log), fourth + 1)):
            lines = path.read_text().splitlines(keepends=True)
            Path(str(path).replace("straight", "cut")).write_text(
                "".join(lines[:keep]) + lines[keep][:40])

        calls = []
        real = executor.execute_run
        monkeypatch.setattr(executor, "execute_run",
                            lambda spec: calls.append(spec.key) or real(spec))
        resumed = Campaign(make_config(
            adaptive="on", log_path=cut, **self.QUOTED))
        again = resumed.run(resume=True)
        assert resumed.last_plan.to_dict() == straight.last_plan.to_dict()
        assert canonical_log_text(again.records) \
            == canonical_log_text(result.records) \
            == canonical_log_text(load_records(cut))
        missing = [(r["kernel"], r["structure"], r["run"])
                   for r in load_records(log)[kept - 1:]]
        assert sorted(calls) == sorted(missing) and len(calls) == 56 - 38
        kinds = [event["event"] for event
                 in read_events(events_path_for(cut))]
        assert kinds[:fourth + 1] == [e["event"] for e in events[:fourth + 1]]
        assert kinds[fourth + 1] == "campaign_resume"
        assert kinds.count("campaign_resume") == 1
        assert kinds.count("campaign_end") == 1
        assert kinds[-1] == "campaign_end"
        assert kinds.count("run") == 56
        assert cut.read_text().count("gpufi_log") == 1
        assert resumed.last_metrics["campaign"]["executed"] == len(calls)
        assert resumed.last_metrics["campaign"]["resumed"] == 38

    def test_estimate_tracks_dead_mass(self, tmp_path):
        campaign, _, log = self._run(tmp_path)
        doc = json.loads(plan_path_for(log).read_text())
        group = doc["groups"][0]
        dead = group["strata"].get("dead")
        assert dead is not None and dead["proven_dead"]
        assert dead["executed"] == 0
        # the stratified FR discounts the proven-dead mass, so it
        # cannot exceed the live fraction of the pool
        assert group["failure_ratio"] <= 1.0 - dead["weight"] + 1e-9

    def test_strata_come_from_the_plan_not_the_golden_memo(self, tmp_path):
        """An untraced plan pre-screens nothing, so its candidates are
        all ``{lo|hi}:live`` -- also in a process whose golden-run memo
        holds the traced run of a full plan.  At the parent they fell
        into ``dead`` and lifetime bands there: strata, records and
        sidecar depended on the process's history."""
        overrides = dict(early_stop="converge", runs_per_structure=60)
        cold, cold_result, cold_log = self._run(tmp_path, "cold",
                                                **overrides)
        Campaign(make_config(runs_per_structure=60, seed=3)).plan()
        warm, warm_result, warm_log = self._run(tmp_path, "warm",
                                                **overrides)
        assert warm.golden_run().liveness is not None  # the memo's
        for report in (cold.last_plan, warm.last_plan):
            (estimate,) = report.groups.values()
            assert sorted(estimate.strata) == ["hi:live", "lo:live"]
        assert plan_path_for(warm_log).read_text() \
            == plan_path_for(cold_log).read_text()
        assert canonical_log_text(warm_result.records) \
            == canonical_log_text(cold_result.records)

    def test_no_planned_mask_is_left_behind(self, tmp_path):
        """The dead stratum never executes, so no mask of it may wait
        in the executor's memo (at the parent, every pre-screened
        candidate's did, until the memo's cap emptied it)."""
        import repro.faults.executor as executor

        executor._PLANNED_MASKS.clear()
        campaign, _, _ = self._run(tmp_path)
        (estimate,) = campaign.last_plan.groups.values()
        assert estimate.strata["dead"].candidates > 0
        assert not executor._PLANNED_MASKS

    def test_a_candidate_is_planned_and_drawn_once(self, tmp_path,
                                                   monkeypatch):
        """Planning draws one mask per classified candidate that is not
        synthesized -- extensions included -- and builds no campaign
        besides the caller's.  At the parent the driver redrew every
        candidate and each extension re-planned the group from run 0
        in a campaign of its own."""
        import repro.faults.executor as executor
        from repro.faults.mask import MaskGenerator

        campaign = Campaign(make_config(
            adaptive="on", error_target=0.1, seed=3,
            structures=(Structure.REGISTER_FILE, Structure.SHARED_MEM)))
        executing, planned, built = [], [], []
        generate, init = MaskGenerator.generate, Campaign.__init__
        run = executor.execute_run

        def executing_run(spec):
            executing.append(spec.key)
            try:
                return run(spec)
            finally:
                executing.pop()

        def counted_generate(generator, structure, *args, **kwargs):
            if not executing:
                planned.append(structure)
            return generate(generator, structure, *args, **kwargs)

        monkeypatch.setattr(executor, "execute_run", executing_run)
        monkeypatch.setattr(MaskGenerator, "generate", counted_generate)
        monkeypatch.setattr(Campaign, "__init__", lambda *args, **kwargs:
                            built.append(args) or init(*args, **kwargs))
        result = campaign.run()
        assert not built
        groups = {structure: estimate for (_, structure), estimate
                  in campaign.last_plan.groups.items()}
        classified = {structure: sum(s.candidates + s.extra_candidates
                                     for s in estimate.strata.values())
                      for structure, estimate in groups.items()}
        # vectorAdd allocates no shared memory: synthesized, never drawn
        assert list(groups["shared_mem"].strata) == ["dead"]
        # both pools were extended, the synthesized one for free
        assert classified["register_file"] > 24 < classified["shared_mem"]
        assert planned == [Structure.REGISTER_FILE] \
            * classified["register_file"]
        assert result.records


class TestAdaptiveConfig:
    def test_remote_backend_rejected(self):
        with pytest.raises(ValueError):
            make_config(adaptive="on", backend="remote",
                        backend_url="http://localhost:1")

    def test_error_target_validated(self):
        with pytest.raises(ValueError):
            make_config(adaptive="on", error_target=0.0)
        with pytest.raises(ValueError):
            make_config(adaptive="on", error_target=1.0)

    def test_adaptive_value_validated(self):
        with pytest.raises(ValueError):
            make_config(adaptive="maybe")

    def test_config_file_roundtrip(self):
        from repro.faults.config_file import dump_config, parse_config_text
        config = make_config(adaptive="on", error_target=0.05)
        text = dump_config(config)
        assert "-gpufi_adaptive 1" in text
        assert "-gpufi_error_target 0.05" in text
        parsed = parse_config_text(text)
        assert parsed.adaptive == "on"
        assert parsed.error_target == 0.05

    def test_config_file_default_off(self):
        from repro.faults.config_file import dump_config
        text = dump_config(make_config())
        assert "adaptive" not in text

    def test_submit_rejects_adaptive(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="adaptive"):
            main(["submit", "--connect", "http://localhost:1",
                  "--benchmark", "vectoradd", "--adaptive"])
