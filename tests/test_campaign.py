"""Campaign controller: profiling, execution, logging, aggregation."""

import json

import pytest

from repro.analysis import avf as avf_mod
from repro.faults.campaign import (Campaign, CampaignConfig,
                                   aggregate_counts, profile_application)
from repro.faults.classify import FaultEffect
from repro.faults.parser import load_records, merge_logs
from repro.faults.targets import Structure


class TestProfiling:
    def test_profile_vectoradd(self):
        profile, golden = profile_application("vectoradd", "RTX2060")
        assert golden.passed and golden.status == "completed"
        assert set(profile.kernels) == {"vectorAdd"}
        kp = profile.kernels["vectorAdd"]
        assert kp.invocations == 1
        assert kp.total_cycles == profile.total_cycles == golden.cycles
        assert kp.regs_per_thread >= 14
        assert 0 < kp.occupancy <= 1
        assert kp.cores_used

    def test_profile_multi_kernel_app(self):
        profile, _ = profile_application("gaussian", "RTX2060")
        assert set(profile.kernels) == {"Fan1", "Fan2"}
        assert profile.kernels["Fan1"].invocations == 15
        weights = [profile.kernel_weight(k) for k in profile.kernels]
        assert sum(weights) == pytest.approx(1.0)

    def test_windows_are_disjoint_and_ordered(self):
        profile, _ = profile_application("gaussian", "RTX2060")
        windows = sorted(w for kp in profile.kernels.values()
                         for w in kp.windows)
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert e1 <= s2

    def test_app_occupancy_weighted(self):
        profile, _ = profile_application("srad2", "RTX2060")
        occ = profile.app_occupancy()
        lo = min(k.occupancy for k in profile.kernels.values())
        hi = max(k.occupancy for k in profile.kernels.values())
        assert lo <= occ <= hi


class TestCampaignExecution:
    def make_result(self, tmp_path=None, **overrides):
        kwargs = dict(benchmark="vectoradd", card="RTX2060",
                      structures=(Structure.REGISTER_FILE,),
                      runs_per_structure=8, seed=11)
        kwargs.update(overrides)
        if tmp_path is not None:
            kwargs["log_path"] = tmp_path / "campaign.jsonl"
        return Campaign(CampaignConfig(**kwargs)).run()

    def test_counts_cover_all_runs(self):
        result = self.make_result()
        assert result.runs("vectorAdd", Structure.REGISTER_FILE) == 8

    def test_failure_ratio_bounds(self):
        result = self.make_result()
        fr = result.failure_ratio("vectorAdd", Structure.REGISTER_FILE)
        assert 0.0 <= fr <= 1.0

    def test_determinism_same_seed(self):
        a = self.make_result()
        b = self.make_result()
        assert a.counts == b.counts

    def test_different_seeds_may_differ_but_are_valid(self):
        result = self.make_result(seed=99)
        total = sum(result.counts["vectorAdd"][
                    Structure.REGISTER_FILE].values())
        assert total == 8

    def test_log_roundtrip(self, tmp_path):
        result = self.make_result(tmp_path)
        records = load_records(tmp_path / "campaign.jsonl")
        assert len(records) == 8
        assert aggregate_counts(records) == result.counts

    def test_no_smem_structure_synthesized(self):
        result = self.make_result(structures=(Structure.SHARED_MEM,))
        effects = result.counts["vectorAdd"][Structure.SHARED_MEM]
        assert effects == {FaultEffect.MASKED: 8}
        assert all(rec["synthesized"] for rec in result.records)

    def test_summary_text(self):
        result = self.make_result()
        text = result.summary()
        assert "vectorAdd" in text and "register_file" in text

    def test_kernel_filter(self):
        result = Campaign(CampaignConfig(
            benchmark="gaussian", card="RTX2060",
            structures=(Structure.REGISTER_FILE,),
            runs_per_structure=3, kernels=("Fan1",), seed=5)).run()
        assert set(result.counts) == {"Fan1"}

    def test_default_structures_from_card(self):
        config = CampaignConfig(benchmark="vectoradd", card="GTXTitan")
        assert Structure.L1D_CACHE not in config.resolved_structures()
        assert Structure.L2_CACHE in config.resolved_structures()


class TestParserMerge:
    def test_merge_logs_rejects_mismatched_campaigns(self, tmp_path):
        # different seeds -> different fingerprints -> different
        # campaigns; silently concatenating them would fabricate a
        # 6-run campaign that never existed
        for i, seed in enumerate((1, 2)):
            Campaign(CampaignConfig(
                benchmark="vectoradd", card="RTX2060",
                structures=(Structure.REGISTER_FILE,),
                runs_per_structure=3, seed=seed,
                log_path=tmp_path / f"batch{i}.jsonl")).run()
        paths = [tmp_path / "batch0.jsonl", tmp_path / "batch1.jsonl"]
        with pytest.raises(ValueError, match="different campaigns"):
            merge_logs(paths)
        counts = merge_logs(paths, force=True)
        total = sum(counts["vectorAdd"][Structure.REGISTER_FILE].values())
        assert total == 6

    def test_merge_logs_dedups_same_campaign_shards(self, tmp_path):
        log = tmp_path / "batch.jsonl"
        Campaign(CampaignConfig(
            benchmark="vectoradd", card="RTX2060",
            structures=(Structure.REGISTER_FILE,),
            runs_per_structure=3, seed=1, log_path=log)).run()
        # the same log twice = two shards with fully overlapping runs
        counts = merge_logs([log, log])
        total = sum(counts["vectorAdd"][Structure.REGISTER_FILE].values())
        assert total == 3

    def test_bad_json_raises(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad JSON"):
            load_records(bad)


class TestInvocationTargeting:
    def test_single_invocation_window(self):
        from repro.faults.campaign import profile_application

        profile, _ = profile_application("gaussian", "RTX2060")
        windows = profile.kernels["Fan1"].windows
        result = Campaign(CampaignConfig(
            benchmark="gaussian", card="RTX2060",
            structures=(Structure.REGISTER_FILE,),
            runs_per_structure=4, kernels=("Fan1",),
            invocation=3, seed=8)).run()
        start, end = windows[3]
        for record in result.records:
            cycle = record["mask"]["cycle"]
            assert start <= cycle < end

    def test_invocation_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Campaign(CampaignConfig(
                benchmark="vectoradd", card="RTX2060",
                structures=(Structure.REGISTER_FILE,),
                runs_per_structure=1, invocation=5, seed=1)).run()
