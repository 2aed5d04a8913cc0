"""AVF equations 1-3, derating factors, FIT rates, contributions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import avf as avf_mod
from repro.analysis import fit as fit_mod
from repro.faults.campaign import (AppProfile, Campaign, CampaignConfig,
                                   GoldenRun, KernelProfile)
from repro.faults.classify import FaultEffect
from repro.faults.targets import CHIP_STRUCTURES, Structure, chip_bits
from repro.sim.cards import rtx_2060


def kernel_profile(name="k", cycles=1000, regs=16, smem=0,
                   threads_mean=256.0, ctas_mean=1.0, occupancy=0.25):
    return KernelProfile(
        name=name, windows=[(0, cycles)], total_cycles=cycles,
        regs_per_thread=regs, smem_bytes=smem, local_bytes=0,
        threads_per_cta=256, occupancy=occupancy,
        mean_threads_per_sm=threads_mean, mean_ctas_per_sm=ctas_mean,
        cores_used=[0], instructions=100)


def synthetic_result(kernels, counts, card="RTX2060"):
    """The CampaignResult of a uniform campaign whose records hold
    hand-written counts."""
    profile = AppProfile(
        benchmark="synthetic", card=card,
        total_cycles=sum(k.total_cycles for k in kernels),
        kernels={k.name: k for k in kernels})
    config = CampaignConfig(benchmark="synthetic", card=card,
                            structures=tuple(
                                {s for per in counts.values() for s in per}))
    records = [{"kernel": kernel, "structure": structure.value,
                "effect": effect.value}
               for kernel, per in counts.items()
               for structure, effects in per.items()
               for effect, n in effects.items() for _ in range(n)]
    golden = GoldenRun(profile, profile.total_cycles)
    return Campaign(config, golden=golden).aggregate(records)


def effects(masked=0, sdc=0, crash=0, timeout=0, perf=0):
    out = {}
    if masked:
        out[FaultEffect.MASKED] = masked
    if sdc:
        out[FaultEffect.SDC] = sdc
    if crash:
        out[FaultEffect.CRASH] = crash
    if timeout:
        out[FaultEffect.TIMEOUT] = timeout
    if perf:
        out[FaultEffect.PERFORMANCE] = perf
    return out


class TestEquationOne:
    def test_failure_ratio(self):
        result = synthetic_result(
            [kernel_profile()],
            {"k": {Structure.REGISTER_FILE: effects(masked=60, sdc=25,
                                                    crash=10, timeout=5)}})
        assert result.failure_ratio("k", Structure.REGISTER_FILE) == \
            pytest.approx(0.40)
        # a uniform campaign's ratios are its counts over n, exactly
        assert result.failure_ratio("k", Structure.REGISTER_FILE) \
            == (25 + 10 + 5) / 100
        for effect, count in ((FaultEffect.MASKED, 60),
                              (FaultEffect.SDC, 25),
                              (FaultEffect.CRASH, 10),
                              (FaultEffect.TIMEOUT, 5),
                              (FaultEffect.PERFORMANCE, 0)):
            assert result.effect_ratio("k", Structure.REGISTER_FILE,
                                       effect) == count / 100

    def test_performance_not_a_failure(self):
        result = synthetic_result(
            [kernel_profile()],
            {"k": {Structure.REGISTER_FILE: effects(masked=50, perf=50)}})
        assert result.failure_ratio("k", Structure.REGISTER_FILE) == 0.0


class TestDeratingFactors:
    def test_df_reg_formula(self):
        # 16 regs/thread * 256 threads mean / 65536 regs per SM
        card = rtx_2060()
        kp = kernel_profile(regs=16, threads_mean=256.0)
        df = avf_mod.derating_factor(kp, Structure.REGISTER_FILE, card)
        assert df == pytest.approx(16 * 256 / 65536)

    def test_df_smem_formula(self):
        card = rtx_2060()
        kp = kernel_profile(smem=2048, ctas_mean=2.0)
        df = avf_mod.derating_factor(kp, Structure.SHARED_MEM, card)
        assert df == pytest.approx(2048 * 2 / (64 * 1024))

    def test_df_capped_at_one(self):
        card = rtx_2060()
        kp = kernel_profile(regs=255, threads_mean=1024.0)
        assert avf_mod.derating_factor(kp, Structure.REGISTER_FILE,
                                       card) == 1.0

    def test_df_is_one_for_caches(self):
        card = rtx_2060()
        kp = kernel_profile()
        assert avf_mod.derating_factor(kp, Structure.L2_CACHE, card) == 1.0

    def test_no_smem_kernel_zero_df(self):
        card = rtx_2060()
        kp = kernel_profile(smem=0)
        assert avf_mod.derating_factor(kp, Structure.SHARED_MEM, card) == 0.0


class TestEquationTwo:
    def test_kernel_avf_weighted_by_structure_size(self):
        card = rtx_2060()
        counts = {"k": {s: effects(masked=50, sdc=50)
                        for s in CHIP_STRUCTURES}}
        kp = kernel_profile(regs=255, threads_mean=1024.0, smem=64 * 1024,
                            ctas_mean=1.0)
        result = synthetic_result([kp], counts)
        # all FRs are 0.5 and both derating factors saturate at 1.0,
        # so AVF_kernel must be exactly 0.5
        assert avf_mod.kernel_avf(result, "k") == pytest.approx(0.5)

    def test_rf_only_campaign_scales_by_rf_share(self):
        card = rtx_2060()
        counts = {"k": {Structure.REGISTER_FILE: effects(sdc=100)}}
        kp = kernel_profile(regs=255, threads_mean=1024.0)
        result = synthetic_result([kp], counts)
        rf_bits = chip_bits(Structure.REGISTER_FILE, card)
        total = sum(chip_bits(s, card) for s in CHIP_STRUCTURES)
        assert avf_mod.kernel_avf(result, "k") == \
            pytest.approx(rf_bits / total)

    def test_titan_denominator_skips_l1d(self):
        counts = {"k": {Structure.REGISTER_FILE: effects(sdc=10)}}
        kp = kernel_profile(regs=255, threads_mean=2048.0)
        result = synthetic_result([kp], counts, card="GTXTitan")
        card = pytest.importorskip("repro.sim.cards").gtx_titan()
        total = sum(chip_bits(s, card) for s in CHIP_STRUCTURES)
        assert chip_bits(Structure.L1D_CACHE, card) == 0
        assert avf_mod.kernel_avf(result, "k") == pytest.approx(
            chip_bits(Structure.REGISTER_FILE, card) / total)


class TestEquationThree:
    def test_wavf_cycle_weighting(self):
        heavy = kernel_profile("heavy", cycles=900, regs=255,
                               threads_mean=1024.0)
        light = kernel_profile("light", cycles=100, regs=255,
                               threads_mean=1024.0)
        counts = {
            "heavy": {s: effects(sdc=10) for s in CHIP_STRUCTURES},
            "light": {s: effects(masked=10) for s in CHIP_STRUCTURES},
        }
        result = synthetic_result([heavy, light], counts)
        heavy_avf = avf_mod.kernel_avf(result, "heavy")
        assert avf_mod.weighted_avf(result) == \
            pytest.approx(0.9 * heavy_avf)

    @given(st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_wavf_bounded(self, sdc_a, sdc_b):
        kernels = [kernel_profile("a", cycles=500, threads_mean=512.0),
                   kernel_profile("b", cycles=700, threads_mean=512.0)]
        counts = {
            "a": {Structure.REGISTER_FILE: effects(masked=50, sdc=sdc_a)},
            "b": {Structure.REGISTER_FILE: effects(masked=50, sdc=sdc_b)},
        }
        result = synthetic_result(kernels, counts)
        assert 0.0 <= avf_mod.weighted_avf(result) <= 1.0


class TestContributions:
    def test_shares_sum_to_one(self):
        counts = {"k": {s: effects(masked=50, sdc=50)
                        for s in CHIP_STRUCTURES}}
        kp = kernel_profile(regs=64, threads_mean=512.0, smem=4096,
                            ctas_mean=2.0)
        result = synthetic_result([kp], counts)
        shares = avf_mod.structure_contributions(result)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_all_masked_returns_empty(self):
        counts = {"k": {Structure.REGISTER_FILE: effects(masked=10)}}
        result = synthetic_result([kernel_profile()], counts)
        assert avf_mod.structure_contributions(result) == {}


class TestEffectBreakdown:
    def test_breakdown_sums_to_df(self):
        card = rtx_2060()
        kp = kernel_profile(regs=16, threads_mean=256.0)
        counts = {"k": {Structure.REGISTER_FILE:
                        effects(masked=25, sdc=25, crash=25, timeout=25)}}
        result = synthetic_result([kp], counts)
        breakdown = avf_mod.effect_breakdown(result,
                                             Structure.REGISTER_FILE)
        df = avf_mod.derating_factor(kp, Structure.REGISTER_FILE, card)
        assert sum(breakdown.values()) == pytest.approx(df)

    def test_underated_breakdown_sums_to_one(self):
        counts = {"k": {Structure.REGISTER_FILE:
                        effects(masked=40, sdc=60)}}
        result = synthetic_result([kernel_profile()], counts)
        breakdown = avf_mod.effect_breakdown(
            result, Structure.REGISTER_FILE, derated=False)
        assert sum(breakdown.values()) == pytest.approx(1.0)


class TestFIT:
    def test_structure_fit_formula(self):
        assert fit_mod.structure_fit(0.1, 1.8e-6, 10**6) == \
            pytest.approx(0.18)

    def test_chip_fit_sums_structures(self):
        counts = {"k": {s: effects(sdc=10) for s in CHIP_STRUCTURES}}
        kp = kernel_profile(regs=255, threads_mean=1024.0, smem=64 * 1024,
                            ctas_mean=1.0)
        result = synthetic_result([kp], counts)
        card = rtx_2060()
        expected = sum(chip_bits(s, card) for s in CHIP_STRUCTURES) \
            * card.raw_fit_per_bit  # every AVF is 1.0
        assert fit_mod.chip_fit(result) == pytest.approx(expected)

    def test_titan_raw_rate_dominates(self):
        # identical failure behaviour: the 28 nm card's FIT is larger
        # relative to its size because its raw FIT/bit is ~6.7x higher
        counts = {"k": {Structure.REGISTER_FILE: effects(sdc=10)}}
        kp = kernel_profile(regs=255, threads_mean=2048.0)
        fit_new = fit_mod.chip_fit(synthetic_result([kp], counts,
                                                    card="RTX2060"))
        fit_old = fit_mod.chip_fit(synthetic_result([kp], counts,
                                                    card="GTXTitan"))
        assert fit_old > fit_new  # despite the much smaller chip
