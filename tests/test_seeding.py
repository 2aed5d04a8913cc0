"""A plan's randomness, derived in bulk, is numpy's to the bit.

numpy's ``SeedSequence`` and ``default_rng`` are the reference: the
bulk seeder (:func:`repro.faults.mask.derive_run_seeds`,
:func:`~repro.faults.mask.stream_states`) must give their seeds and
start their streams, the size-1 draws must leave a stream where
``choice(n, size=1, replace=False)`` leaves it, and a plan must equal
a per-spec loop over the scalar paths.  A plan stamps its specs
(:func:`~repro.faults.executor.stamp`): each must be the spec
``RunSpec(...)`` builds, to the pickled byte, and carry the mask a
run of the spec would draw.
"""

import collections
import dataclasses
import json
import pickle
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.dist.server import Dispatcher
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config
from repro.dist.protocol import spec_to_wire
from repro.faults.executor import RunSpec, regenerate_mask, stamp
from repro.faults.mask import (MaskGenerator, MultiBitMode, derive_run_seed,
                               derive_run_seeds, stream_states)
from repro.faults.sites import _sample
from repro.faults.targets import Structure
from repro.sim.cards import rtx_2060
from repro.sim.liveness import LivenessTrace
from tests.conftest import generated

MODELS = st.sampled_from(["transient", "stuck_at_0", "stuck_at_1",
                          "control", "a model no one registered"])
#: One-, two- and three-word campaign seeds, and longer ones.
CAMPAIGN_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**64 + 1]),
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96 - 1), st.integers(2**96, 2**160))
COORDS = st.lists(st.tuples(st.text(max_size=12), st.sampled_from(Structure),
                            st.integers(0, 2**32 - 1)),
                  min_size=1, max_size=6)


def reference_seed(campaign_seed, kernel, structure, run_index, model):
    spawn_key = (zlib.crc32(kernel.encode("utf-8")),
                 zlib.crc32(structure.value.encode("utf-8")), run_index)
    if model != "transient":
        spawn_key += (zlib.crc32(model.encode("utf-8")),)
    words = np.random.SeedSequence(
        campaign_seed, spawn_key=spawn_key).generate_state(4)
    return int.from_bytes(words.tobytes(), "little")


@given(CAMPAIGN_SEEDS, COORDS, MODELS)
@example(0, [("k", Structure.REGISTER_FILE, 0)], "transient")
@example(2**32 - 1, [("", Structure.L2_CACHE, 2**32 - 1)], "stuck_at_1")
@example(2**32, [("Fan1", Structure.SHARED_MEM, 7)], "transient")
@example(2**64 + 3, [("Fan2", Structure.L1D_CACHE, 1)], "control")
@generated(60)
def test_run_seeds_are_seed_sequences(campaign_seed, coords, model):
    seeds = derive_run_seeds(campaign_seed, coords, model)
    assert seeds == [reference_seed(campaign_seed, *coord, model)
                     for coord in coords]
    assert derive_run_seed(campaign_seed, *coords[0],
                           fault_model=model) == seeds[0]


def twins(seed):
    """A generator set from :func:`stream_states` and the reference."""
    rng = np.random.Generator(np.random.PCG64(12345))
    rng.bit_generator.state = stream_states([seed])[0]
    return rng, np.random.default_rng(seed)


def draw_alike(rng, ref):
    for high in (1, 2, 3, 1000, 2**31 - 1, 2**32, 2**40):
        assert rng.integers(0, high) == ref.integers(0, high)
    assert (rng.choice(1000, size=3, replace=False).tolist()
            == ref.choice(1000, size=3, replace=False).tolist())
    assert rng.bit_generator.state == ref.bit_generator.state


@given(st.one_of(st.sampled_from([0, 2**128 - 1, 2**96 - 1, 2**31 - 2]),
                 st.integers(0, 2**31 - 2), st.integers(0, 2**96 - 1),
                 st.integers(0, 2**128 - 1)))
@generated(60)
def test_stream_states_start_default_rng_streams(seed):
    rng, ref = twins(seed)
    assert rng.bit_generator.state == ref.bit_generator.state
    draw_alike(rng, ref)


def test_stream_states_are_per_seed_in_bulk():
    seeds = [0, 5, 2**31 - 2, 2**64 + 9, 2**128 - 1]
    rng = np.random.Generator(np.random.PCG64())
    for seed, state in zip(seeds, stream_states(seeds)):
        rng.bit_generator.state = state
        draw_alike(rng, np.random.default_rng(seed))


SIZES = [1, 2, 31, 32, 33, 10_000, 10_001, 2**31 - 1]


def next_draws(rng):
    return [int(rng.integers(0, 2**31 - 1)) for _ in range(3)]


@pytest.mark.parametrize("n", SIZES)
def test_a_size_one_sample_is_choices_draw(n):
    rng, twin = np.random.default_rng(n), np.random.default_rng(n)
    picked = _sample(rng, range(n), 1)
    assert picked == twin.choice(n, size=1, replace=False).tolist()
    assert next_draws(rng) == next_draws(twin)


@pytest.mark.parametrize("n", SIZES)
def test_a_one_bit_offset_is_choices_draw(n, monkeypatch):
    monkeypatch.setattr("repro.faults.mask.entry_bits", lambda *_: n)
    rng, twin = np.random.default_rng(n), np.random.default_rng(n)
    generator = MaskGenerator(rtx_2060(), [(0, 10)], 8, 0, 0, rng)
    bits = generator._bit_offsets(Structure.REGISTER_FILE, 1,
                                  MultiBitMode.SAME_ENTRY)
    assert list(bits) == twin.choice(n, size=1, replace=False).tolist()
    assert next_draws(rng) == next_draws(twin)


PLANS = [
    dict(benchmark="pathfinder", bits_per_fault=3),
    dict(benchmark="pathfinder", n_cores=2, n_blocks=2, propagation=True),
    dict(benchmark="backprop", warp_level=True, fault_model="cache_hook"),
    dict(benchmark="gaussian", invocation=0, propagation=True),
    dict(benchmark="vectoradd", fault_model="stuck_at_1"),
    dict(benchmark="scalarprod", early_stop="off", seed=2**70 + 1),
    # a plan of run indices 2..4 of every (kernel, structure)
    dict(benchmark="needle", runs=range(2, 5)),
]


def plan_config(overrides):
    """The configuration of a ``PLANS`` case and its run range."""
    overrides = dict(overrides)
    runs = overrides.pop("runs", range(6))
    return CampaignConfig(**dict(dict(card="RTX2060", runs_per_structure=6,
                                      seed=21), **overrides)), runs


@pytest.mark.parametrize("overrides", PLANS, ids=lambda o: o["benchmark"])
def test_a_plan_is_its_per_spec_loop(overrides):
    config, runs = plan_config(overrides)
    campaign = Campaign(config)
    specs = campaign.plan()
    if runs != range(config.runs_per_structure):
        # a range plan is the slice of the whole plan, to the byte
        ranged, _ = campaign._plan({
            (kernel, structure): runs for kernel in campaign.profile.kernels
            for structure in config.resolved_structures()})
        assert pickle.dumps(ranged) == pickle.dumps(
            [spec for spec in specs if spec.run_index in runs])
        specs = ranged
    prescreener = (campaign.prescreener() if config.early_stop == "full"
                   else None)
    assert len({spec.key for spec in specs}) == len(specs) == (
        len(runs) * len(config.resolved_structures())
        * len(campaign.profile.kernels))
    for spec in specs:
        assert spec.seed == derive_run_seed(
            config.seed, spec.kernel, spec.structure, spec.run_index,
            config.resolved_model().seed_model)
        reason, site, mask = None, "", None
        if prescreener is not None and not spec.synthesized:
            mask = regenerate_mask(spec)
            verdict = prescreener.evaluate(mask, spec.regs_per_thread,
                                           spec.smem_bytes, spec.local_bytes)
            reason = verdict.reason
            if reason and config.propagation:
                site = json.dumps(
                    {"cycle": mask.cycle,
                     "sites": [s.record(fate) for s, fate
                               in zip(verdict.sites, verdict.fates)]},
                    sort_keys=True)
        assert (spec.prescreened, spec.prescreen_reason or None,
                spec.prescreen_site, spec.mask) == (bool(reason), reason,
                                                    site, mask)


@pytest.mark.parametrize("overrides", PLANS, ids=lambda o: o["benchmark"])
def test_a_stamped_spec_is_the_spec_init_builds(overrides):
    specs = Campaign(plan_config(overrides)[0]).plan()
    for spec in specs:
        for stamped, built in (
                (spec, RunSpec(**vars(spec))),
                (stamp(vars(spec), stratum="lo:short"),
                 dataclasses.replace(spec, stratum="lo:short"))):
            assert stamped == built and hash(stamped) == hash(built)
            assert pickle.dumps(stamped) == pickle.dumps(built)
            assert spec_to_wire(stamped) == spec_to_wire(built)
    # one pickle of the whole plan, with its shared objects
    assert pickle.dumps(specs) == pickle.dumps(
        [RunSpec(**vars(spec)) for spec in specs])


def test_a_stamp_names_every_field_and_only_fields():
    spec = Campaign(CampaignConfig(**dict(UNKNOWN, kernels=None))).plan()[0]
    fields = vars(spec)
    with pytest.raises(AssertionError):
        stamp({name: fields[name] for name in reversed(fields)})
    with pytest.raises(AssertionError):
        stamp({name: value for name, value in fields.items()
               if name != "stratum"})
    with pytest.raises(AssertionError):
        stamp(fields, strata="lo:short")


def test_a_spec_has_nothing_init_would_run_after_the_fields():
    # stamp() skips __init__: a __post_init__ would be skipped with it
    assert not hasattr(RunSpec, "__post_init__")


def test_a_plan_asks_the_trace_each_question_once_per_cycle(monkeypatch):
    asked = collections.Counter()

    def spying(question):
        real = getattr(LivenessTrace, question)

        def spy(trace, cycle):
            asked[question, cycle] += 1
            return real(trace, cycle)
        return spy

    for question in ("live_warps", "live_smem_ctas", "busy_cores"):
        monkeypatch.setattr(LivenessTrace, question, spying(question))
    config = CampaignConfig(
        benchmark="vectoradd", card="RTX2060", runs_per_structure=96,
        structures=(Structure.REGISTER_FILE, Structure.L1T_CACHE), seed=4)
    campaign = Campaign(config)
    specs = campaign.plan()
    assert max(asked.values()) == 1
    assert sum(asked.values()) < len(specs)  # cycles repeat at R = 96
    trace = campaign.golden_run(traced=True).liveness
    assert pickle.loads(pickle.dumps(trace)) == trace


def test_plans_in_threads_at_once_agree():
    config = CampaignConfig(benchmark="pathfinder", card="RTX2060",
                            runs_per_structure=100, seed=3)
    golden = Campaign(config).golden_run(traced=True)
    alone = Campaign(config, golden=golden).plan()
    plans = [None] * 4

    def plan(i):
        plans[i] = Campaign(config, golden=golden).plan()

    threads = [threading.Thread(target=plan, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the plans draw by draw
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert all(dataclasses.astuple(a) == dataclasses.astuple(b)
               for p in plans for a, b in zip(p, alone))
    assert all(len(p) == len(alone) for p in plans)


UNKNOWN = dict(benchmark="vectoradd", card="RTX2060", kernels=("nope",),
               runs_per_structure=2, seed=1)


def test_an_unknown_kernel_is_named_before_any_spec():
    with pytest.raises(ValueError, match="no kernel nope.*vectorAdd"):
        Campaign(CampaignConfig(**UNKNOWN)).plan()


def test_a_submit_of_an_unknown_kernel_is_refused(tmp_path):
    dispatcher = Dispatcher(log_dir=tmp_path)
    with pytest.raises(ValueError, match="no kernel nope.*vectorAdd"):
        dispatcher.submit(dump_config(CampaignConfig(**UNKNOWN)))
    assert not list(tmp_path.glob("*.jsonl"))
