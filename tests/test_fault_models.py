"""FaultModel strategy API: registry, stuck-at persistence, control units.

Covers the redesigned injection interface:

- the model registry and the unified ``fault_model`` surface (CLI flag,
  config file option, :class:`CampaignConfig` field),
- byte-identity of transient campaigns against a pre-refactor golden
  log (``tests/data/golden_transient_vectoradd.jsonl``),
- stuck-at persistence (re-assertion after overwrite) and its
  soundness interactions with liveness pre-screening,
- the control-unit structures (SIMT stack, scoreboard) end to end.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.faults import models as models_mod
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config, parse_config_text
from repro.faults.injector import Injector
from repro.faults.mask import FaultMask
from repro.faults.models import (FaultModel, get_model, model_names,
                                 register_model)
from repro.faults.campaign import aggregate_counts
from repro.faults.parser import load_records, split_by_model
from repro.faults.targets import CONTROL_STRUCTURES, Structure, chip_bits
from repro.sim.cards import get_card
from repro.sim.device import Device, RunOptions
from repro.sim.kernel import Kernel

GOLDEN = Path(__file__).parent / "data" / "golden_transient_vectoradd.jsonl"

# R10 is rewritten on every loop iteration, so a *transient* flip in it
# mid-loop is dead-on-arrival (liveness calls the site dead), while a
# *stuck-at* fault re-asserts after each MOV and survives to the store
OVERWRITE = Kernel("overwrite_spin", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    MOV R11, 0
loop:
    MOV R10, 0x5555
    IADD R11, R11, 1
    ISETP.LT.AND P0, PT, R11, 200, PT
@P0 BRA loop
    STG [R9], R10
    EXIT
""", num_params=1)


def small_campaign(tmp_path=None, **overrides):
    kwargs = dict(benchmark="vectoradd", card="RTX2060",
                  structures=(Structure.REGISTER_FILE,),
                  runs_per_structure=3, seed=3, early_stop="full")
    kwargs.update(overrides)
    if tmp_path is not None:
        kwargs["log_path"] = tmp_path / "log.jsonl"
    return CampaignConfig(**kwargs)


def run_overwrite(model, bits=(0, 2)):
    mask = FaultMask(structure=Structure.REGISTER_FILE, cycle=250,
                     entry_index=10, bit_offsets=bits, seed=42,
                     warp_level=True, fault_model=model)
    injector = Injector([mask])
    dev = Device("RTX2060", RunOptions(injector=injector))
    out = dev.malloc(4 * 32)
    dev.launch(OVERWRITE, grid=1, block=32, params=[out])
    return injector, dev.read_array(out, (32,), np.uint32)


class TestRegistry:
    def test_builtin_models_registered(self):
        assert {"transient", "stuck_at_0", "stuck_at_1",
                "control"} <= set(model_names())

    def test_unknown_model_lists_registered(self):
        with pytest.raises(ValueError, match="unknown fault model 'nope'"):
            get_model("nope")
        with pytest.raises(ValueError, match="transient"):
            get_model("nope")

    def test_register_custom_model(self):
        class Sticky(FaultModel):
            name = "sticky_test"
            persistent = True

        try:
            register_model(Sticky)
            assert get_model("sticky_test") is Sticky
            assert "sticky_test" in model_names()
        finally:
            models_mod._REGISTRY.pop("sticky_test", None)

    def test_model_semantics(self):
        assert get_model("stuck_at_0").apply_word(0b1111, 0b0101) == 0b1010
        assert get_model("stuck_at_1").apply_word(0b0000, 0b0101) == 0b0101
        assert get_model("transient").apply_word(0b1100, 0b0101) == 0b1001
        assert get_model("stuck_at_0").cache_op == "clear"
        assert get_model("stuck_at_1").cache_op == "set"
        assert get_model("transient").cache_op == "xor"


class TestGoldenByteIdentity:
    """Transient campaigns must be byte-identical to the pre-refactor
    schema: same records, same key order, no ``fault_model`` noise."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_pre_refactor_golden(self, tmp_path, jobs):
        golden = open(GOLDEN, encoding="utf-8").read().splitlines()
        cfg = CampaignConfig(
            benchmark="vectoradd", card="RTX2060",
            structures=(Structure.REGISTER_FILE, Structure.SHARED_MEM,
                        Structure.L2_CACHE),
            runs_per_structure=4, seed=7, bits_per_fault=3,
            checkpoint_dir=tmp_path / "ckpt", early_stop="full")
        campaign = Campaign(cfg)
        records = campaign.execute(campaign.plan(), jobs=jobs)
        assert [json.dumps(r) for r in records] == golden

    def test_golden_exercises_the_interesting_paths(self):
        records = load_records(GOLDEN)
        assert len(records) == 12
        assert any(r["prescreened"] for r in records)
        assert any(r["effect"] == "Crash" for r in records)
        assert all("fault_model" not in r for r in records)


class TestUnifiedSurface:
    """--fault-model, -gpufi_fault_model and CampaignConfig.fault_model
    are one option: same names, same plans, same rejection message."""

    def test_config_file_round_trip(self):
        cfg = small_campaign(fault_model="stuck_at_1")
        assert "-gpufi_fault_model stuck_at_1" in dump_config(cfg)
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_config_file_default_is_transient(self):
        cfg = parse_config_text("-gpufi_benchmark vectoradd\n"
                                "-gpufi_card RTX2060\n")
        assert cfg.fault_model == "transient"

    def test_identical_plans_across_surfaces(self):
        direct = small_campaign(fault_model="stuck_at_0")
        from_file = parse_config_text(dump_config(direct))
        assert Campaign(from_file).plan() == Campaign(direct).plan()

    def test_campaign_config_rejects_unknown(self):
        with pytest.raises(ValueError, match="registered models"):
            small_campaign(fault_model="nope")

    def test_config_file_rejects_unknown(self):
        with pytest.raises(ValueError, match="registered models"):
            parse_config_text("-gpufi_benchmark vectoradd\n"
                              "-gpufi_card RTX2060\n"
                              "-gpufi_fault_model nope\n")

    def test_cli_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["campaign", "--benchmark", "vectoradd",
                  "--card", "RTX2060", "--fault-model", "nope",
                  "--runs", "1"])
        assert "registered models" in str(err.value)

    def test_cli_flag_reaches_the_log(self, tmp_path):
        log = tmp_path / "log.jsonl"
        assert main(["campaign", "--benchmark", "vectoradd",
                     "--card", "RTX2060", "--structures", "register_file",
                     "--fault-model", "stuck_at_1", "--runs", "2",
                     "--seed", "3", "--log", str(log)]) == 0
        records = load_records(log)
        assert [r["fault_model"] for r in records] == ["stuck_at_1"] * 2
        assert all(r["mask"]["fault_model"] == "stuck_at_1"
                   for r in records)


class TestMaskRoundTrip:
    def test_fault_model_round_trips(self):
        mask = FaultMask(structure=Structure.REGISTER_FILE, cycle=10,
                         entry_index=2, bit_offsets=(1,), seed=5,
                         fault_model="stuck_at_0")
        again = FaultMask.from_dict(mask.to_dict())
        assert again == mask
        assert again.fault_model == "stuck_at_0"

    def test_transient_dict_has_no_fault_model_key(self):
        # byte-compat with pre-strategy logs: the default is elided
        mask = FaultMask(structure=Structure.REGISTER_FILE, cycle=10,
                         entry_index=2, bit_offsets=(1,), seed=5)
        assert "fault_model" not in mask.to_dict()

    def test_unknown_keys_survive_the_round_trip(self):
        payload = dict(structure="register_file", cycle=10, entry_index=2,
                       bit_offsets=[1], warp_level=False, n_blocks=1,
                       n_cores=1, seed=5, fault_model="stuck_at_1",
                       future_field="kept", vendor={"x": 1})
        mask = FaultMask.from_dict(payload)
        out = mask.to_dict()
        assert out["future_field"] == "kept"
        assert out["vendor"] == {"x": 1}
        assert out["fault_model"] == "stuck_at_1"


class TestStuckAtPersistence:
    def test_reasserted_after_overwrite(self):
        # liveness would call R10 dead at cycle 250 (rewritten before
        # any read), and indeed the transient flip vanishes -- but the
        # stuck-at fault re-asserts after every MOV and reaches the
        # store, so the "dead" site is NOT dead under stuck-at
        inj_t, out_t = run_overwrite("transient")
        assert (out_t == 0x5555).all()
        assert "reasserted" not in inj_t.log[0]

        inj_s, out_s = run_overwrite("stuck_at_0")
        assert (out_s == (0x5555 & ~0b101)).all()
        assert inj_s.log[0]["reasserted"] > 0

    def test_stuck_at_1_sets_bits(self):
        # bits 1 and 3 are clear in 0x5555, so every loop-iteration MOV
        # clears them again and the model must re-assert them
        inj, out = run_overwrite("stuck_at_1", bits=(1, 3))
        assert (out == (0x5555 | 0b1010)).all()
        assert inj.log[0]["reasserted"] > 0

    def test_prescreen_disabled_for_persistent_models(self, tmp_path):
        base = dict(tmp_path=None, runs_per_structure=4, seed=7,
                    bits_per_fault=3, checkpoint_dir=tmp_path / "ckpt")
        transient = Campaign(small_campaign(**base)).plan()
        assert any(s.prescreened for s in transient)
        stuck = Campaign(small_campaign(fault_model="stuck_at_0",
                                        **base)).plan()
        assert not any(s.prescreened for s in stuck)

    def test_cache_hook_mode_rejected_for_persistent(self):
        cfg = small_campaign(fault_model="stuck_at_1",
                             structures=(Structure.L2_CACHE,),
                             cache_hook_mode=True)
        with pytest.raises(ValueError, match="cache_hook_mode"):
            Campaign(cfg).plan()

    def test_end_to_end_with_report_breakdown(self, tmp_path, capsys):
        cfg = small_campaign(tmp_path, fault_model="stuck_at_1",
                             structures=(Structure.REGISTER_FILE,
                                         Structure.L2_CACHE))
        result = Campaign(cfg).run(jobs=2)
        records = load_records(tmp_path / "log.jsonl")
        assert len(records) == 6
        assert {r["fault_model"] for r in records} == {"stuck_at_1"}
        by_model = split_by_model(records)
        assert list(by_model) == ["stuck_at_1"]
        assert aggregate_counts(by_model["stuck_at_1"]) == result.counts
        assert main(["report", str(tmp_path / "log.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "fault model: stuck_at_1" in out


class TestControlStructures:
    def test_control_geometry(self):
        card = get_card("RTX2060")
        for structure in CONTROL_STRUCTURES:
            assert structure.is_control
            assert chip_bits(structure, card) > 0

    def test_control_model_defaults_to_control_structures(self):
        cfg = small_campaign(structures=None, fault_model="control")
        assert tuple(cfg.resolved_structures()) == CONTROL_STRUCTURES

    def test_end_to_end_deterministic(self, tmp_path):
        cfg = small_campaign(fault_model="control", structures=None,
                             runs_per_structure=3)
        a = Campaign(cfg).execute(Campaign(cfg).plan(), jobs=1)
        b = Campaign(cfg).execute(Campaign(cfg).plan(), jobs=2)
        assert a == b
        structures = {r["structure"] for r in a}
        assert structures == {"simt_stack", "scoreboard"}
        targets = {inj["target"] for r in a
                   for inj in r.get("injections") or ()}
        assert "warp" in targets

    def test_explain_run_narrates_control_site(self, tmp_path, capsys):
        cfg = small_campaign(tmp_path, fault_model="control",
                             structures=(Structure.SIMT_STACK,),
                             propagation=True)
        Campaign(cfg).run(jobs=1)
        assert main(["explain-run", str(tmp_path / "log.jsonl"),
                     "vectorAdd/simt_stack/0"]) == 0
        out = capsys.readouterr().out
        assert "fault model: control" in out

    def test_explain_run_narrates_persistent_fate(self, tmp_path, capsys):
        cfg = small_campaign(tmp_path, fault_model="stuck_at_1",
                             propagation=True)
        Campaign(cfg).run(jobs=1)
        assert main(["explain-run", str(tmp_path / "log.jsonl"),
                     "vectorAdd/register_file/0"]) == 0
        out = capsys.readouterr().out
        assert "fault model: stuck_at_1" in out
        assert "persists" in out
        assert "stuck" in out


class TestMixedModelAggregation:
    def test_transient_orders_first(self):
        records = [
            {"kernel": "k", "structure": "register_file",
             "effect": "Masked", "fault_model": "stuck_at_0"},
            {"kernel": "k", "structure": "register_file",
             "effect": "SDC"},
            {"kernel": "k", "structure": "register_file",
             "effect": "Crash", "fault_model": "control"},
        ]
        assert list(split_by_model(records)) == [
            "transient", "control", "stuck_at_0"]
