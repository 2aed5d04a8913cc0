"""Fault-propagation tracing: site fates, consumer chains, divergence
localization, explain-run, and the bit-identical-classification bar."""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config, parse_config_text
from repro.faults.injector import Injector
from repro.faults.mask import FaultMask
from repro.faults.parser import count_unapplied, load_records
from repro.faults.sites import Site
from repro.faults.targets import Structure
from repro.obs.propagation import (PropagationTracer, explain_record,
                                   prescreen_propagation,
                                   summarize_propagation,
                                   synthesized_propagation)


# -- fakes for unit-level tracer tests ------------------------------------

class FakeKernel:
    name = "fake_kernel"


class FakeLaunch:
    kernel = FakeKernel()


class FakeCta:
    launch = FakeLaunch()


class FakeWarp:
    def __init__(self, age=5, lanes=32):
        self.age = age
        self.cta = FakeCta()
        self._live = np.arange(lanes)

    def live_lanes(self):
        return self._live


class FakeInst:
    """An instruction and its own issue plan."""

    def __init__(self, srcs=(), dsts=(), pc=10, text="OP"):
        self.inst = self
        self.src_regs, self.dst_regs = tuple(srcs), tuple(dsts)
        self.pc = pc
        self.text = text

    def __str__(self):
        return self.text


def full_mask(lanes=32):
    return np.ones(lanes, dtype=bool)


def register_site(warp_age, lanes, register=7, core=0):
    return Site("register", register, core=core, age=warp_age, lanes=lanes)


class TestRegisterFates:
    def test_read_consumes(self):
        tracer = PropagationTracer(injection_cycle=100)
        warp = FakeWarp()
        tracer.watch(register_site(warp.age, (0, 1)))
        tracer.on_issue(0, warp, FakeInst(srcs=(7,), dsts=(9,), pc=12,
                                          text="IADD R9, R7, R3"),
                        full_mask(), now=140)
        site = tracer.finalize()["sites"][0]
        assert site["fate"] == "consumed"
        assert site["fate_cycle"] == 140
        assert site["pc"] == 12
        assert site["kernel"] == "fake_kernel"
        chain = tracer.finalize()["consumers"]
        assert chain[0]["inst"] == "IADD R9, R7, R3"

    def test_full_overwrite_before_read(self):
        tracer = PropagationTracer(injection_cycle=100)
        warp = FakeWarp()
        tracer.watch(register_site(warp.age, (3, 4)))
        tracer.on_issue(0, warp, FakeInst(dsts=(7,)), full_mask(), now=120)
        site = tracer.finalize()["sites"][0]
        assert site["fate"] == "overwritten"
        assert site["fate_cycle"] == 120
        # later reads of the clean register must not consume
        tracer.on_issue(0, warp, FakeInst(srcs=(7,)), full_mask(), now=130)
        assert tracer.finalize()["sites"][0]["fate"] == "overwritten"
        assert not tracer.finalize()["consumers"]

    def test_partial_overwrite_then_read_consumes(self):
        tracer = PropagationTracer(injection_cycle=100)
        warp = FakeWarp()
        tracer.watch(register_site(warp.age, (0, 1)))
        partial = np.zeros(32, dtype=bool)
        partial[0] = True  # overwrites lane 0 only; lane 1 still dirty
        tracer.on_issue(0, warp, FakeInst(dsts=(7,)), partial, now=120)
        assert tracer.finalize()["sites"][0]["fate"] == "never_touched"
        tracer.on_issue(0, warp, FakeInst(srcs=(7,)), full_mask(), now=130)
        assert tracer.finalize()["sites"][0]["fate"] == "consumed"

    def test_untouched_site_stays_never_touched(self):
        tracer = PropagationTracer(injection_cycle=100)
        warp = FakeWarp()
        tracer.watch(register_site(warp.age, (0,)))
        tracer.on_issue(0, warp, FakeInst(srcs=(3,), dsts=(4,)),
                        full_mask(), now=110)
        site = tracer.finalize()["sites"][0]
        assert site["fate"] == "never_touched"
        assert site["fate_cycle"] is None

    def test_other_warp_not_confused(self):
        tracer = PropagationTracer(injection_cycle=100)
        tracer.watch(register_site(5, (0,)))
        other = FakeWarp(age=6)
        tracer.on_issue(0, other, FakeInst(srcs=(7,)), full_mask(), now=110)
        assert tracer.finalize()["sites"][0]["fate"] == "never_touched"


class TestTaintChain:
    def test_derived_values_extend_chain(self):
        tracer = PropagationTracer(injection_cycle=100)
        warp = FakeWarp()
        tracer.watch(register_site(warp.age, (0,)))
        tracer.on_issue(0, warp, FakeInst(srcs=(7,), dsts=(9,), text="A"),
                        full_mask(), now=110)
        # R9 is now tainted: reading it chains even though R7 is gone
        tracer.on_issue(0, warp, FakeInst(srcs=(9,), dsts=(11,), text="B"),
                        full_mask(), now=120)
        chain = [c["inst"] for c in tracer.finalize()["consumers"]]
        assert chain == ["A", "B"]

    def test_clean_full_write_launders(self):
        tracer = PropagationTracer(injection_cycle=100)
        warp = FakeWarp()
        tracer.watch(register_site(warp.age, (0,)))
        tracer.on_issue(0, warp, FakeInst(srcs=(7,), dsts=(9,), text="A"),
                        full_mask(), now=110)
        # clean full-coverage write to R9: taint is laundered
        tracer.on_issue(0, warp, FakeInst(srcs=(3,), dsts=(9,), text="MOV"),
                        full_mask(), now=120)
        tracer.on_issue(0, warp, FakeInst(srcs=(9,), dsts=(11,), text="C"),
                        full_mask(), now=130)
        chain = [c["inst"] for c in tracer.finalize()["consumers"]]
        assert chain == ["A"]

    def test_chain_is_bounded(self):
        tracer = PropagationTracer(injection_cycle=100, max_consumers=2)
        warp = FakeWarp()
        tracer.watch(register_site(warp.age, (0,)))
        tracer.on_issue(0, warp, FakeInst(srcs=(7,), dsts=(9,)),
                        full_mask(), now=110)
        for i in range(5):
            tracer.on_issue(0, warp, FakeInst(srcs=(9,), dsts=(9,)),
                            full_mask(), now=120 + i)
        record = tracer.finalize()
        assert len(record["consumers"]) == 2
        assert record["consumers_dropped"] == 4


class TestDivergenceObserver:
    def test_window_brackets_first_mismatch(self):
        tracer = PropagationTracer(injection_cycle=100)
        tracer.on_digest_check(150, True)
        tracer.on_digest_check(200, False)
        tracer.on_digest_check(250, False)
        record = tracer.finalize()
        assert record["diverged_window"] == [150, 200]
        assert record["digest_checks"] == 3

    def test_no_checkpoint_after_injection(self):
        tracer = PropagationTracer(injection_cycle=100)
        record = tracer.finalize()
        assert record["diverged_window"] is None
        assert record["digest_checks"] == 0

    def test_converged_run_records_cycle(self):
        tracer = PropagationTracer(injection_cycle=100)
        tracer.on_digest_check(150, True)
        record = tracer.finalize()
        assert record["converged_at"] == 150
        assert record["diverged_window"] is None

    def test_window_floor_is_injection_cycle(self):
        tracer = PropagationTracer(injection_cycle=100)
        tracer.on_digest_check(150, False)
        assert tracer.finalize()["diverged_window"] == [100, 150]

    def test_host_divergence_flag(self):
        tracer = PropagationTracer(injection_cycle=100)
        tracer.on_host_divergence()
        assert tracer.finalize()["host_read_diverged"] is True

    def test_names_the_part_at_the_first_and_the_last_mismatch(self):
        tracer = PropagationTracer(injection_cycle=100)
        tracer.on_digest_check(200, False, "c3.cta0.w2")
        tracer.on_digest_check(250, False, "c3.cta0.w2")
        tracer.on_digest_check(300, False, "l2")
        record = tracer.finalize()
        assert record["differs_in"] == {"first": "c3.cta0.w2", "last": "l2"}
        text = explain_record({"propagation": record})
        assert ("state diverged in window [100, 200], first in c3.cta0.w2; "
                "still differing in l2 at the last check (3 checks)") in text

    def test_a_run_that_converged_is_not_still_differing(self):
        tracer = PropagationTracer(injection_cycle=100)
        tracer.on_digest_check(150, False, "l2")
        tracer.on_digest_check(200, True)
        record = tracer.finalize()
        assert record["differs_in"] == {"first": "l2", "last": "l2"}
        text = explain_record({"propagation": record})
        assert "first in l2 (2 checks)" in text and "still" not in text

    def test_without_a_mismatch_the_record_keeps_its_keys(self):
        """Records of campaigns without a witness are pinned byte for
        byte (``tests/data/golden_sites.jsonl``)."""
        for tracer in (PropagationTracer(100), PropagationTracer(100)):
            tracer.on_digest_check(150, True)
            assert "differs_in" not in tracer.finalize()
        old = {"diverged_window": [100, 150], "digest_checks": 1}
        assert "state diverged in window [100, 150] (1 checks)" in \
            explain_record({"propagation": old})


class TestPrescreenShaping:
    """A pre-screened run's sites are ``Site.record(fate)`` -- the
    shape a traced site has before anything happens to it."""

    UNTRACED = {"fate_cycle": None, "pc": None, "kernel": None,
                "events": []}

    def test_register_site_names_its_lanes(self):
        site = Site("register", 7, core=2, age=3, lanes=(20,))
        assert site.record("overwritten") == {
            "kind": "register", "core": 2, "warp_age": 3, "register": 7,
            "lanes": [20], "fate": "overwritten", **self.UNTRACED}

    def test_shared_site(self):
        record = Site("shared", 5, core=0, age=8, cta=(1, 0, 0)).record()
        assert record == {"kind": "shared", "core": 0, "cta": [1, 0, 0],
                          "word": 5, "fate": "never_touched",
                          **self.UNTRACED}

    def test_local_site(self):
        record = Site("local", 9, core=0, age=1, lanes=(3,)).record(
            "overwritten")
        assert record["kind"] == "local"
        assert (record["word"], record["lanes"]) == (9, [3])

    def test_cache_site_says_what_the_line_was(self):
        site = Site("cache", 4, core=1, cache="L1D.1", valid=False,
                    mode="hook")
        assert site.record() == {
            "kind": "cache", "cache": "L1D.1", "line": 4, "mode": "hook",
            "valid": False, "fate": "never_touched", **self.UNTRACED}

    def test_control_site(self):
        record = Site("control", 2, core=0, age=6,
                      unit="simt_stack").record("consumed")
        assert (record["unit"], record["index"]) == ("simt_stack", 2)

    def test_persistent_site_counts_reads(self):
        record = Site("register", 1, core=0, age=0, lanes=(0,)).record(
            persistent=True)
        assert record["persistent"] is True and record["reads"] == 0

    def test_traced_site_is_the_same_shape(self):
        site = register_site(5, (0, 1))
        tracer = PropagationTracer(injection_cycle=100)
        tracer.watch(site)
        assert tracer.finalize()["sites"] == [site.record()]

    def test_prescreen_record_roundtrip(self):
        payload = json.dumps({"cycle": 42, "sites": [
            Site("register", 1, core=0, age=0, lanes=(4,)).record(
                "overwritten")]}, sort_keys=True)
        record = prescreen_propagation(payload)
        assert record["source"] == "prescreen"
        assert record["injection_cycle"] == 42
        assert record["sites"][0]["fate"] == "overwritten"
        assert record["sites"][0]["lanes"] == [4]
        # empty payload (no plan-time fate available) degrades
        assert prescreen_propagation("")["sites"] == []


def strip_propagation(records):
    return [{k: v for k, v in r.items() if k != "propagation"}
            for r in records]


def make_config(**overrides):
    kwargs = dict(benchmark="vectoradd", card="RTX2060",
                  structures=(Structure.REGISTER_FILE,),
                  runs_per_structure=5, seed=11)
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


class TestCampaignParity:
    """The acceptance bar: classification is bit-identical with
    --propagation on/off, at any --jobs, with checkpointing and
    --early-stop full."""

    def _run(self, tmp_path, tag, jobs, propagation):
        config = make_config(log_path=tmp_path / f"{tag}.jsonl",
                             checkpoint_dir=tmp_path / "ckpt",
                             early_stop="full", propagation=propagation)
        return Campaign(config).run(jobs=jobs)

    def test_bit_identical_classification(self, tmp_path):
        base = self._run(tmp_path, "off", jobs=1, propagation=False)
        on1 = self._run(tmp_path, "on1", jobs=1, propagation=True)
        on2 = self._run(tmp_path, "on2", jobs=2, propagation=True)
        want = json.dumps(base.records)
        assert json.dumps(strip_propagation(on1.records)) == want
        assert json.dumps(strip_propagation(on2.records)) == want
        # and the full propagation-bearing records are jobs-independent
        assert json.dumps(on1.records) == json.dumps(on2.records)

    def test_every_record_carries_propagation(self, tmp_path):
        result = self._run(tmp_path, "all", jobs=1, propagation=True)
        for record in result.records:
            prop = record["propagation"]
            assert prop["schema"] == 1
            assert prop["source"] in ("trace", "prescreen", "synthesized")
            if record.get("prescreened"):
                assert prop["source"] == "prescreen"
                assert prop["sites"], "prescreened runs carry their site"

    def test_off_by_default(self, tmp_path):
        result = self._run(tmp_path, "default", jobs=1, propagation=False)
        assert all("propagation" not in r for r in result.records)

    def test_sidecar_section_jobs_independent(self, tmp_path):
        for tag, jobs in (("j1", 1), ("j2", 2)):
            config = make_config(log_path=tmp_path / f"{tag}.jsonl",
                                 checkpoint_dir=tmp_path / "ckpt",
                                 early_stop="full", propagation=True,
                                 metrics=True)
            Campaign(config).run(jobs=jobs)
        side1 = json.loads(
            (tmp_path / "j1.jsonl.metrics.json").read_text())
        side2 = json.loads(
            (tmp_path / "j2.jsonl.metrics.json").read_text())
        assert (json.dumps(side1["propagation"], sort_keys=True)
                == json.dumps(side2["propagation"], sort_keys=True))
        assert side1["propagation"]["runs"] == 5


class TestOneGoldenWitness:
    """Divergence localization hears from the run's golden witness
    under every ``early_stop`` mode, so what a traced run reports does
    not depend on the mode -- apart from the runs the mode ended."""

    @pytest.mark.parametrize("app, runs", [("vectoradd", 40),
                                           ("pathfinder", 12)])
    def test_payload_is_the_same_off_and_converge(self, tmp_path, app,
                                                  runs):
        def records(early_stop):
            config = make_config(
                benchmark=app, runs_per_structure=runs,
                structures=(Structure.REGISTER_FILE,), propagation=True,
                checkpoint_dir=tmp_path / "ckpt", checkpoint_interval=50,
                early_stop=early_stop)
            return Campaign(config).run().records

        full, stopped = records("off"), records("converge")
        compared = 0
        for ran, ended in zip(full, stopped):
            assert "terminated_at" not in ran
            if "terminated_at" not in ended:
                # fails at the parent on every SDC: only a monitor
                # heard of host reads, so ``host_read_diverged`` was
                # false under "off" and true under "converge"
                assert ran["propagation"] == ended["propagation"]
                compared += 1
        assert 0 < compared < len(full)
        assert any(r["propagation"]["host_read_diverged"] for r in full)


class TestSummarize:
    def test_no_propagation_records(self):
        assert summarize_propagation([{"effect": "Masked"}]) is None

    def test_fate_breakdown_and_percentiles(self):
        records = [
            {"effect": "SDC", "structure": "register_file",
             "propagation": {"source": "trace", "injection_cycle": 100,
                             "sites": [{"fate": "consumed",
                                        "fate_cycle": 140}],
                             "diverged_window": [100, 160]}},
            {"effect": "Masked", "structure": "register_file",
             "propagation": {"source": "trace", "injection_cycle": 100,
                             "sites": [{"fate": "overwritten",
                                        "fate_cycle": 120}],
                             "diverged_window": None}},
            {"effect": "Masked", "structure": "l2_cache",
             "propagation": {"source": "prescreen", "injection_cycle": 50,
                             "sites": [], "diverged_window": None}},
        ]
        summary = summarize_propagation(records)
        assert summary["runs"] == 3
        assert summary["sources"] == {"prescreen": 1, "trace": 2}
        assert summary["fates"]["register_file"] == {"consumed": 1,
                                                     "overwritten": 1}
        # a siteless record counts once as never_touched
        assert summary["fates"]["l2_cache"] == {"never_touched": 1}
        ttr = summary["time_to_first_read_cycles"]
        assert ttr["count"] == 1 and ttr["p50"] == 40
        ttf = summary["time_to_failure_cycles"]
        assert ttf["count"] == 1 and ttf["max"] == 60
        sdc = summary["sdc"]
        assert sdc["total"] == 1
        assert sdc["site_consumed"] == 1
        assert sdc["consumed_fraction"] == 1.0


@pytest.fixture(scope="module")
def effect_log(tmp_path_factory):
    """One campaign log containing Masked, SDC and Crash records with
    propagation traces (seed chosen to produce all three)."""
    tmp = tmp_path_factory.mktemp("explain")
    config = CampaignConfig(
        benchmark="vectoradd", card="RTX2060",
        structures=(Structure.REGISTER_FILE,), runs_per_structure=10,
        seed=5, bits_per_fault=3, propagation=True,
        log_path=tmp / "camp.jsonl", early_stop="off")
    result = Campaign(config).run(jobs=2)
    effects = {r["effect"] for r in result.records}
    assert {"Masked", "SDC", "Crash"} <= effects
    return tmp / "camp.jsonl"


class TestExplainRun:
    def _key_for(self, log, effect):
        record = next(r for r in load_records(log)
                      if r["effect"] == effect)
        return (f"{record['kernel']}/{record['structure']}"
                f"/{record['run']}"), record

    @pytest.mark.parametrize("effect", ["SDC", "Masked", "Crash"])
    def test_narrates_each_effect(self, effect_log, capsys, effect):
        key, record = self._key_for(effect_log, effect)
        assert cli_main(["explain-run", str(effect_log), key]) == 0
        out = capsys.readouterr().out
        assert f": {effect}" in out
        assert "injection: cycle" in out
        assert "outcome:" in out

    def test_sdc_names_consumer_or_site(self, effect_log, capsys):
        key, record = self._key_for(effect_log, "SDC")
        cli_main(["explain-run", str(effect_log), key])
        out = capsys.readouterr().out
        assert "sites:" in out

    def test_missing_record_exits_nonzero(self, effect_log, capsys):
        assert cli_main(["explain-run", str(effect_log),
                         "nope/register_file/0"]) == 1
        assert "no record" in capsys.readouterr().err

    def test_malformed_key_rejected(self, effect_log, capsys):
        assert cli_main(["explain-run", str(effect_log), "garbage"]) == 2
        assert "run-key" in capsys.readouterr().err

    def test_record_without_propagation_degrades(self, capsys):
        text = explain_record({"kernel": "k", "structure": "register_file",
                               "run": 0, "effect": "Masked"})
        assert "--propagation" in text


class TestUnappliedInjections:
    def test_injector_flags_no_live_target(self):
        from repro.sim.cards import get_card
        from repro.sim.gpu import GPU

        gpu = GPU(get_card("RTX2060"))  # no launch: no live warps
        mask = FaultMask(Structure.REGISTER_FILE, cycle=0, entry_index=3,
                         bit_offsets=(0,))
        injector = Injector([mask])
        injector.apply_due(gpu, now=0)
        record = injector.log[0]
        assert record["target"] == "none"
        assert record["applied"] is False

    def test_applied_injection_flagged_true(self, tmp_path):
        config = make_config(runs_per_structure=2, early_stop="off",
                             log_path=tmp_path / "c.jsonl")
        result = Campaign(config).run()
        simulated = [r for r in result.records
                     if not r.get("synthesized")
                     and not r.get("prescreened")]
        assert simulated
        for record in simulated:
            for injection in record["injections"]:
                assert injection["applied"] == (
                    injection.get("target") != "none")

    def test_count_unapplied(self):
        records = [
            {"injections": [{"target": "warp", "applied": True}]},
            {"injections": [{"target": "none", "applied": False}]},
            {"injections": [{"target": "none"}]},  # pre-flag log
            {"injections": []},
            {},
        ]
        assert count_unapplied(records) == 2

    def test_report_shows_unapplied_tally(self, tmp_path, capsys):
        log = tmp_path / "c.jsonl"
        records = [
            {"kernel": "k", "structure": "register_file", "run": 0,
             "effect": "Masked",
             "injections": [{"target": "none", "applied": False}]},
            {"kernel": "k", "structure": "register_file", "run": 1,
             "effect": "SDC",
             "injections": [{"target": "warp", "applied": True}]},
        ]
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert cli_main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "unapplied injections: 1" in out


class TestConfigFile:
    def test_propagation_option_roundtrip(self):
        config = parse_config_text(
            "-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n"
            "-gpufi_propagation 1\n")
        assert config.propagation is True
        assert "-gpufi_propagation 1" in dump_config(config)
        config = parse_config_text(
            "-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n")
        assert config.propagation is False
