"""The campaign option table (``repro.faults.options``): one
declaration per option, every surface derived from it.

Generated over the table, so an option added to ``CampaignConfig`` is
covered (or, for the fingerprint matrix, demands its alternate value)
without editing a test per surface.
"""

import argparse
import dataclasses
import os
import re
import subprocess
import sys
from dataclasses import MISSING
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _build_parser, _config_from_args
from repro.cli import main as cli_main
from repro.dist.server import Dispatcher
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config, parse_config_text
from repro.faults.executor import (format_log_header, plan_fingerprint,
                                   regenerate_mask)
from repro.faults.mask import MultiBitMode
from repro.faults.models import model_names
from repro.faults.options import KEY_PREFIX, OPTIONS, _text_form
from repro.faults.parser import combine_records, load_records
from repro.faults.targets import Structure
from repro.sim.cards import CARDS

REPO = Path(__file__).resolve().parent.parent

#: The 25 ``-gpufi_*`` keys config files accept (a 26th,
#: ``cache_hook_mode``, is refused: it became the ``cache_hook`` model).
KEYS = {
    "benchmark", "card", "components", "fault_model", "runs",
    "bits_per_fault", "multibit_mode", "warp_level", "blocks", "cores",
    "kernels", "invocation", "seed", "scheduler", "model_icache", "log",
    "early_stop", "metrics", "propagation",
    "run_timeout", "backend", "backend_url", "batch", "adaptive",
    "error_target",
}


def render_option_reference() -> str:
    """The *Option reference* table of ``docs/campaigns.md``, derived
    from the option table."""
    def code(text) -> str:
        return f"`{text}`" if text else "—"

    lines = ["| field | flag | config key | default | group "
             "| in plan identity |",
             "|---|---|---|---|---|---|"]
    for option in OPTIONS.values():
        meta = option.metadata
        default = ("(required)" if option.default is MISSING
                   else "—" if option.default is None
                   else code(_text_form(option)[1](option.default)))
        lines.append(
            f"| `{option.name}` | {code(meta['flag'])} "
            f"| {code(meta['key'] and KEY_PREFIX + meta['key'])} "
            f"| {default} | {meta['group']} "
            f"| {'yes' if meta['identity'] else 'no'} |")
    return "\n".join(lines) + "\n"


def meta(name):
    return OPTIONS[name].metadata


# -- the table itself ---------------------------------------------------------


class TestTable:
    def test_every_field_is_a_declared_option(self):
        assert len(OPTIONS) == 29
        for name, option in OPTIONS.items():
            assert option.metadata, f"{name} is not declared with _option"
            assert meta(name)["group"] in (
                "card", "application", "campaign", "execution")

    def test_flags_and_keys_are_unique(self):
        flags = [meta(n)["flag"] for n in OPTIONS if meta(n)["flag"]]
        keys = [meta(n)["key"] for n in OPTIONS if meta(n)["key"]]
        assert len(flags) == len(set(flags)) == 27
        assert len(keys) == len(set(keys))
        assert set(keys) == KEYS

    def test_surfaces_an_option_is_deliberately_absent_from(self):
        assert [n for n in OPTIONS if not meta(n)["key"]] == [
            "checkpoint_dir", "checkpoint_interval", "verify_restore",
            "profile"]
        assert [n for n in OPTIONS if not meta(n)["flag"]] == [
            "n_blocks", "n_cores"]

    def test_submit_offers_everything_but_the_execution_group(self):
        commands = next(action for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        offered = {
            command: set(commands.choices[command]._option_string_actions)
            for command in ("campaign", "submit")}
        for name in OPTIONS:
            flag, group = meta(name)["flag"], meta(name)["group"]
            if flag is None:
                continue
            assert flag in offered["campaign"]
            if flag != "--connect":  # submit has a --connect of its own
                assert (flag in offered["submit"]) == (group != "execution")

    def test_option_reference_in_the_docs_is_current(self):
        text = (REPO / "docs" / "campaigns.md").read_text(encoding="utf-8")
        expected = render_option_reference()
        assert expected in text, (
            "docs/campaigns.md, section 'Option reference', is stale; "
            "replace its table with:\n\n" + expected)


# -- generated configs --------------------------------------------------------

WORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)


@st.composite
def configs(draw, flagged_only=False):
    """Valid configs over every option that has a ``-gpufi_`` key
    (``flagged_only``: and a flag); the others keep their defaults."""
    remote = draw(st.booleans())
    values = dict(
        benchmark=draw(st.sampled_from(["vectoradd", "pathfinder", "VA"])),
        card=draw(st.sampled_from(sorted(CARDS))),
        structures=draw(st.none() | st.lists(
            st.sampled_from(list(Structure)), min_size=1,
            max_size=3).map(tuple)),
        fault_model=draw(st.sampled_from(model_names())),
        runs_per_structure=draw(st.integers(1, 5000)),
        bits_per_fault=draw(st.integers(1, 4)),
        multibit_mode=draw(st.sampled_from(list(MultiBitMode))),
        warp_level=draw(st.booleans()),
        kernels=draw(st.none() | st.lists(WORDS, min_size=1,
                                          max_size=3).map(tuple)),
        invocation=draw(st.none() | st.integers(0, 9)),
        seed=draw(st.integers(0, 2 ** 63)),
        scheduler_policy=draw(st.sampled_from(["gto", "lrr"])),
        model_icache=draw(st.booleans()),
        early_stop=draw(st.sampled_from(["off", "converge", "full"])),
        metrics=draw(st.booleans()),
        propagation=draw(st.booleans()),
        run_timeout=draw(st.none() | st.floats(1e-3, 1e6)),
        adaptive="off" if remote else draw(st.sampled_from(["off", "on"])),
        error_target=draw(st.floats(1e-6, 0.999)),
        log_path=draw(st.none() | WORDS.map(
            lambda w: Path("logs") / f"{w}.jsonl")),
        batch=draw(st.integers(1, 64)),
        backend="remote" if remote else "local",
        backend_url=(draw(WORDS.map(lambda w: f"http://{w}:8937"))
                     if remote else None),
    )
    if not flagged_only:
        values.update(n_blocks=draw(st.integers(1, 4)),
                      n_cores=draw(st.integers(1, 4)))
    return CampaignConfig(**values)


def flags_of(config):
    """``config`` as command-line flags (what a user would type)."""
    argv = []
    for name in OPTIONS:
        flag, value = meta(name)["flag"], getattr(config, name)
        if flag is None or value is None or value is False:
            continue
        if value is True:
            argv.append(flag)
            continue
        if isinstance(value, tuple):
            value = ",".join(getattr(v, "value", v) for v in value)
        elif isinstance(value, MultiBitMode):
            value = value.value
        argv += [flag, repr(value) if isinstance(value, float)
                 else str(value)]
    return argv


def cli_config(argv):
    return _config_from_args(_build_parser().parse_args(["campaign"] + argv))


GENERATED = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestRoundTrip:
    @GENERATED
    @given(configs())
    def test_dump_then_parse_is_the_identity(self, config):
        assert parse_config_text(dump_config(config)) == config

    def test_error_target_survives_without_adaptive(self):
        # fails at the parent: written only next to -gpufi_adaptive 1
        config = CampaignConfig("vectoradd", "RTX2060", error_target=0.05)
        assert parse_config_text(dump_config(config)).error_target == 0.05

    def test_what_a_dispatcher_is_sent_has_no_execution_options(self):
        config = CampaignConfig(
            "vectoradd", "RTX2060", seed=3, log_path=Path("x.jsonl"),
            batch=8, backend="remote", backend_url="http://h:1")
        sent = parse_config_text(dump_config(config, execution=False))
        assert sent == CampaignConfig("vectoradd", "RTX2060", seed=3)

    def test_a_parent_era_dump_still_parses_to_the_same_config(self):
        # literally what PR 17's dump_config wrote (and what a running
        # dispatcher has persisted in <id>.campaign.json)
        text = ("-gpufi_benchmark pathfinder\n"
                "-gpufi_card QuadroGV100\n"
                "-gpufi_components register_file,l2_cache\n"
                "-gpufi_fault_model stuck_at_1\n"
                "-gpufi_runs 12\n"
                "-gpufi_bits_per_fault 3\n"
                "-gpufi_multibit_mode adjacent\n"
                "-gpufi_warp_level 1\n"
                "-gpufi_blocks 2\n"
                "-gpufi_cores 1\n"
                "-gpufi_seed 11\n"
                "-gpufi_scheduler lrr\n"
                "-gpufi_cache_hook_mode 0\n"
                "-gpufi_model_icache 1\n"
                "-gpufi_early_stop converge\n"
                "-gpufi_metrics 1\n"
                "-gpufi_propagation 0\n"
                "-gpufi_kernels dynproc_kernel\n"
                "-gpufi_invocation 2\n"
                "-gpufi_log runs/a.jsonl\n"
                "-gpufi_run_timeout 30\n"
                "-gpufi_batch 4\n"
                "-gpufi_adaptive 1\n"
                "-gpufi_error_target 0.05\n")
        # the hook switch is a fault model now: its key is refused by
        # name, and the rest parses as it always did
        with pytest.raises(ValueError, match=r"\['cache_hook_mode'\]"):
            parse_config_text(text)
        text = text.replace("-gpufi_cache_hook_mode 0\n", "")
        assert parse_config_text(text) == CampaignConfig(
            benchmark="pathfinder", card="QuadroGV100",
            structures=(Structure.REGISTER_FILE, Structure.L2_CACHE),
            fault_model="stuck_at_1", runs_per_structure=12,
            bits_per_fault=3, multibit_mode=MultiBitMode.ADJACENT,
            warp_level=True, n_blocks=2, n_cores=1, seed=11,
            scheduler_policy="lrr", model_icache=True,
            early_stop="converge", metrics=True,
            kernels=("dynproc_kernel",), invocation=2,
            log_path=Path("runs/a.jsonl"), run_timeout=30.0, batch=4,
            adaptive="on", error_target=0.05)

    def test_default_dump_is_the_historic_text(self):
        assert dump_config(CampaignConfig("vectoradd", "RTX2060")) == (
            "-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n"
            "-gpufi_fault_model transient\n-gpufi_runs 100\n"
            "-gpufi_bits_per_fault 1\n-gpufi_multibit_mode same_entry\n"
            "-gpufi_warp_level 0\n-gpufi_blocks 1\n-gpufi_cores 1\n"
            "-gpufi_seed 0\n-gpufi_scheduler gto\n"
            "-gpufi_model_icache 0\n"
            "-gpufi_early_stop full\n-gpufi_metrics 0\n"
            "-gpufi_propagation 0\n")


class TestFlagsFileAndBoth:
    """One rule: file values, overridden by every flag the user
    typed."""

    @GENERATED
    @given(configs(flagged_only=True), configs(flagged_only=True))
    def test_three_ways_to_say_it_build_equal_configs(self, tmp_path,
                                                      config, other):
        right = tmp_path / "right.config"
        right.write_text(dump_config(config))
        # a file that is wrong wherever a flag can put it right (a flag
        # cannot switch a boolean off or unset a value)
        wrong_values = {
            name: getattr(other, name) for name in OPTIONS
            if meta(name)["key"] and meta(name)["flag"]
            and getattr(config, name) not in (None, False)}
        wrong_values["adaptive"] = "off"  # valid with any backend
        wrong = tmp_path / "wrong.config"
        wrong.write_text(dump_config(
            dataclasses.replace(config, **wrong_values)))
        assert cli_config(flags_of(config)) == config
        assert cli_config(["--config", str(right)]) == config
        assert cli_config(["--config", str(wrong)]
                          + flags_of(config)) == config

    def test_every_flag_next_to_a_config_file_takes_effect(self, tmp_path):
        # fails at the parent for each of these flags: _plan_config
        # returned the file's config and dropped them
        path = tmp_path / "f.config"
        path.write_text("-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n"
                        "-gpufi_seed 1\n-gpufi_runs 99\n"
                        "-gpufi_early_stop full\n-gpufi_log wrong.jsonl\n")
        config = cli_config([
            "--config", str(path), "--log", "L.jsonl",
            "--checkpoint-dir", "D", "--early-stop", "off", "--seed", "3",
            "--runs", "10", "--verify-restore", "--model-icache",
            "--checkpoint-interval", "500", "--batch-size", "4",
            "--profile", "--structures", "register_file"])
        assert config == CampaignConfig(
            "vectoradd", "RTX2060", log_path=Path("L.jsonl"),
            checkpoint_dir=Path("D"), early_stop="off", seed=3,
            runs_per_structure=10, verify_restore=True,
            model_icache=True, checkpoint_interval=500, batch=4,
            profile=True, structures=(Structure.REGISTER_FILE,))

    def test_connect_implies_the_remote_backend(self, tmp_path):
        path = tmp_path / "f.config"
        path.write_text("-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n")
        for argv in (["--benchmark", "vectoradd"], ["--config", str(path)]):
            config = cli_config(argv + ["--connect", "http://h:1"])
            assert (config.backend, config.backend_url) == (
                "remote", "http://h:1")
        assert cli_config(["--benchmark", "vectoradd"]).card == "RTX2060"

    def test_resume_with_log_and_config_file_runs(self, tmp_path, capsys):
        # at the parent: "--resume needs --log (the file to resume from)"
        path = tmp_path / "f.config"
        path.write_text("-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n"
                        "-gpufi_components register_file\n-gpufi_runs 3\n")
        log = tmp_path / "log.jsonl"
        argv = ["campaign", "--config", str(path), "--log", str(log),
                "--seed", "5"]
        assert cli_main(argv) == 0
        first = load_records(log)
        assert cli_main(argv + ["--resume"]) == 0
        assert "resuming: 3 of 3" in capsys.readouterr().out
        assert load_records(log) == first and len(first) == 3


# -- campaign identity --------------------------------------------------------

RF_L2 = (Structure.REGISTER_FILE, Structure.L2_CACHE)


class TestPinnedIdentity:
    """Every log header and persisted dispatcher campaign out there
    carries fingerprints made this way: a change to them makes a
    resume refuse every older log."""

    def test_default_path(self):
        config = CampaignConfig("vectoradd", "RTX2060", structures=RF_L2,
                                runs_per_structure=3, seed=7)
        assert plan_fingerprint(Campaign(config).plan()) == (
            "c535002a4388c6b84772f52171188b44"
            "d40c9b90ddd01077b018ae25d5d681b0")

    def test_non_default_identity_fields(self):
        config = CampaignConfig(
            "vectoradd", "RTX2060", structures=RF_L2,
            runs_per_structure=3, seed=7, fault_model="stuck_at_1",
            bits_per_fault=3, scheduler_policy="lrr", early_stop="off")
        assert plan_fingerprint(Campaign(config).plan()) == (
            "7006cbfccbfe8139fbd9341ed89647a2"
            "f7acb3be2e56862ccdcbf0dbdc2c1865")


def plan_content(specs):
    """What a plan will inject: its run keys and their masks."""
    return sorted(
        (spec.key, None if spec.synthesized
         else sorted(regenerate_mask(spec).to_dict().items(), key=str))
        for spec in specs)


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    """``plan(**changes)`` -> (fingerprint, content, first spec) of
    the base pathfinder campaign with ``changes`` applied; golden runs
    are shared between the configurations that have the same one."""
    tmp = tmp_path_factory.mktemp("options")
    base = CampaignConfig("pathfinder", "RTX2060", structures=RF_L2,
                          runs_per_structure=2, seed=7, early_stop="off")
    goldens, memo = {}, {}

    def plan(**changes):
        key = repr(sorted(changes.items()))
        if key not in memo:
            config = dataclasses.replace(base, **changes)
            same_run = (config.benchmark, config.card,
                        config.scheduler_policy, config.model_icache)
            campaign = Campaign(config, golden=goldens.get(same_run))
            specs = campaign.plan()
            goldens.setdefault(same_run, campaign.golden_run())
            memo[key] = (plan_fingerprint(specs), plan_content(specs),
                         specs[0])
        return memo[key]

    plan.tmp = tmp
    return plan


#: Another valid value for every option (the base is in ``plans``).
ALTERNATES = {
    "benchmark": "vectoradd", "card": "GTXTitan",
    "structures": (Structure.REGISTER_FILE,), "fault_model": "stuck_at_1",
    "runs_per_structure": 3, "bits_per_fault": 2,
    "multibit_mode": MultiBitMode.ADJACENT, "warp_level": True,
    "n_blocks": 2, "n_cores": 2, "kernels": ("dynproc_kernel",),
    "invocation": 2, "seed": 8, "scheduler_policy": "lrr",
    "model_icache": True, "early_stop": "full",
    "metrics": True, "propagation": True, "run_timeout": 5.0,
    "adaptive": "on", "error_target": 0.05, "log_path": "log.jsonl",
    "checkpoint_dir": "ckpt", "checkpoint_interval": 400,
    "verify_restore": True, "batch": 4, "profile": True,
    "backend": "remote", "backend_url": "http://h:1",
}


def test_every_option_has_an_alternate():
    assert set(ALTERNATES) == set(OPTIONS)


@pytest.mark.parametrize("name", list(ALTERNATES))
def test_flipping_one_option_moves_the_fingerprint_iff_it_should(
        plans, name):
    value = ALTERNATES[name]
    if name in ("log_path", "checkpoint_dir"):
        value = plans.tmp / value
    base_fingerprint, base_content, _ = plans()
    fingerprint, content, spec = plans(**{name: value})
    if meta(name)["spec"]:
        # carried on every RunSpec, under the same name (paths as text)
        carried = getattr(spec, name)
        assert carried == (str(value) if isinstance(value, Path) else value)
    if meta(name)["group"] == "execution" or not meta(name)["identity"]:
        # how a campaign is run never changes what it is
        assert content == base_content
        assert fingerprint == base_fingerprint
    elif content != base_content:
        # the test that finds an identity hole: at the parent,
        # `invocation` changed every mask and not the fingerprint
        assert fingerprint != base_fingerprint


class TestInvocationIsIdentity:
    def configs(self):
        base = CampaignConfig("pathfinder", "RTX2060",
                              structures=(Structure.REGISTER_FILE,),
                              runs_per_structure=2, seed=7)
        return base, dataclasses.replace(base, invocation=2)

    def test_fingerprints_differ_and_unrestricted_is_unmoved(self, plans):
        assert plans(invocation=2)[0] != plans()[0] != plans(invocation=3)[0]
        assert plans(invocation=None)[:2] == plans()[:2]

    def test_dispatcher_does_not_join_the_two(self, tmp_path):
        dispatcher = Dispatcher(tmp_path)
        whole, restricted = self.configs()
        first = dispatcher.submit(dump_config(whole))
        second = dispatcher.submit(dump_config(restricted))
        assert not first["reused"] and not second["reused"]
        assert second["campaign"] != first["campaign"]
        assert dispatcher.submit(dump_config(restricted))["reused"]

    def test_their_logs_do_not_merge_without_force(self, tmp_path):
        logs = []
        for i, config in enumerate(self.configs()):
            logs.append(tmp_path / f"{i}.jsonl")
            logs[-1].write_text(
                format_log_header(Campaign(config).plan()))
        with pytest.raises(ValueError, match="different campaigns"):
            combine_records(logs)
        assert combine_records(logs, force=True) == []


def test_the_fleet_traces_propagation_when_the_campaign_says_so(tmp_path):
    # fails at the parent: only the local executor copied the option
    # onto its specs, so a submitted campaign's records had no traces
    config = CampaignConfig("vectoradd", "RTX2060", runs_per_structure=2,
                            structures=(Structure.REGISTER_FILE,),
                            propagation=True, early_stop="off")
    dispatcher = Dispatcher(tmp_path)
    dispatcher.submit(dump_config(config, execution=False))
    lease = dispatcher.lease("w")
    assert lease["specs"] and all(w["propagation"] for w in lease["specs"])


# -- the worker's entry point -------------------------------------------------


def test_worker_module_imports_neither_the_cli_nor_the_benchmarks(tmp_path):
    # the fleet starts workers with `python -m repro.dist.worker`; a
    # worker needs no kernel assembled to import the module and poll,
    # and an all-instant campaign never reaches one: the dispatcher
    # records its runs at submit
    from repro.dist.server import DispatcherServer

    config = CampaignConfig("vectoradd", "RTX2060", runs_per_structure=3,
                            structures=(Structure.SHARED_MEM,
                                        Structure.L1T_CACHE), metrics=True)
    dispatcher = Dispatcher(tmp_path)
    cid = dispatcher.submit(dump_config(config, execution=False))["campaign"]
    server = DispatcherServer(dispatcher, port=0).start()
    try:
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import runpy, sys\n"
             f"sys.argv[1:] = ['--connect', {server.url!r}, '--name', 'w',"
             " '--poll', '0.02', '--max-idle', '0.2']\n"
             "try:\n"
             "    runpy.run_module('repro.dist.worker', run_name='__main__')\n"
             "except SystemExit:\n"
             "    pass\n"
             "print([m for m in ('repro.cli', 'repro.bench') "
             "if m in sys.modules])"],
            capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")}).stdout
    finally:
        server.shutdown()
    records = dispatcher.records(cid)
    assert records["complete"] and len(records["records"]) == 6
    assert all((r["synthesized"] or r["prescreened"]) and r["worker"] is None
               for r in records["records"])
    assert loaded.splitlines()[-1] == "[]"


def test_the_cli_imports_the_fleet_only_for_fleet_commands():
    # `gpufi list` (and every local command) starts without the HTTP
    # fabric: repro.cli used to import repro.dist.worker, and with it
    # the whole repro.dist package, at start-up
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from repro.cli import main\n"
         "assert main(['list']) == 0\n"
         "print([m for m in ('repro.dist', 'repro.dist.server', "
         "'repro.dist.worker', 'http.server', 'http.client') "
         "if m in sys.modules])"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}).stdout
    assert loaded.splitlines()[-1] == "[]"
    # ...and the worker command still knows its arguments
    from repro.cli import _build_parser

    args = _build_parser("worker").parse_args(
        ["worker", "--connect", "http://127.0.0.1:9", "--name", "w"])
    assert (args.connect, args.name) == ("http://127.0.0.1:9", "w")


def test_documented_keys_exist():
    # every -gpufi_ key the docs mention is one the table declares
    for doc in ("docs/campaigns.md", "docs/distributed.md", "README.md"):
        text = (REPO / doc).read_text(encoding="utf-8")
        for key in re.findall(re.escape(KEY_PREFIX) + r"(\w+)", text):
            assert key in KEYS, f"{doc} mentions unknown {KEY_PREFIX}{key}"


#: ``(key, flag, text)`` of values that describe no campaign: each ran
#: no injection, injected nothing or died in a traceback, from the
#: command line and the config file alike, before the table refused it.
#: ``--checkpoint-interval`` has no key: it is a flag only.
MEANINGLESS = [
    ("runs", "--runs", "-3"), ("runs", "--runs", "0"),
    ("components", "--structures", ","), ("bits_per_fault", "--bits", "0"),
    ("blocks", None, "0"), ("cores", None, "0"), ("seed", "--seed", "-1"),
    ("run_timeout", "--run-timeout", "0"),
    (None, "--checkpoint-interval", "0"),
]


@pytest.mark.parametrize("key, flag, text", MEANINGLESS,
                         ids=[f"{f or k}={t}" for k, f, t in MEANINGLESS])
def test_a_meaningless_value_is_refused_on_every_surface(tmp_path, key,
                                                         flag, text):
    base = "-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n"
    line = f"{KEY_PREFIX}{key} {text}\n"
    path = tmp_path / "c.config"
    path.write_text(base + line)
    argvs = [["--config", str(path)]] if key else []
    if flag:
        argvs.append(["--benchmark", "vectoradd", flag, text,
                      "--checkpoint-dir", str(tmp_path / "ckpt")])
    for argv in argvs:
        with pytest.raises(SystemExit) as exited:
            cli_main(["campaign", "--log", str(tmp_path / "l.jsonl"), *argv])
        assert str(exited.value.code).startswith("error: "), argv
        assert not (tmp_path / "l.jsonl").exists()
    if key:  # an execution option is not the dispatcher's to be sent
        with pytest.raises(ValueError, match="must"):
            Dispatcher(log_dir=tmp_path / "server").submit(base + line)
