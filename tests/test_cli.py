"""The ``gpufi`` command-line front-end."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import Campaign
from repro.faults.parser import load_records
from repro.obs import events_path_for, read_events


class TestList:
    def test_lists_benchmarks_and_cards(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vectoradd" in out and "RTX2060" in out


class TestProfile:
    def test_profile_output(self, capsys):
        assert main(["profile", "--benchmark", "vectoradd",
                     "--card", "RTX2060"]) == 0
        out = capsys.readouterr().out
        assert "vectorAdd" in out and "occupancy" in out


class TestCampaign:
    def test_campaign_flags(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        assert main(["campaign", "--benchmark", "vectoradd",
                     "--structures", "register_file", "--runs", "5",
                     "--seed", "2", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "wAVF" in out and "FIT" in out
        assert log.exists()

    def test_campaign_config_file(self, capsys, tmp_path):
        config = tmp_path / "gpufi.config"
        config.write_text(
            "-gpufi_benchmark vectoradd\n"
            "-gpufi_card RTX2060\n"
            "-gpufi_components register_file\n"
            "-gpufi_runs 3\n")
        assert main(["campaign", "--config", str(config)]) == 0
        assert "register_file" in capsys.readouterr().out

    def test_campaign_requires_benchmark(self):
        with pytest.raises(SystemExit):
            main(["campaign"])

    @pytest.mark.parametrize("flags, message", [
        (["--kernels", "nope"],
         "vectoradd has no kernel nope; its kernels are vectorAdd"),
        (["--invocation", "7"],
         "kernel vectorAdd has 1 invocation(s); index 7 out of range"),
        (["--fault-model", "stuck_at_0", "--cache-hook-mode"],
         "fault model 'stuck_at_0' does not support cache_hook_mode")])
    def test_a_plan_error_is_one_line(self, tmp_path, flags, message):
        log = tmp_path / "log.jsonl"
        with pytest.raises(SystemExit) as exited:
            main(["campaign", "--benchmark", "vectoradd", "--runs", "2",
                  "--log", str(log), *flags])
        assert exited.value.code.startswith(f"error: {message}")
        assert not log.exists()

    def test_a_run_error_is_not_a_plan_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("a run went wrong")

        monkeypatch.setattr(Campaign, "execute", failing)
        with pytest.raises(ValueError, match="a run went wrong"):
            main(["campaign", "--benchmark", "vectoradd", "--structures",
                  "register_file", "--runs", "2"])


class TestReport:
    def test_report_from_log(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        main(["campaign", "--benchmark", "vectoradd", "--structures",
              "register_file", "--runs", "4", "--log", str(log)])
        capsys.readouterr()
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "vectorAdd" in out and "FR" in out


class TestMarkdownOutput:
    def test_campaign_markdown_report(self, capsys, tmp_path):
        report = tmp_path / "report.md"
        assert main(["campaign", "--benchmark", "vectoradd",
                     "--structures", "register_file", "--runs", "3",
                     "--markdown", str(report)]) == 0
        text = report.read_text()
        assert text.startswith("# gpuFI-4 campaign")
        assert "wAVF" in text


class TestSigtermDrainsTheCampaign:
    """SIGTERM takes the way out SIGINT has: the pool is torn down and
    the ledger closed, so what finished is kept whole and ``--resume``
    completes the campaign to the bytes of an uninterrupted one."""

    ARGS = ["--benchmark", "vectoradd", "--structures", "register_file",
            "--runs", "150", "--seed", "5", "--early-stop", "off"]

    def gpufi(self, *args):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in sys.path if p))
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", *self.ARGS,
             *args], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        log = tmp_path_factory.mktemp("whole") / "log.jsonl"
        assert self.gpufi("--log", str(log)).wait(timeout=300) == 0
        return canonical_log_text(load_records(log))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_then_resume(self, tmp_path, uninterrupted, jobs):
        log = tmp_path / "log.jsonl"
        flags = ["--jobs", str(jobs), "--metrics", "--log", str(log)]
        proc = self.gpufi(*flags)
        deadline = time.monotonic() + 120
        while not (log.exists() and log.read_bytes().count(b"\n") > 10):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 143, proc.stderr.read()

        lines = log.read_text().splitlines()
        done = [json.loads(line) for line in lines]  # no torn line
        assert 10 <= len(done) - 1 < 150
        end = read_events(events_path_for(log))[-1]
        assert (end["event"], end["complete"]) == ("campaign_end", False)

        assert self.gpufi(*flags, "--resume").wait(timeout=300) == 0
        assert canonical_log_text(load_records(log)) == uninterrupted
        assert read_events(events_path_for(log))[-1]["complete"] is True
