"""Runs rows of :mod:`tests.parity.test_table` (:class:`Session`) and their
checks (:class:`Checks`).  Local rows run ``repro.cli.main`` in this process;
a fleet is ``serve`` and two ``worker`` processes."""

import contextlib
import functools
import io
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.bench import benchmark_names, make_benchmark
from repro.cli import main
from repro.dist.client import DispatcherClient
from repro.faults.parser import load_records
from repro.obs import events_path_for, metrics_path_for, read_events
from repro.plan.driver import plan_path_for
from repro.sim.cards import get_card
from repro.sim.checkpoint import CheckpointStore, campaign_fingerprint
from tests.promlint import lint_prometheus, required_families_present

BENCHMARKS = tuple(benchmark_names())  # all twelve
WORKERS = ("w1", "w2")
#: config files (``{root}``: the session's directory): two CTAs and two
#: cores per mask have no flag; a campaign said in a file, and wrongly
SAID_FILE = "-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n" \
    "-gpufi_components register_file,shared_mem\n"
CONFIGS = dict(blocks2="-gpufi_benchmark pathfinder\n-gpufi_card RTX2060\n"
               "-gpufi_blocks 2\n-gpufi_cores 2\n",
               right=SAID_FILE + "-gpufi_runs 6\n-gpufi_seed 9\n"
               "-gpufi_early_stop converge\n",
               wrong=SAID_FILE + "-gpufi_runs 50\n-gpufi_seed 1\n"
               "-gpufi_early_stop full\n-gpufi_log {root}/wrong.jsonl\n")


def cli(*argv) -> str:
    """``gpufi argv`` in this process, which must succeed; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(arg) for arg in argv]) == 0, argv
    return out.getvalue()


def sample(text: str, name: str) -> float:
    return float(re.search(rf"^{name} (\S+)$", text, re.M).group(1))


def spawn(root: Path, name: str, *argv, pipe=False) -> subprocess.Popen:
    """``python -m repro.cli argv`` logging to ``<root>/<name>.log``."""
    with open(root / f"{name}.log", "a") as out:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *map(str, argv)],
            stdout=subprocess.PIPE if pipe else out, stderr=out, text=True)


class Session:
    """Runs each of ``rows`` (by id) once, after the rows it names.  A *how*
    runs the flags with ``log`` and returns what checks read besides."""

    def __init__(self, root: Path, rows: dict):
        self.root, self.rows = root, rows
        self.server, self.client, self.workers = None, None, []
        self.paths = dict(ckpt=root / "ckpt", cold=root / "cold")
        for name, text in CONFIGS.items():
            self.paths[name] = root / f"{name}.config"
            self.paths[name].write_text(text.format(root=root))

    @functools.lru_cache(maxsize=None)
    def run(self, row_id: str) -> dict:
        row = self.rows[row_id]
        for ref in row.refs():
            self.run(ref)
        log = self.root / f"{row.id}.jsonl"
        argv = f"{row.what} {row.where}".format(**self.paths).split()
        return {"log": log, **row.how(self, argv, log)}

    def jobs1(self, argv, log, jobs=1):
        cli("campaign", *argv, "--log", log, "--jobs", jobs)
        return {}

    jobs2 = functools.partialmethod(jobs1, jobs=2)

    def remote(self, argv, log):
        out = cli("campaign", *argv, "--log", log, "--backend", "remote",
                  "--connect", self.dispatcher())
        return {"cid": re.search(r"campaign (\S+) (joined|submitted)", out)[1]}

    def fleet(self, argv, log, restart=False):
        """``cid``; ``/metrics`` before submit, after it and at the end."""
        url = self.dispatcher()
        before = self.client.metrics_text()
        cid = cli("submit", "--connect", url, *argv).strip()
        in_flight = self.client.metrics_text()
        deadline = time.monotonic() + 300
        while restart and self.client.status(cid)["done"] < 8:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        if restart:
            assert self.client.status(cid)["state"] == "running"
            self.server.send_signal(signal.SIGTERM)
            self.server.wait(60)
            self.server.stdout.close()
            time.sleep(2)  # every worker meets a refused connection too
            self.serve(url.rsplit(":", 1)[1])
        cli("status", "--connect", url, cid, "--wait", "--timeout", 600)
        return {"log": self.root / "server" / f"{cid}.jsonl", "cid": cid,
                "scrapes": (before, in_flight, self.client.metrics_text())}

    restarted_fleet = functools.partialmethod(fleet, restart=True)

    def dispatcher(self) -> str:
        """The fleet's URL; the fleet starts at the first call."""
        if self.server is None:
            self.serve(0)
            self.client = DispatcherClient(self.url)
            self.workers = [spawn(self.root, name, "worker", "--connect",
                                  self.url, "--name", name, "--poll", 0.2,
                                  "--max-idle", 120) for name in WORKERS]
        return self.url

    def serve(self, port) -> None:
        self.server = spawn(self.root, "server", "serve", "--port", port,
                            "--log-dir", self.root / "server", pipe=True)
        self.url = re.search(r"listening on (\S+)",
                             self.server.stdout.readline()).group(1)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        for process in filter(None, (self.server, *self.workers)):
            process.terminate()
            process.wait(60)
        if self.server is not None:
            self.server.stdout.close()


class Checks:
    """A row's checks, each called on ``Checks(session, row, result)``."""

    def __init__(self, session: Session, row, result: dict):
        self.session, self.row, self.log = session, row, result["log"]
        self.cid, self.scrapes = result.get("cid"), result.get("scrapes")

    def sites(self):  # as the first row this one runs after lists them
        def sites(log):  # less what only a simulation tells
            return {(r["kernel"], r["structure"], r["run"]): (
                r["propagation"]["source"],
                [{k: v for k, v in site.items() if k not in (
                    "events", "events_truncated", "fate_cycle", "pc",
                    "kernel")} for site in r["propagation"]["sites"]])
                for r in load_records(log) if "propagation" in r}
        planned = sites(self.session.run(self.row.after[0])["log"])
        traced = sites(self.log)
        assert planned.keys() == traced.keys()
        screened = [key for key in planned if planned[key][0] == "prescreen"]
        assert screened, "nothing was pre-screened"
        for key in screened:
            assert traced[key][0] == "trace", key
            assert planned[key][1] == traced[key][1] != [], key

    def report(self, text):
        assert text in cli("report", self.log)

    def no_plan(self):
        assert not plan_path_for(self.log).exists()

    def adaptive(self):  # one campaign over all rounds: one bracket, sidecar
        plan = json.loads(plan_path_for(self.log).read_text())
        executed = plan["executed"]
        assert plan["all_met"] and executed <= plan["budget_per_group"], plan
        assert executed < plan["uniform_runs_total"], plan
        journal = events_path_for(self.log).read_text().splitlines()
        assert sum('"campaign_end"' in line for line in journal) == 1
        sidecar = json.loads(metrics_path_for(self.log).read_text())
        assert sidecar["campaign"]["executed"] == executed

    def wrong_log_unwritten(self):  # --log overrides the file's -gpufi_log
        assert not (self.session.root / "wrong.jsonl").exists()

    def golden(self, source):
        journal = events_path_for(self.log).read_text().splitlines()
        assert f'"golden": "{source}"' in journal[0]

    def metrics_lint(self):
        for text in self.scrapes[1:]:  # in flight and final
            assert lint_prometheus(text) == []
            assert required_families_present(text, [
                "gpufi_uptime_seconds", "gpufi_campaigns", "gpufi_shards",
                "gpufi_runs_total", "gpufi_run_effects_total",
                "gpufi_leases_granted_total", "gpufi_lease_expired_total",
                "gpufi_workers", "gpufi_worker_runs_total"]) == []

    def events(self):  # through the API, `gpufi top` and `status --follow`
        client, url = self.session.client, self.session.url
        runs = [e for e in client.events(self.cid)["events"]
                if e["event"] == "run"]
        status = client.status(self.cid)
        shards = status["shards"]
        assert len(runs) >= status["total"]
        assert (shards["complete"], shards["pending"], shards["leased"]) \
            == (shards["total"], 0, 0), shards
        assert sample(self.scrapes[-1], r'gpufi_shards\{state="complete"\}'
                      ) == shards["total"]
        assert all(e.get("trace") for e in runs), "run without trace"
        workers = {e["worker"] for e in runs if not e.get("instant")}
        assert workers and workers <= set(WORKERS), workers
        assert {e["worker"] for e in runs if e.get("instant")} == {None}
        top = cli("top", "--connect", url, self.cid, "--once")
        assert "state complete" in top and "(100.0%)" in top, top
        assert " run " in cli("status", "--connect", url, self.cid,
                              "--follow", "--timeout", 60)

    def fleet_sidecar(self):  # jobs counts workers; wall_s is the journal's
        records = load_records(self.log)
        assert all("timings" in r for r in records)
        instant = [r for r in records
                   if r["synthesized"] or r.get("prescreened")]
        assert instant and all(r["worker"] is None for r in instant)
        assert all(r["worker"] in WORKERS for r in records
                   if r not in instant)
        doc = json.loads(metrics_path_for(self.log).read_text())
        workers = doc["workers"]
        assert doc["checkpoint"]["untracked"] == 0, doc["checkpoint"]
        assert all(entry["mean_s"] > 0 for entry in doc["latency"].values())
        assert set(workers) == set(WORKERS)
        assert doc["campaign"]["jobs"] == 2, doc["campaign"]
        assert {name: entry["runs"] for name, entry in workers.items()} \
            == {name: entry["runs"] for name, entry
                in doc["dist"]["workers"].items() if entry["runs"]}
        assert doc["campaign"]["wall_s"] > 0.01, doc["campaign"]
        assert all(0 < w["utilization"] <= 1 for w in workers.values())

    def wire(self):  # one send per shard plus one per 0.5 s of its runs
        text = self.session.client.metrics_text()
        assert sample(text, "gpufi_record_batches_total") \
            <= 2 * sample(text, "gpufi_leases_granted_total")
        assert sample(text, "gpufi_lease_expired_total") == 0

    def remote_journal(self):  # the fleet's run events, as stamped there
        mine, fleet = (sorted(json.dumps(e, sort_keys=True) for e in events
                              if e["event"] == "run") for events in (
            read_events(events_path_for(self.log)),
            self.session.client.events(self.cid)["events"]))
        assert mine and mine == fleet
        doc = json.loads(metrics_path_for(self.log).read_text())
        assert doc["campaign"]["jobs"] == 2, doc["campaign"]

    def no_lease_granted(self):
        before, _, after = self.scrapes
        assert sample(before, "gpufi_leases_granted_total") \
            == sample(after, "gpufi_leases_granted_total")

    def resumed(self):  # and the workers started before the restart did it
        assert "campaign_resume" in events_path_for(self.log).read_text()
        for name in WORKERS:
            text = (self.session.root / f"{name}.log").read_text()
            assert "cannot reach" not in text and "Traceback" not in text
            assert f"of {self.cid} done" in text, name

    def one_set_per_identity(self):  # per directory: a capture supersedes
        for root in (self.session.root / "ckpt", self.session.root / "cold"):
            store = CheckpointStore(root)
            sets = [store.open(path.parent.name)
                    for path in root.glob("*/meta.json")]
            assert None not in sets  # complete, of the current format
            assert len({s.meta["identity"] for s in sets}) == len(sets) \
                == len(BENCHMARKS)
            for ckpt_set in sets:  # every witness has its parts.bin row
                rows = ckpt_set.part_digests()
                assert all(("state_hash" in entry) == (entry["file"] in rows)
                           for entry in ckpt_set.meta["checkpoints"])
            for bench in ("needle", "lud"):  # sets with restore points
                key = campaign_fingerprint(make_benchmark(bench),
                                           get_card("RTX2060"), "gto")
                assert any("state_hash" not in entry
                           for entry in store.open(key).meta["checkpoints"])
