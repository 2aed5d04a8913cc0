"""One tally of a campaign's events, whoever shows it.

:class:`repro.obs.events.Tally` is the only fold of the event
vocabulary: the progress line, ``gpufi top``, ``/api/status``,
``/metrics`` and the sidecar's wall-clock sections all read a
campaign ledger's tally.  Defended here by

- generated journals -- start / resume sessions, instant, converged
  and simulated runs, worker- and ledger-stamped run events, shard
  leases, completions and expiries, heartbeats, kills that tear the
  journal -- against one oracle: the ledger's live tally is the fold
  of what it left on file, a fold split at any cursor (and read back
  through torn writes) is the fold of the whole, and the counts are
  those of the records delivered;
- a local ``--resume`` and a dispatcher restart, live tally ≡ file;
- one real two-worker fleet, on which the progress line,
  ``/api/status``, ``/metrics``, a ``gpufi top --once`` frame and both
  sidecars agree;
- a lint: no other module of ``src/repro`` branches on an event's kind.

Budgets: small and deterministic in tier-1; ``--hypothesis-profile
nightly`` runs the large one (``tests/conftest.py``).
"""

import ast
import dataclasses
import json
import re
import tempfile
import threading
from collections import Counter
from pathlib import Path

from hypothesis import given, strategies as st

from repro.cli import main as cli_main
from repro.dist.client import DispatcherClient
from repro.dist.protocol import spec_from_wire
from repro.dist.server import Dispatcher, DispatcherServer
from repro.dist.worker import FleetWorker
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.config_file import dump_config
from repro.faults.executor import CampaignExecutor, RunSpec
from repro.faults.ledger import CampaignLedger
from repro.faults.targets import Structure
from repro.obs.events import Tally, events_path_for, read_events, run_event
from repro.obs.live import EventFileTailer
from tests.conftest import generated

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

PLAN = [RunSpec(benchmark="vectoradd", card="RTX2060", kernel="k",
                structure=(Structure.REGISTER_FILE, Structure.L1T_CACHE)[i % 2],
                run_index=i, seed=i, windows=((0, 100),), regs_per_thread=8,
                smem_bytes=0, local_bytes=0, golden_cycles=100,
                cycle_budget=200, synthesized=i % 3 == 0,
                prescreened=i % 5 == 1)
        for i in range(16)]


def record_of(spec):
    """A record as the spec's run would report it: instant ones are
    Masked, every fourth simulated one converged."""
    record = {"benchmark": spec.benchmark, "card": spec.card,
              "kernel": spec.kernel, "structure": spec.structure.value,
              "run": spec.run_index, "golden_cycles": 100,
              "synthesized": spec.synthesized}
    if spec.synthesized or spec.prescreened:
        record.update(effect="Masked", prescreened=spec.prescreened)
    else:
        record["effect"] = ("Masked", "SDC", "Crash")[spec.run_index % 3]
        if spec.run_index % 4 == 0:
            record["terminated_at"] = 60
    return record


RECORDS = [record_of(spec) for spec in PLAN]


def fold(path) -> Tally:
    return Tally().apply_all(read_events(path))


def line_effects(line: str) -> dict:
    """The ``[Masked=4, SDC=1]`` counts of a progress line."""
    return {name: int(count) for name, count in re.findall(
        r"(\w+)=(\d+)", line.split("[")[1].split("]")[0])}


def tear(path: Path, count: int) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:max(len(data) - count, 0)])


# -- generated journals ---------------------------------------------------------

WORKERS = ("w1", "w2", "w3")


@st.composite
def journals(draw):
    """What happens to a campaign, one step at a time: a batch of
    records delivered (by a named worker or not, some with the event
    their worker stamped), a shard leased / completed / expired, a
    heartbeat, or a kill that tears the journal and resumes."""
    steps = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(
            ("absorb", "absorb", "lease", "complete", "expire",
             "heartbeat", "kill")))
        if kind == "absorb":
            batch = draw(st.lists(st.integers(0, len(PLAN) - 1),
                                  min_size=1, max_size=5))
            steps.append((kind, batch,
                          draw(st.sets(st.sampled_from(batch))),
                          draw(st.sampled_from((None,) + WORKERS))))
        elif kind == "kill":
            steps.append((kind, draw(st.integers(0, 300))))
        else:
            steps.append((kind, draw(st.integers(0, 3)),
                          draw(st.sampled_from(WORKERS))))
    # where a reader stops to reconnect, and how the file is torn
    return (steps, draw(st.integers(0, 10**6)),
            draw(st.lists(st.integers(1, 400), max_size=6)))


@generated(tier1_examples=40)
@given(journals())
def test_generated_journals_fold_one_way(case):
    steps, cursor, cuts = case
    with tempfile.TemporaryDirectory() as scratch:
        log = Path(scratch) / "c.jsonl"
        journal = events_path_for(log)
        ticks = iter(range(10**6))

        def clock():
            return float(next(ticks))

        def opened(resume):
            return CampaignLedger(PLAN, log, resume=resume, journal=True,
                                  clock=clock)

        ledger = opened(False)
        generation = Counter()
        for step in steps:
            kind = step[0]
            if kind == "absorb":
                _, batch, stamped, worker = step
                events = [{"ts": 0.5, **run_event(RECORDS[i], "lease",
                                                  "stamper")}
                          for i in stamped]
                ledger.absorb([RECORDS[i] for i in batch], events=events,
                              worker=worker)
            elif kind == "kill":
                ledger.close(False)
                tear(journal, step[1])
                ledger = opened(True)
                assert vars(ledger.tally) == vars(fold(journal))
            elif kind == "lease":
                generation[step[1]] += 1
                ledger.event("shard_leased", shard=step[1], worker=step[2],
                             generation=generation[step[1]], runs=4)
            elif kind == "heartbeat":
                ledger.event("worker_heartbeat", worker=step[2],
                             shard=step[1])
            else:
                ledger.event("shard_complete" if kind == "complete"
                             else "lease_expired", shard=step[1],
                             worker=step[2])
            ledger.flush()
            # the live tally is the fold of what the ledger left on file
            assert vars(ledger.tally) == vars(fold(journal))
        ledger.absorb(RECORDS)  # whatever was not delivered yet
        ledger.close(True)
        events = read_events(journal)
        tally = ledger.tally
        assert vars(tally) == vars(Tally().apply_all(events))

        # split at any cursor, or read back through torn writes
        cursor %= len(events) + 1
        split = Tally().apply_all(events[:cursor])
        assert vars(split.apply_all(events[cursor:])) == vars(tally)
        data = journal.read_bytes()
        copy = Path(scratch) / "copy.events.jsonl"
        tailer, tailed = EventFileTailer(copy), Tally()
        for end in sorted(set(cuts)) + [len(data)]:
            copy.write_bytes(data[:end])
            tailed.apply_all(tailer.poll())
        assert vars(tailed) == vars(tally)

        # the counts are those of what was delivered and journaled
        assert tally.done == tally.total == len(PLAN)
        assert tally.effects == Counter(r["effect"] for r in RECORDS)
        assert sum(tally.effects.values()) == tally.done
        assert tally.eta() == 0.0 and tally.state == "complete"
        kinds = Counter(event["event"] for event in events)
        assert (tally.leased, tally.completed, tally.expired) == (
            kinds["shard_leased"], kinds["shard_complete"],
            kinds["lease_expired"])
        assert tally.by_type == dict(kinds) and tally.events == len(events)
        session = events[max(index for index, event in enumerate(events)
                             if event["event"].startswith("campaign_")
                             and event["event"] != "campaign_end"):]
        runs = [event for event in session if event["event"] == "run"]
        assert tally.executed == len(runs)
        assert tally.instant == sum(1 for e in runs if e.get("instant"))
        assert tally.converged == sum(1 for e in runs if e.get("converged"))
        assert tally.jobs == len({e["worker"] for e in runs})
        if "kill" not in {step[0] for step in steps}:
            # one session: every run event is this session's
            assert tally.instant == sum(
                1 for r in RECORDS if r["synthesized"] or r.get("prescreened"))
            assert tally.converged == sum(
                1 for r in RECORDS if "terminated_at" in r)


# -- resumed sessions ----------------------------------------------------------


def test_local_resume_tally_is_the_journal_fold(tmp_path):
    log = tmp_path / "c.jsonl"
    journal = events_path_for(log)
    CampaignExecutor(log_path=log, telemetry=True,
                     run_fn=record_of).execute(PLAN[:7])
    # killed mid-write: campaign_end and the last run event's tail torn
    tear(journal, 120)
    lines = []
    executor = CampaignExecutor(log_path=log, telemetry=True, resume=True,
                                run_fn=record_of, progress=lines.append,
                                progress_every=4)
    with executor.open(PLAN) as ledger:
        assert vars(ledger.tally) == vars(fold(journal))
        executor.run(ledger, PLAN)
    assert vars(ledger.tally) == vars(fold(journal))
    tally = ledger.tally
    assert tally.opening["event"] == "campaign_resume"
    assert tally.executed == len(PLAN) - 7
    # the last progress line: every run, and effects that add up to them
    final = lines[-1]
    assert final.startswith(f"{len(PLAN)}/{len(PLAN)} runs")
    assert line_effects(final) == dict(Counter(r["effect"] for r in RECORDS))


def test_dispatcher_restart_tally_is_the_journal_fold(tmp_path):
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = Clock()
    root = tmp_path / "logs"
    text = dump_config(CampaignConfig(
        benchmark="vectoradd", card="RTX2060",
        structures=(Structure.REGISTER_FILE,), runs_per_structure=6,
        seed=3, metrics=True, early_stop="off"))
    dispatcher = Dispatcher(log_dir=root, shard_size=2, clock=clock,
                            lease_timeout=10.0)
    cid = dispatcher.submit(text)["campaign"]
    journal = events_path_for(root / f"{cid}.jsonl")

    def deliver(dispatcher, lease, worker):
        specs = [spec_from_wire(w) for w in lease["specs"]]
        dispatcher.collect(cid, lease["lease"], lease["fingerprint"],
                           [record_of(s) for s in specs], done=True,
                           worker=worker)

    deliver(dispatcher, dispatcher.lease("w1"), "w1")
    stale = dispatcher.lease("w2")
    clock.now = 11.0
    dispatcher.heartbeat("nobody")  # reaps w2's lease
    live = dispatcher._jobs[cid].tally
    assert (live.leased, live.expired) == (2, 1)
    assert vars(live) == vars(fold(journal))

    revived = Dispatcher(log_dir=root, shard_size=2)
    tally = revived._jobs[cid].tally
    assert vars(tally) == vars(fold(journal))
    assert revived.status(cid)["shards"]["lease_expired"] == 1
    # a restart keeps counting lease generations where the journal left
    again = revived.lease("w3")
    assert again["shard"] == stale["shard"]
    assert again["trace"].endswith(f"/s{stale['shard']}.g2")
    deliver(revived, again, "w3")
    while not (lease := revived.lease("w3")).get("idle"):
        deliver(revived, lease, "w3")
    finished = fold(journal)
    finished.latency.clear()  # shed once the campaign is finished
    assert vars(tally) == vars(finished)
    doc = json.loads((root / f"{cid}.jsonl.metrics.json").read_text())
    assert doc["dist"]["lease_expired"] == tally.expired == 1
    assert doc["dist"]["events"]["by_type"]["shard_leased"] == 4
    assert doc["campaign"]["jobs"] == 1  # w3 ran this session's runs


# -- every view of one fleet campaign ---------------------------------------------


def sample(text, name, labels=""):
    match = re.search(rf"^{name}{re.escape(labels)} (\S+)$", text, re.M)
    return int(float(match.group(1)))


def test_every_view_of_a_fleet_campaign_agrees(tmp_path, capsys):
    # six register-file runs simulate on the workers; vectoradd has no
    # shared memory, so the six shared-memory runs are synthesized and
    # the dispatcher records them itself
    config = CampaignConfig(
        benchmark="vectoradd", card="RTX2060",
        structures=(Structure.REGISTER_FILE, Structure.SHARED_MEM),
        runs_per_structure=6, seed=3, metrics=True, early_stop="off")
    dispatcher = Dispatcher(log_dir=tmp_path / "server", shard_size=2)
    server = DispatcherServer(dispatcher, port=0).start()
    stop = threading.Event()
    workers = [FleetWorker(server.url, name=f"w{i}", poll=0.05, stop=stop)
               for i in (1, 2)]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for thread in threads:
        thread.start()
    lines = []
    try:
        log = tmp_path / "client.jsonl"
        Campaign(dataclasses.replace(
            config, backend="remote", backend_url=server.url,
            log_path=log), progress=lines.append).run()
        client = DispatcherClient(server.url)
        (cid,) = [c["id"] for c in client.status()["campaigns"]]
        status = client.status(cid)
        runs = [event for event in client.events(cid)["events"]
                if event["event"] == "run"]
        metrics = client.metrics_text()
        assert cli_main(["top", "--connect", server.url, cid,
                         "--once"]) == 0
        frame = capsys.readouterr().out
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        server.shutdown()
    ours = json.loads((tmp_path / "client.jsonl.metrics.json").read_text())
    theirs = json.loads((tmp_path / "server"
                         / f"{cid}.jsonl.metrics.json").read_text())

    done = 12
    # the instant runs name no worker, and are in no per-worker view
    assert sorted((e["structure"], e["worker"] is None) for e in runs) \
        == [("register_file", False)] * 6 + [("shared_mem", True)] * 6
    assert sum(entry["runs"] for entry in theirs["workers"].values()) \
        == sum(entry["runs"] for entry in ours["workers"].values()) == 6
    assert set(theirs["workers"]) <= {"w1", "w2"}
    assert sum(sample(metrics, "gpufi_worker_runs_total", f'{{worker="{w}"}}')
               for w in theirs["workers"]) == 6
    effects = theirs["effects"]
    assert sum(effects.values()) == done
    # the progress line (the remote client's tally)
    (final,) = [line for line in lines if re.match(r"\d+/\d+ runs ", line)]
    assert final.startswith(f"{done}/{done} runs")
    assert line_effects(final) == effects
    # /api/status
    assert status["done"] == done and status["effects"] == dict(
        sorted(effects.items()))
    # /metrics
    assert sample(metrics, "gpufi_runs_total") == done
    assert {name: sample(metrics, "gpufi_run_effects_total",
                         f'{{effect="{name}"}}')
            for name in effects} == effects
    # a `gpufi top --once` frame
    assert f"runs {done}/{done}" in frame
    assert "effects  " + "   ".join(
        f"{name} {count}" for name, count in sorted(effects.items())) in frame
    # both sidecars
    assert theirs["campaign"]["total_runs"] == ours["campaign"]["executed"] \
        == done
    assert ours["effects"] == effects
    assert ours["campaign"]["jobs"] == len(ours["workers"])
    assert theirs["campaign"]["jobs"] == len(theirs["workers"])

    leased = sample(metrics, "gpufi_leases_granted_total")
    expired = sample(metrics, "gpufi_lease_expired_total")
    assert leased >= status["shards"]["total"] == 3
    assert f"leases {leased} granted, {expired} expired" in frame
    assert theirs["dist"]["events"]["by_type"]["shard_leased"] == leased
    assert status["shards"]["lease_expired"] == expired \
        == theirs["dist"]["lease_expired"]


# -- one fold --------------------------------------------------------------------

#: The functions outside ``obs/events.py`` that may look at an event's
#: kind: one only renders it, the other finds the run events among a
#: delivery to deduplicate them.
KIND_READERS = {("obs/live.py", "format_event"),
                ("faults/ledger.py", "_run_events")}


def _reads_kind(node) -> bool:
    """``<x>.get("event"...)`` or ``<x>["event"]`` compared."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "event"):
        return True
    if isinstance(node, ast.Compare):
        return any(isinstance(side, ast.Subscript)
                   and isinstance(side.slice, ast.Constant)
                   and side.slice.value == "event"
                   for side in [node.left, *node.comparators])
    return False


def test_no_second_fold_of_the_event_vocabulary():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name == "obs/events.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if _reads_kind(node):
                while node in parents and not isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    node = parents[node]
                found.add((name, getattr(node, "name", "<module>")))
    assert found == KIND_READERS
