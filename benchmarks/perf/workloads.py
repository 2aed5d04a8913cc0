"""The four benchmark workloads: sizes, set-up, one pass, verification.

The sizes below are part of the benchmark, not knobs: every commit is
measured on the same campaigns.  ``--seed`` derives every campaign seed
(:func:`campaign_seed`); the program only ever sees the generated
:class:`~repro.faults.campaign.CampaignConfig` objects.

Each workload offers the same five calls to ``run.py``: ``setup`` /
``discard_setup`` (set-up is timed several times), ``run_round`` (one
pass, optionally under a tracer with ``metrics=True``), ``verify`` and
``close``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import chip_fit, weighted_avf
from repro.dist.client import DispatcherClient
from repro.dist.protocol import canonical_log_text
from repro.dist.server import Dispatcher, DispatcherServer
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.classify import FaultEffect
from repro.faults.executor import execute_run
from repro.faults.targets import Structure

CARD = "RTX2060"
SRC_DIR = Path(__file__).resolve().parents[2] / "src"

RF, SMEM = Structure.REGISTER_FILE, Structure.SHARED_MEM
L1D, L1T, L2 = (Structure.L1D_CACHE, Structure.L1T_CACHE,
                Structure.L2_CACHE)

#: Worker processes of the fleet workload.  The dispatcher lives in the
#: harness process and a worker only ever waits for its reply or the
#: other way round, so the fleet is one serial ping-pong: a second
#: worker adds contention, not throughput (see :func:`pin`).
WORKERS = 1

#: Every wait in the harness is bounded by this many seconds.
WAIT_TIMEOUT = 120.0

#: ``runs`` is R, the injections per (kernel, structure).  See
#: README.md for why each workload has these apps and options, and for
#: how the sizes were cut to fit the driver's per-run time budget.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "paper_ladder": dict(
            apps=("pathfinder", "needle", "scalarprod", "vectoradd"),
            structures=(RF, SMEM, L1D, L1T, L2), runs=6,
            early_stop="full", batch=8, checkpoint=True,
            prescreen_sample=20),
        "sim_solo": dict(
            apps=("hotspot", "kmeans", "lud", "pathfinder"),
            structures=(L2,), runs=1, early_stop="off", batch=1,
            checkpoint=False, kernels={"lud": ("lud_internal",)}),
        "sim_pack": dict(
            apps=("pathfinder", "scalarprod"),
            structures=(RF, SMEM), runs=8, early_stop="off", batch=8,
            checkpoint=False, solo_sample_share=0.1),
        "fleet_instant": dict(
            apps=("vectoradd",), structures=(SMEM, L1T), runs=512,
            early_stop="full", batch=1, checkpoint=False),
    },
    "smoke": {
        "paper_ladder": dict(
            apps=("pathfinder", "vectoradd"),
            structures=(RF, SMEM, L1D, L1T, L2), runs=2,
            early_stop="full", batch=8, checkpoint=True,
            prescreen_sample=4),
        "sim_solo": dict(
            apps=("pathfinder", "vectoradd"), structures=(L2,),
            runs=1, early_stop="off", batch=1, checkpoint=False,
            kernels={}),
        "sim_pack": dict(
            apps=("pathfinder", "scalarprod"), structures=(RF, SMEM),
            runs=2, early_stop="off", batch=8, checkpoint=False,
            solo_sample_share=0.25),
        "fleet_instant": dict(
            apps=("vectoradd",), structures=(SMEM, L1T), runs=128,
            early_stop="full", batch=1, checkpoint=False),
    },
}


def pin() -> None:
    """Confine this process and its children to the core it is on.

    No workload can use a second one: the local ones run at ``jobs=1``,
    and in the fleet dispatcher and worker never compute at the same
    time.  Spread over two cores, every fleet request wakes an idle
    virtual CPU, which on a shared host costs more than the request
    and varies with the neighbours: ten-pass mid-means of ``wall_s``
    ranged 1.68-2.63 s unpinned and 1.35-1.66 s pinned, alternating on
    the same busy host.  One core also makes :func:`reference_task`
    read the core the work runs on.  It is the core the scheduler has
    put this process on by now, after a second of importing: the one
    with room, whatever else the machine is running.
    """
    stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    os.sched_setaffinity(0, {int(stat[36])})


def campaign_seed(seed: int, *cell) -> int:
    """The seed of one campaign of a workload, derived from --seed."""
    text = "/".join(map(str, ("gpufi-perf", seed) + cell))
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


#: What :func:`reference_task` takes on the sandbox at its usual speed;
#: only sets the scale of host-speed-corrected times.
REFERENCE_NOMINAL_S = 0.017


def reference_task() -> float:
    """Time a fixed piece of interpreter-bound work, in seconds.

    It shares nothing with the program under test, so its duration
    tracks the host's speed at this moment and nothing else.  Sampled
    around every set-up and every campaign of a timed pass; see
    :func:`host_speed`.
    """
    started = time.perf_counter()
    values = np.arange(64, dtype=np.int64)
    table: Dict[int, int] = {}
    total = 0
    for i in range(60000):
        table[i & 255] = total
        total += table.get((i * 7) & 255, 0) & 15
        if not i & 15:
            values = (values + i) & 1023
            total += int(values[i & 63])
    return time.perf_counter() - started


def midmean(values) -> float:
    """Mean of the middle half of the values (the interquartile mean).

    As deaf to a stalled pass or a lucky one as the median, but it
    averages half the passes instead of reading one or two, which
    matters when passes differ in work and there are only six to ten.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def fast_quarter(values) -> float:
    """Mean of the fastest quarter of the values.

    For passes that all do the same work: whatever made one slower
    than another was the host, and on a busy host that is more than
    half of them, which the mid-mean cannot shed.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, round(len(ordered) / 4))])


def host_speed(reference_samples: Sequence[float],
               estimate=statistics.median) -> float:
    """How much slower than nominal the host ran (1.0 = nominal).

    The sandbox's speed moves by tens of percent from one minute to
    the next, for CPU time as much as for wall-clock; dividing a time
    by this factor takes that movement out and leaves the program's.
    The samples are read by the estimator the passes are read by, so
    that both see the same share of the host's disturbances; never by
    the plain mean, in which one pre-empted 17 ms sample, reading
    three times too long, moved a whole run by 10 %.
    """
    return estimate(reference_samples) / REFERENCE_NOMINAL_S


@dataclasses.dataclass
class Round:
    """What one pass produced (timings, outputs, failure accounting)."""

    wall_s: float = 0.0
    #: user+sys CPU of the harness and its workers over the pass
    cpu_s: float = 0.0
    #: wall-clock of each campaign of the pass, in app order
    units_s: List[float] = dataclasses.field(default_factory=list)
    #: reference-task samples: one before each campaign, one at the end
    ref_s: List[float] = dataclasses.field(default_factory=list)
    configs: List[CampaignConfig] = dataclasses.field(default_factory=list)
    specs: List[list] = dataclasses.field(default_factory=list)
    records: List[List[dict]] = dataclasses.field(default_factory=list)
    wavf: List[float] = dataclasses.field(default_factory=list)
    #: fleet only: campaign id on the dispatcher
    campaign_id: str = ""
    #: index of the pass's root span when traced
    root_span: Optional[int] = None
    #: fleet only, traced pass: the ``/metrics`` counters before it
    scrape_before: Dict[str, float] = dataclasses.field(
        default_factory=dict)

    @property
    def produced(self) -> int:
        return sum(len(records) for records in self.records)


@dataclasses.dataclass
class Tally:
    """Runs attempted and failed over a whole benchmark run.

    A run fails when its planned key has no record, a duplicate or an
    invalid one, when a layer call raised or a campaign timed out (all
    its runs fail), or when verification disagrees about it.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of a live process (``/proc/<pid>/stat``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def parse_scrape(text: str) -> Dict[str, float]:
    """Unlabelled samples of a Prometheus text exposition."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(None, 1)
            samples[name] = float(value)
    return samples


_VALID_EFFECTS = {effect.value for effect in FaultEffect}


def check_records(tally: Tally, specs: Sequence, records: Sequence[dict],
                  golden_cycles: int, expected_golden: int) -> None:
    """Every planned run key has exactly one record with a valid effect,
    and the campaign's golden run matches the set-up's."""
    tally.attempted += len(specs)
    planned = {spec.key for spec in specs}
    seen: Dict[tuple, int] = {}
    for record in records:
        key = (record.get("kernel"), record.get("structure"),
               record.get("run"))
        seen[key] = seen.get(key, 0) + 1
        if record.get("effect") not in _VALID_EFFECTS:
            tally.fail(1, f"{key}: invalid effect "
                           f"{record.get('effect')!r}")
    missing = planned - set(seen)
    duplicated = [key for key, count in seen.items() if count > 1]
    unplanned = set(seen) - planned
    for label, keys in (("missing", missing), ("duplicate", duplicated),
                        ("unplanned", unplanned)):
        if keys:
            tally.fail(len(keys), f"{len(keys)} {label} record(s), "
                                   f"first {sorted(keys)[0]}")
    if golden_cycles != expected_golden:
        tally.fail(len(specs),
                    f"golden run took {golden_cycles} cycles, set-up "
                    f"measured {expected_golden}")


def _no_span(name: str):
    """Stands in for ``Tracer.span`` on the timed passes."""
    return contextlib.nullcontext()


class Workload:
    """What ``run.py`` drives: set-up (repeatable), passes, verification."""

    fleet = False
    #: how a run's per-pass values become one: see :func:`midmean`
    estimate = staticmethod(midmean)

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.apps: Sequence[str] = size["apps"]
        self.checkpoint_dir: Optional[Path] = None
        #: per app, from the last set-up: golden cycles and the
        #: warm-up plan's wall-clock (checkpoint capture included)
        self.golden_cycles: Dict[str, int] = {}
        self.warm_plan_s: Dict[str, float] = {}
        #: what tearing the workload down printed; kept for the result
        #: file, not a failure
        self.teardown_stderr = ""
        self._setups = 0

    def warm_up(self, app_index: int) -> None:
        """Plan one app at R = 1: the golden run of the set-up."""
        started = time.perf_counter()
        campaign = Campaign(dataclasses.replace(
            self.config(app_index, 0), runs_per_structure=1,
            log_path=None))
        campaign.plan()
        app = self.apps[app_index]
        self.warm_plan_s[app] = time.perf_counter() - started
        self.golden_cycles[app] = campaign.golden_cycles

    def discard_setup(self) -> None:
        """Undo one set-up so that it can be timed again."""

    def verify(self, round_: Round, tally: Tally) -> None:
        """Check the last timed pass another way (untimed)."""

    def close(self) -> None:
        self.discard_setup()


class LocalWorkload(Workload):
    """Campaigns run in this process through ``Campaign.plan/execute/
    aggregate`` at ``jobs=1``: paper_ladder, sim_solo and sim_pack."""

    def config(self, app_index: int, round_index: int,
               metrics: bool = False) -> CampaignConfig:
        app = self.apps[app_index]
        kernels = self.size.get("kernels", {}).get(app)
        return CampaignConfig(
            benchmark=app, card=CARD,
            structures=self.size["structures"],
            runs_per_structure=self.size["runs"],
            seed=campaign_seed(self.seed, round_index, app_index),
            early_stop=self.size["early_stop"], batch=self.size["batch"],
            checkpoint_dir=self.checkpoint_dir, kernels=kernels,
            metrics=metrics,
            log_path=(self.workdir / "logs"
                      / f"r{round_index}{'t' if metrics else ''}_{app}.jsonl"))

    def setup(self) -> None:
        """Plan each app once: the warm-up golden run, which captures
        the checkpoint set where the workload uses one."""
        self._setups += 1
        if self.size["checkpoint"]:
            self.checkpoint_dir = (self.workdir
                                   / f"checkpoints{self._setups}")
        for app_index in range(len(self.apps)):
            self.warm_up(app_index)

    def discard_setup(self) -> None:
        if self.checkpoint_dir is not None:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)

    def run_round(self, round_index: int, tally: Tally,
                  tracer=None) -> Round:
        span = tracer.span if tracer is not None else _no_span
        out = Round()
        with span("harness.pass") as root:
            out.root_span = root
            for app_index, app in enumerate(self.apps):
                if tracer is None:
                    out.ref_s.append(reference_task())
                started, cpu_started = (time.perf_counter(),
                                        time.process_time())
                config = self.config(app_index, round_index,
                                     metrics=tracer is not None)
                campaign = Campaign(config)
                specs: list = []
                try:
                    with span("campaign.plan"):
                        specs = campaign.plan()
                    with span("executor.execute") as execute_span:
                        records = campaign.execute(specs, jobs=1)
                    if tracer is not None:
                        _derive_run_spans(tracer, execute_span, records)
                    with span("campaign.aggregate"):
                        result = campaign.aggregate(records)
                    with span("analysis.avf_fit"):
                        wavf = weighted_avf(result)
                        chip_fit(result)
                except Exception as exc:  # a layer call that raised
                    tally.attempted += max(len(specs), 1)
                    tally.fail(max(len(specs), 1),
                               f"{app}: {type(exc).__name__}: {exc}")
                    specs, records, wavf = [], [], 0.0
                out.units_s.append(time.perf_counter() - started)
                out.cpu_s += time.process_time() - cpu_started
                if specs:
                    check_records(tally, specs, records,
                                  campaign.golden_cycles,
                                  self.golden_cycles[app])
                out.configs.append(config)
                out.specs.append(specs)
                out.records.append(records)
                out.wavf.append(wavf)
        # the pass is its campaigns; the reference samples between
        # them are not part of it
        out.wall_s = sum(out.units_s)
        if tracer is None:
            out.ref_s.append(reference_task())
        return out

    def verify(self, round_: Round, tally: Tally) -> None:
        """Re-execute a seed-derived sample of the pass another way."""
        rng = np.random.default_rng(self.seed)
        specs = [spec for plan in round_.specs for spec in plan]
        records = {(spec.benchmark,) + spec.key: record
                   for plan, recs in zip(round_.specs, round_.records)
                   for spec, record in zip(plan, recs)}
        sample = self.size.get("prescreen_sample")
        if sample:
            # pre-screen soundness: a site proven dead at plan time
            # must come out Masked when simulated in full
            dead = [spec for spec in specs if spec.prescreened]
            for index in rng.permutation(len(dead))[:sample]:
                spec = dataclasses.replace(
                    dead[index], prescreened=False, prescreen_reason="",
                    early_stop="off")
                tally.attempted += 1
                effect = execute_run(spec)["effect"]
                if effect != FaultEffect.MASKED.value:
                    tally.fail(1, f"pre-screened {spec.benchmark}"
                                  f"{spec.key} simulates to {effect}")
        share = self.size.get("solo_sample_share")
        if share:
            # pack == solo: the record of a batched run must equal the
            # one solo execute_run gives for the same spec
            live = [spec for spec in specs
                    if not (spec.prescreened or spec.synthesized)]
            count = max(1, round(share * len(live)))
            for index in rng.permutation(len(live))[:count]:
                spec = live[index]
                tally.attempted += 1
                batched = records[(spec.benchmark,) + spec.key]
                if (canonical_log_text([execute_run(spec)])
                        != canonical_log_text([batched])):
                    tally.fail(1, f"{spec.benchmark}{spec.key}: batched "
                                  "record differs from solo")


def _derive_run_spans(tracer, execute_span: int,
                      records: Sequence[dict]) -> None:
    """Children of an execute span from the records' own ``timings``."""
    for record in records:
        timings = record.get("timings") or {}
        simulated = not (record.get("synthesized")
                         or record.get("prescreened"))
        parts = {"sim.simulate": timings.get("simulate_s", 0.0),
                 "checkpoint.restore": timings.get("restore_s", 0.0),
                 "classify.run": timings.get("classify_s", 0.0)}
        rest = timings.get("total_s", 0.0) - sum(parts.values())
        parts["executor.run" if simulated else "executor.instant"] = rest
        for name, seconds in parts.items():
            if seconds > 0:
                tracer.add_derived(name, execute_span, seconds)


class FleetWorkload(Workload):
    """One campaign per pass submitted to an in-process dispatcher and
    executed by worker subprocesses: fleet_instant.

    Closed loop, one campaign in flight; the dispatcher and the workers
    live across the rounds, so state the dispatcher accumulates shows
    as later rounds getting slower.
    """

    fleet = True
    #: every pass does the same work: see :func:`fast_quarter`
    estimate = staticmethod(fast_quarter)

    def __init__(self, size: dict, seed: int, workdir: Path):
        super().__init__(size, seed, workdir)
        self.dispatcher: Optional[Dispatcher] = None
        self.server: Optional[DispatcherServer] = None
        self.client: Optional[DispatcherClient] = None
        self.workers: List[subprocess.Popen] = []

    def config(self, app_index: int, round_index: int,
               metrics: bool = False) -> CampaignConfig:
        # the seed differs per round because the dispatcher joins a
        # resubmitted fingerprint to the finished campaign; the work is
        # the same for any seed, since nothing simulates
        return CampaignConfig(
            benchmark=self.apps[app_index], card=CARD,
            structures=self.size["structures"],
            runs_per_structure=self.size["runs"],
            seed=campaign_seed(self.seed, round_index, metrics),
            early_stop=self.size["early_stop"], metrics=metrics)

    def setup(self) -> None:
        self._setups += 1
        self.warm_up(0)
        self.dispatcher = Dispatcher(
            log_dir=self.workdir / f"server{self._setups}")
        self.server = DispatcherServer(self.dispatcher, port=0).start()
        self.client = DispatcherClient(self.server.url)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self.workers = [subprocess.Popen(
            [sys.executable, "-m", "repro.dist.worker", "--connect",
             self.server.url, "--name", f"perf-w{index}", "--poll", "0.05"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for index in range(WORKERS)]
        deadline = time.monotonic() + WAIT_TIMEOUT
        while len(self.client.status()["workers"]) < WORKERS:
            if time.monotonic() > deadline:
                raise TimeoutError("fleet workers did not connect")
            time.sleep(0.01)

    def discard_setup(self) -> None:
        """Stop the workers, reap them, then stop the dispatcher.

        The dispatcher's handler threads print a ``BrokenPipeError``
        traceback when a worker goes away mid-poll; that is captured.
        """
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured):
            for proc in self.workers:
                proc.terminate()
            for proc in self.workers:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)
            if self.server is not None:
                self.server.shutdown()
        self.teardown_stderr += captured.getvalue()
        self.workers, self.server = [], None

    def _cpu_s(self) -> float:
        return time.process_time() + sum(
            process_cpu_s(proc.pid) for proc in self.workers)

    def run_round(self, round_index: int, tally: Tally,
                  tracer=None) -> Round:
        span = tracer.span if tracer is not None else _no_span
        out = Round()
        config = self.config(0, round_index, metrics=tracer is not None)
        out.configs.append(config)
        if tracer is not None:
            out.scrape_before = parse_scrape(self.client.metrics_text())
        else:
            out.ref_s.append(reference_task())
        started, cpu_started = time.perf_counter(), self._cpu_s()
        try:
            with span("harness.pass") as root:
                out.root_span = root
                with span("dist.submit"):
                    reply = self.client.submit(config)
                out.campaign_id = reply["campaign"]
                with span("dist.drain"):
                    self.client.wait(out.campaign_id,
                                     timeout=WAIT_TIMEOUT, poll=0.02)
            out.wall_s = time.perf_counter() - started
            out.cpu_s = self._cpu_s() - cpu_started
            with span("dist.records_fetch"):
                records = self.client.records(out.campaign_id)
        except Exception as exc:  # incomplete by its timeout, or refused
            out.wall_s = time.perf_counter() - started
            tally.errors.append(f"{type(exc).__name__}: {exc}")
            records = []
        out.units_s.append(out.wall_s)
        out.records.append(records)
        if tracer is None:
            out.ref_s.append(reference_task())

        # untimed: the fleet's records equal a local run of the config
        campaign = Campaign(dataclasses.replace(config, metrics=False))
        with span("campaign.plan"):
            specs = campaign.plan()
        local = campaign.execute(specs, jobs=1)
        check_records(tally, specs, records, campaign.golden_cycles,
                      self.golden_cycles[self.apps[0]])
        if records and (canonical_log_text(records)
                        != canonical_log_text(local)):
            tally.fail(len(specs), "fleet records differ from a local "
                                   "run of the same config")
        with span("campaign.aggregate"):
            result = campaign.aggregate(local)
        with span("analysis.avf_fit"):
            out.wavf.append(weighted_avf(result))
            chip_fit(result)
        out.specs.append(specs)
        return out


def make_workload(name: str, scale: str, seed: int, workdir: Path):
    size = SIZES[scale][name]
    cls = FleetWorkload if name == "fleet_instant" else LocalWorkload
    return cls(size, seed, workdir)
