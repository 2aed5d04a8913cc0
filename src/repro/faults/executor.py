"""Parallel campaign execution engine.

The paper's methodology needs thousands of complete application
executions per campaign (100 runs x structures x kernels).  Every
injected run is independent by construction -- a fresh device, one
mask, one classification -- so campaigns parallelise perfectly once
each run's randomness is independent of execution order.  This module
provides that substrate:

- :class:`RunSpec` -- one fully addressable injection run, carrying
  its coordinates ``(kernel, structure, run_index)``, the seed
  derived from them (see :func:`repro.faults.mask.derive_run_seed`)
  and the mask the plan drew from that seed, if it drew one.
  Specs are plain picklable data, safe to ship to worker processes.
- :func:`execute_run` -- a pure function from spec to result record;
  the unit of work dispatched to the pool and to fleet workers.  A run
  is an instant verdict, or resolve -> restore -> simulate -> classify
  -> annotate, each stage written once here;
  :func:`repro.faults.batch_executor.execute_pack` drives the same
  stages over N columns (``docs/architecture.md``, *Life of a run*).
- :class:`CampaignExecutor` -- runs a list of specs on ``jobs`` worker
  processes and hands the records to the campaign's
  :class:`~repro.faults.ledger.CampaignLedger` (the JSONL log, the
  runs a ``resume`` finds recorded there, journal and sidecar),
  reporting progress from the ledger's tally (runs/sec, ETA,
  per-effect running counts).

Because every record is a pure function of its spec, the aggregated
result is byte-identical between ``jobs=1`` and ``jobs=N`` and between
a straight-through run and a resumed one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import multiprocessing
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.classify import FaultEffect, classify_run
from repro.faults.early_stop import ConvergenceMonitor
from repro.faults.injector import Injector
# a plan's identity is the ledger's; its importers find it here too
from repro.faults.ledger import (CampaignLedger, RunKey, format_log_header,
                                 log_header, plan_fingerprint)
from repro.faults.mask import FaultMask, MaskGenerator, MultiBitMode
from repro.faults.models import get_model
from repro.faults.options import DEFAULTS
from repro.faults.runner import RunResult, run_application
from repro.faults.targets import Structure
from repro.obs import (PropagationTracer, prescreen_propagation,
                       synthesized_propagation)
from repro.obs.metrics import batch_section
from repro.sim.cards import get_card
from repro.sim.checkpoint import (CheckpointError, CheckpointStore,
                                  RestoreParityError)
from repro.sim.device import RunOptions


@dataclass(frozen=True)
class RunSpec:
    """One fully specified injection run, ready for dispatch.

    Carries everything :func:`execute_run` needs: the application and
    card, the target coordinates, the per-run derived seed, the
    kernel's profiling facts (execution windows, allocation sizes) the
    mask generator samples from, and the mask itself when the plan
    drew it.  Immutable and picklable.
    """

    benchmark: str
    card: str
    kernel: str
    structure: Structure
    run_index: int
    #: Derived from (campaign seed, kernel, structure, run_index);
    #: see :func:`repro.faults.mask.derive_run_seed`.
    seed: int
    #: Cycle windows of the targeted kernel invocations.
    windows: Tuple[Tuple[int, int], ...]
    regs_per_thread: int
    smem_bytes: int
    local_bytes: int
    golden_cycles: int
    cycle_budget: int
    # the options every run of a campaign carries default to what the
    # option table says (Campaign.plan fills them from the config)
    bits_per_fault: int = DEFAULTS["bits_per_fault"]
    multibit_mode: MultiBitMode = DEFAULTS["multibit_mode"]
    warp_level: bool = DEFAULTS["warp_level"]
    n_blocks: int = DEFAULTS["n_blocks"]
    n_cores: int = DEFAULTS["n_cores"]
    scheduler_policy: str = DEFAULTS["scheduler_policy"]
    model_icache: bool = DEFAULTS["model_icache"]
    #: The kernel allocates none of the target structure: the fault
    #: lands in unallocated space and is masked by construction, no
    #: simulation needed.
    synthesized: bool = False
    #: Golden-run checkpoint set to fast-forward from (directory root
    #: + fingerprint key; see :mod:`repro.sim.checkpoint`).  ``None``
    #: simulates from scratch.  Records are byte-identical either way.
    checkpoint_dir: Optional[str] = DEFAULTS["checkpoint_dir"]
    checkpoint_key: Optional[str] = None
    #: Cross-check mode: every fast-forwarded run is re-executed from
    #: scratch and the records compared; a difference raises
    #: :class:`repro.sim.checkpoint.RestoreParityError`.
    verify_restore: bool = DEFAULTS["verify_restore"]
    #: Early-termination mode: "off" simulates every run to completion,
    #: "converge" terminates runs whose state digest re-joins a golden
    #: checkpoint, "full" additionally accepts plan-time pre-screened
    #: verdicts.  Classifications are identical in all three modes.
    early_stop: str = DEFAULTS["early_stop"]
    #: Plan-time verdict: the golden liveness trace proved this mask's
    #: target dead, so the run is Masked without simulation.
    prescreened: bool = False
    prescreen_reason: str = ""
    #: Plan-time propagation payload for pre-screened runs: the
    #: injection cycle and the sites the mask resolves to
    #: (:meth:`repro.faults.sites.Site.record`), each with its
    #: liveness-proven fate, as JSON.  A string, not a dict -- RunSpec
    #: must stay hashable.
    prescreen_site: str = ""
    #: Observability: annotate the record with a ``timings`` breakdown
    #: (restore/simulate/classify wall-clock, cycles simulated vs
    #: skipped and why) and the executing ``worker`` id.  Off by
    #: default; classification fields are identical either way.
    telemetry: bool = False
    #: Fault-propagation tracing: ride a
    #: :class:`~repro.obs.propagation.PropagationTracer` along the run
    #: and attach its record under the ``propagation`` key.  Strictly
    #: observational -- classification fields are identical either way.
    propagation: bool = DEFAULTS["propagation"]
    #: Named :class:`~repro.faults.models.FaultModel` this run applies
    #: (see :mod:`repro.faults.models`).  ``"transient"`` reproduces
    #: the pre-strategy records byte-for-byte.
    fault_model: str = DEFAULTS["fault_model"]
    #: Adaptive-planner stratum key (see :mod:`repro.plan.strata`);
    #: empty for non-adaptive campaigns, and then absent from the
    #: record so default-path logs stay byte-identical.  Deterministic
    #: (a pure function of the mask), so it is canonical-safe.
    stratum: str = ""
    #: The one dynamic invocation of the kernel ``windows`` was
    #: restricted to (``None``: all of them).  The windows alone do not
    #: enter the plan fingerprint; this does, when set.
    invocation: Optional[int] = DEFAULTS["invocation"]
    #: The fault mask the plan drew for this run: every run it drew
    #: one for (to pre-screen it, or to stratify it), pre-screened or
    #: not.  ``None`` where it drew none; the run then draws it from
    #: ``seed`` (:func:`regenerate_mask`), the same mask.
    mask: Optional[FaultMask] = None

    @property
    def key(self) -> RunKey:
        """The run's address within its campaign."""
        return (self.kernel, self.structure.value, self.run_index)

    @property
    def instant(self) -> bool:
        """The run simulates nothing: its verdict is known at plan time."""
        return self.synthesized or self.prescreened


#: A spec's field names, in the order ``__init__`` sets them.
SPEC_FIELDS = tuple(field.name for field in dataclasses.fields(RunSpec))


def stamp(template: dict, **changes) -> RunSpec:
    """``RunSpec(**template, **changes)`` without ``__init__`` (a ninth
    of its cost; there is no ``__post_init__``): ``template`` names
    every field in field order, as ``vars()`` of a spec does, so the
    ``__dict__``, and the pickle, is the one ``__init__`` builds."""
    assert tuple(template) == SPEC_FIELDS, "a template names every field"
    assert template.keys() >= changes.keys()
    spec = object.__new__(RunSpec)
    spec.__dict__.update(template, **changes)
    return spec


def _worker_id() -> int:
    """Stable id of the executing worker process (0 = in-process)."""
    identity = multiprocessing.current_process()._identity
    return int(identity[0]) if identity else 0


def regenerate_mask(spec: RunSpec):
    """Re-derive the spec's fault mask from its seed.

    The mask is a pure function of the spec (the RNG is seeded from
    the derived per-run seed), so a run whose spec carries no mask
    (the plan drew none) draws the *same* one the plan would have --
    the property that keeps records byte-identical across early-stop
    modes and dispatch strategies.
    """
    return mask_draw(spec, np.random.default_rng(spec.seed))()


def mask_draw(spec: RunSpec, rng) -> Callable[[], FaultMask]:
    """Draws a mask of ``spec``'s (kernel, structure) from ``rng``, to
    be set to each run's stream in turn (``mask.seeded_streams``)."""
    generator = MaskGenerator(get_card(spec.card, spec.model_icache),
                              list(spec.windows), spec.regs_per_thread,
                              spec.smem_bytes, spec.local_bytes, rng)
    return functools.partial(
        generator.generate, spec.structure, n_bits=spec.bits_per_fault,
        mode=spec.multibit_mode, warp_level=spec.warp_level,
        n_blocks=spec.n_blocks, n_cores=spec.n_cores,
        fault_model=spec.fault_model)


def may_converge(spec: RunSpec) -> bool:
    """Whether matching golden state pins the rest of the run, so that
    its simulation may end at a matching digest and it may ride a
    lockstep pack (:func:`repro.faults.batch_executor.batch_eligible`).
    Not under a persistent fault model: the fault keeps mutating state
    after any match, and re-asserts into its pack column every cycle.
    """
    return not get_model(spec.fault_model).persistent


class ResolvedRun:
    """The resolve stage: what a spec's run needs, each part derived
    when first asked for -- so an instant verdict builds no more than
    it reports, and a pack member that peels goes on with what the
    pack already derived."""

    def __init__(self, spec: RunSpec):
        self.spec = spec

    @functools.cached_property
    def mask(self):
        return self.spec.mask or regenerate_mask(self.spec)

    @functools.cached_property
    def checkpoints(self):
        """The golden checkpoint set to restore from and compare with,
        or ``None`` when the spec names none, the set is missing, its
        golden manifest is unreadable, or it was captured from a
        golden run of another length (a stale set can neither restore
        nor witness convergence)."""
        spec = self.spec
        if not (spec.checkpoint_dir and spec.checkpoint_key):
            return None
        ckpt_set = CheckpointStore(spec.checkpoint_dir).open(
            spec.checkpoint_key)
        if ckpt_set is None or ckpt_set.golden_cycles != spec.golden_cycles:
            return None
        try:
            ckpt_set.golden()  # cached; every user of the set reads both
            ckpt_set.part_digests()
        except CheckpointError:
            return None
        return ckpt_set

    @property
    def stops_early(self) -> bool:
        """Whether the run ends where it is seen to match golden."""
        return (self.spec.early_stop in ("converge", "full")
                and may_converge(self.spec))

    @functools.cached_property
    def witnesses(self) -> List[dict]:
        """The golden digests the run's state is compared with: those
        past its injection cycle, when there is someone to tell -- the
        run itself (it stops early) or its propagation tracer."""
        if self.checkpoints is None or not (self.stops_early
                                            or self.spec.propagation):
            return []
        return self.checkpoints.digests_after(self.mask.cycle)

    def riders(self) -> dict:
        """What rides one width-1 simulation of the run, as
        :class:`~repro.sim.device.RunOptions` fields; fresh per attempt
        (logs, positions and armed state are consumed by a run)."""
        spec = self.spec
        tracer = (PropagationTracer(self.mask.cycle) if spec.propagation
                  else None)
        monitor = None
        if self.witnesses:
            monitor = ConvergenceMonitor(
                self.witnesses, self.checkpoints.golden()["host_reads"],
                spec.golden_cycles, terminate=self.stops_early,
                observer=tracer)
        return {"injector": Injector([self.mask], tracer=tracer),
                "convergence": monitor}


class Stopwatch:
    """Where the wall-clock of one run went, by stage.  Its driver
    starts it before anything else, the stages add what they measure,
    :func:`annotate` reads it.  A pack member's starts with its equal
    share of what the pack spent on all of them: that long ago."""

    def __init__(self, spent_s: float = 0.0, restore_s: float = 0.0,
                 simulate_s: float = 0.0):
        self.started = time.perf_counter() - spent_s
        self.restore_s = restore_s
        self.simulate_s = simulate_s
        self.classify_s = 0.0

    def total_s(self) -> float:
        return time.perf_counter() - self.started


def base_record(spec: RunSpec) -> dict:
    """The record fields known before simulating (the instant verdicts
    add little to it; :func:`classify` fills in the rest)."""
    record = {
        "benchmark": spec.benchmark,
        "card": spec.card,
        "kernel": spec.kernel,
        "structure": spec.structure.value,
        "run": spec.run_index,
        "effect": FaultEffect.MASKED.value,
        "golden_cycles": spec.golden_cycles,
        "synthesized": spec.synthesized,
    }
    if spec.fault_model != "transient":
        # emitted only off the default so transient records stay
        # byte-identical to the pre-strategy schema
        record["fault_model"] = spec.fault_model
    if spec.stratum:
        # emitted only for adaptive campaigns (same pattern)
        record["stratum"] = spec.stratum
    return record


def attempt(run: ResolvedRun, riders: Callable[[], dict],
            fast_forward=None):
    """One simulation of the run's application, from the restored
    snapshot or from cycle 0, under what ``riders()`` makes ride it."""
    from repro.bench import make_benchmark

    spec = run.spec
    return run_application(
        make_benchmark(spec.benchmark),
        get_card(spec.card, spec.model_icache),
        options=RunOptions(scheduler_policy=spec.scheduler_policy,
                           cycle_budget=spec.cycle_budget,
                           fast_forward=fast_forward, **riders()))


def simulate(run: ResolvedRun, riders: Callable[[], dict],
             target_cycle: int, watch: Stopwatch):
    """The restore -> simulate stages: fast-forward to the golden
    snapshot nearest ``target_cycle`` and simulate the suffix; any
    checkpoint problem (no set, no snapshot that early, a replay that
    diverged) falls back to a run from scratch, so the result is the
    same either way.  ``riders`` is :meth:`ResolvedRun.riders`, or a
    lockstep pack's."""
    started = time.perf_counter()
    result = None
    restore_s = 0.0
    fast_forward = (run.checkpoints.fast_forward(target_cycle)
                    if run.checkpoints is not None else None)
    if fast_forward is not None:
        try:
            result = attempt(run, riders, fast_forward)
            restore_s = fast_forward.restore_seconds
        except CheckpointError:
            pass  # replay diverged -> run from scratch
    if result is None:
        result = attempt(run, riders)
    watch.restore_s += restore_s
    watch.simulate_s += time.perf_counter() - started - restore_s
    return result


def classify(run: ResolvedRun, result, watch: Stopwatch) -> dict:
    """The classify stage: one result record from a completed
    application run.

    Deliberately carries no trace of *how* the run was simulated
    (fast-forwarded or from scratch, alone or in a pack): records must
    stay byte-identical for any such configuration.  Early termination
    is the one deliberate exception -- a convergence-terminated run
    carries its ``terminated_at`` cycle as provenance (the
    *classification* fields still match a full simulation exactly).
    """
    started = time.perf_counter()
    spec = run.spec
    record = base_record(spec)
    record["effect"] = classify_run(result, spec.golden_cycles).value
    record["mask"] = run.mask.to_dict()
    record.update({
        "status": result.status,
        "passed": result.passed,
        "cycles": result.cycles,
        "message": result.message,
        "error": result.error,
        "injections": result.injection_log,
    })
    if result.terminated_at is not None:
        record["terminated_at"] = result.terminated_at
    if result.propagation is not None:
        # deterministic (pure observation of a deterministic run), so
        # it participates in the verify-restore parity comparison
        record["propagation"] = result.propagation
    watch.classify_s += time.perf_counter() - started
    return record


#: What an instant verdict simulated: nothing.
_NOT_SIMULATED = RunResult(status="completed", passed=True, message="",
                           cycles=0)


def annotate(record: dict, spec: RunSpec, watch: Stopwatch,
             result: RunResult = _NOT_SIMULATED, skipped: str = "",
             pack_size: int = 0) -> dict:
    """The annotate stage: under telemetry, the record gains its
    volatile ``timings`` and ``worker`` keys (canonicalization drops
    them; every other field is identical either way).

    ``result`` is what was simulated for it (nothing for an instant
    verdict, which ``skipped`` the whole golden run as "prescreen" or
    "synthesized"); ``pack_size`` is set on a run resolved inside a
    lockstep pack.  The ``*_s`` fields are wall-clock and vary between
    executions; the others are pure functions of the spec.
    """
    if not spec.telemetry:
        return record
    restored_at, terminated_at = result.restored_at, result.terminated_at
    # where simulation actually stopped: the convergence cycle when
    # early-stopped (result.cycles then reports the inherited golden
    # total), the final device cycle otherwise
    sim_end = terminated_at if terminated_at is not None else result.cycles
    timings = {
        "restore_s": round(watch.restore_s, 6),
        "simulate_s": round(watch.simulate_s, 6),
        "classify_s": round(watch.classify_s, 6),
        "total_s": round(watch.total_s(), 6),
        "cycles_simulated": max(sim_end - (restored_at or 0), 0),
        # golden cycles re-simulated from the restore to its own injection
        "prefix_cycles": (max(record["mask"]["cycle"] - (restored_at or 0), 0)
                          if result is not _NOT_SIMULATED else 0),
        "skipped_fast_forward": restored_at or 0,
        "skipped_convergence": (
            max(spec.golden_cycles - terminated_at, 0)
            if terminated_at is not None else 0),
        "skipped_prescreen": 0,
        "skipped_synthesized": 0,
        "fast_forwarded": restored_at is not None,
        "loop_iterations": result.loop_iterations,
        "idle_cycles_skipped": result.idle_cycles_skipped,
    }
    if skipped:
        timings[f"skipped_{skipped}"] = spec.golden_cycles
    if pack_size:
        timings["batched"] = True
        timings["pack_size"] = pack_size
    record["timings"] = timings
    record["worker"] = _worker_id()
    return record


def finish_solo(run: ResolvedRun, watch: Stopwatch) -> dict:
    """Simulate -> classify -> annotate one resolved run at width 1:
    the rest of :func:`execute_run`, and of a pack member that left
    its pack."""
    spec = run.spec
    result = simulate(run, run.riders, run.mask.cycle, watch)
    record = classify(run, result, watch)
    if result.restored_at is not None and spec.verify_restore:
        baseline = classify(run, attempt(run, run.riders), watch)
        if (json.dumps(record, sort_keys=True)
                != json.dumps(baseline, sort_keys=True)):
            raise RestoreParityError(
                f"run {spec.key} diverged after checkpoint restore:\n"
                f"  fast-forwarded: {json.dumps(record, sort_keys=True)}\n"
                f"  from scratch:   {json.dumps(baseline, sort_keys=True)}")
    # annotated only after the verify comparison: timings are
    # wall-clock noise the parity check must not see
    return annotate(record, spec, watch, result)


def execute_run(spec: RunSpec) -> dict:
    """Execute one injection run and return its result record: an
    instant verdict, or resolve -> restore -> simulate -> classify ->
    annotate.

    Pure: the record depends only on ``spec``, never on process state,
    execution order or sibling runs -- the property that makes pool
    dispatch and resumption sound.  How little of the run is simulated
    (nothing of a ``synthesized`` or ``prescreened`` spec, the suffix
    after a restored snapshot, up to a golden digest that matches)
    changes no classification field.
    """
    watch = Stopwatch()
    record = base_record(spec)
    if spec.synthesized:
        if spec.propagation:
            record["propagation"] = synthesized_propagation()
        return annotate(record, spec, watch, skipped="synthesized")
    if spec.prescreened:
        record["mask"] = (spec.mask or regenerate_mask(spec)).to_dict()
        record["prescreened"] = True
        record["prescreen_reason"] = spec.prescreen_reason
        if spec.propagation:
            record["propagation"] = prescreen_propagation(
                spec.prescreen_site)
        return annotate(record, spec, watch, skipped="prescreen")
    return finish_solo(ResolvedRun(spec), watch)


def _pool_context():
    """Fork where available (cheap workers), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def profile_path_for(log_path: Union[str, Path], worker: int) -> str:
    """Per-worker cProfile sidecar next to a campaign log (the same
    naming scheme as ``<log>.metrics.json``)."""
    return str(log_path) + f".profile.{worker}.pstats"


class _UnitRunner:
    """Picklable per-unit work function.

    The pool's unit of work is either ``("solo", spec)`` -- one
    ``run_fn`` call -- or ``("pack", (spec, ...))`` -- one batched
    lockstep execution.  Both return ``(records, batch_stats)`` so the
    drain loop is uniform; solo units carry no batch stats.
    """

    def __init__(self, run_fn):
        self.run_fn = run_fn

    def __call__(self, unit) -> Tuple[List[dict], Optional[dict]]:
        kind, payload = unit
        if kind == "pack":
            from repro.faults.batch_executor import execute_pack

            return execute_pack(list(payload))
        return [self.run_fn(payload)], None


#: Per-process profiler for ``--profile`` runs (created lazily in each
#: worker; fork/spawn children start with None).
_PROFILER = None


class _ProfiledRunner:
    """Wraps the unit runner with a per-worker cProfile.

    Stats accumulate across every unit the worker executes and are
    re-dumped after each one (pool workers have no shutdown hook), so
    the sidecar is always complete up to the last finished unit.
    """

    def __init__(self, fn, log_path):
        self.fn = fn
        self.log_path = str(log_path)

    def __call__(self, unit):
        global _PROFILER
        import cProfile

        if _PROFILER is None:
            _PROFILER = cProfile.Profile()
        _PROFILER.enable()
        try:
            return self.fn(unit)
        finally:
            _PROFILER.disable()
            _PROFILER.dump_stats(
                profile_path_for(self.log_path, _worker_id()))


def zero_pack_stats() -> Dict[str, object]:
    """The counters of lockstep-pack execution at zero: what one pack
    reports (:func:`repro.faults.batch_executor.execute_pack`) and a
    campaign sums (:attr:`CampaignExecutor.batch_stats`)."""
    return {"packs": 0, "members": 0, "converged": 0,
            "completed_in_pack": 0, "peeled": 0, "solo_fallback": 0,
            "peel_cycles": [], "lockstep_cycles": 0, "member_cycles": 0}


class WorkerPoolError(RuntimeError):
    """The worker pool can no longer make progress.

    Raised instead of hanging forever when a worker process is killed
    (its in-flight task is lost and ``imap_unordered`` would block
    indefinitely) or when no run completes within ``run_timeout``
    seconds.  The message names the run keys still unaccounted for, so
    the offending spec can be found and the campaign resumed.
    """


class CampaignExecutor:
    """Executes a plan of :class:`RunSpec` on a worker pool.

    Args:
        jobs: worker process count; ``1`` executes in-process (no
            pool, no pickling) with identical results.  A pool gets
            only the runs that simulate: this process records the
            instant ones first.
        progress: optional callback receiving progress lines.
        progress_every: emit progress every N completed runs.
        log_path: JSONL file records are streamed to as they finish.
        resume: reuse records already present in ``log_path`` (from an
            interrupted campaign) instead of re-running them; fresh
            records are appended to the log.
        telemetry: annotate every record with its ``timings``/``worker``
            observability fields, and have the campaign's ledger keep
            the ``<log>.events.jsonl`` journal and write the
            ``<log>.metrics.json`` sidecar at the end.
            Classification fields are identical either way.
        run_timeout: abort with :class:`WorkerPoolError` when no run
            completes for this many seconds (``None`` waits forever).
            Applies per dispatch unit: a pack of N runs counts as one
            completion.
        heartbeat_interval: seconds between worker-health checks (and
            ``heartbeat`` events) while the pool is silent.
        run_fn: the per-spec work function (tests substitute failing
            ones); defaults to :func:`execute_run`.
        batch: lockstep batch size (see
            :mod:`repro.faults.batch_executor`).  Eligible runs are
            grouped into packs of at most this many members; ``1``
            dispatches every run solo.  Records are byte-identical
            (canonical form) for any value.
        profile: wrap every worker's work loop in a cProfile and dump
            a ``<log>.profile.<worker>.pstats`` sidecar (requires
            ``log_path``); inspect with ``gpufi report-profile``.
        plan_timing: where planning the specs spent its time
            (:attr:`repro.faults.campaign.Campaign.plan_timing`);
            reported in the ``campaign_start`` event and the sidecar's
            ``campaign`` section.
    """

    def __init__(self, jobs: int = 1,
                 progress: Optional[Callable[[str], None]] = None,
                 progress_every: int = 25,
                 log_path: Optional[Union[str, Path]] = None,
                 resume: bool = False,
                 telemetry: bool = False,
                 run_timeout: Optional[float] = None,
                 heartbeat_interval: float = 5.0,
                 run_fn: Optional[Callable[[RunSpec], dict]] = None,
                 batch: int = 1,
                 profile: bool = False,
                 plan_timing: Optional[Dict[str, object]] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError("run_timeout must be positive")
        if profile and log_path is None:
            raise ValueError("profile requires a log path (the pstats "
                             "sidecars are named after it)")
        self.jobs = jobs
        self._progress = progress or (lambda msg: None)
        self.progress_every = max(progress_every, 1)
        self.log_path = Path(log_path) if log_path is not None else None
        self.resume = resume
        self.telemetry = telemetry
        self.run_timeout = run_timeout
        self.heartbeat_interval = heartbeat_interval
        self._run_fn = run_fn if run_fn is not None else execute_run
        self.batch = batch
        self.profile = profile
        self.plan_timing = plan_timing or {}
        #: Aggregated lockstep-batching counters of the last
        #: :meth:`execute` call (always maintained; also surfaced in
        #: the metrics sidecar's ``batch`` section under telemetry).
        self.batch_stats: Dict[str, object] = {}

    def execute(self, specs: Sequence[RunSpec]) -> List[dict]:
        """Run every spec as one campaign, from its ledger's opening
        to its close; returns records in plan (spec) order."""
        with self.open(specs) as ledger:
            return self.run(ledger, specs)

    def open(self, plan: Sequence[RunSpec],
             adaptive: bool = False) -> CampaignLedger:
        """The ledger of a campaign this executor runs -- log, resume,
        journal and sidecar as the constructor was told -- whose header
        names ``plan``: the specs to :meth:`run`, or an ``adaptive``
        campaign's candidate plan, whose rounds are run one by one."""
        self.batch_stats = zero_pack_stats()
        return CampaignLedger(
            plan, self.log_path, resume=self.resume,
            journal=self.telemetry, sidecar=self.telemetry,
            adaptive=adaptive, jobs=self.jobs, **self.plan_timing)

    def run(self, ledger: CampaignLedger,
            specs: Sequence[RunSpec]) -> List[dict]:
        """Execute those of ``specs`` the ledger holds no record of
        and hand it theirs; returns the ledger's records, in the order
        of its plan (which ``specs`` join, if they are new to it)."""
        ledger.admit(specs)
        ledger.flush()
        pending = [spec for spec in specs if spec.key not in ledger.records]
        if len(pending) < len(specs):
            self._progress(f"resuming: {len(specs) - len(pending)} of "
                           f"{len(specs)} runs already recorded")
        if self.telemetry:
            pending = [stamp(vars(spec), telemetry=True) for spec in pending]
        instant = []
        if self.jobs > 1 and self._run_fn is execute_run:
            # an instant verdict costs less here than its trip through
            # the pool: recorded before the pool starts (not with a
            # substituted run_fn, see _build_units)
            instant = [execute_run(spec) for spec in pending if spec.instant]
            pending = [spec for spec in pending if not spec.instant]
        tally, every = ledger.tally, self.progress_every
        try:
            for records, pack_stats in itertools.chain(
                    [(instant, None)],
                    self._completions(self._build_units(pending), ledger)):
                for key, value in (pack_stats or {}).items():
                    # counters add up, the peel_cycles samples append
                    self.batch_stats[key] += value
                before = tally.executed // every
                if ledger.absorb(records) and (
                        tally.executed // every > before
                        or tally.done >= tally.total):
                    self._progress(tally.progress())
                ledger.flush()
        finally:
            ledger.sections["batch"] = batch_section(self.batch_stats)
        return ledger.ordered()

    # -- internals -----------------------------------------------------------

    def _build_units(self, pending: Sequence[RunSpec]) -> List[tuple]:
        """Partition pending specs into dispatch units.

        Lockstep packs are only formed for the real work function --
        a substituted ``run_fn`` (tests, dry runs) defines solo-run
        semantics the pack path would bypass.
        """
        if self.batch <= 1 or self._run_fn is not execute_run:
            return [("solo", spec) for spec in pending]
        from repro.faults.batch_executor import group_packs

        return group_packs(pending, self.batch)

    def _completions(self, units: Sequence[tuple], ledger):
        """Yield ``(records, batch_stats)`` as units complete (any
        order); solo units carry ``None`` stats."""
        if not units:
            return
        runner = _UnitRunner(self._run_fn)
        if self.profile:
            runner = _ProfiledRunner(runner, self.log_path)
        if self.jobs == 1:
            for unit in units:
                yield runner(unit)
            return
        ctx = _pool_context()
        # (a worker dies of SIGTERM whatever its parent makes of one)
        with ctx.Pool(self.jobs, signal.signal,
                      (signal.SIGTERM, signal.SIG_DFL)) as pool:
            yield from self._pool_completions(pool, units, runner,
                                              ledger)

    def _pool_completions(self, pool, units: Sequence[tuple], runner,
                          ledger):
        """Drain the pool, guarding against lost workers and stalls.

        A hard-killed worker's in-flight task is simply gone: the pool
        replaces the process but never re-queues the task, so a bare
        ``imap_unordered`` loop blocks forever on a completion that
        cannot arrive.  Poll with a timeout instead and, while the pool
        is silent, verify the worker set is still the one that started
        (the replacement itself is the evidence -- pool workers only
        exit at shutdown) and that the silence has not exceeded
        ``run_timeout``.
        """
        poll = self.heartbeat_interval
        if self.run_timeout is not None:
            poll = max(min(poll, self.run_timeout / 2), 0.05)
        completions = pool.imap_unordered(runner, units, chunksize=1)
        initial_pids = {worker.pid for worker in pool._pool}
        silent_since = time.monotonic()
        while True:
            try:
                result = completions.next(timeout=poll)
            except StopIteration:
                return
            except multiprocessing.TimeoutError:
                self._check_pool_health(
                    pool, initial_pids,
                    time.monotonic() - silent_since, ledger)
                continue
            silent_since = time.monotonic()
            yield result

    def _check_pool_health(self, pool, initial_pids, waited: float,
                           ledger) -> None:
        """Raise :class:`WorkerPoolError` if the pool cannot progress."""
        # whatever completed is in the ledger by the time the pool is
        # asked again
        remaining = [key for key in ledger.keys if key not in ledger.records]
        workers = list(pool._pool)
        current_pids = {worker.pid for worker in workers}
        lost = sorted(initial_pids - current_pids)
        crashed = sorted(worker.pid for worker in workers
                         if worker.exitcode not in (None, 0))
        ledger.event("heartbeat", waited_s=round(waited, 3),
                     pending=len(remaining),
                     workers_alive=sum(1 for w in workers if w.is_alive()),
                     workers_lost=len(lost) + len(crashed))
        ledger.flush()
        sample = ", ".join(
            "/".join(map(str, key)) for key in sorted(remaining)[:5])
        if lost or crashed:
            raise WorkerPoolError(
                f"worker process(es) {lost or crashed} died; their "
                f"in-flight runs are lost and the pool would wait on "
                f"them forever. {len(remaining)} run(s) incomplete, "
                f"first: {sample}. Re-run with resume to finish them.")
        if self.run_timeout is not None and waited >= self.run_timeout:
            raise WorkerPoolError(
                f"no run completed for {waited:.1f}s "
                f"(run_timeout={self.run_timeout:g}s); "
                f"{len(remaining)} run(s) incomplete, first: {sample}.")
