"""The injection campaign controller (module 2 of gpuFI-4).

This module plays the role of the paper's bash front-end: it profiles
the fault-free application once, derives per-kernel execution windows
and statistics, generates fault masks, executes the batch of injected
runs, classifies each outcome and aggregates the results.

Per the paper's methodology (section VI.A): faults target a *static
kernel* across **all** of its invocations (the mask generator samples
cycles from the union of the invocation windows), the timeout watchdog
is twice the fault-free execution time, and every injected run is a
complete application execution on a fresh device.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.faults.classify import TIMEOUT_FACTOR, FaultEffect
from repro.faults.early_stop import EARLY_STOP_MODES, Prescreener
from repro.faults.executor import RunSpec, mask_draw, remember_mask, stamp
from repro.faults.mask import (derive_run_seeds, mask_population,
                               seeded_streams, stream_states)
from repro.faults.options import CampaignConfig, spec_constants
from repro.faults.runner import RunResult, run_application
from repro.faults.targets import Structure
from repro.sim.cards import get_card
from repro.sim.checkpoint import (CheckpointError, CheckpointRecorder,
                                  CheckpointSet, CheckpointStore,
                                  RestoreParityError, campaign_fingerprint,
                                  placement)
from repro.sim.device import RunOptions
from repro.sim.liveness import LivenessTrace
from repro.sim.stats import LaunchStats

if TYPE_CHECKING:  # the estimator's package imports this module
    from repro.plan.estimator import Groups, StratifiedEstimate


@dataclass
class KernelProfile:
    """Fault-free statistics of one static kernel (all invocations)."""

    name: str
    windows: List[Tuple[int, int]]
    total_cycles: int
    regs_per_thread: int
    smem_bytes: int
    local_bytes: int
    threads_per_cta: int
    occupancy: float
    mean_threads_per_sm: float
    mean_ctas_per_sm: float
    cores_used: List[int]
    instructions: int

    @property
    def invocations(self) -> int:
        """How many times the static kernel was launched."""
        return len(self.windows)


@dataclass
class AppProfile:
    """Fault-free profile of one application on one card."""

    benchmark: str
    card: str
    total_cycles: int
    kernels: Dict[str, KernelProfile]

    def app_occupancy(self) -> float:
        """Cycle-weighted warp occupancy of the application (Fig. 3 dots)."""
        if not self.total_cycles:
            return 0.0
        return sum(k.occupancy * k.total_cycles
                   for k in self.kernels.values()) / self.total_cycles

    def kernel_weight(self, name: str) -> float:
        """Cycle weight of one kernel (the wAVF weight of eq. 3)."""
        if not self.total_cycles:
            return 0.0
        return self.kernels[name].total_cycles / self.total_cycles


@dataclass
class GoldenRun:
    """What the fault-free run of one configuration produced --
    everything a campaign plans from.  Obtain it through
    :meth:`Campaign.golden_run`."""

    profile: AppProfile
    cycles: int
    #: The run's liveness trace; ``None`` when it was not traced.
    liveness: Optional[LivenessTrace] = None
    #: How it was obtained -- "simulated", "loaded" (from a checkpoint
    #: set) or "memo" (of this process) -- and what that took; not part
    #: of its value.
    source: str = field(default="simulated", compare=False)
    seconds: float = field(default=0.0, compare=False)


class PlanError(ValueError):
    """Options that do not fit the application or each other."""


#: The golden runs this process simulated or loaded, by
#: :meth:`Campaign._fingerprint` and the set's ``stamp`` (``None``
#: without a set): only runs that returned, shared and read-only.
#: Bounded (emptied when full), never pickled.
_GOLDEN_RUNS: Dict[tuple, GoldenRun] = {}
GOLDEN_CAP = 16


def _make_benchmark(name: str):
    from repro.bench import make_benchmark

    return make_benchmark(name)


def profile_application(benchmark_name: str, card: str,
                        scheduler_policy: str = "gto",
                        checkpointer=None, liveness=None
                        ) -> Tuple[AppProfile, RunResult]:
    """Run the fault-free ("golden") execution and build the profile.

    With a ``checkpointer``
    (:class:`repro.sim.checkpoint.CheckpointRecorder`), the golden run
    also captures architectural snapshots and is finalized into a
    complete on-disk checkpoint set fault runs can fast-forward from.
    With a ``liveness`` trace
    (:class:`repro.sim.liveness.LivenessTrace`), it additionally
    records per-structure liveness intervals for dead-site
    pre-screening (and the set keeps the trace).
    """
    bench = _make_benchmark(benchmark_name)
    golden = run_application(
        bench, card, keep_device=True,
        options=RunOptions(scheduler_policy=scheduler_policy,
                           checkpointer=checkpointer,
                           liveness=liveness))
    if golden.status != "completed" or not golden.passed:
        raise RuntimeError(
            f"fault-free run of {benchmark_name} on {card} did not pass: "
            f"{golden.status} / {golden.message} {golden.error}")
    if checkpointer is not None:
        checkpointer.finalize(golden.device.launches, golden.cycles,
                              liveness)
    profile = profile_from_launches(benchmark_name, card,
                                    golden.device.launches)
    golden.device.gpu.release()
    golden.device = None  # free the simulator state
    return profile, golden


def profile_from_launches(benchmark_name: str, card,
                          launch_stats: Sequence[LaunchStats]) -> AppProfile:
    """The profile of a golden run, from the statistics of its
    launches and the benchmark's kernel metadata."""
    kernel_meta = {k.name: k
                   for k in _make_benchmark(benchmark_name).kernels()}
    per_kernel: Dict[str, List] = defaultdict(list)
    for launch in launch_stats:
        per_kernel[launch.kernel_name].append(launch)

    kernels: Dict[str, KernelProfile] = {}
    for name, launches in per_kernel.items():
        total = sum(ls.cycles for ls in launches)
        meta = kernel_meta[name]

        def _wmean(values, weights=launches):
            return (sum(v * ls.cycles for v, ls in zip(values, weights))
                    / total if total else 0.0)

        cores = set()
        for ls in launches:
            cores |= ls.cores_used
        kernels[name] = KernelProfile(
            name=name,
            windows=[(ls.start_cycle, ls.end_cycle) for ls in launches],
            total_cycles=total,
            regs_per_thread=meta.num_regs,
            smem_bytes=meta.smem_bytes,
            local_bytes=meta.local_bytes,
            threads_per_cta=launches[0].threads_per_cta,
            occupancy=_wmean([ls.occupancy for ls in launches]),
            mean_threads_per_sm=_wmean(
                [ls.mean_threads_per_sm for ls in launches]),
            mean_ctas_per_sm=_wmean([ls.mean_ctas_per_sm for ls in launches]),
            cores_used=sorted(cores),
            instructions=sum(ls.instructions for ls in launches),
        )
    return AppProfile(
        benchmark=benchmark_name,
        card=get_card(card).name if isinstance(card, str) else card.name,
        total_cycles=sum(k.total_cycles for k in kernels.values()),
        kernels=kernels,
    )


def _stored_golden_run(ckpt_set: CheckpointSet, benchmark_name: str, card,
                       traced: bool) -> Optional[GoldenRun]:
    """The golden run a checkpoint set holds, with its trace when
    ``traced`` asks for it and the set has a readable one; ``None``
    when the set's manifest is unreadable."""
    try:
        golden = ckpt_set.golden()
    except CheckpointError:
        return None
    liveness = None
    if traced:
        try:
            liveness = ckpt_set.liveness()
        except CheckpointError:
            pass
    return GoldenRun(
        profile_from_launches(benchmark_name, card, golden["launch_stats"]),
        golden["golden_cycles"], liveness, source="loaded")


@dataclass
class CampaignResult:
    """Aggregated outcome of one campaign."""

    config: CampaignConfig
    profile: AppProfile
    golden_cycles: int
    records: List[dict]
    #: (kernel, structure value) -> the group's estimate, which every
    #: ratio and margin below reads (:func:`repro.plan.estimator.fold`)
    estimates: Groups

    def estimate(self, kernel: str,
                 structure: Structure) -> StratifiedEstimate:
        return self.estimates[(kernel, structure.value)]

    @property
    def counts(self) -> Dict[str, Dict[Structure, Dict[FaultEffect, int]]]:
        """counts[kernel][structure][effect] -> number of runs"""
        return _nested_counts(self.estimates)

    def kernels(self) -> List[str]:
        """The kernels injected, in the order their groups came."""
        return list(dict.fromkeys(kernel for kernel, _ in self.estimates))

    def runs(self, kernel: str, structure: Structure) -> int:
        """Total injections performed on (kernel, structure)."""
        return self.estimate(kernel, structure).executed()

    def failures(self, kernel: str, structure: Structure) -> int:
        """Injections that led to SDC, Crash or Timeout."""
        return sum(stats.failures for stats
                   in self.estimate(kernel, structure).strata.values())

    def failure_ratio(self, kernel: str, structure: Structure) -> float:
        """FR_structure of eq. (1)."""
        return self.estimate(kernel, structure).failure_ratio()

    def effect_ratio(self, kernel: str, structure: Structure,
                     effect: FaultEffect) -> float:
        """Fraction of injections with a given fault effect."""
        return self.estimate(kernel, structure).effect_ratio(effect)

    def margin(self, kernel: str, structure: Structure) -> float:
        """Half-width of the 99% interval of the failure ratio."""
        return self.estimate(kernel, structure).combined_margin()

    def summary(self) -> str:
        """Human-readable per-kernel, per-structure breakdown."""
        lines = [f"campaign: {self.config.benchmark} on {self.profile.card} "
                 f"({self.config.bits_per_fault}-bit faults)"]
        for kernel, per_structure in self.counts.items():
            weight = self.profile.kernel_weight(kernel)
            lines.append(f"  kernel {kernel} (cycle weight {weight:.2f})")
            for structure, effects in per_structure.items():
                total = sum(effects.values())
                parts = ", ".join(
                    f"{eff.value}={n}" for eff, n in sorted(
                        effects.items(), key=lambda kv: kv[0].value))
                fr = self.failure_ratio(kernel, structure)
                lines.append(f"    {structure.value:<14} n={total:<5} "
                             f"FR={fr:.3f}  [{parts}]")
        return "\n".join(lines)


class Campaign:
    """Runs a full injection campaign and aggregates the results.

    The campaign is a three-phase pipeline, each phase public:

    1. :meth:`plan` takes the fault-free application's profile from
       :meth:`golden_run` (simulated once per configuration, not once
       per campaign) and
       enumerates every injection run as an addressable
       :class:`~repro.faults.executor.RunSpec` whose seed is derived
       from ``(campaign seed, kernel, structure, run_index)``;
    2. :meth:`execute` dispatches the specs -- serially, on a worker
       pool or to a fleet -- into the campaign's ledger
       (:meth:`session`);
    3. :meth:`aggregate` folds the result records into a
       :class:`CampaignResult`: one estimate per ``(kernel, structure)``
       (:func:`repro.plan.estimator.fold`).

    :meth:`run` chains the three, so existing callers are unchanged.
    Because every run's randomness is keyed on its coordinates, the
    aggregated result is byte-identical for any ``jobs`` count and
    for resumed runs.
    """

    def __init__(self, config: CampaignConfig,
                 progress: Optional[Callable[[str], None]] = None,
                 golden: Optional[GoldenRun] = None):
        self.config = config
        self._progress = progress or (lambda msg: None)
        #: Memo of :meth:`golden_run`; pass ``golden`` to share the
        #: one of another campaign on the same configuration.
        self._golden = golden
        #: Where the last :meth:`plan` call's time went: ``plan_s``,
        #: ``golden`` ("simulated" / "loaded" / "memo"), ``golden_s``
        #: (observability; travels in the ``campaign_start`` event).
        self.plan_timing: Dict[str, object] = {}
        #: Metrics sidecar document of the last :meth:`session`
        #: (``None`` unless ``config.metrics`` is on).
        self.last_metrics: Optional[dict] = None
        #: Adaptive-planner report of the last :meth:`run` call
        #: (``None`` unless ``config.adaptive`` is on); see
        #: :class:`repro.plan.driver.PlanReport`.
        self.last_plan = None

    @property
    def profile(self) -> Optional[AppProfile]:
        """The golden profile, once :meth:`golden_run` has one."""
        return self._golden.profile if self._golden is not None else None

    @property
    def golden_cycles(self) -> Optional[int]:
        """The golden run's length, once :meth:`golden_run` has one."""
        return self._golden.cycles if self._golden is not None else None

    def _fingerprint(self) -> str:
        """What the golden run is a run of: the key of its checkpoint
        set and of this process's golden-run memo."""
        cfg = self.config
        return campaign_fingerprint(_make_benchmark(cfg.benchmark),
                                    cfg.resolved_card(),
                                    cfg.scheduler_policy)

    def golden_run(self, traced: bool = False) -> GoldenRun:
        """The golden run of this configuration (with its liveness
        trace when ``traced``), from the cheapest source that has it:
        this campaign's memo, then the process's memo of this set (or
        of no set), then the checkpoint set on disk, then a simulation.

        With ``checkpoint_dir`` set, a simulation also captures the
        checkpoint set -- unless a complete set of the wanted placement
        exists already, which then only gains the trace it lacked.
        ``verify_restore`` simulates even when the set or the process
        has everything, and raises :class:`RestoreParityError` unless
        the set and the simulation agree; it neither reads nor fills
        the process's memo, and nor does a capture.
        """
        cfg = self.config

        def has_what_is_asked(golden: Optional[GoldenRun]) -> bool:
            return golden is not None and (golden.liveness is not None
                                           or not traced)

        ckpt_set = store = None
        if cfg.checkpoint_dir is not None:
            store = CheckpointStore(cfg.checkpoint_dir)
            key = self._fingerprint()
            ckpt_set = store.open(key)
            if ckpt_set is not None and ckpt_set.meta.get(
                    "placement") != placement(cfg.checkpoint_interval):
                ckpt_set = None
        if has_what_is_asked(self._golden) and (store is None
                                                or ckpt_set is not None):
            return self._golden
        memo = not cfg.verify_restore and (store is None
                                           or ckpt_set is not None)
        if memo:
            memo_key = (key if store is not None else self._fingerprint(),
                        ckpt_set and ckpt_set.stamp)
            kept = _GOLDEN_RUNS.get(memo_key)
            if has_what_is_asked(kept):
                self._golden = dataclasses.replace(kept, source="memo",
                                                   seconds=0.0)
                return self._golden
        started = time.perf_counter()
        card = cfg.resolved_card()
        stored = None
        if ckpt_set is not None:
            stored = _stored_golden_run(ckpt_set, cfg.benchmark, card,
                                        traced)
        if stored is not None and stored.cycles != ckpt_set.golden_cycles:
            if cfg.verify_restore:
                raise RestoreParityError(
                    f"checkpoint set {ckpt_set.directory} contradicts "
                    f"itself: its manifest records a golden run of "
                    f"{stored.cycles} cycles, its meta.json one of "
                    f"{ckpt_set.golden_cycles}")
            stored = None
        if has_what_is_asked(stored) and not cfg.verify_restore:
            golden = stored
        else:
            # a set that cannot be planned from is captured afresh
            # finalizing it replaces any stale set
            recorder = (CheckpointRecorder(store.path(key),
                                           cfg.checkpoint_interval)
                        if store is not None and stored is None else None)
            liveness = LivenessTrace() if traced else None
            profile, result = profile_application(
                cfg.benchmark, card, cfg.scheduler_policy,
                checkpointer=recorder, liveness=liveness)
            golden = GoldenRun(profile, result.cycles, liveness)
            if stored is not None:
                same = (stored.profile == golden.profile
                        and stored.cycles == golden.cycles)
                if stored.liveness is not None:
                    same = same and stored.liveness == liveness
                elif traced and same:
                    ckpt_set.add_liveness(liveness)
                if cfg.verify_restore and not same:
                    raise RestoreParityError(
                        f"the golden run stored in {ckpt_set.directory} "
                        f"({stored.cycles} cycles) differs from its "
                        f"re-simulation ({golden.cycles} cycles) in "
                        "profile, length or liveness trace")
        golden.seconds = time.perf_counter() - started
        if memo and (store is None or stored is not None):  # no capture
            if len(_GOLDEN_RUNS) >= GOLDEN_CAP:
                _GOLDEN_RUNS.clear()
            _GOLDEN_RUNS[memo_key] = golden
        self._golden = golden
        return golden

    def prescreener(self) -> Optional[Prescreener]:
        """The judge of this campaign's masks against its golden
        liveness trace; ``None`` without a trace, and under a
        persistent fault model: golden-trace deadness ("overwritten
        before read") does not survive re-assertion."""
        # of the golden run this campaign has: asking the directory
        # again mid-plan would re-simulate, untraced, whenever a racing
        # capture is just then replacing the set
        cfg = self.config
        liveness = (self._golden or self.golden_run()).liveness
        if liveness is None or not cfg.resolved_model().prescreen_safe:
            return None
        return Prescreener(liveness, cfg.resolved_card(),
                           cache_hook_mode=cfg.cache_hook_mode)

    def plan(self) -> List[RunSpec]:
        """Enumerate every injection run of the campaign.

        With ``checkpoint_dir`` set, every planned spec references the
        golden run's checkpoint set for fast-forward execution (see
        :meth:`golden_run` for when that set is captured and when a
        plan simulates nothing).
        """
        return self._plan()[0]

    def _plan(self, ranges: Optional[Dict[tuple, range]] = None,
              hand_over: bool = False) -> Tuple[List[RunSpec], dict]:
        """:meth:`plan` of the run indices ``ranges`` names by
        ``(kernel, structure)`` (default: ``range(runs_per_structure)``
        of every group), and ``{n: (mask, verdict)}`` of every spec not
        synthesized when ``hand_over`` asks (``verdict`` ``None``
        without a pre-screener; else empty): the caller takes them, and
        no mask is kept for execution (``remember_mask``)."""
        started = time.perf_counter()
        cfg = self.config
        if cfg.early_stop not in EARLY_STOP_MODES:
            raise PlanError(
                f"early_stop must be one of {EARLY_STOP_MODES}, "
                f"got {cfg.early_stop!r}")
        try:
            cfg.resolved_model().check_cache_hooks(cfg.cache_hook_mode)
        except ValueError as exc:
            raise PlanError(exc) from None
        traced = cfg.early_stop == "full"
        golden = self.golden_run(traced)
        checkpoint_key = self._fingerprint() if cfg.checkpoint_dir else None
        prescreener = self.prescreener() if traced else None

        kernels = golden.profile.kernels
        target_kernels = list(cfg.kernels) if cfg.kernels else sorted(kernels)
        unknown = [name for name in target_kernels if name not in kernels]
        if unknown:
            raise PlanError(
                f"{cfg.benchmark} has no kernel {', '.join(unknown)}; its "
                f"kernels are {', '.join(sorted(kernels))}")
        structures = cfg.resolved_structures()

        # one template spec per (kernel, structure), in plan order
        constants = dict(spec_constants(cfg), golden_cycles=golden.cycles,
                         cycle_budget=TIMEOUT_FACTOR * golden.cycles,
                         checkpoint_key=checkpoint_key, run_index=0, seed=0)
        templates: List[RunSpec] = []
        for kernel_name in target_kernels:
            kp = kernels[kernel_name]
            windows = kp.windows
            if cfg.invocation is not None:
                if not 0 <= cfg.invocation < len(windows):
                    raise PlanError(
                        f"kernel {kernel_name} has {len(windows)} "
                        f"invocation(s); index {cfg.invocation} "
                        "out of range")
                windows = [windows[cfg.invocation]]
            of_kernel = dict(
                constants, kernel=kernel_name,
                windows=tuple((s, e) for s, e in windows),
                regs_per_thread=kp.regs_per_thread,
                smem_bytes=kp.smem_bytes, local_bytes=kp.local_bytes)
            for structure in structures:
                # a kernel that allocates none of the target structure:
                # the fault lands in unallocated space and is masked by
                # construction -- no simulation needed
                no_target = (
                    (structure is Structure.SHARED_MEM
                     and kp.smem_bytes == 0)
                    or (structure is Structure.LOCAL_MEM
                        and kp.local_bytes == 0))
                templates.append(RunSpec(structure=structure,
                                         synthesized=no_target, **of_kernel))
        runs = [range(cfg.runs_per_structure) if ranges is None
                else ranges.get((template.kernel, template.structure), ())
                for template in templates]
        coords = [(t, i) for t, group in enumerate(runs) for i in group]
        seeds = derive_run_seeds(cfg.seed, [
            (template.kernel, template.structure, i)
            for template, group in zip(templates, runs) for i in group],
            cfg.fault_model)
        drawn, verdicts = {}, {}
        for n, mask, verdict in (_draws(templates, coords, seeds, prescreener)
                                 if prescreener or hand_over else ()):
            if hand_over:
                drawn[n] = mask, verdict
            if verdict is not None and verdict.reason:
                # under propagation, the plan-time fate: the sites the
                # mask resolves to, each with the fate the trace proves
                site = json.dumps({"cycle": mask.cycle, "sites": [
                    where.record(fate) for where, fate
                    in zip(verdict.sites, verdict.fates)]},
                    sort_keys=True) if cfg.propagation else ""
                verdicts[n] = mask, dict(prescreened=True, prescreen_site=site,
                                         prescreen_reason=verdict.reason)
        specs = [stamp(vars(templates[t]), run_index=i, seed=seed,
                       **verdicts[n][1] if n in verdicts else {})
                 for n, ((t, i), seed) in enumerate(zip(coords, seeds))]
        if not hand_over:
            for n, (mask, _) in verdicts.items():
                remember_mask(specs[n], mask)
        self.plan_timing = {
            "plan_s": round(time.perf_counter() - started, 6),
            "golden": golden.source,
            "golden_s": round(golden.seconds, 6)}
        return specs, drawn

    @contextlib.contextmanager
    def session(self, plan: Sequence[RunSpec], jobs: int = 1,
                resume: bool = False, adaptive: bool = False):
        """One campaign, from its ledger's opening (by the configured
        :class:`~repro.dist.backend.Backend`; the header names
        ``plan``) to its close: yields ``(ledger, execute)``.
        ``execute(specs)`` is called once for a uniform campaign and
        once per round for an ``adaptive`` one, whose plan every call
        widens; leaving the context ends the campaign
        (``campaign_end``, the sidecar on :attr:`last_metrics`)."""
        # lazy import: the repro.dist package imports this module
        from repro.dist.backend import make_backend

        ledger, execute = make_backend(self.config).open(
            self, plan, jobs, resume, adaptive)
        try:
            with ledger:
                yield ledger, execute
        finally:
            self.last_metrics = ledger.metrics

    def execute(self, specs: Sequence[RunSpec], jobs: int = 1,
                resume: bool = False) -> List[dict]:
        """Execute planned specs as one campaign (:meth:`session`);
        returns records in plan order."""
        with self.session(specs, jobs=jobs, resume=resume) as (_, execute):
            return execute(specs)

    def aggregate(self, records: Sequence[dict],
                  estimates: Optional[Groups] = None) -> CampaignResult:
        """Fold run records into the campaign result: into
        ``estimates`` (an adaptive campaign's, updated in place), else
        into one stratum per ``(kernel, structure)``."""
        # kernel weights and golden cycles: a planned campaign has
        # them; one handed records loaded from disk finds them where
        # it can (no spec is enumerated or pre-screened either way)
        from repro.plan.estimator import fold

        cfg = self.config
        golden = self._golden or self.golden_run()
        card = cfg.resolved_card()

        def population(kernel: str, structure: str) -> int:
            kp = golden.profile.kernels[kernel]
            windows = (kp.windows if cfg.invocation is None
                       else [kp.windows[cfg.invocation]])
            return mask_population(card, Structure(structure),
                                   kp.regs_per_thread, kp.smem_bytes,
                                   kp.local_bytes, windows)

        return CampaignResult(config=cfg, profile=golden.profile,
                              golden_cycles=golden.cycles,
                              records=list(records),
                              estimates=fold(records, estimates, population))

    def run(self, jobs: int = 1, resume: bool = False) -> CampaignResult:
        """Profile, inject (possibly in parallel), classify, aggregate.

        With ``config.adaptive == "on"`` the fixed uniform plan is
        replaced by the round-based stratified driver of
        :mod:`repro.plan.driver` (same executor underneath, specs
        selected round by round); the planner report lands on
        :attr:`last_plan`.
        """
        if self.config.adaptive == "on":
            from repro.plan.driver import run_adaptive

            return run_adaptive(self, jobs=jobs, resume=resume)
        specs = self.plan()
        records = self.execute(specs, jobs=jobs, resume=resume)
        return self.aggregate(records)


def _draws(templates: Sequence[RunSpec], coords: Sequence[tuple],
           seeds: Sequence[int], prescreener) -> Iterator[tuple]:
    """``(n, mask, verdict)`` of every run not synthesized, by plan
    position ``n`` (``coords[n]``: template position, run index); the
    verdict is ``None`` without a ``prescreener``.  The masks are
    ``execute_run``'s: one mask generator per (kernel, structure), all
    on one ``Generator`` set to each run's stream in turn; each mask
    resolves on its own stream.  Both are seeded once per plan."""
    rng = np.random.Generator(np.random.PCG64())
    draws = [None if template.synthesized else mask_draw(template, rng)
             for template in templates]
    picked = [n for n, (t, _) in enumerate(coords) if draws[t]]
    masks = []
    for n, state in zip(picked, stream_states([seeds[n] for n in picked])):
        rng.bit_generator.state = state
        masks.append(draws[coords[n][0]]())
    streams = seeded_streams([mask.seed for mask in masks])  # lazy
    for n, mask in zip(picked, masks):
        template = templates[coords[n][0]]
        yield n, mask, prescreener and prescreener.evaluate(
            mask, template.regs_per_thread, template.smem_bytes,
            template.local_bytes, next(streams))


def aggregate_counts(records: Sequence[dict]
                     ) -> Dict[str, Dict[Structure, Dict[FaultEffect, int]]]:
    """Aggregate raw run records into nested effect counts."""
    from repro.plan.estimator import fold

    return _nested_counts(fold(records))


def _nested_counts(estimates: Groups
                   ) -> Dict[str, Dict[Structure, Dict[FaultEffect, int]]]:
    counts: Dict[str, Dict[Structure, Dict[FaultEffect, int]]] = {}
    for (kernel, structure), est in estimates.items():
        counts.setdefault(kernel, {})[Structure(structure)] = \
            est.effect_counts()
    return counts
