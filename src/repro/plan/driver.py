"""The round-based adaptive campaign driver.

Replaces the fixed uniform plan when ``CampaignConfig.adaptive`` is
``"on"``.  One ``(kernel, structure)`` campaign group at a time:

1. **Classify** the candidate pool (the first ``runs_per_structure``
   enumerated specs -- masks i.i.d. uniform over the fault space)
   into strata (:mod:`repro.plan.strata`) from the masks its specs
   carry and the pre-screen verdicts
   :meth:`~repro.faults.campaign.Campaign.plan` hands over (each mask
   drawn once, by the plan); the pool proportions fix the
   stratum weights.  Proven-dead strata stop immediately with
   ``p = 0`` and zero executed runs.
2. **Pilot**: execute a few runs of every live stratum.
3. **Rounds**: after each round, refresh per-stratum Wilson intervals
   (:mod:`repro.plan.estimator`) and allocate the next round's budget
   to unmet strata -- doubling per stratum, split evenly when the
   asks exceed what is left.  A stratum that exhausts its
   candidates extends the enumeration: the campaign plans the group's
   next ``run_index`` range (weights stay fixed to the initial pool),
   up to a hard cap.
4. **Stop** when every stratum meets its scaled per-stratum target
   (``e / sqrt(W_s)``, which bounds the combined stratified margin
   by the error target -- see :mod:`repro.plan.estimator`; the
   proven-dead stratum meets it through classification draws alone),
   or the per-group run budget (``runs_per_structure``) is spent.

Execution is one campaign (:meth:`repro.faults.campaign.Campaign
.session`): the ledger is opened once -- one log header, naming the
candidate plan; one ``campaign_start`` ... ``campaign_end`` bracket;
one sidecar -- and each round admits its allocation to the ledger's
plan (a ``round`` event) and executes what the ledger lacks of it.  So
a round executes its own allocation only, a resumed campaign only what
its log does not hold, and every record is the same pure function of
its spec as in non-adaptive campaigns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.analysis.report import render_table
from repro.analysis.statistics import required_injections
from repro.faults.campaign import CampaignResult
from repro.faults.executor import RunSpec, stamp
from repro.faults.mask import mask_population
from repro.plan.estimator import StratifiedEstimate
from repro.plan.strata import DEAD_STRATUM, stratum_of

#: Sidecar schema version; bump on breaking layout changes.
PLAN_SCHEMA = 2

#: Pilot runs per live stratum (the first round's allocation).
PILOT_RUNS = 4

#: Hard round cap (each round at least doubles some stratum, so real
#: campaigns converge long before this).
MAX_ROUNDS = 64

#: Enumeration cap: at most this many times the per-group budget is
#: ever classified (pool extension included) -- guarantees
#: termination even when a rare stratum never refills.
MAX_POOL_FACTOR = 8


def plan_path_for(log_path: Union[str, Path]) -> Path:
    """The plan sidecar path of one campaign log."""
    return Path(str(log_path) + ".plan.json")


@dataclass
class _Group:
    """Driver-internal state of one (kernel, structure) group."""

    kernel: str
    structure: object  # Structure
    estimate: StratifiedEstimate
    #: stratum -> tagged specs in run_index order (pool + extensions)
    candidates: Dict[str, List[RunSpec]] = field(default_factory=dict)
    #: highest run_index enumerated so far (exclusive)
    enumerated: int = 0
    budget: int = 0
    budget_exhausted: bool = False

    def pending(self, stratum: str) -> int:
        done = self.estimate.stratum(stratum).executed
        return len(self.candidates.get(stratum, ())) - done

    def spent(self) -> int:
        return self.estimate.executed()


@dataclass
class PlanReport:
    """What the adaptive planner did, for reports and the sidecar."""

    error_target: float
    confidence: float
    rounds: int
    budget_per_group: int
    #: (kernel, structure value) -> the group's stratified estimate
    groups: Dict[Tuple[str, str], StratifiedEstimate]
    #: (kernel, structure value) -> uniform-planner run count for the
    #: same target (worst-case p, Leveugle) -- the savings baseline
    uniform_runs: Dict[Tuple[str, str], int]
    #: groups that hit the run budget before every stratum met
    exhausted: List[Tuple[str, str]] = field(default_factory=list)

    def executed(self) -> int:
        return sum(e.executed() for e in self.groups.values())

    def runs_saved(self) -> int:
        """Runs saved vs. sizing every group uniformly for the same
        target (never negative per group: the budget caps spending)."""
        return sum(max(self.uniform_runs[key] - est.executed(), 0)
                   for key, est in self.groups.items())

    def all_met(self) -> bool:
        return not self.exhausted and all(
            not est.unmet(self.error_target)
            for est in self.groups.values())

    def summary(self) -> str:
        """Human-readable planner breakdown (CLI output)."""
        pct = self.error_target * 100
        lines = [f"adaptive plan: error target +/-{pct:.1f}% at "
                 f"{self.confidence:.0%} confidence, "
                 f"{self.rounds} round(s)"]
        for (kernel, structure), est in sorted(self.groups.items()):
            saved = self.uniform_runs[(kernel, structure)] \
                - est.executed()
            status = ("budget exhausted"
                      if (kernel, structure) in self.exhausted
                      else "all strata met")
            lines.append(
                f"  {kernel}/{structure}: FR={est.failure_ratio():.4f} "
                f"+/-{est.combined_margin() * 100:.1f}% "
                f"({est.executed()} runs vs "
                f"{self.uniform_runs[(kernel, structure)]} uniform, "
                f"{saved:+d} saved; {status})")
        lines.append(strata_table(self.groups))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The ``<log>.plan.json`` sidecar document."""
        groups = []
        for key in sorted(self.groups):
            est = self.groups[key]
            doc = est.to_dict(self.error_target)
            doc["uniform_runs"] = self.uniform_runs[key]
            doc["runs_saved"] = max(
                self.uniform_runs[key] - est.executed(), 0)
            doc["budget"] = self.budget_per_group
            doc["budget_exhausted"] = key in self.exhausted
            groups.append(doc)
        return {
            "schema": PLAN_SCHEMA,
            "adaptive": "on",
            "error_target": self.error_target,
            "confidence": self.confidence,
            "rounds": self.rounds,
            "budget_per_group": self.budget_per_group,
            "executed": self.executed(),
            "uniform_runs_total": sum(self.uniform_runs.values()),
            "runs_saved": self.runs_saved(),
            "all_met": self.all_met(),
            "groups": groups,
        }


def strata_table(groups: Dict[Tuple[str, str], StratifiedEstimate]) -> str:
    """One row per stratum of each group's estimate: its runs,
    failures, p_hat (a proven-dead one's classified draws), weight,
    per-run importance weight and Wilson half-width."""
    rows = []
    for (kernel, structure), est in sorted(groups.items()):
        total = est.pool_total
        for key in sorted(est.strata):
            s = est.strata[key]
            weight = s.weight(total)
            margin = s.margin(total, est.population, est.confidence)
            rows.append([
                kernel, structure, key, s.executed, s.failures,
                (f"0 in {s.resolved} draws" if s.proven_dead
                 else f"{s.p_hat():.3f}" if s.executed else "-"),
                f"{weight:.3f}",
                f"{weight / s.executed:.5f}" if s.executed else "-",
                f"+/-{margin * 100:.1f}%"])
    return render_table(["kernel", "structure", "stratum", "runs",
                         "failures", "p_hat", "W", "w_run", "margin"], rows)


def _classify(card, groups: Dict, specs, verdicts: Dict[int, object],
              initial: bool) -> None:
    """Assign planned specs to strata, tagging each with its key;
    ``verdicts`` is the plan's pre-screen verdict by spec position."""
    for n, spec in enumerate(specs):
        group = groups[(spec.kernel, spec.structure.value)]
        stratum = stratum_of(card, spec, verdicts.get(n))
        tagged = stamp(vars(spec), stratum=stratum)
        group.candidates.setdefault(stratum, []).append(tagged)
        stats = group.estimate.stratum(stratum)
        if initial:
            stats.candidates += 1
        else:
            stats.extra_candidates += 1
        group.enumerated = max(group.enumerated, spec.run_index + 1)


def _extend_pool(campaign, card, group: _Group) -> bool:
    """Enumerate a budget's worth more candidates for one group: the
    campaign plans the group's next run range (from its golden run,
    so nothing re-simulates or re-loads); a spec's seed is a pure
    function of its run_index, unchanged by when it is enumerated.
    Returns False at the enumeration cap.
    """
    cap = MAX_POOL_FACTOR * max(group.budget, 1)
    if group.enumerated >= cap:
        return False
    end = min(group.enumerated + max(group.budget, PILOT_RUNS), cap)
    specs, verdicts = campaign._plan(
        {(group.kernel, group.structure): range(group.enumerated, end)},
        hand_over=True)
    _classify(card, {(group.kernel, group.structure.value): group},
              specs, verdicts, initial=False)
    group.enumerated = end
    return True


def _allocate(campaign, card, group: _Group,
              error_target: float) -> List[RunSpec]:
    """Select this round's specs for one group (deterministic)."""
    est = group.estimate
    # attest the proven-dead mass first: classification is free (no
    # simulation), and each dead draw tightens the dead stratum's
    # Wilson interval toward its target
    dead = est.strata.get(DEAD_STRATUM)
    while (dead is not None
           and not dead.met(est.pool_total, est.population,
                            error_target, est.confidence)
           and _extend_pool(campaign, card, group)):
        pass
    unmet = est.unmet(error_target)
    if not unmet:
        return []
    budget_left = group.budget - group.spent()
    live = [s for s in unmet if not s.proven_dead]
    if budget_left <= 0 or not live:
        # run budget spent with live strata open, or the dead mass
        # cannot be attested within the enumeration cap
        group.budget_exhausted = True
        return []
    # refill empty strata before sizing the round
    for stats in live:
        while group.pending(stats.key) == 0:
            if not _extend_pool(campaign, card, group):
                break
    unmet = [s for s in live if group.pending(s.key) > 0]
    if not unmet:
        group.budget_exhausted = True  # target unreachable in-pool
        return []
    # per-stratum ask: pilot for new strata, double otherwise,
    # never more than the stratum has pending
    asks = {s.key: min(max(PILOT_RUNS, s.executed), group.pending(s.key))
            for s in unmet}
    total_ask = sum(asks.values())
    if total_ask > budget_left:
        # split the constrained budget evenly: each stratum gets the
        # floor share, capped by its ask, and what is left goes in
        # sorted key order, each stratum again capped by its ask
        share = budget_left // len(asks)
        granted = {key: min(share, ask) for key, ask in asks.items()}
        leftover = budget_left - sum(granted.values())
        for key in sorted(granted):
            take = min(asks[key] - granted[key], leftover)
            granted[key] += take
            leftover -= take
        asks = {key: n for key, n in granted.items() if n > 0}
    selection: List[RunSpec] = []
    for key in sorted(asks):
        done = est.stratum(key).executed
        selection.extend(group.candidates[key][done:done + asks[key]])
    if group.spent() + sum(asks.values()) >= group.budget:
        group.budget_exhausted = bool(est.unmet(error_target))
    return selection


def run_adaptive(campaign, jobs: int = 1,
                 resume: bool = False) -> CampaignResult:
    """Execute one campaign adaptively; see the module docstring.

    Drop-in for :meth:`repro.faults.campaign.Campaign.run`: returns
    the same :class:`CampaignResult`, whose estimates are the groups'
    stratified ones, and leaves the planner report on
    ``campaign.last_plan``.
    """
    cfg = campaign.config
    progress = campaign._progress
    base_specs, verdicts = campaign._plan(hand_over=True)
    card = cfg.resolved_card()

    groups: Dict[Tuple[str, str], _Group] = {}
    for spec in base_specs:
        key = (spec.kernel, spec.structure.value)
        if key not in groups:
            groups[key] = _Group(
                kernel=spec.kernel, structure=spec.structure,
                estimate=StratifiedEstimate(
                    kernel=spec.kernel,
                    structure=spec.structure.value,
                    population=mask_population(
                        card, spec.structure, spec.regs_per_thread,
                        spec.smem_bytes, spec.local_bytes, spec.windows)),
                budget=cfg.runs_per_structure)
    _classify(card, groups, base_specs, verdicts, initial=True)
    for key, group in sorted(groups.items()):
        dead = group.estimate.strata.get(DEAD_STRATUM)
        live = {k: s.candidates
                for k, s in group.estimate.strata.items()
                if not s.proven_dead}
        progress(f"adaptive: {key[0]}/{key[1]} stratified into "
                 f"{len(group.estimate.strata)} strata "
                 f"(dead={dead.candidates if dead else 0}, "
                 f"live={live})")

    # each round's records fold into these, which the next reads
    estimates = {key: group.estimate for key, group in groups.items()}
    result = campaign.aggregate([], estimates)
    rounds = 0
    with campaign.session(base_specs, jobs=jobs, resume=resume,
                          adaptive=True) as (ledger, execute):
        for _ in range(MAX_ROUNDS):
            allocation: List[RunSpec] = []
            for key in sorted(groups):
                allocation.extend(
                    _allocate(campaign, card, groups[key],
                              cfg.error_target))
            allocation = [spec for spec in allocation
                          if spec.key not in ledger.keys]
            if not allocation:
                break
            rounds += 1
            progress(f"adaptive round {rounds}: +{len(allocation)} runs "
                     f"({len(ledger.keys) + len(allocation)} total)")
            result = campaign.aggregate(execute(allocation), estimates)

        for group in groups.values():
            # _allocate flags exhaustion before a round's results land;
            # a final round that meets every target clears it
            if not group.estimate.unmet(cfg.error_target):
                group.budget_exhausted = False

        report = PlanReport(
            error_target=cfg.error_target,
            confidence=0.99,
            rounds=rounds,
            budget_per_group=cfg.runs_per_structure,
            groups=estimates,
            uniform_runs={
                key: required_injections(group.estimate.population,
                                         error=cfg.error_target)
                for key, group in groups.items()},
            exhausted=sorted(key for key, group in groups.items()
                             if group.budget_exhausted),
        )
        campaign.last_plan = report
        # surface the importance weights in the metrics sidecar too
        ledger.sections["adaptive"] = report.to_dict()
    progress(f"adaptive: {report.executed()} runs executed, "
             f"{report.runs_saved()} saved vs uniform sizing")

    if cfg.log_path is not None:
        path = plan_path_for(cfg.log_path)
        path.write_text(json.dumps(report.to_dict(), indent=1) + "\n",
                        encoding="utf-8")
        progress(f"plan sidecar written to {path}")

    return result
