"""The stratified estimator and its per-stratum stopping rule.

One ``(kernel, structure)`` campaign group is partitioned into strata
(:mod:`repro.plan.strata`).  The candidate pool -- specs enumerated in
``run_index`` order, masks drawn i.i.d. uniform from the fault space
-- gives each stratum a weight::

    W_s = (candidates in s) / (candidates total)

an unbiased estimate of the stratum's true probability mass.  Within a
stratum, executed runs are a prefix of the candidates in enumeration
order -- chosen without looking at any outcome -- so they are i.i.d.
draws *conditional on the stratum*, and

    FR_hat = sum_s W_s * p_hat_s

is the classic stratified (importance-weighted) estimator of the
group's failure ratio: each executed run enters with importance weight
``W_s / n_s`` (the per-stratum weights ``1 / n_s`` sum to 1 within
each stratum).  The proven-dead stratum contributes ``p_hat = 0``
exactly, with zero executed runs.

Stopping: each stratum gets its own target ``e_s = e / sqrt(W_s)``
and is *met* once the half-width of its 99% Wilson interval --
finite-population corrected against the stratum's share of the true
(bits x cycles) population -- is at or below ``e_s`` (live strata
also need a small minimum-sample floor).  Because the stratum
weights sum to 1, that per-stratum rule exactly bounds the combined
stratified margin by the error target::

    sum_s (W_s hw_s)^2 <= sum_s W_s^2 e^2 / W_s = e^2 sum_s W_s = e^2

which is the same quantity a uniform campaign's Leveugle sizing
targets -- so savings against the uniform baseline are a like-for-like
comparison.  Small strata get proportionally looser targets: their
estimation error enters the total scaled down by ``W_s``.

The proven-dead stratum has ``p = 0`` exactly *within* the stratum,
but its weight is still estimated from a finite pool -- eight dead
draws must not certify a whole fault space.  Each draw the
prescreener proves dead is a free, exact zero-failure observation, so
the dead stratum's half-width is the Wilson interval of 0 failures in
``resolved`` draws (initial pool plus extensions): meeting its target
costs classification work only, never a simulation, and caps how much
failure mass the unattested weight estimate could hide.

Every FR, effect ratio and margin a campaign reports reads these
estimates (:func:`fold`).  A uniform campaign is the one-stratum case:
``W = 1``, ``FR_hat = failures / n`` exactly, and its margin is the
Wilson half-width of that stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.statistics import wilson_halfwidth
from repro.faults.classify import FaultEffect
from repro.plan.strata import DEAD_STRATUM

#: A live stratum is never "met" on fewer runs than this, however
#: loose its scaled target -- guards against one-sample stopping.
MIN_STRATUM_RUNS = 4


@dataclass
class StratumStats:
    """Running state of one stratum of one campaign group."""

    key: str
    #: Candidates enumerated into this stratum from the *initial*
    #: pool (fixes the weight; extension candidates stay out).
    candidates: int = 0
    #: Additional candidates found by pool extension (samplable, but
    #: excluded from the weight estimate).
    extra_candidates: int = 0
    #: Executed runs, and how many of them ended in each effect.
    executed: int = 0
    counts: Dict[FaultEffect, int] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Executed runs that ended in SDC, Crash or Timeout."""
        return sum(n for effect, n in self.counts.items()
                   if effect.is_failure)

    @property
    def proven_dead(self) -> bool:
        return self.key == DEAD_STRATUM

    @property
    def resolved(self) -> int:
        """Draws with a known outcome: every classified draw for the
        proven-dead stratum (classification is the observation),
        executed runs otherwise."""
        if self.proven_dead:
            return self.candidates + self.extra_candidates
        return self.executed

    def weight(self, pool_total: int) -> float:
        """``W_s``: the stratum's share of the initial candidate pool."""
        return self.candidates / pool_total if pool_total else 0.0

    def p_hat(self) -> float:
        if self.proven_dead:
            return 0.0
        return self.failures / self.executed if self.executed else 0.0

    def ratio(self, effect: FaultEffect) -> float:
        """Share of the executed runs that ended in ``effect``."""
        return (self.counts.get(effect, 0) / self.executed
                if self.executed else 0.0)

    def margin(self, pool_total: int, population: float,
               confidence: float = 0.99) -> float:
        """Wilson half-width against the stratum's finite population.

        For the proven-dead stratum this is the interval of 0
        failures in ``resolved`` free observations -- nonzero until
        enough draws attest the dead mass (see module docstring)."""
        stratum_population = self.weight(pool_total) * population
        return wilson_halfwidth(0 if self.proven_dead else self.failures,
                                self.resolved, confidence=confidence,
                                population=max(stratum_population, 1.0))

    def target(self, pool_total: int, error_target: float) -> float:
        """``e_s = e / sqrt(W_s)``: this stratum's half-width target
        (see module docstring for why this bounds the combined
        margin by ``error_target``)."""
        weight = self.weight(pool_total)
        if weight <= 0.0:
            return float("inf")  # weightless: no margin contribution
        return error_target / math.sqrt(weight)

    def met(self, pool_total: int, population: float,
            error_target: float, confidence: float = 0.99) -> bool:
        """Has this stratum reached its scaled stopping target?"""
        if self.weight(pool_total) <= 0.0:
            return True  # extension-only stratum: zero weight
        if not self.proven_dead and self.executed < MIN_STRATUM_RUNS:
            return False
        return self.margin(pool_total, population, confidence) \
            <= self.target(pool_total, error_target)


@dataclass
class StratifiedEstimate:
    """The stratified failure-ratio estimate of one campaign group."""

    kernel: str
    structure: str
    #: True (bits x cycles) fault-space size of the group
    #: (:func:`repro.faults.mask.mask_population`).
    population: float
    strata: Dict[str, StratumStats] = field(default_factory=dict)
    confidence: float = 0.99

    @property
    def pool_total(self) -> int:
        """Initial-pool candidate count (the weight denominator)."""
        return sum(s.candidates for s in self.strata.values())

    def stratum(self, key: str) -> StratumStats:
        if key not in self.strata:
            self.strata[key] = StratumStats(key=key)
        return self.strata[key]

    def failure_ratio(self) -> float:
        """``FR_hat = sum_s W_s p_hat_s`` (the unbiased estimate)."""
        total = self.pool_total
        return sum(s.weight(total) * s.p_hat()
                   for s in self.strata.values())

    def effect_ratio(self, effect: FaultEffect) -> float:
        """``sum_s W_s count_s(e) / n_s``: the estimated share of
        one effect (Figs. 1, 4 and 5 plot these)."""
        total = self.pool_total
        return sum(s.weight(total) * s.ratio(effect)
                   for s in self.strata.values())

    def effect_counts(self) -> Dict[FaultEffect, int]:
        """Executed runs by effect, over every stratum."""
        counts: Dict[FaultEffect, int] = {}
        for stats in self.strata.values():
            for effect, n in stats.counts.items():
                counts[effect] = counts.get(effect, 0) + n
        return counts

    def combined_margin(self) -> float:
        """Half-width of the stratified estimate's interval:
        ``sqrt(sum_s (W_s hw_s)^2)``."""
        total = self.pool_total
        return math.sqrt(sum(
            (s.weight(total) * s.margin(total, self.population,
                                        self.confidence)) ** 2
            for s in self.strata.values()))

    def executed(self) -> int:
        return sum(s.executed for s in self.strata.values())

    def unmet(self, error_target: float) -> List[StratumStats]:
        """Strata still above their scaled per-stratum target."""
        total = self.pool_total
        return [s for s in self.strata.values()
                if not s.met(total, self.population, error_target,
                             self.confidence)]

    def run_weight(self, key: str) -> Optional[float]:
        """Importance weight ``W_s / n_s`` of one executed run of a
        stratum (``None`` before the stratum has any executed run).
        The per-stratum weights ``1 / n_s`` sum to 1 within the
        stratum, so ``sum_runs W_s / n_s = W_s`` and the estimator
        stays unbiased for any allocation."""
        stats = self.strata.get(key)
        if stats is None or stats.executed == 0:
            return None
        return stats.weight(self.pool_total) / stats.executed

    def to_dict(self, error_target: float) -> dict:
        """JSON form for the ``<log>.plan.json`` sidecar."""
        total = self.pool_total
        strata = {}
        for key in sorted(self.strata):
            s = self.strata[key]
            target = s.target(total, error_target)
            strata[key] = {
                "candidates": s.candidates,
                "extra_candidates": s.extra_candidates,
                "weight": round(s.weight(total), 6),
                "executed": s.executed,
                "resolved": s.resolved,
                "failures": s.failures,
                "p_hat": round(s.p_hat(), 6),
                "margin": round(s.margin(total, self.population,
                                         self.confidence), 6),
                "target": (round(target, 6) if math.isfinite(target)
                           else None),
                "met": s.met(total, self.population, error_target,
                             self.confidence),
                "proven_dead": s.proven_dead,
                "run_weight": (round(s.weight(total) / s.executed, 8)
                               if s.executed else None),
            }
        return {
            "kernel": self.kernel,
            "structure": self.structure,
            "population": self.population,
            "pool_candidates": total,
            "executed": self.executed(),
            "failure_ratio": round(self.failure_ratio(), 6),
            "combined_margin": round(self.combined_margin(), 6),
            "strata": strata,
        }


#: The stratum of a record that names none: a uniform campaign's.
UNIFORM_STRATUM = "all"

Groups = Dict[Tuple[str, str], StratifiedEstimate]


def fold(records: Iterable[dict], estimates: Optional[Groups] = None,
         population: Callable[[str, str], float] = (
             lambda kernel, structure: math.inf)) -> Groups:
    """Recount the runs and effects of each ``(kernel, structure)``
    group's strata from ``records`` (a record's ``stratum``, else
    :data:`UNIFORM_STRATUM`).  A group in ``estimates`` keeps the
    weights its plan fixed and is updated in place; one missing there
    is added, of ``population(kernel, structure)``, and weighted by its
    records -- so a uniform group is one stratum of ``W = 1``.
    """
    estimates = {} if estimates is None else estimates
    planned = set(estimates)
    for est in estimates.values():
        for stats in est.strata.values():
            stats.executed, stats.counts = 0, {}
    for record in records:
        key = (record["kernel"], record["structure"])
        est = estimates.get(key)
        if est is None:
            est = estimates[key] = StratifiedEstimate(*key,
                                                      population(*key))
        stats = est.stratum(record.get("stratum", UNIFORM_STRATUM))
        if key not in planned:
            stats.candidates += 1
        stats.executed += 1
        effect = FaultEffect(record["effect"])
        stats.counts[effect] = stats.counts.get(effect, 0) + 1
    return estimates
