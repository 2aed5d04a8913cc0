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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.statistics import wilson_halfwidth
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
    #: Executed runs and observed failures (SDC / Crash / Timeout).
    executed: int = 0
    failures: int = 0

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
