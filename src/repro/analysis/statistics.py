"""Statistical significance of injection campaigns.

The paper performs 3,000 injections per campaign, "from the formula of
[7]" (Leveugle et al., DATE 2009): sampling ``n`` faults out of a
population of ``N`` possible (bit, cycle) pairs gives a margin of
error ``e`` on the estimated failure probability ``p`` at confidence
``z``::

    n = N / (1 + e^2 * (N-1) / (z^2 * p * (1-p)))

With the usual worst case ``p = 0.5``, 99% confidence (z = 2.576) and
``N`` in the billions this yields ~4,100 for e = 2%, and the paper's
3,000 injections give e ~ 2.35% -- "error margin less than 2%" holds
from ~4,100 up.  Those are *planning* figures at the worst case
``p = 0.5``.

Beyond the paper, :func:`wilson_interval` /
:func:`wilson_halfwidth` provide the Wilson score interval (with an
optional finite-population correction).  Unlike the plain normal
approximation it stays honest at the failure rates campaigns actually
see (p-hat near 0).  It is the one margin a finished campaign
reports: the half-width of its estimate
(:meth:`repro.plan.estimator.StratifiedEstimate.combined_margin`),
which for a uniform campaign is the Wilson half-width of its one
stratum, and which the adaptive planner
(:mod:`repro.plan`) stops each stratum on.
"""

from __future__ import annotations

import math

#: Two-sided z-scores for the usual confidence levels.
Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}

#: Tolerance of the confidence-level lookup: a confidence computed as
#: ``1 - 0.05`` differs from the literal ``0.95`` by one ULP and must
#: still resolve (exact float-key dict lookup used to raise here).
_CONFIDENCE_TOL = 1e-9


def _z(confidence: float) -> float:
    for level, z in Z_SCORES.items():
        if abs(level - confidence) <= _CONFIDENCE_TOL:
            return z
    raise ValueError(
        f"confidence must be one of {sorted(Z_SCORES)}")


def required_injections(population: float, error: float = 0.02,
                        confidence: float = 0.99, p: float = 0.5) -> int:
    """Injections needed for a given error margin (Leveugle et al.).

    Clamped to the population: a tiny fault space is exhausted, never
    oversampled (the unclamped ceil can exceed a fractional or tiny
    ``population``).
    """
    if not 0 < error < 1:
        raise ValueError("error margin must be in (0, 1)")
    if population < 1:
        raise ValueError("population must be >= 1")
    z = _z(confidence)
    n = population / (1 + error * error * (population - 1) / (z * z * p * (1 - p)))
    return int(min(math.ceil(n), math.floor(population)))


def margin_of_error(n: int, population: float = float("inf"),
                    confidence: float = 0.99, p: float = 0.5) -> float:
    """Error margin achieved by ``n`` injections (inverse formula)."""
    if n <= 0:
        return 1.0
    z = _z(confidence)
    if math.isinf(population):
        fpc = 1.0
    else:
        if n >= population:
            return 0.0
        fpc = (population - n) / (population - 1)
    return z * math.sqrt(p * (1 - p) * fpc / n)


def wilson_interval(successes: int, n: int, confidence: float = 0.99,
                    population: float = float("inf")) -> tuple:
    """Wilson score interval ``(lo, hi)`` for a binomial proportion.

    Unlike the normal approximation it never degenerates at observed
    rates of exactly 0 or 1 (the regime Masked-dominated fault
    campaigns live in), which is why the adaptive planner's
    per-stratum stopping rule is built on it.  A finite ``population``
    applies the standard ``sqrt((N - n) / (N - 1))`` correction to the
    half-width; sampling the whole stratum collapses the interval to
    the exact point.
    """
    if n <= 0:
        return (0.0, 1.0)
    if not 0 <= successes <= n:
        raise ValueError(
            f"successes must be in [0, n], got {successes}/{n}")
    z = _z(confidence)
    p = successes / n
    if not math.isinf(population) and n >= population:
        return (p, p)
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = (z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
            / denom) * _fpc(n, population)
    return (max(0.0, centre - half), min(1.0, centre + half))


def wilson_halfwidth(successes: int, n: int, confidence: float = 0.99,
                     population: float = float("inf")) -> float:
    """Half-width of :func:`wilson_interval` (the stopping statistic)."""
    lo, hi = wilson_interval(successes, n, confidence=confidence,
                             population=population)
    return (hi - lo) / 2


def _fpc(n: int, population: float) -> float:
    """Finite-population correction factor on a standard error."""
    if math.isinf(population) or population <= 1:
        return 1.0
    if n >= population:
        return 0.0
    return math.sqrt((population - n) / (population - 1))

