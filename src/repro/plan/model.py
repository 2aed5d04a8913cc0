"""A cheap logistic SDC-probability model for allocation steering.

After each round the driver fits a logistic regression on the
completed runs' propagation-relevant features and scores every stratum
by the mean predicted unmasked probability of its pending candidates.
High-scoring strata receive more of the next round's allocation --
they need more samples for the same interval width -- while the
stratified estimator stays unbiased regardless (allocation order
never affects stratum membership or within-stratum sampling order;
see :mod:`repro.plan.estimator`).

Deliberately tiny: plain batch gradient descent on numpy, fixed
iteration count and learning rate, no randomness -- the fit is a pure
function of the training rows, so adaptive campaigns remain exactly
reproducible.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.faults.mask import FaultMask
from repro.faults.targets import entry_bits
from repro.plan.strata import LIFETIME_BANDS

#: Gradient-descent hyperparameters (fixed: determinism over tuning).
_ITERATIONS = 300
_LEARNING_RATE = 0.5
#: L2 regularisation keeps weights finite on separable rounds.
_L2 = 1e-2


def features(config, spec, mask: FaultMask, stratum: str) -> List[float]:
    """Feature vector of one run (pure function of spec + mask).

    bias, bit position (fraction of the entry), injection cycle
    (fraction of the golden run), lifetime band one-hots, warp level.
    """
    width = max(entry_bits(config, spec.structure), 1)
    offset = (mask.bit_offsets[0] % width) if mask.bit_offsets else 0
    life = stratum.split(":", 1)[1] if ":" in stratum else "live"
    horizon = max(spec.golden_cycles, 1)
    row = [
        1.0,
        offset / width,
        min(mask.cycle / horizon, 1.0),
        1.0 if spec.warp_level else 0.0,
    ]
    row.extend(1.0 if life == band else 0.0 for band in LIFETIME_BANDS)
    return row


class LogisticModel:
    """Logistic regression fit by deterministic gradient descent."""

    def __init__(self, weights: np.ndarray):
        self.weights = weights

    @classmethod
    def fit(cls, rows: Sequence[Sequence[float]],
            labels: Sequence[int]) -> Optional["LogisticModel"]:
        """Fit on (features, unmasked-label) pairs.

        Returns ``None`` when the training set cannot inform the model
        (fewer than 2 rows, or single-class labels -- the score would
        be a constant anyway and the driver falls back to uniform
        steering).
        """
        if len(rows) < 2 or len(set(labels)) < 2:
            return None
        x = np.asarray(rows, dtype=float)
        y = np.asarray(labels, dtype=float)
        w = np.zeros(x.shape[1])
        n = len(y)
        for _ in range(_ITERATIONS):
            p = 1.0 / (1.0 + np.exp(-np.clip(x @ w, -30, 30)))
            grad = x.T @ (p - y) / n + _L2 * w
            w -= _LEARNING_RATE * grad
        return cls(w)

    def predict(self, rows: Sequence[Sequence[float]]) -> np.ndarray:
        """Unmasked probability of each feature row."""
        x = np.asarray(rows, dtype=float)
        return 1.0 / (1.0 + np.exp(-np.clip(x @ self.weights, -30, 30)))

    def score_mean(self, rows: Sequence[Sequence[float]]) -> float:
        """Mean predicted unmasked probability of a candidate set."""
        if not len(rows):
            return 0.0
        return float(np.mean(self.predict(rows)))
