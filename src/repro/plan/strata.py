"""Fault-space stratification.

A stratum groups fault sites expected to behave alike, so the
per-stratum failure probability is less dispersed than the pooled one
and each stratum's interval converges with fewer samples.  Within one
``(kernel, structure)`` campaign group, a mask is assigned to a
stratum by two deterministic features and one liveness-derived one:

- **bit-position band** (``lo``/``hi``): which half of the entry the
  first flipped bit lands in.  Low bits of a data word flip small
  magnitudes (often masked), high bits flip sign/exponent/tag bits
  (often not) -- the geometry comes from
  :func:`repro.faults.targets.entry_bits`.
- **lifetime band** (``short``/``long``/``live``): how soon after the
  injection cycle the corrupted site is read, measured on the golden
  :class:`~repro.sim.liveness.LivenessTrace`.  A site read almost
  immediately had no chance to be overwritten; a site idle for a long
  fraction of the run is frequently dead in disguise.  ``live`` is the
  fallback when no read is known (caches, shared memory, no trace
  captured).
- **dead** (:data:`DEAD_STRATUM`): the plan-time pre-screener
  *proved* the site is never observed (overwritten / evicted / never
  touched), so its failure probability is exactly 0 -- the stratum
  needs zero executed runs.

Stratum membership is a pure function of the spec, its mask and the
plan's verdict on it, so the same spec lands in the same stratum on
every machine and in every process, and the assignment is
canonical-safe.  Only an ``early_stop="full"`` plan pre-screens: under
``"off"`` / ``"converge"`` every stratum but ``dead`` (synthesized
runs) is ``{lo|hi}:live``.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.mask import FaultMask
from repro.faults.targets import Structure, entry_bits

#: Stratum of plan-time proven-dead (and synthesized) faults: failure
#: probability exactly 0, no execution needed.
DEAD_STRATUM = "dead"

#: First-read distance at or below this fraction of the golden run is
#: a ``short`` lifetime; above it, ``long``.
SHORT_LIFETIME_FRACTION = 0.05


def bit_band(config, structure: Structure, mask: FaultMask) -> str:
    """``lo``/``hi``: the entry half the first flipped bit lands in."""
    width = entry_bits(config, structure)
    offset = mask.bit_offsets[0] % width if mask.bit_offsets else 0
    return "lo" if offset < width / 2 else "hi"


def lifetime_band(structure: Structure, first_read: Optional[int],
                  cycle: int, golden_cycles: int) -> str:
    """``short``/``long``/``live`` from the golden first-read cycle
    (:attr:`repro.faults.early_stop.Verdict.first_read`).  Registers
    and local words only: every other structure stays ``live``, the
    band its sites have always been sampled in."""
    if first_read is None or structure not in (Structure.REGISTER_FILE,
                                               Structure.LOCAL_MEM):
        return "live"
    horizon = max(golden_cycles, 1)
    return ("short" if first_read - cycle <= SHORT_LIFETIME_FRACTION * horizon
            else "long")


def stratum_of(config, spec, verdict=None) -> str:
    """The stratum key of one planned run.

    ``spec`` and ``verdict`` are what
    :meth:`~repro.faults.campaign.Campaign.plan` planned (with the
    mask it drew, unless it synthesized the run) and pre-screened for
    the run (``verdict`` is ``None`` when it had no pre-screener: under
    ``early_stop`` ``"off"`` / ``"converge"``, or a persistent fault
    model).  Keys look like ``"lo:short"``; proven-dead and
    synthesized runs collapse into :data:`DEAD_STRATUM`.
    """
    if spec.instant:
        return DEAD_STRATUM
    # the plan pre-screens a run exactly when its verdict has a reason
    assert verdict is None or verdict.reason is None
    band = bit_band(config, spec.structure, spec.mask)
    life = lifetime_band(spec.structure, verdict and verdict.first_read,
                         spec.mask.cycle, spec.golden_cycles)
    return f"{band}:{life}"
