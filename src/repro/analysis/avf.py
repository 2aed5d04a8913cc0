"""AVF computation (paper section V.A, equations 1-3).

The chain is::

    FR_structure  (eq. 1)  -- failure ratio: the campaign's estimate
                   (failures / n uniform, stratified adaptive)
    x derating    (df_reg / df_smem for the dynamically-allocated
                   register file and shared memory)
    = AVF_structure
    AVF_kernel    (eq. 2)  -- size-weighted mean over the structures
    wAVF          (eq. 3)  -- cycle-weighted mean over the kernels

GPGPU-Sim (and our simulator, which reproduces its thread-private
register file and CTA-private shared memory modelling) can only target
the *allocated* fraction of those structures, so the derating factors
scale the measured failure ratios by the fraction of the physical
structure that was actually occupied during the kernel -- exactly the
df_reg / df_smem corrections the paper defines.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.campaign import CampaignResult, KernelProfile
from repro.faults.classify import FaultEffect
from repro.faults.targets import CHIP_STRUCTURES, Structure, chip_bits
from repro.sim.cards import get_card
from repro.sim.config import GPUConfig


def _card_of(result: CampaignResult) -> GPUConfig:
    return get_card(result.config.card)


def derating_factor(kp: KernelProfile, structure: Structure,
                    config: GPUConfig) -> float:
    """df_reg / df_smem for one kernel (1.0 for other structures).

    df_reg  = REGS_PER_THREAD x THREADS_MEAN / REGFILE_SIZE_SM
    df_smem = CTA_SMEM_SIZE x CTAS_MEAN / SMEM_SIZE
    """
    if structure is Structure.REGISTER_FILE:
        df = (kp.regs_per_thread * kp.mean_threads_per_sm
              / config.registers_per_sm)
    elif structure is Structure.SHARED_MEM:
        df = (kp.smem_bytes * kp.mean_ctas_per_sm
              / config.shared_mem_per_sm)
    else:
        return 1.0
    return min(df, 1.0)


def structure_avf(result: CampaignResult, kernel: str,
                  structure: Structure) -> float:
    """AVF of one structure for one kernel: FR x derating factor."""
    config = _card_of(result)
    kp = result.profile.kernels[kernel]
    return (result.failure_ratio(kernel, structure)
            * derating_factor(kp, structure, config))


def kernel_avf(result: CampaignResult, kernel: str) -> float:
    """AVF_kernel (eq. 2): size-weighted mean over the chip structures.

    Structures absent from the campaign (or from the card, like the
    GTX Titan's L1D) contribute zero failures but their size only
    enters the denominator when the card has them.
    """
    config = _card_of(result)
    numerator = 0.0
    total_bits = 0
    for structure in CHIP_STRUCTURES:
        bits = chip_bits(structure, config)
        if bits == 0:
            continue
        total_bits += bits
        if (kernel, structure.value) in result.estimates:
            numerator += structure_avf(result, kernel, structure) * bits
    return numerator / total_bits if total_bits else 0.0


def weighted_avf(result: CampaignResult) -> float:
    """wAVF (eq. 3): cycle-weighted mean of the kernel AVFs."""
    profile = result.profile
    kernels = result.kernels()
    total = sum(profile.kernels[k].total_cycles for k in kernels)
    if not total:
        return 0.0
    return sum(kernel_avf(result, k) * profile.kernels[k].total_cycles
               for k in kernels) / total


def chip_structure_avf(result: CampaignResult,
                       structure: Structure) -> float:
    """Cycle-weighted AVF of one structure across all kernels."""
    profile = result.profile
    every = result.kernels()
    total = sum(profile.kernels[k].total_cycles for k in every)
    if not total:
        return 0.0
    return sum(structure_avf(result, k, structure)
               * profile.kernels[k].total_cycles for k in every
               if (k, structure.value) in result.estimates) / total


def structure_contributions(result: CampaignResult
                            ) -> Dict[Structure, float]:
    """Per-structure share of the total AVF (the pies of Fig. 2).

    Each structure's slice is its size-weighted AVF contribution,
    normalised so the shares sum to 1 (all-masked campaigns return an
    empty dict).
    """
    config = _card_of(result)
    raw: Dict[Structure, float] = {}
    for structure in CHIP_STRUCTURES:
        bits = chip_bits(structure, config)
        if bits == 0:
            continue
        raw[structure] = chip_structure_avf(result, structure) * bits
    total = sum(raw.values())
    if total <= 0:
        return {}
    return {s: v / total for s, v in raw.items()}


def effect_breakdown(result: CampaignResult, structure: Structure,
                     derated: bool = True,
                     kernel: Optional[str] = None
                     ) -> Dict[FaultEffect, float]:
    """Cycle-weighted fault-effect breakdown of one structure (Fig. 1/5).

    With ``derated=True`` each effect ratio is scaled by the kernel's
    derating factor, so the bars stack to the structure's AVF plus its
    derated masked/performance fractions -- matching the paper's
    register-file AVF breakdown plots.
    """
    config = _card_of(result)
    profile = result.profile
    kernels = ([kernel] if kernel
               else [k for k in result.kernels()
                     if (k, structure.value) in result.estimates])
    total = sum(profile.kernels[k].total_cycles for k in kernels)
    out: Dict[FaultEffect, float] = {e: 0.0 for e in FaultEffect}
    if not total:
        return out
    for k in kernels:
        kp = profile.kernels[k]
        weight = kp.total_cycles / total
        df = derating_factor(kp, structure, config) if derated else 1.0
        for effect in FaultEffect:
            out[effect] += (result.effect_ratio(k, structure, effect)
                            * df * weight)
    return out
