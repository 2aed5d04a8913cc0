"""Markdown campaign reports.

Renders a complete :class:`~repro.faults.campaign.CampaignResult` as a
self-contained Markdown document: profile, per-kernel fault-effect
tables, derating factors, AVF/wAVF, FIT breakdown and the statistical
margin of the campaign -- the artifact a reliability engineer would
attach to a design review.
"""

from __future__ import annotations

from typing import List

from repro.analysis.avf import (derating_factor, kernel_avf, structure_avf,
                                structure_contributions, weighted_avf)
from repro.analysis.fit import chip_fit, fit_breakdown
from repro.faults.campaign import CampaignResult
from repro.faults.classify import FaultEffect
from repro.sim.cards import get_card


def _table(headers, rows) -> List[str]:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(str(c) for c in row) + " |"
                 for row in rows)
    return lines


def render_markdown(result: CampaignResult, title: str = "") -> str:
    """Render one campaign as a Markdown report."""
    cfg = result.config
    card = get_card(cfg.card)
    profile = result.profile
    lines: List[str] = []
    out = lines.append

    out(f"# {title or f'gpuFI-4 campaign: {cfg.benchmark} on {card.name}'}")
    out("")
    out(f"- card: **{card.name}** ({card.architecture}, "
        f"{card.technology_nm} nm, {card.num_sms} SMs)")
    out(f"- faults: **{cfg.bits_per_fault}-bit** "
        f"({cfg.multibit_mode.value}), "
        f"{'warp' if cfg.warp_level else 'thread'}-level register faults")
    # margins are *achieved*, not planned: the half-width of each
    # group's estimate, against its finite (bits x cycles) population
    out(f"- planned injections per (kernel, structure): "
        f"**{cfg.runs_per_structure}** (achieved margins per "
        f"structure below, at 99% confidence)")
    out(f"- fault-free execution: **{result.golden_cycles} cycles**, "
        f"app occupancy {profile.app_occupancy():.3f}")
    out("")

    out("## Kernel profile")
    out("")
    rows = []
    for name in sorted(profile.kernels):
        kp = profile.kernels[name]
        rows.append((name, kp.invocations, kp.total_cycles,
                     f"{profile.kernel_weight(name):.2f}",
                     f"{kp.occupancy:.3f}", kp.regs_per_thread,
                     kp.smem_bytes))
    lines.extend(_table(
        ("kernel", "invocations", "cycles", "weight", "occupancy",
         "regs/thread", "smem/CTA"), rows))
    out("")

    out("## Fault effects")
    out("")
    counts = result.counts
    for kernel in sorted(counts):
        out(f"### `{kernel}`")
        out("")
        rows = []
        for structure, effects in counts[kernel].items():
            total = sum(effects.values())
            df = derating_factor(profile.kernels[kernel], structure, card)
            margin = result.margin(kernel, structure)
            rows.append((
                structure.value, total,
                *(effects.get(e, 0) for e in FaultEffect),
                f"{result.failure_ratio(kernel, structure):.3f}",
                f"+/-{margin * 100:.1f}%",
                f"{df:.3f}",
                f"{structure_avf(result, kernel, structure):.5f}",
            ))
        headers = ("structure", "runs", *(e.value for e in FaultEffect),
                   "FR", "margin", "derating", "AVF")
        lines.extend(_table(headers, rows))
        out("")
        out(f"AVF_kernel = **{kernel_avf(result, kernel):.5f}**")
        out("")

    out("## Chip-level results")
    out("")
    out(f"- wAVF (eq. 3): **{weighted_avf(result):.5f}**")
    out(f"- predicted FIT: **{chip_fit(result):.2f}** failures per "
        f"billion device-hours (raw FIT/bit {card.raw_fit_per_bit:.1e})")
    out("")
    shares = structure_contributions(result)
    if shares:
        out("### Per-structure AVF contribution")
        out("")
        lines.extend(_table(
            ("structure", "share"),
            [(s.value, f"{v * 100:.1f}%")
             for s, v in sorted(shares.items(), key=lambda kv: -kv[1])]))
        out("")
    fits = fit_breakdown(result)
    if any(fits.values()):
        out("### Per-structure FIT")
        out("")
        lines.extend(_table(
            ("structure", "FIT"),
            [(s.value, f"{v:.2f}") for s, v in fits.items()]))
        out("")
    return "\n".join(lines) + "\n"
