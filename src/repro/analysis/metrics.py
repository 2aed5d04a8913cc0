"""Campaign metrics summaries (the ``gpufi report-metrics`` backend).

Loads the ``<log>.metrics.json`` sidecar a telemetry-enabled campaign
writes (see :mod:`repro.obs.metrics`) and renders it as aligned text
tables -- wall-clock and throughput, per-effect counts and latency
percentiles, checkpoint hit rate, early-stop savings attribution and
per-worker utilization -- all without re-running any simulation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.analysis.report import render_table
from repro.obs import format_plan_timing, metrics_path_for
from repro.obs.live import format_duration


def find_metrics_path(path: Union[str, Path]) -> Path:
    """Resolve a campaign log *or* sidecar path to the sidecar path."""
    path = Path(path)
    if path.name.endswith(".metrics.json"):
        return path
    return metrics_path_for(path)


def load_metrics(path: Union[str, Path]) -> dict:
    """Load one metrics sidecar (accepts the log path or the sidecar).

    Raises ``FileNotFoundError`` with a hint when the sidecar is
    missing -- the campaign was run without ``--metrics``.
    """
    sidecar = find_metrics_path(path)
    if not sidecar.exists():
        raise FileNotFoundError(
            f"{sidecar}: no metrics sidecar -- run the campaign with "
            "--metrics to produce one")
    return json.loads(sidecar.read_text(encoding="utf-8"))


def _fmt_pct(fraction) -> str:
    return "n/a" if fraction is None else f"{fraction * 100:.1f}%"


def render_metrics(metrics: dict) -> str:
    """Render one sidecar document as a human-readable summary."""
    lines: List[str] = []
    campaign = metrics.get("campaign", {})
    status = "complete" if campaign.get("complete") else "INTERRUPTED"
    lines.append(
        f"campaign: {campaign.get('total_runs', 0)} runs "
        f"({campaign.get('executed', 0)} executed, "
        f"{campaign.get('resumed', 0)} resumed) on "
        f"{campaign.get('jobs', 1)} worker(s) -- {status}")
    lines.append(
        f"wall-clock {format_duration(campaign.get('wall_s', 0.0), 2)}, "
        f"{campaign.get('runs_per_s', 0.0):.2f} runs/s")
    if "plan_s" in campaign:
        lines.append(format_plan_timing(campaign))

    effects = metrics.get("effects", {})
    if effects:
        total = sum(effects.values()) or 1
        lines.append("")
        lines.append(render_table(
            ("effect", "runs", "share"),
            [(name, count, f"{count / total * 100:.1f}%")
             for name, count in effects.items()]))

    checkpoint = metrics.get("checkpoint", {})
    savings = metrics.get("savings", {})
    if savings:
        runs = savings.get("runs", {})
        lines.append("")
        lines.append(
            f"checkpoint fast-forward: {checkpoint.get('hits', 0)} hits, "
            f"{checkpoint.get('misses', 0)} misses "
            f"(hit rate {_fmt_pct(checkpoint.get('hit_rate'))}, "
            f"{checkpoint.get('untracked', 0)} untracked)")
        lines.append(
            f"cycles: {savings.get('cycles_simulated', 0)} simulated, "
            f"{savings.get('cycles_skipped', 0)} skipped "
            f"({_fmt_pct(savings.get('skipped_fraction', 0.0))} of "
            f"{savings.get('golden_cycles_total', 0)} golden); "
            f"{savings.get('prefix_cycles', 0)} simulated were golden "
            f"prefix ({_fmt_pct(savings.get('prefix_share', 0.0))})")
        lines.append(render_table(
            ("savings source", "cycles skipped"),
            [("fast-forward", savings.get("skipped_fast_forward", 0)),
             ("convergence", savings.get("skipped_convergence", 0)),
             ("pre-screen", savings.get("skipped_prescreen", 0)),
             ("synthesized", savings.get("skipped_synthesized", 0))]))
        lines.append(
            f"runs: {runs.get('simulated', 0)} simulated "
            f"({runs.get('converged', 0)} converged early), "
            f"{runs.get('prescreened', 0)} pre-screened, "
            f"{runs.get('synthesized', 0)} synthesized")

    latency = metrics.get("latency", {})
    if latency:
        lines.append("")
        lines.append(render_table(
            ("effect", "count", "mean", "p50", "p95", "max"),
            [(name, stats.get("count", 0),
              *(format_duration(stats.get(f"{q}_s", 0.0), 2)
                for q in ("mean", "p50", "p95", "max")))
             for name, stats in latency.items()]))

    propagation = metrics.get("propagation")
    if propagation:
        lines.append("")
        lines.append(
            f"propagation: {propagation.get('runs', 0)} traced run(s), "
            f"sources {', '.join(propagation.get('sources', [])) or 'none'}")
        fates = propagation.get("fates", {})
        if fates:
            fate_names = ("consumed", "overwritten", "evicted",
                          "never_touched")
            lines.append(render_table(
                ("structure",) + fate_names,
                [(structure,) + tuple(by_fate.get(f, 0)
                                      for f in fate_names)
                 for structure, by_fate in fates.items()]))
        for label, key in (("time to first read",
                            "time_to_first_read_cycles"),
                           ("time to failure", "time_to_failure_cycles")):
            stats = propagation.get(key)
            if stats and stats.get("count"):
                lines.append(
                    f"{label} (cycles): n={stats['count']} "
                    f"mean={stats['mean']:.0f} p50={stats['p50']} "
                    f"p95={stats['p95']} max={stats['max']}")
        sdc = propagation.get("sdc")
        if sdc:
            lines.append(
                f"SDC runs: {sdc.get('total', 0)} total, "
                f"{sdc.get('site_consumed', 0)} with a consumed site "
                f"({_fmt_pct(sdc.get('consumed_fraction'))}), "
                f"{sdc.get('site_never_touched', 0)} never touched")

    workers = metrics.get("workers", {})
    if workers:
        lines.append("")
        lines.append(render_table(
            ("worker", "runs", "busy", "utilization", "last heartbeat"),
            [(worker, stats.get("runs", 0),
              format_duration(stats.get("busy_s", 0.0), 2),
              _fmt_pct(stats.get("utilization", 0.0)),
              format_duration(stats.get("last_heartbeat_s", 0.0), 2))
             for worker, stats in workers.items()]))

    dist = metrics.get("dist")
    if dist:
        shards = dist.get("shards", {})
        events = dist.get("events", {})
        lines.append("")
        lines.append(
            f"fleet: campaign {dist.get('campaign', '?')}"
            + (f" [{dist['trace']}]" if dist.get("trace") else ""))
        lines.append(
            f"  shards: {shards.get('complete', 0)}/"
            f"{shards.get('total', 0)} complete, "
            f"{shards.get('lease_expired', 0)} lease expirie(s)")
        by_type = events.get("by_type", {})
        lines.append(
            f"  events: {events.get('total', 0)} journaled ("
            + ", ".join(f"{name}={count}"
                        for name, count in sorted(by_type.items()))
            + ")")
        fleet_workers = dist.get("workers", {})
        if fleet_workers:
            lines.append(render_table(
                ("fleet worker", "runs", "shards", "heartbeats"),
                [(name, stats.get("runs", 0), stats.get("shards", 0),
                  stats.get("heartbeats", 0))
                 for name, stats in fleet_workers.items()]))
    return "\n".join(lines)


def summarize_metrics(path: Union[str, Path]) -> str:
    """Load and render one sidecar in a single call."""
    return render_metrics(load_metrics(path))
