"""Campaign metrics: the ``<log>.metrics.json`` sidecar.

The :class:`MetricsCollector` rides along the executor: it is fed
every freshly completed run record as it arrives (wall-clock side) and
the full plan-ordered record list at the end (deterministic side), and
produces one JSON document answering "where did the time go and which
optimisation paid for it" without re-running any simulation.

The sidecar deliberately separates two kinds of fields:

- **Order-independent** sections (``effects``, ``checkpoint``,
  ``savings``) are pure functions of the run records, so they are
  byte-identical across ``--jobs 1`` and ``--jobs N`` and across
  straight-through vs. resumed campaigns with the same history.
- **Wall-clock** sections (``campaign``, ``latency``, ``workers``,
  ``batch``) measure this execution: throughput, per-effect latency
  histograms, per-worker utilization/heartbeats, and lockstep-pack
  stats of a batched campaign.

This module works on plain record dicts and imports nothing from
:mod:`repro.faults`, so it stays importable from anywhere in the
stack (the executor imports *it*, not the other way around).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

#: Sidecar schema version; bump on breaking layout changes.
METRICS_SCHEMA = 1

#: Canonical rendering order of the paper's fault-effect classes
#: (kept as strings so this module needs no repro.faults import).
_EFFECT_ORDER = ("Masked", "SDC", "Crash", "Timeout", "Performance")

#: Upper edges of the per-run latency histogram buckets (seconds);
#: a final unbounded bucket catches everything beyond the last edge.
LATENCY_BUCKETS = (0.01, 0.1, 1.0, 10.0, 60.0)

#: The deterministic cycle-accounting keys of a record's ``timings``.
CYCLE_KEYS = ("cycles_simulated", "skipped_fast_forward",
              "skipped_convergence", "skipped_prescreen",
              "skipped_synthesized")

#: Upper edges of the peel-off cycle histogram buckets (cycles since
#: simulation start); a final unbounded bucket catches the rest.
PEEL_BUCKETS = (100, 1000, 10_000, 100_000)


def metrics_path_for(log_path: Union[str, Path]) -> Path:
    """The metrics sidecar path of one campaign log."""
    return Path(str(log_path) + ".metrics.json")


def derived_cycle_fields(record: dict) -> Dict[str, int]:
    """Deterministic cycle accounting of one run record.

    Prefers the record's own ``timings`` breakdown (telemetry was on
    when it ran); otherwise reconstructs what is derivable from the
    classification fields alone -- synthesized/pre-screened runs
    skipped the whole golden execution, convergence-terminated runs
    skipped the suffix, and anything else is counted as simulated in
    full (fast-forward restores are not recoverable without timings).
    """
    out = dict.fromkeys(CYCLE_KEYS, 0)
    timings = record.get("timings")
    if timings:
        for key in CYCLE_KEYS:
            out[key] = int(timings.get(key, 0))
        return out
    golden = int(record.get("golden_cycles", 0))
    if record.get("synthesized"):
        out["skipped_synthesized"] = golden
    elif record.get("prescreened"):
        out["skipped_prescreen"] = golden
    elif record.get("terminated_at") is not None:
        terminated = int(record["terminated_at"])
        out["cycles_simulated"] = terminated
        out["skipped_convergence"] = max(golden - terminated, 0)
    else:
        out["cycles_simulated"] = int(record.get("cycles", 0))
    return out


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample.

    Standard ceil-based nearest-rank definition: the value at rank
    ``ceil(q * N)`` (1-based), clamped to the sample.  ``round()``
    would banker's-round ``.5`` ranks to the *even* neighbor, picking
    inconsistent sides at different sample sizes.
    """
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _histogram(samples: Sequence[float], edges: Sequence[float],
               unit: str = "") -> Dict[str, int]:
    buckets = {}
    lo = 0
    for hi in edges:
        buckets[f"<={hi:g}{unit}"] = sum(1 for s in samples if lo < s <= hi
                                         or (lo == 0 and s == 0))
        lo = hi
    buckets[f">{edges[-1]:g}{unit}"] = sum(1 for s in samples
                                           if s > edges[-1])
    return buckets


def _effect_order(effects) -> List[str]:
    known = [e for e in _EFFECT_ORDER if e in effects]
    return known + sorted(e for e in effects if e not in _EFFECT_ORDER)


class MetricsCollector:
    """Accumulates campaign metrics and renders the sidecar document.

    Args:
        jobs: worker count of the executing campaign.
        clock: monotonic float-second clock (tests inject fakes).
    """

    def __init__(self, jobs: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        self.jobs = jobs
        self._clock = clock
        self._start = clock()
        #: worker (a pool worker's id, a fleet worker's name) ->
        #: {"runs", "busy_s", "first_seen_s", "last_heartbeat_s"}
        self._workers: Dict[object, Dict[str, float]] = {}
        #: effect -> wall-clock total_s samples of this session's runs
        self._latency: Dict[str, List[float]] = {}
        self._executed = 0

    # -- live side (one call per freshly completed run) -------------------

    def record(self, record: dict) -> None:
        """Account one freshly completed (non-resumed) run."""
        now = round(self._clock() - self._start, 6)
        self._executed += 1
        timings = record.get("timings") or {}
        total_s = float(timings.get("total_s", 0.0))
        worker = record.get("worker", 0)
        stats = self._workers.setdefault(
            worker, {"runs": 0, "busy_s": 0.0,
                     "first_seen_s": now, "last_heartbeat_s": now})
        stats["runs"] += 1
        stats["busy_s"] += total_s
        stats["last_heartbeat_s"] = now
        self._latency.setdefault(record["effect"], []).append(total_s)

    # -- finalization ------------------------------------------------------

    def finalize(self, records: Sequence[dict],
                 complete: bool = True,
                 total: Optional[int] = None,
                 pack_stats: Optional[dict] = None) -> dict:
        """Build the sidecar document.

        ``records`` is every record of the campaign in plan order
        (resumed ones included) -- the deterministic sections cover
        the whole campaign, the wall-clock sections only this session.
        ``pack_stats`` is what this session's lockstep packs summed to
        (``CampaignExecutor.batch_stats``), when it ran any.
        """
        wall_s = max(self._clock() - self._start, 0.0)
        records = list(records)
        total = len(records) if total is None else total

        effects: Dict[str, int] = {}
        synthesized = prescreened = converged = simulated = 0
        fast_forwarded = untracked = 0
        cycles = dict.fromkeys(CYCLE_KEYS, 0)
        golden_total = 0
        for record in records:
            effects[record["effect"]] = effects.get(record["effect"], 0) + 1
            golden_total += int(record.get("golden_cycles", 0))
            for key, value in derived_cycle_fields(record).items():
                cycles[key] += value
            if record.get("synthesized"):
                synthesized += 1
            elif record.get("prescreened"):
                prescreened += 1
            elif record.get("terminated_at") is not None:
                converged += 1
                simulated += 1
            else:
                simulated += 1
            timings = record.get("timings")
            if timings is None:
                if not (record.get("synthesized")
                        or record.get("prescreened")):
                    untracked += 1
            elif timings.get("fast_forwarded"):
                fast_forwarded += 1

        restorable = simulated - untracked
        checkpoint = {
            "hits": fast_forwarded,
            "misses": max(restorable - fast_forwarded, 0),
            "untracked": untracked,
            "hit_rate": (round(fast_forwarded / restorable, 6)
                         if restorable else None),
        }
        skipped = sum(cycles[k] for k in CYCLE_KEYS
                      if k != "cycles_simulated")
        savings = {
            "golden_cycles_total": golden_total,
            "cycles_simulated": cycles["cycles_simulated"],
            "cycles_skipped": skipped,
            "skipped_fast_forward": cycles["skipped_fast_forward"],
            "skipped_convergence": cycles["skipped_convergence"],
            "skipped_prescreen": cycles["skipped_prescreen"],
            "skipped_synthesized": cycles["skipped_synthesized"],
            "skipped_fraction": (round(skipped / golden_total, 6)
                                 if golden_total else 0.0),
            "runs": {"simulated": simulated, "converged": converged,
                     "prescreened": prescreened,
                     "synthesized": synthesized},
        }

        latency = {}
        for effect in _effect_order(self._latency):
            samples = sorted(self._latency[effect])
            latency[effect] = {
                "count": len(samples),
                "mean_s": round(sum(samples) / len(samples), 6),
                "p50_s": round(_percentile(samples, 0.50), 6),
                "p95_s": round(_percentile(samples, 0.95), 6),
                "max_s": round(samples[-1], 6),
                "histogram": _histogram(samples, LATENCY_BUCKETS, "s"),
            }

        workers = {}
        for worker in sorted(self._workers,
                             key=lambda w: (isinstance(w, str), w)):
            stats = self._workers[worker]
            workers[str(worker)] = {
                "runs": stats["runs"],
                "busy_s": round(stats["busy_s"], 6),
                "utilization": (round(stats["busy_s"] / wall_s, 6)
                                if wall_s > 0 else 0.0),
                "first_seen_s": stats["first_seen_s"],
                "last_heartbeat_s": stats["last_heartbeat_s"],
            }

        # batch section: lockstep-pack execution stats of this session
        # (wall-clock side), present only when at least one pack ran
        batch = None
        if pack_stats and pack_stats["packs"]:
            member_cycles = pack_stats["member_cycles"]
            batch = {key: pack_stats[key] for key in (
                "packs", "members", "completed_in_pack", "converged",
                "peeled", "solo_fallback")}
            batch["lockstep_fraction"] = (
                round(pack_stats["lockstep_cycles"] / member_cycles, 6)
                if member_cycles else None)
            batch["peel_cycle_histogram"] = _histogram(
                pack_stats["peel_cycles"], PEEL_BUCKETS)

        # propagation sidecar section: pure function of the records
        # (order-independent), present only when at least one record
        # carries a propagation payload
        from repro.obs.propagation import summarize_propagation

        propagation = summarize_propagation(records)

        doc = {
            "schema": METRICS_SCHEMA,
            "campaign": {
                "complete": bool(complete),
                "total_runs": total,
                "resumed": max(total - self._executed, 0),
                "executed": self._executed,
                "jobs": self.jobs,
                "wall_s": round(wall_s, 6),
                "runs_per_s": (round(self._executed / wall_s, 6)
                               if wall_s > 0 else 0.0),
            },
            "effects": {e: effects[e] for e in _effect_order(effects)},
            "checkpoint": checkpoint,
            "savings": savings,
            "latency": latency,
            "workers": workers,
        }
        if batch is not None:
            doc["batch"] = batch
        if propagation is not None:
            doc["propagation"] = propagation
        return doc

    def write(self, metrics: dict, log_path: Union[str, Path]) -> Path:
        """Write the sidecar next to ``log_path``; returns its path."""
        path = metrics_path_for(log_path)
        path.write_text(json.dumps(metrics, indent=1) + "\n",
                        encoding="utf-8")
        return path
