"""Campaign metrics: the ``<log>.metrics.json`` sidecar.

The sidecar answers "where did the time go and which optimisation paid
for it" without re-running any simulation.  It is a fold
(:meth:`MetricsCollector.finalize`) of two things a campaign's
:class:`~repro.faults.ledger.CampaignLedger` holds when it closes:

- the campaign's **records**, in plan order, give the
  order-independent sections (``effects``, ``checkpoint``,
  ``savings``, ``propagation``): pure functions of the records, so
  byte-identical across ``--jobs 1`` and ``--jobs N``, across backends
  and across straight-through vs. resumed campaigns;
- the ledger's **tally** (:class:`repro.obs.events.Tally`) -- the
  events since the last ``campaign_start`` / ``campaign_resume``
  folded -- gives the wall-clock sections (``campaign``, ``latency``,
  ``workers``) from the ``ts`` / ``worker`` / ``total_s`` / ``effect``
  of its ``run`` events, and on a dispatcher the fleet's (``dist``)
  from the whole journal; the session's driver adds what only it
  knows (``batch``, ``adaptive``).

This module works on plain record and event dicts and imports nothing
from :mod:`repro.faults`, so it stays importable from anywhere in the
stack.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from repro.obs.events import Tally, effect_order, run_event

#: Sidecar schema version; bump on breaking layout changes.
METRICS_SCHEMA = 1

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


def batch_section(pack_stats: Optional[dict]) -> Optional[dict]:
    """The sidecar's ``batch`` section: what a session's lockstep
    packs summed to (``CampaignExecutor.batch_stats``), or ``None``
    when it ran none."""
    if not pack_stats or not pack_stats["packs"]:
        return None
    member_cycles = pack_stats["member_cycles"]
    batch = {key: pack_stats[key] for key in (
        "packs", "members", "completed_in_pack", "converged",
        "peeled", "solo_fallback")}
    batch["lockstep_fraction"] = (
        round(pack_stats["lockstep_cycles"] / member_cycles, 6)
        if member_cycles else None)
    batch["peel_cycle_histogram"] = _histogram(
        pack_stats["peel_cycles"], PEEL_BUCKETS)
    return batch


class MetricsCollector:
    """Folds a campaign's records and one session's :class:`Tally` into
    the sidecar document.

    Args:
        jobs: worker count of the executing campaign.
        clock: wall clock that stamps the events of :meth:`record`.
        tally: the campaign's tally, this session's opening applied (a
            ledger's); by default that of a session that starts now
            and is told its runs by :meth:`record`.
    """

    def __init__(self, jobs: int = 1,
                 clock: Callable[[], float] = time.time,
                 tally: Optional[Tally] = None):
        self.jobs = jobs
        self._clock = clock
        self.tally = tally or Tally().apply(
            {"ts": clock(), "event": "campaign_start"})

    def record(self, record: dict) -> None:
        """Tally one freshly completed run: its ``run`` event, stamped
        now."""
        self.tally.apply({"ts": round(self._clock(), 6), **run_event(
            record, "", record.get("worker", 0))})

    def finalize(self, records: Sequence[dict],
                 complete: bool = True,
                 total: Optional[int] = None, **sections) -> dict:
        """Build the sidecar document.

        ``records`` is every record of the campaign in plan order
        (resumed ones included) -- the deterministic sections cover
        the whole campaign, the wall-clock sections only this session,
        from its tally (up to its last event).  ``sections`` are
        appended as given (``None`` ones dropped).
        """
        tally = self.tally
        opened = tally.opening
        wall_s = round(tally.wall_s, 6)
        records = list(records)
        total = len(records) if total is None else total

        effects: Dict[str, int] = {}
        synthesized = prescreened = converged = simulated = 0
        fast_forwarded = untracked = 0
        cycles = dict.fromkeys(CYCLE_KEYS, 0)
        golden_total = prefix = 0
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
            prefix += int((timings or {}).get("prefix_cycles", 0))

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
            "prefix_cycles": prefix,  # simulated: restore -> injection
            "prefix_share": (round(prefix / cycles["cycles_simulated"], 6)
                             if cycles["cycles_simulated"] else 0.0),
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
        for effect in effect_order(tally.latency):
            ordered = sorted(tally.latency[effect])
            latency[effect] = {
                "count": len(ordered),
                "mean_s": round(sum(ordered) / len(ordered), 6),
                "p50_s": round(_percentile(ordered, 0.50), 6),
                "p95_s": round(_percentile(ordered, 0.95), 6),
                "max_s": round(ordered[-1], 6),
                "histogram": _histogram(ordered, LATENCY_BUCKETS, "s"),
            }

        def offset(at: float) -> float:
            return round(min(max(at, 0.0), wall_s), 6)

        # a pool worker's id sorts before a fleet worker's name
        workers = {}
        for worker in sorted(tally.workers, key=lambda w: (
                (0, w, "") if isinstance(w, int) else (1, 0, str(w)))):
            runs, busy_s, first, last = tally.workers[worker]
            workers[str(worker)] = {
                "runs": runs,
                "busy_s": round(busy_s, 6),
                "utilization": (round(busy_s / wall_s, 6)
                                if wall_s > 0 else 0.0),
                "first_seen_s": offset(first),
                "last_heartbeat_s": offset(last),
            }

        # propagation sidecar section: pure function of the records
        # (order-independent), present only when at least one record
        # carries a propagation payload
        from repro.obs.propagation import summarize_propagation

        propagation = summarize_propagation(records)

        executed = tally.executed
        campaign = {
            "complete": bool(complete),
            "total_runs": total,
            "resumed": max(total - executed, 0),
            "executed": executed,
            "jobs": self.jobs,
            "wall_s": wall_s,
            "runs_per_s": (round(executed / wall_s, 6)
                           if wall_s > 0 else 0.0),
        }
        # where the plan's time went, as the opening event reports it
        campaign.update({key: opened[key]
                         for key in ("plan_s", "golden", "golden_s")
                         if key in opened})
        doc = {
            "schema": METRICS_SCHEMA,
            "campaign": campaign,
            "effects": {e: effects[e] for e in effect_order(effects)},
            "checkpoint": checkpoint,
            "savings": savings,
            "latency": latency,
            "workers": workers,
        }
        if propagation is not None:
            doc["propagation"] = propagation
        if "shards" in opened:
            # a dispatcher's session: the fleet, over the whole journal
            # (a dispatcher closes a campaign once all its shards are)
            doc["dist"] = {
                "events": {"total": tally.events,
                           "by_type": dict(sorted(tally.by_type.items()))},
                "workers": {name: {key: entry[key] for key in
                                   ("runs", "shards", "heartbeats")}
                            for name, entry in sorted(tally.fleet.items())},
                "lease_expired": tally.expired,
                "campaign": opened.get("campaign"),
                "trace": opened.get("trace"),
                "shards": {"total": opened["shards"],
                           "complete": opened["shards"],
                           "lease_expired": tally.expired},
            }
        doc.update({name: section for name, section in sections.items()
                    if section is not None})
        return doc

    def write(self, metrics: dict, log_path: Union[str, Path]) -> Path:
        """Write the sidecar next to ``log_path``; returns its path."""
        path = metrics_path_for(log_path)
        path.write_text(json.dumps(metrics, indent=1) + "\n",
                        encoding="utf-8")
        return path
