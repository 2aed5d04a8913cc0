"""Live campaign telemetry: dashboards, tailing, and /metrics text.

The render half of the fleet observability layer (the transport half
lives in :mod:`repro.dist`, the one fold of a campaign's events,
:class:`~repro.obs.events.Tally`, in :mod:`repro.obs.events`):
everything here is a pure function of a tally, an event or a status
document, shared by

- ``gpufi top`` / ``gpufi status --follow`` -- a terminal dashboard
  and a line-per-event stream rendered from ``/api/events`` +
  ``/api/status`` (fleet) or from a tailed ``<log>.events.jsonl``
  (local runs), via :func:`render_top` and :func:`format_event`;
- the dispatcher's ``GET /metrics`` endpoint --
  :func:`render_prometheus` writes the Prometheus text exposition
  format with zero third-party deps;
- local tailing -- :class:`EventFileTailer` follows an events file by
  byte offset, delivering only complete lines (torn-tail-safe), so a
  dashboard can ride along a campaign that is still writing.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.events import JournalPages, Tally

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# -- Prometheus text exposition ----------------------------------------------

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

#: One exposition family: ``(name, type, help, samples)`` where each
#: sample is ``(labels_dict, value)``.
Family = Tuple[str, str, str, List[Tuple[Dict[str, str], float]]]


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(round(float(value), 6))


def render_prometheus(families: Sequence[Family]) -> str:
    """Render metric families as the Prometheus text format (0.0.4).

    Each family is ``(name, type, help, samples)``; a family with no
    samples still renders its ``HELP``/``TYPE`` header (a scraper
    seeing the family exists with no series is meaningful -- e.g. no
    workers connected yet).
    """
    lines: List[str] = []
    for name, mtype, help_text, samples in families:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if mtype not in _VALID_TYPES:
            raise ValueError(f"invalid metric type {mtype!r} for {name}")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            if labels:
                label_text = ",".join(
                    f'{key}="{_escape_label(labels[key])}"'
                    for key in sorted(labels))
                lines.append(f"{name}{{{label_text}}} "
                             f"{_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


# -- event-file tailing -------------------------------------------------------


class EventFileTailer(JournalPages):
    """Follow a ``<log>.events.jsonl`` file: each :meth:`poll` returns
    the events appended since the previous poll, never consuming an
    incomplete final line -- the cursor-resume contract of
    ``/api/events``, applied to a file."""

    def poll(self) -> List[dict]:
        """The complete events past the previous poll's."""
        return self.page(self.lines, 1 << 62) if self.path.exists() else []


# -- dashboard -----------------------------------------------------------------


def format_duration(seconds: Optional[float], digits: int = 1) -> str:
    """``seconds`` in hours, minutes or seconds, whichever is the
    largest unit it fills; ``"?"`` for ``None``."""
    if seconds is None:
        return "?"
    for unit, size in (("h", 3600), ("m", 60), ("s", 1)):
        if seconds >= size or unit == "s":
            return f"{seconds / size:.{digits}f}{unit}"


def _fmt_age(ts: Optional[float], now: Optional[float]) -> str:
    if ts is None or now is None:
        return "?"
    return f"{max(now - ts, 0.0):.1f}s ago"


def render_top(tally: Tally, status: Optional[dict] = None,
               now: Optional[float] = None) -> str:
    """Render one dashboard frame of a campaign's tally as plain text.

    ``status`` (a ``/api/status/<id>`` document) adds the dispatcher's
    shard queue when available; local runs pass ``None``.  ``now``
    defaults to the last event timestamp so a frame is a pure function
    of its inputs (tests) -- interactive callers pass ``time.time()``.
    """
    now = now if now is not None else tally.last_ts
    opening = tally.opening
    shards = (status or {}).get("shards")
    lines: List[str] = []
    title = opening.get("campaign") or (status or {}).get("id") or "campaign"
    trace = opening.get("trace") or (status or {}).get("fingerprint", "")
    lines.append(f"gpufi top -- {title}"
                 + (f"  [{trace}]" if trace else ""))
    pct = (f" ({tally.done / tally.total * 100:.1f}%)"
           if tally.total else "")
    lines.append(
        f"state {tally.state}   runs {tally.done}/{tally.total}{pct}"
        f"   rate {tally.rate():.2f}/s"
        f"   eta {format_duration(tally.eta())}")
    if "plan_s" in opening:
        lines.append(format_plan_timing(opening))
    leases = (f"   leases {tally.leased} granted, {tally.expired} expired"
              if tally.leased or tally.expired else "")
    if shards:
        lines.append(
            f"shards {shards.get('complete', 0)}/{shards.get('total', 0)}"
            f" complete, {shards.get('pending', 0)} pending,"
            f" {shards.get('leased', 0)} leased{leases}")
    elif leases:
        lines.append(f"shards {tally.completed} complete{leases}")
    if tally.effects:
        parts = [f"{name} {count}"
                 for name, count in sorted(tally.effects.items())]
        lines.append("effects  " + "   ".join(parts))
    if tally.structures:
        lines.append("")
        width = max(len(name) for name in tally.structures)
        for structure in sorted(tally.structures):
            per = tally.structures[structure]
            detail = "  ".join(f"{name} {count}"
                               for name, count in sorted(per.items()))
            lines.append(f"  {structure:<{width}}  {detail}")
    if tally.fleet:
        lines.append("")
        width = max(max(len(name) for name in tally.fleet), len("worker"))
        lines.append(f"  {'worker':<{width}}  {'runs':>5}  last event")
        for name in sorted(tally.fleet):
            entry = tally.fleet[name]
            lines.append(
                f"  {name:<{width}}  {entry['runs']:>5}  "
                f"{entry['last_event']} {_fmt_age(entry['last_ts'], now)}")
    return "\n".join(lines)


def format_plan_timing(event: dict) -> str:
    """Where a campaign's plan spent its time: the ``plan_s`` /
    ``golden`` / ``golden_s`` of a ``campaign_start`` event or of the
    sidecar's ``campaign`` section.  A golden run is "simulated",
    "loaded" from a checkpoint set, or taken "from memo": this process
    simulated it for an earlier campaign."""
    golden = event.get("golden", "?")
    return (f"plan {event['plan_s']:.3f}s, golden run "
            f"{'from ' if golden == 'memo' else ''}{golden} in "
            f"{event.get('golden_s', 0):.3f}s")


def format_event(event: dict) -> str:
    """One line per event, for ``gpufi status --follow``."""
    ts = event.get("ts")
    stamp = (time.strftime("%H:%M:%S", time.localtime(ts))
             if ts is not None else "--:--:--")
    kind = event.get("event", "?")
    if kind == "run":
        total_s = event.get("total_s")
        timing = f" ({total_s:.3f}s)" if isinstance(total_s,
                                                    (int, float)) else ""
        worker = event.get("worker")
        via = f" worker={worker}" if isinstance(worker, str) else ""
        return (f"{stamp} run {event.get('kernel')}/"
                f"{event.get('structure')}/{event.get('run')} "
                f"{event.get('effect')}{via}{timing}")
    if kind in ("campaign_start", "campaign_resume"):
        return (f"{stamp} {kind} total={event.get('total')} "
                f"pending={event.get('pending')} "
                f"resumed={event.get('resumed')}"
                + (f" {format_plan_timing(event)}" if "plan_s" in event
                   else "")
                + (f" trace={event['trace']}" if event.get("trace")
                   else ""))
    if kind == "shard_leased":
        return (f"{stamp} shard_leased s{event.get('shard')} -> "
                f"{event.get('worker')} ({event.get('runs')} runs, "
                f"gen {event.get('generation')})")
    if kind == "shard_complete":
        return (f"{stamp} shard_complete s{event.get('shard')} by "
                f"{event.get('worker')}")
    if kind == "lease_expired":
        return (f"{stamp} lease_expired s{event.get('shard')} "
                f"worker={event.get('worker')} "
                f"gen={event.get('generation')} -- shard re-queued")
    if kind == "campaign_end":
        outcome = "complete" if event.get("complete", True) else "ABORTED"
        return (f"{stamp} campaign_end {outcome} "
                f"executed={event.get('executed')}")
    detail = " ".join(f"{key}={value}"
                      for key, value in sorted(event.items())
                      if key not in ("ts", "event"))
    return f"{stamp} {kind} {detail}".rstrip()
