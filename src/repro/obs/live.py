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
  format with zero third-party deps, and :func:`lint_prometheus` is
  the tiny format checker CI runs against a live scrape;
- local tailing -- :class:`EventFileTailer` follows an events file by
  byte offset, delivering only complete lines (torn-tail-safe), so a
  dashboard can ride along a campaign that is still writing.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.events import Tally, complete_lines, parse_jsonl

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# -- Prometheus text exposition ----------------------------------------------

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$")
_LABEL_PAIR = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')
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


def lint_prometheus(text: str) -> List[str]:
    """Check a text exposition for format errors; returns them.

    An empty list means the scrape is well-formed.  Covers the
    properties CI relies on: parseable sample lines and label pairs,
    float-parseable values, ``TYPE`` lines naming a valid type, at
    most one ``TYPE`` per family, and no samples preceding their
    family's ``TYPE`` declaration.
    """
    errors: List[str] = []
    typed: Dict[str, str] = {}
    sampled: set = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or not _METRIC_NAME.match(parts[2]):
                errors.append(f"line {number}: malformed TYPE: {line!r}")
                continue
            name, mtype = parts[2], parts[3].strip()
            if mtype not in _VALID_TYPES:
                errors.append(
                    f"line {number}: invalid type {mtype!r} for {name}")
            if name in typed:
                errors.append(f"line {number}: duplicate TYPE for {name}")
            if name in sampled:
                errors.append(
                    f"line {number}: TYPE for {name} after its samples")
            typed[name] = mtype
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            errors.append(f"line {number}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count|total)$", "", name)
        if name not in typed and base not in typed:
            errors.append(f"line {number}: sample for undeclared "
                          f"family {name}")
        sampled.add(name)
        labels = match.group("labels")
        if labels:
            for pair in _split_label_pairs(labels):
                if not _LABEL_PAIR.match(pair):
                    errors.append(
                        f"line {number}: malformed label {pair!r}")
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                errors.append(
                    f"line {number}: non-numeric value {value!r}")
    return errors


def _split_label_pairs(labels: str) -> List[str]:
    """Split ``a="x",b="y,z"`` on commas outside quoted values."""
    pairs, depth, start = [], False, 0
    index = 0
    while index < len(labels):
        char = labels[index]
        if char == "\\" and depth:
            index += 2
            continue
        if char == '"':
            depth = not depth
        elif char == "," and not depth:
            pairs.append(labels[start:index])
            start = index + 1
        index += 1
    tail = labels[start:]
    if tail:
        pairs.append(tail)
    return pairs


def required_families_present(text: str,
                              names: Iterable[str]) -> List[str]:
    """Names from ``names`` that have no ``TYPE`` line in ``text``."""
    declared = {line.split(" ", 3)[2]
                for line in text.splitlines()
                if line.startswith("# TYPE ") and len(line.split(" ")) >= 4}
    return [name for name in names if name not in declared]


# -- event-file tailing -------------------------------------------------------


class EventFileTailer:
    """Follow a ``<log>.events.jsonl`` file by byte offset.

    Each :meth:`poll` returns the events appended since the previous
    poll, never consuming an incomplete final line: a torn tail (the
    writer flushed mid-record, or was killed there) is left in place
    and delivered on a later poll once its newline lands -- the
    cursor-resume contract of ``/api/events``, applied to a file.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.offset = 0

    def poll(self) -> List[dict]:
        """Parse and return the complete events past the offset."""
        if not self.path.exists():
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            data = complete_lines(handle.read())
        self.offset += len(data)
        return [event for _, event in parse_jsonl(
            data.decode("utf-8"), self.path, skip_corrupt=True)]


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
