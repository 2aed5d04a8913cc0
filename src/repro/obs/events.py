"""Structured JSONL event stream for campaign observability.

One JSON object per line, written next to the campaign log
(``<log>.events.jsonl``).  Events carry a wall-clock ``ts`` (unix
seconds), an ``event`` type and free-form fields; a killed campaign
leaves a readable prefix -- the same torn-tail contract as the run log
itself.  Resuming a campaign *appends* to the existing stream (a
``campaign_resume`` event marks the seam) -- history is never
truncated.  The stream is the journal of the campaign's
:class:`~repro.faults.ledger.CampaignLedger`, whoever produces the
records; this module holds its format -- paths, trace IDs, the ``run``
event, the reader -- and its one fold, the :class:`Tally` every view
of a campaign reads.

Event schema v2 (:data:`EVENT_SCHEMA`) adds the trace-ID chain
``campaign -> shard -> run`` (:func:`campaign_trace` /
:func:`shard_trace` / :func:`run_trace`): the opening event carries
the campaign trace, every ``run`` event the full run trace, so any
logged record can be traced back to the worker, shard and lease
generation that produced it.

Event types of every campaign, journaled by its ledger:

- ``campaign_start`` -- total/pending/resumed run counts, of the
  pending ones how many are ``instant``, ``schema``, ``trace``, the
  campaign ``fingerprint``, ``jobs`` (a local pool) or ``shards`` (a
  dispatcher) and where the plan's time went: ``plan_s``, ``golden``
  ("simulated", "loaded" from a checkpoint set, or "memo": simulated
  earlier by the same process) and ``golden_s``.
- ``campaign_resume`` -- same fields, emitted instead of
  ``campaign_start`` by a session that appends to an existing log (a
  ``--resume`` run, a restarted dispatcher).
- ``run`` -- one completed run (:func:`run_event`): its key, effect,
  worker (``null``: an instant run its dispatcher recorded), trace,
  ``instant`` / ``converged`` when so, wall-clock ``total_s`` and,
  from a record with ``timings``, the ``restore_s`` / ``simulate_s`` /
  ``classify_s`` of its stages.  Exactly one per record.
- ``round`` -- an adaptive campaign admitted a planner round to its
  plan: ``round``, its ``runs`` (``instant`` of them), the plan's new
  ``total``.
- ``campaign_end`` -- the closing marker, once per session:
  ``complete`` and the number of runs the session ``executed``.

Their drivers add ``heartbeat`` (the local executor, while it *waits*
on a silent worker pool: how long, and the worker process states -- a
dead or replaced worker there means the dead-worker guard is about to
abort the campaign rather than hang) and the dispatcher's fleet
lifecycle -- ``shard_leased``, ``shard_complete``, ``lease_expired``,
``worker_heartbeat`` -- served live at ``GET /api/events/<id>`` (see
:mod:`repro.obs.live`).
"""

from __future__ import annotations

import itertools
import json
from array import array
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: Event-stream schema version (stamped on ``campaign_start`` /
#: ``campaign_resume``).  v2 added trace IDs and the fleet event
#: types; v1 streams (no ``schema`` key) remain readable.
EVENT_SCHEMA = 2


def events_path_for(log_path: Union[str, Path]) -> Path:
    """The sidecar event-stream path of one campaign log."""
    return Path(str(log_path) + ".events.jsonl")


# -- trace IDs ----------------------------------------------------------------


def campaign_trace(campaign_id: str, fingerprint: str) -> str:
    """The root of a campaign's trace chain: ``<id>@<fp12>``.

    Stamped at submit time (dispatcher) or first execution (local
    runs, ``campaign_id="local"``); the fingerprint prefix ties the
    trace to the plan identity, so two campaigns that happen to share
    an id (different dispatchers, restarts) still trace distinctly.
    """
    return f"{campaign_id}@{str(fingerprint)[:12]}"


def shard_trace(campaign: str, shard_index: int, generation: int) -> str:
    """One shard lease within a campaign: ``<campaign>/s<idx>.g<gen>``.

    ``generation`` counts how many times the shard has been leased --
    a re-queued shard (expired lease) gets a new generation, so a
    record's trace distinguishes the attempt that actually produced
    it from the ones that were presumed dead.
    """
    return f"{campaign}/s{shard_index}.g{generation}"


def run_trace(parent: str, kernel: str, structure: str,
              run_index: int) -> str:
    """One run within its parent (campaign or shard) trace."""
    return f"{parent}/{kernel}:{structure}:{run_index}"


def run_event(record: dict, parent_trace: str, worker, shard=None,
              total_s: Optional[float] = None) -> dict:
    """The ``run`` event of one finished record, whoever reports it:
    the local executor, a fleet worker, or the dispatcher for a record
    that arrived without one.  Events ride next to the record, never
    in it: the record stays a pure function of its spec, the event
    says where this execution went (``worker``, ``shard`` on a fleet,
    ``trace`` under the campaign's or the shard lease's) and how fast:
    the stage seconds of the record's ``timings`` when it has them,
    else only the ``total_s`` the reporter measured itself.  A run that
    never simulated (synthesized, pre-screened) is ``instant``, one
    stopped at a golden digest ``converged``; either key is present
    only when true.
    """
    kernel, structure = record.get("kernel"), record.get("structure")
    timings = record.get("timings") or {}
    event = {"event": "run", "kernel": kernel, "structure": structure,
             "run": record.get("run"), "effect": record.get("effect"),
             "worker": worker}
    if shard is not None:
        event["shard"] = shard
    if record.get("synthesized") or record.get("prescreened"):
        event["instant"] = True
    if record.get("terminated_at") is not None:
        event["converged"] = True
    event["total_s"] = timings.get("total_s", total_s)
    for stage in ("restore_s", "simulate_s", "classify_s"):
        if stage in timings:
            event[stage] = timings[stage]
    event["trace"] = run_trace(parent_trace, kernel, structure,
                               record.get("run"))
    return event


# -- the tally ----------------------------------------------------------------

#: The paper's fault-effect classes in rendering order (strings, so
#: this package needs no repro.faults import).
EFFECT_ORDER = ("Masked", "SDC", "Crash", "Timeout", "Performance")


def effect_order(effects) -> List[str]:
    """``effects``' names: the paper's classes in order, then the rest."""
    known = [e for e in EFFECT_ORDER if e in effects]
    return known + sorted(e for e in effects if e not in EFFECT_ORDER)


class Tally:
    """The one fold of a campaign's events: what the progress line,
    ``gpufi top``, ``/api/status``, ``/metrics`` and the sidecar's
    wall-clock sections say, whoever shows it.  A campaign's ledger
    keeps one and applies every event it journals (or would), so a
    fold of its ``<log>.events.jsonl`` equals it.

    Campaign-wide, earlier sessions included: ``total`` and ``done``
    runs, ``effects`` and per-structure ``structures``, shards
    ``leased`` / ``completed`` / lease ``expired``, each shard's latest
    lease generation, events ``by_type``, and per fleet worker (a named
    one; a pool's are numbered) its ``runs`` / ``shards`` / ``leases``
    / ``heartbeats`` and last event; a run that names no worker (an
    instant one its dispatcher recorded) is in no per-worker view.
    This session's, from its
    ``campaign_start`` / ``campaign_resume`` (:attr:`opening`): runs
    ``executed``, of them ``instant`` and ``converged``, the instant
    ones still pending, wall-clock, per worker ``[runs, busy seconds,
    first offset, last offset]`` and per effect the ``total_s`` of its
    runs.
    """

    def __init__(self):
        self.total = self.done = self.events = 0
        self.effects: Dict[str, int] = {}
        self.structures: Dict[str, Dict[str, int]] = {}
        self.by_type: Dict[str, int] = {}
        self.leased = self.completed = self.expired = 0
        self.generations: Dict[int, int] = {}
        self.fleet: Dict[str, dict] = {}
        self._open({})

    def _open(self, event: dict) -> None:
        self.opening = event
        #: This session's ``campaign_end``, once journaled.
        self.ended: Optional[dict] = None
        self.executed = self.instant = self.converged = 0
        self.instant_pending = event.get("instant", 0)
        self.started = self.last_ts = event.get("ts")
        self.workers: Dict[object, list] = {}
        self.latency: Dict[str, List[float]] = {}

    def apply(self, event: dict) -> "Tally":
        """Fold one event in."""
        kind = event.get("event")
        ts = event.get("ts")
        if ts is not None:
            self.last_ts = ts
        self.events += 1
        self.by_type[kind or "?"] = self.by_type.get(kind or "?", 0) + 1
        if kind == "run":
            self._run(event, ts)
        elif kind in ("campaign_start", "campaign_resume"):
            self.total = event.get("total", self.total)
            self._open(event)
        elif kind == "round":  # an adaptive campaign's plan grew
            self.total = event.get("total", self.total)
            self.instant_pending += event.get("instant", 0)
        elif kind == "shard_leased":
            self.leased += 1
            shard = event.get("shard")
            if isinstance(shard, int):
                self.generations[shard] = max(self.generations.get(shard, 0),
                                              int(event.get("generation") or 0))
            self._fleet(event, "leases")
        elif kind == "shard_complete":
            self.completed += 1
            self._fleet(event, "shards")
        elif kind == "lease_expired":
            self.expired += 1
        elif kind in ("worker_heartbeat", "heartbeat"):
            self._fleet(event, "heartbeats")
        elif kind == "campaign_end":
            self.ended = event
        return self

    def apply_all(self, events: Iterable[dict]) -> "Tally":
        for event in events:
            self.apply(event)
        return self

    def _run(self, event: dict, ts) -> None:
        effect = event.get("effect", "?")
        self.done += 1
        self.effects[effect] = self.effects.get(effect, 0) + 1
        per = self.structures.setdefault(event.get("structure", "?"), {})
        per[effect] = per.get(effect, 0) + 1
        self.executed += 1
        self.instant += bool(event.get("instant"))
        self.converged += bool(event.get("converged"))
        total_s = float(event.get("total_s") or 0.0)
        self.latency.setdefault(effect, []).append(total_s)
        # a fleet worker stamps its events on its own clock
        at = (ts - self.started if ts is not None and self.started is not None
              else 0.0)
        worker = event.get("worker", 0)
        if worker is None:
            return  # recorded where it was planned, by no worker
        stats = self.workers.get(worker)
        if stats is None:
            stats = self.workers[worker] = [0, 0.0, at, at]
        stats[0] += 1
        stats[1] += total_s
        stats[3] = at
        self._fleet(event, "runs")

    def _fleet(self, event: dict, counter: str) -> None:
        worker = event.get("worker")
        if not isinstance(worker, str):
            return  # a pool's numbered worker, or none named
        entry = self.fleet.get(worker)
        if entry is None:
            entry = self.fleet[worker] = {"runs": 0, "shards": 0, "leases": 0,
                                          "heartbeats": 0}
        entry[counter] += 1
        entry["last_ts"] = event.get("ts")
        entry["last_event"] = event.get("event")

    # -- derived ---------------------------------------------------------------

    @property
    def state(self) -> str:
        if self.ended is None:
            return "running"
        return "complete" if self.ended.get("complete", True) else "aborted"

    @property
    def wall_s(self) -> float:
        """This session's seconds, from its opening to its latest event."""
        if self.started is None or self.last_ts is None:
            return 0.0
        return max(self.last_ts - self.started, 0.0)

    @property
    def jobs(self) -> int:
        """The session's pool size; a session that names none (a fleet's)
        had as many as the workers that delivered its runs."""
        return self.opening.get("jobs", len(self.workers))

    def rate(self) -> float:
        """Simulated runs of this session per second of it.  Instant
        runs stay out: a burst of thousands of them would show a rate
        no simulating run can keep."""
        wall = self.wall_s
        return (self.executed - self.instant) / wall if wall > 0 else 0.0

    def eta(self) -> Optional[float]:
        """Seconds to completion at :meth:`rate`, counting only the runs
        still pending that will simulate; ``None`` before a rate."""
        left = max(self.total - self.done
                   - max(self.instant_pending - self.instant, 0), 0)
        if not left:
            return 0.0
        rate = self.rate()
        return left / rate if rate > 0 else None

    def progress(self) -> str:
        """The campaign's progress line."""
        eta = self.eta()
        counts = ", ".join(f"{name}={self.effects[name]}"
                           for name in effect_order(self.effects))
        extras = []
        if self.instant:
            extras.append(f"pre-screened={self.instant}")
        if self.converged:
            extras.append(f"early-stopped={self.converged}")
        return (f"{self.done}/{self.total} runs ({self.rate():.2f} runs/s, "
                f"ETA {'?' if eta is None else f'{eta:.0f}s'})"
                + (f" [{counts}]" if counts else "")
                + (f" ({', '.join(extras)})" if extras else ""))


# -- reading ------------------------------------------------------------------


def trim_torn_tail(path: Union[str, Path]) -> None:
    """Drop an incomplete final line before appending to a log or an
    event stream.

    A writer killed mid-record leaves a line without its newline;
    appending after it would fuse two records into one corrupt line.
    Truncates in place, back to the last complete line.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "rb+") as handle:
        data = handle.read()
        if not data.endswith(b"\n"):
            handle.truncate(data.rfind(b"\n") + 1)


def parse_jsonl(text: str, source, skip_corrupt: bool = False,
                tolerate_tail: bool = False,
                header_key: Optional[str] = None
                ) -> Iterator[Tuple[int, object]]:
    """The one reader of our JSONL files (run logs and event streams):
    yields ``(line index, value)`` of every non-blank line of ``text``.

    A line that is not JSON raises ``ValueError`` naming ``source`` and
    the line -- unless ``skip_corrupt`` (every such line is skipped)
    or, with ``tolerate_tail``, it is the final one: the tail a writer
    killed mid-record leaves.  ``header_key`` names the key that marks
    a metadata line to pass over (a run log's header).
    """
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            if skip_corrupt or (tolerate_tail and index == len(lines) - 1):
                continue
            raise ValueError(
                f"{source}:{index + 1}: bad JSON record") from exc
        if (header_key is not None and isinstance(value, dict)
                and header_key in value):
            continue
        yield index, value


def iter_events(path: Union[str, Path]) -> Iterator[dict]:
    """A stream file's events one at a time (a fold never holds them
    all), torn-tail-safe: a final line without its newline is not read,
    a corrupt line is skipped, a missing file is an empty stream."""
    path = Path(path)
    if not path.exists():
        return
    with open(path, "rb") as handle:
        for line in handle:
            if line.endswith(b"\n"):
                yield from (event for _, event in parse_jsonl(
                    line.decode("utf-8"), path, skip_corrupt=True))


def read_events(path: Union[str, Path], cursor: int = 0) -> List[dict]:
    """:func:`iter_events` as a list, from the ``cursor``-th event."""
    return list(itertools.islice(iter_events(path), cursor, None))


class JournalPages:
    """Cursor pages of an event stream file (a cursor is a line's
    index), as ``/api/events`` serves them.  The offset of every
    :attr:`STRIDE`-th whole line is kept, extended by each read."""

    STRIDE = 256

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.lines = self._end = 0  # whole lines, and their bytes
        self._marks = array("Q")

    def page(self, cursor: int, limit: int) -> List[dict]:
        """The events of ``limit`` lines from ``cursor`` on (fewer at
        the end; a corrupt line is skipped, as :func:`iter_events` does)."""
        with open(self.path, "rb") as handle:
            handle.seek(self._end)
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # still being written
                if self.lines % self.STRIDE == 0:
                    self._marks.append(self._end)
                self._end += len(line)
                self.lines += 1
            if cursor >= self.lines:
                return []
            handle.seek(self._marks[cursor // self.STRIDE])
            skip = cursor % self.STRIDE
            lines = itertools.islice(handle, skip,
                                     skip + min(limit, self.lines - cursor))
            return [event for _, event in parse_jsonl(
                b"".join(lines).decode("utf-8"), self.path, skip_corrupt=True)]
