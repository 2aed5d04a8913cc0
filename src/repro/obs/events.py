"""Structured JSONL event stream for campaign observability.

One JSON object per line, written next to the campaign log
(``<log>.events.jsonl``).  Events carry a wall-clock ``ts`` (unix
seconds), an ``event`` type and free-form fields; the stream is
append-and-flush so a killed campaign leaves a readable prefix --
the same torn-tail contract as the run log itself.  Resuming a
campaign *appends* to the existing stream (a ``campaign_resume``
event marks the seam) -- history is never truncated.

Event schema v2 (:data:`EVENT_SCHEMA`) adds the trace-ID chain
``campaign -> shard -> run`` (:func:`campaign_trace` /
:func:`shard_trace` / :func:`run_trace`): every lifecycle event
carries the campaign trace, every ``run`` event the full run trace,
so any logged record can be traced back to the worker, shard and
lease generation that produced it.

Event types emitted by the local executor:

- ``campaign_start`` -- total/pending/resumed run counts, jobs,
  ``schema``, ``trace``, the campaign ``fingerprint`` and where the
  plan's time went: ``plan_s``, ``golden`` ("simulated", or "loaded"
  from a checkpoint set) and ``golden_s``.
- ``campaign_resume`` -- same fields, emitted instead of
  ``campaign_start`` when a ``--resume`` session appends to an
  existing stream.
- ``run`` -- one completed run (:func:`run_event`): its key, effect,
  worker, trace, wall-clock ``total_s`` and, from a record with
  ``timings``, the ``restore_s`` / ``simulate_s`` / ``classify_s`` of
  its stages.
- ``heartbeat`` -- emitted while the executor is *waiting* on the
  worker pool with nothing completing: how long the pool has been
  silent and the worker process states.  A campaign whose heartbeats
  show a dead/replaced worker is about to be aborted by the
  dead-worker guard rather than hanging forever.
- ``campaign_end`` -- completion marker with the final wall-clock.

The distributed dispatcher journals the same ``run`` events (streamed
by workers, deduplicated by run key) plus fleet lifecycle events --
``shard_leased``, ``shard_complete``, ``lease_expired``,
``worker_heartbeat`` -- into the same file format, served live at
``GET /api/events/<id>`` (see :mod:`repro.obs.live`).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

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
    else only the ``total_s`` the reporter measured itself.
    """
    kernel, structure = record.get("kernel"), record.get("structure")
    timings = record.get("timings") or {}
    event = {"event": "run", "kernel": kernel, "structure": structure,
             "run": record.get("run"), "effect": record.get("effect"),
             "worker": worker}
    if shard is not None:
        event["shard"] = shard
    event["total_s"] = timings.get("total_s", total_s)
    for stage in ("restore_s", "simulate_s", "classify_s"):
        if stage in timings:
            event[stage] = timings[stage]
    event["trace"] = run_trace(parent_trace, kernel, structure,
                               record.get("run"))
    return event


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
        if data and not data.endswith(b"\n"):
            handle.truncate(data.rfind(b"\n") + 1)


def read_events(path: Union[str, Path],
                cursor: int = 0) -> List[dict]:
    """Read events from a stream file, torn-tail-safe.

    Returns the parsed events starting at line index ``cursor``.  A
    final line cut mid-write (no trailing newline, or unparseable) is
    silently dropped -- the same contract as resuming a run log -- so
    a journal being written concurrently is always readable.  A
    missing file reads as an empty stream.
    """
    path = Path(path)
    if not path.exists():
        return []
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        # torn tail: keep only the complete lines
        cut = data.rfind(b"\n")
        data = data[:cut + 1] if cut >= 0 else b""
    events: List[dict] = []
    for index, line in enumerate(data.decode("utf-8").splitlines()):
        if index < cursor or not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a corrupt line is skipped, not fatal
    return events


class EventLog:
    """Append-and-flush JSONL event writer (opened lazily).

    Args:
        path: the stream file (``events_path_for(log)``).
        clock: wall-clock used for the ``ts`` field.
        append: open in append mode, preserving the existing stream
            (the resume contract); the default truncates, which is
            only correct for a brand-new campaign.
    """

    def __init__(self, path: Union[str, Path],
                 clock: Callable[[], float] = time.time,
                 append: bool = False):
        self.path = Path(path)
        self._clock = clock
        self._append = append
        self._handle = None

    def emit(self, event: str, **fields) -> dict:
        """Append one event record and flush it; returns the record."""
        record = {"ts": round(self._clock(), 6), "event": event}
        record.update(fields)
        return self.append(record)

    def stamp(self, record: dict) -> dict:
        """``record`` with a leading ``ts``, unless it carries one."""
        if "ts" in record:
            return record
        return {"ts": round(self._clock(), 6), **record}

    def append(self, record: dict) -> dict:
        """Append a pre-built event record (stamping ``ts`` if absent)."""
        record = self.stamp(record)
        self.extend([record])
        return record

    def extend(self, records: Sequence[dict]) -> None:
        """Append stamped event records as they are, with one write
        and one flush for all of them."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._append:
                trim_torn_tail(self.path)
            self._handle = open(self.path,
                                "a" if self._append else "w",
                                encoding="utf-8")
        self._handle.write("".join(json.dumps(record) + "\n"
                                   for record in records))
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class NullEventLog:
    """Disabled event stream: :meth:`emit` is a no-op."""

    path: Optional[Path] = None

    def emit(self, event: str, **fields) -> dict:
        return {}

    def append(self, record: dict) -> dict:
        return record

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullEventLog":
        return self

    def __exit__(self, *exc) -> bool:
        return False
