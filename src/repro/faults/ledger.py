"""The campaign ledger: the one keeper of a campaign's files.

gpuFI-4's controller leaves a log that every FR / AVF / FIT figure is
parsed from.  Whoever produces the records -- the local pool, the
dispatcher's fleet, the remote client, the adaptive planner's rounds
-- one :class:`CampaignLedger` per campaign is the only code that
opens the **log** (header line, or the torn tail trimmed and the
records reloaded of a log it appends to: a resume never truncates),
holds the **records** by run key (first delivery wins, none from
outside the plan), keeps the **journal** (``<log>.events.jsonl``: the
``campaign_start | campaign_resume`` ... ``campaign_end`` bracket,
exactly one ``run`` event per record), folds every event it journals,
or would, into the **tally** every view of the campaign reads, and
writes the **sidecar** (``<log>.metrics.json``) from the plan-ordered
records and the tally.  ``docs/observability.md``, *Life of a campaign's
artefacts*, says what a resume, a torn tail, a duplicate delivery and
an abort do to each.  The identity a log is stamped with lives here
too: :func:`plan_fingerprint`, :func:`log_header`, :func:`record_key`.
"""

from __future__ import annotations

import hashlib
import json
import operator
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from repro.faults.options import identity_fields
from repro.obs.events import (EVENT_SCHEMA, Tally, campaign_trace,
                              events_path_for, iter_events, run_event,
                              trim_torn_tail)
from repro.obs.metrics import MetricsCollector

#: ``(kernel, structure value, run index)`` -- the coordinates that
#: uniquely address one injection run within a campaign.
RunKey = Tuple[str, str, int]

#: Key identifying a campaign-log header line (the first line of logs
#: written since fingerprints exist).  Headers are metadata, not run
#: records: every log reader skips them.
LOG_HEADER_KEY = "gpufi_log"

#: Header schema version; bump on breaking layout changes.
LOG_HEADER_SCHEMA = 1


def record_key(record: dict) -> RunKey:
    """The ``(kernel, structure, run)`` address of one record (or of
    the ``run`` event that reports it)."""
    return (record["kernel"], record["structure"], int(record["run"]))


_IDENTITY_ROW, _IDENTITY_LATE = identity_fields()
_identity_row = operator.attrgetter(*_IDENTITY_ROW)


def plan_fingerprint(specs: Sequence["RunSpec"]) -> str:
    """Campaign identity hash of a plan: seed + plan, order-independent.

    Hashes the *identity* of every planned run -- coordinates, derived
    seed (itself a pure function of the campaign seed and the
    coordinates) and the options the table marks as identity
    (:func:`repro.faults.options.identity_fields`) -- sorted so the
    result is independent of plan enumeration order and of how the
    plan is later sharded.  Execution-strategy fields (checkpointing,
    early termination, telemetry) deliberately stay out: they never
    change what a campaign *is*, only how fast it runs.

    Two logs share a fingerprint exactly when they were produced by
    the same campaign, which is what :func:`repro.faults.parser
    .merge_logs` checks before aggregating them together and what the
    distributed dispatcher checks when collecting shard results.
    """
    rows = sorted(
        json.dumps(_identity_row(spec) + tuple(
            [name, getattr(spec, name)] for name in _IDENTITY_LATE
            if getattr(spec, name) is not None))
        for spec in specs)
    digest = hashlib.sha256("\n".join(rows).encode("utf-8"))
    return digest.hexdigest()


def log_header(specs: Sequence["RunSpec"],
               fingerprint: Optional[str] = None,
               adaptive: bool = False) -> dict:
    """The header record stamped as the first line of a campaign log.

    ``fingerprint`` is ``plan_fingerprint(specs)`` where the caller
    has already computed it.  The header of an ``adaptive`` campaign
    says so: its ``specs`` are the candidate plan the planner selects
    from and extends (what the uniform campaign of the same
    configuration would run), not the runs the log ends up holding.
    """
    header = {LOG_HEADER_KEY: LOG_HEADER_SCHEMA,
              "fingerprint": fingerprint or plan_fingerprint(specs),
              "runs": len(specs)}
    if specs:
        header["benchmark"] = specs[0].benchmark
        header["card"] = specs[0].card
    if adaptive:
        header["adaptive"] = True
    return header


def format_log_header(specs: Sequence["RunSpec"],
                      fingerprint: Optional[str] = None,
                      adaptive: bool = False) -> str:
    """The header's exact log line."""
    return json.dumps(log_header(specs, fingerprint, adaptive)) + "\n"


def _run_events(events: Optional[Iterable[dict]]) -> Dict[RunKey, dict]:
    """The ``run`` events among ``events``, by the key of the record
    each reports; the first one of a key wins."""
    found: Dict[RunKey, dict] = {}
    for event in events or ():
        if event.get("event") == "run":
            try:
                found.setdefault(record_key(event), event)
            except (KeyError, TypeError, ValueError):
                pass  # names no run: nothing a record could claim
    return found


def _write(handle, lines: Iterable[dict]) -> None:
    """Append ``lines`` to a JSONL file: one write, one flush."""
    if handle is not None:
        handle.write("".join(json.dumps(line) + "\n" for line in lines))
        handle.flush()


class CampaignLedger:
    """One campaign's log, records, journal and sidecar (see the
    module docstring).  As a context manager, leaving it closes the
    campaign -- complete unless an exception ends it -- with
    :attr:`sections`.

    Args:
        plan: the specs the campaign's header names, and the plan
            records must belong to -- unless ``adaptive``: then the
            plan starts empty and each round widens it (:meth:`admit`).
        log_path: the campaign log; ``None`` keeps all in memory.
        resume: append to an existing log and hold the records it has.
        journal: keep the event journal (on file next to the log,
            which holds it: :attr:`journal` keeps only what is not on
            file yet); the tally folds the events either way.
        sidecar: fold records and tally into the metrics document
            when the campaign closes (implies ``journal``).
        campaign: the campaign's id, as events and traces name it.
        fingerprint: ``plan_fingerprint(plan)``, where already known.
        strict: the log resumed from must be this plan's, by its
            header's fingerprint (a dispatcher restart).  Otherwise it
            must record the same benchmark and card: a local
            ``--resume`` may legitimately meet the log of a changed
            plan, whose other records it leaves alone.
        clock: wall clock events are stamped with.
        opening: further fields of the opening event (``jobs`` or
            ``shards``, the plan's timing).
    """

    def __init__(self, plan: Sequence["RunSpec"],
                 log_path: Optional[Union[str, Path]] = None, *,
                 resume: bool = False, journal: bool = False,
                 sidecar: bool = False, campaign: str = "local",
                 fingerprint: Optional[str] = None, strict: bool = False,
                 adaptive: bool = False,
                 clock: Callable[[], float] = time.time, **opening):
        self.log_path = Path(log_path) if log_path is not None else None
        self.campaign = campaign
        self.adaptive = adaptive
        self.fingerprint = fingerprint or plan_fingerprint(plan)
        self._clock = clock
        self._journaling = journal or sidecar
        self._sidecar = sidecar
        #: The plan's run keys, in plan order.
        self.keys: Dict[RunKey, None] = {}
        #: The campaign's records so far, by run key.
        self.records: Dict[RunKey, dict] = {}
        #: Events journaled since the last :meth:`flush` (every one,
        #: without a file to flush to).  ``tally.events`` counts the
        #: whole journal, earlier sessions' included.
        self.journal: List[dict] = []
        #: The fold of every event of the campaign, journaled or not.
        self.tally = Tally()
        #: Run keys that have their ``run`` event.
        self._journaled = set()
        #: Records absorbed (not reloaded) by this session.
        self.executed = 0
        #: Further sidecar sections, for a ledger closed by ``with``.
        self.sections: Dict[str, object] = {}
        #: The sidecar document, once closed with ``sidecar``.
        self.metrics: Optional[dict] = None
        self.closed = False
        self._rounds = 0

        found = (self._reload(plan, strict)
                 if resume and self.log_path is not None else None)
        appending = found is not None
        #: Records of the log on disk outside the plan (so far).
        self._found = found or {}
        self._log = self._events = None
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            mode = "a" if appending else "w"
            self._log = open(self.log_path, mode, encoding="utf-8")
            if not appending:
                # the campaign's identity first, so merge_logs and the
                # dispatcher can refuse to mix records of unrelated ones
                self._log.write(format_log_header(plan, self.fingerprint,
                                                  adaptive))
                self._log.flush()
            if self._journaling:
                path = events_path_for(self.log_path)
                if appending:
                    trim_torn_tail(path)
                    for event in iter_events(path):
                        self.tally.apply(event)
                        self._journaled.update(_run_events((event,)))
                self._events = open(path, mode, encoding="utf-8")
        instant = 0 if adaptive else self.admit(plan)
        # records on file without a run event: a journal torn further
        # back than its log, or none kept
        self._journal_runs([*self.records.values(), *self._found.values()],
                           {}, self.trace)
        self.event("campaign_resume" if appending else "campaign_start",
                   schema=EVENT_SCHEMA, campaign=campaign,
                   total=len(self.keys),
                   pending=len(self.keys) - len(self.records),
                   resumed=len(self.records), instant=instant,
                   trace=self.trace, fingerprint=self.fingerprint, **opening)
        self.flush()

    @property
    def trace(self) -> str:
        """Root of the campaign's trace-ID chain."""
        return campaign_trace(self.campaign, self.fingerprint)

    @property
    def complete(self) -> bool:
        return len(self.records) >= len(self.keys)

    def ordered(self) -> List[dict]:
        """The records so far, in plan order."""
        return [self.records[key] for key in self.keys
                if key in self.records]

    # -- opening -------------------------------------------------------------

    def _reload(self, plan: Sequence["RunSpec"],
                strict: bool) -> Optional[Dict[RunKey, dict]]:
        """The records of the log a resumed session appends to, once
        its torn tail is cut and it is seen to be a log this campaign
        may continue; ``None`` without a log to append to -- none at
        all, or one torn into its header line."""
        from repro.faults.parser import (read_log_header,
                                         scan_completed_records)

        trim_torn_tail(self.log_path)
        if not (self.log_path.exists() and self.log_path.stat().st_size):
            return None
        header = read_log_header(self.log_path) if strict else None
        if header and header.get("fingerprint") not in (None,
                                                        self.fingerprint):
            raise ValueError(
                f"{self.log_path} belongs to a different campaign "
                f"(fingerprint {str(header['fingerprint'])[:12]}..., "
                f"expected {self.fingerprint[:12]}...)")
        found = scan_completed_records(self.log_path)
        if not strict and plan:
            expected = (plan[0].benchmark, plan[0].card)
            for record in found.values():
                got = (record.get("benchmark"), record.get("card"))
                if got != expected:
                    raise ValueError(
                        f"{self.log_path}: cannot resume -- log records "
                        f"{got[0]}/{got[1]}, campaign targets "
                        f"{expected[0]}/{expected[1]}")
        return found

    def admit(self, specs: Sequence["RunSpec"]) -> int:
        """Widen the plan by those of ``specs`` it does not name yet
        (an adaptive campaign journals that as a ``round``); what the
        resumed log holds of them counts as recorded.  Returns how many
        of the new runs are pending and instant (synthesized or
        pre-screened)."""
        new = 0
        instant = 0
        for spec in specs:
            key = spec.key
            if key in self.keys:
                continue
            new += 1
            self.keys[key] = None
            if key in self._found:
                self.records[key] = self._found.pop(key)
            elif spec.instant:
                instant += 1
        if self.adaptive and new:
            self._rounds += 1
            self.event("round", round=self._rounds, runs=new,
                       instant=instant, total=len(self.keys))
        return instant

    # -- records -------------------------------------------------------------

    def absorb(self, records: Sequence[dict],
               events: Optional[Sequence[dict]] = None, worker=None,
               shard: Optional[int] = None,
               trace: Optional[str] = None) -> List[dict]:
        """Take in a batch of records; returns the fresh ones.

        Every record must be of the plan (else ``ValueError``, and
        nothing of the batch is taken).  A record whose key is already
        held is dropped: records are pure functions of their specs, so
        the first delivery is as good as any.  The fresh ones are
        logged with one write and one flush, and journaled with one
        ``run`` event each, in batch order: the one among ``events``
        that whoever executed the run stamped (its clock, its trace),
        else one built here under ``trace`` (default: the campaign's)
        for ``worker`` (default: the record's own) and ``shard``.
        """
        batch = [(record_key(record), record) for record in records]
        for key, _ in batch:
            if key not in self.keys:
                raise ValueError(f"record {key} is not part of campaign "
                                 f"{self.campaign}'s plan")
        fresh = []
        for key, record in batch:
            if key in self.records:
                continue  # the first delivery won
            self.records[key] = record
            fresh.append(record)
        if fresh:
            self.executed += len(fresh)
            _write(self._log, fresh)
            self._journal_runs(fresh, _run_events(events),
                               trace or self.trace, worker, shard)
        return fresh

    # -- journal -------------------------------------------------------------

    def _note(self, event: dict) -> None:
        """Tally one event, stamped now unless it is, and journal it
        (in memory: :meth:`flush`) when this ledger keeps a journal."""
        if "ts" not in event:
            event = {"ts": round(self._clock(), 6), **event}
        self.tally.apply(event)
        if self._journaling:
            self.journal.append(event)

    def _journal_runs(self, records: Iterable[dict],
                      provided: Dict[RunKey, dict], trace: str,
                      worker=None, shard: Optional[int] = None) -> None:
        """One ``run`` event for each of ``records`` that has none."""
        for record in records:
            key = record_key(record)
            if key not in self._journaled:
                self._journaled.add(key)
                self._note(provided.get(key) or run_event(
                    record, trace, worker if worker is not None
                    else record.get("worker", 0), shard))

    def event(self, kind: str, **fields) -> None:
        """Tally and journal one event, stamped now."""
        self._note({"event": kind, **fields})

    def flush(self) -> None:
        """Put what was journaled since the last call on file, with
        one write and one flush, and let it go."""
        if self.journal and self._events is not None:
            _write(self._events, self.journal)
            self.journal = []

    # -- closing -------------------------------------------------------------

    def close(self, complete: bool, **sections) -> Optional[dict]:
        """End the session, once: journal ``campaign_end`` and, with
        ``sidecar``, fold the plan-ordered records and the tally into
        the metrics document (returned, kept on :attr:`metrics`,
        written next to the log).  ``sections`` join the document as
        given."""
        if self.closed:
            return self.metrics
        self.closed = True
        self.event("campaign_end", complete=complete,
                   executed=self.executed)
        try:
            if self._sidecar:
                collector = MetricsCollector(jobs=self.tally.jobs,
                                             tally=self.tally)
                self.metrics = collector.finalize(
                    self.ordered(), complete=complete,
                    total=len(self.keys), **sections)
                if self.log_path is not None:
                    collector.write(self.metrics, self.log_path)
        finally:
            self.flush()
            for handle in (self._log, self._events):
                if handle is not None:
                    handle.close()
        return self.metrics

    def __enter__(self) -> "CampaignLedger":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.close(exc_type is None, **self.sections)
        return False
