"""The campaign dispatcher: ``gpufi serve``.

A small HTTP service (stdlib only) that turns one machine into the
coordination point of a fault-injection fleet: it plans submitted
campaigns, records their instant runs, leases the runs that simulate
to workers shard by shard (work stealing, heartbeats, expiry), hands
what comes back to each campaign's
:class:`~repro.faults.ledger.CampaignLedger` and serves status, events
and ``/metrics`` from the ledgers' tallies.  A finished campaign costs
it only its counts and tally (:class:`FinishedCampaign`): its records
and events are read back from its files, also after a restart.
``docs/distributed.md`` has the protocol and its guarantees.  The HTTP
layer keeps each HTTP/1.1 connection on a daemon thread and sends
every reply in one write (see ``_Handler``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import re
import socket
import sys
import threading
import time
from collections import Counter
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import MappingProxyType
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)
from urllib.parse import parse_qs, urlsplit

from repro.dist.protocol import plan_fingerprint, plan_shards, spec_to_wire
from repro.faults.campaign import Campaign
from repro.faults.config_file import parse_config_text
from repro.faults.executor import RunSpec, execute_run, stamp
from repro.faults.ledger import CampaignLedger
from repro.faults.parser import read_log_header, scan_completed_records
from repro.obs.events import (JournalPages, Tally, campaign_trace,
                              events_path_for, iter_events, run_event,
                              shard_trace)
from repro.obs.live import PROMETHEUS_CONTENT_TYPE, render_prometheus

log = logging.getLogger("gpufi.dist")

#: Default shard size (runs per lease, all of which simulate).  Small
#: enough that work stealing balances uneven run latencies, large
#: enough that HTTP round-trips stay negligible against simulation.
DEFAULT_SHARD_SIZE = 8

#: Default lease lifetime in seconds; workers heartbeat at a third of
#: this, so two consecutive lost heartbeats still keep a lease alive.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Largest request body accepted.  A record batch is a few kilobytes
#: per record (a few hundred with a propagation trace) times at most
#: the shard size; anything near this bound is not a client.
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclasses.dataclass
class _Lease:
    lease_id: str
    shard_index: int
    worker: str
    deadline: float
    generation: int
    trace: str


class FinishedCampaign:
    """A complete campaign as the dispatcher keeps it: identity, counts
    and tally; records and events are read back from its files, which
    no longer change.  A running one is a :class:`CampaignJob`."""

    complete = True
    #: Nothing is left to lease.
    leases: Mapping[str, _Lease] = MappingProxyType({})

    def __init__(self, campaign_id: str, config, fingerprint: str,
                 log_path: Path, total: int, shard_count: int,
                 tally: Tally):
        self.campaign_id = campaign_id
        #: The submitted config, parsed once.
        self.config = config
        self.fingerprint = fingerprint
        self.log_path = log_path
        self.total, self.shard_count, self.tally = total, shard_count, tally
        # per-run samples: only the sidecar reads them, written at close
        tally.latency.clear()
        #: Root of the campaign's trace-ID chain.
        self.trace = campaign_trace(campaign_id, fingerprint)
        self.pages = JournalPages(events_path_for(log_path))

    @classmethod
    def load(cls, campaign_id: str, doc: dict,
             log_path: Path) -> Optional["FinishedCampaign"]:
        """The campaign a restart finds finished -- its log holds every
        planned run, its journal ends complete -- planning and executing
        nothing; ``None`` for any other."""
        header = read_log_header(log_path) if log_path.exists() else None
        if not header or header.get("fingerprint") != doc["fingerprint"]:
            return None
        tally = Tally().apply_all(iter_events(events_path_for(log_path)))
        if (tally.state != "complete"
                or len(scan_completed_records(log_path)) < header["runs"]):
            return None
        return cls(campaign_id, parse_config_text(doc["config"]),
                   doc["fingerprint"], log_path, header["runs"],
                   tally.opening.get("shards", 0), tally)

    def status(self) -> dict:
        tally = self.tally
        return {
            "id": self.campaign_id,
            "state": "complete" if self.complete else "running",
            "benchmark": self.config.benchmark,
            "card": self.config.card,
            "fingerprint": self.fingerprint,
            "trace": self.trace,
            "total": self.total,
            "done": tally.done,
            "effects": dict(sorted(tally.effects.items())),
            "shards": {"total": self.shard_count, **self.shard_states(),
                       "lease_expired": tally.expired},
            "events": tally.events,
            "log": str(self.log_path),
        }

    def records(self) -> List[dict]:
        """The records, from the log, in the order :meth:`Campaign.plan`
        enumerates a uniform plan's runs: kernels as the config names
        them (else sorted), then structures as resolved, then runs."""
        kernels = list(self.config.kernels or ())
        structures = [structure.value
                      for structure in self.config.resolved_structures()]
        found = scan_completed_records(self.log_path)
        return [found[key] for key in sorted(found, key=lambda key: (
            kernels.index(key[0]) if kernels else key[0],
            structures.index(key[1]), key[2]))]

    def shard_states(self) -> Dict[str, int]:
        return {"pending": 0, "leased": 0, "complete": self.shard_count}

    def absorb(self, records: Sequence[dict], **delivery) -> List[dict]:
        return []  # a late delivery: every run is held already

    def flush(self) -> None:
        pass  # every event is on file


class CampaignJob(FinishedCampaign):
    """Dispatcher-side state of one running campaign: its ledger, its
    shards and the live leases on them -- nothing else.  Shards split
    the runs that simulate; the ledger takes the instant ones from
    :meth:`Dispatcher.submit`.  A shard is **complete** when the
    ledger holds every run of it, **leased** when it is not and a live
    lease is on it, and **pending** otherwise."""

    def __init__(self, campaign_id: str, config,
                 specs: Sequence[RunSpec], fingerprint: str,
                 shard_size: int, log_path: Path, plan_timing: dict):
        self.shards = plan_shards([spec for spec in specs
                                   if not spec.instant], shard_size)
        #: Log, records, journal, tally and sidecar, new or resumed as
        #: a restart finds them (lease generations included).
        self.ledger = CampaignLedger(
            specs, log_path, resume=True, journal=True,
            sidecar=config.metrics, campaign=campaign_id,
            fingerprint=fingerprint, strict=True,
            shards=len(self.shards), **plan_timing)
        super().__init__(campaign_id, config, fingerprint, log_path,
                         len(self.ledger.keys), len(self.shards),
                         self.ledger.tally)
        self.absorb, self.flush = self.ledger.absorb, self.ledger.flush
        self.leases: Dict[str, _Lease] = {}
        #: Every shard before this one is complete.  Records are never
        #: taken back, so no grant or count looks at those again.
        self._cursor = 0

    @property
    def complete(self) -> bool:
        return self.ledger.complete

    def _incomplete(self) -> Iterator[Tuple[int, bool]]:
        """Each shard the ledger lacks a run of, in order, and whether
        a live lease is on it."""
        records = self.ledger.records
        leased = {lease.shard_index for lease in self.leases.values()}
        for index in range(self._cursor, len(self.shards)):
            if any(spec.key not in records for spec in self.shards[index]):
                yield index, index in leased
            elif index == self._cursor:
                self._cursor += 1

    def next_pending(self) -> Optional[int]:
        """The lowest pending shard, if any: one whose lease expired
        goes before every shard never leased."""
        return next((index for index, leased in self._incomplete()
                     if not leased), None)

    def wire(self, shard_index: int) -> List[dict]:
        """The runs the shard still lacks, in wire form.  A campaign
        with ``metrics`` asks whoever executes them for telemetry, as
        the local executor asks its pool."""
        records = self.ledger.records
        wire = [spec_to_wire(spec) for spec in self.shards[shard_index]
                if spec.key not in records]
        for spec_wire in wire:
            spec_wire["telemetry"] = self.config.metrics
        return wire

    def shard_states(self) -> Dict[str, int]:
        on_lease = [leased for _, leased in self._incomplete()]
        return {"pending": on_lease.count(False),
                "leased": on_lease.count(True),
                "complete": len(self.shards) - len(on_lease)}


class Dispatcher:
    """Thread-safe core of the dispatch service (no HTTP).

    The HTTP layer (:class:`DispatcherServer`) is a thin JSON shim
    over these methods, so every scheduling property -- shard
    determinism, lease expiry, fairness, dedup -- is testable without
    opening a socket.

    Args:
        log_dir: directory holding, per campaign, the merged JSONL log
            (``<id>.jsonl``), the persisted submission
            (``<id>.campaign.json``) and any metrics sidecar.
        shard_size: runs that simulate per lease.
        lease_timeout: seconds before a silent worker loses its lease.
        clock: monotonic clock (tests inject fakes to force expiry).
    """

    def __init__(self, log_dir: Union[str, Path],
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 clock: Callable[[], float] = time.monotonic):
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.log_dir = Path(log_dir)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.shard_size = shard_size
        self.lease_timeout = lease_timeout
        self._clock = clock
        self._lock = threading.RLock()
        #: In submission order, which drives fairness; a campaign
        #: stays where it was when it finishes.
        self._jobs: Dict[str, FinishedCampaign] = {}
        self._rr_next = 0
        self._id_seq = 0
        #: When each worker was first and last heard from: an idle
        #: lease poll is journaled nowhere.
        self._workers: Dict[str, dict] = {}
        self._started = time.time()
        #: Jobs whose ledger the endpoint call in progress wrote to.
        self._touched: List[CampaignJob] = []
        #: Record batches accepted since start-up: a transport count,
        #: which no event reports.
        self.record_batches = 0
        self._restore_persisted()

    # -- submission ----------------------------------------------------------

    def submit(self, config_text: str,
               campaign_id: Optional[str] = None) -> dict:
        """Plan a submitted campaign, record its instant runs and
        split the others into shards.

        Re-submitting a campaign whose fingerprint is already known
        returns the existing id, executing nothing -- which is also how
        a client resumes after a dispatcher restart: same config, same
        fingerprint, same campaign.
        """
        config = parse_config_text(config_text)
        if config.backend != "local":
            # the dispatcher *is* the remote side; forwarding again
            # would recurse
            raise ValueError(
                "submitted campaigns must use the local backend "
                f"(got {config.backend!r})")
        # planning runs the golden profile; deliberately outside the
        # lock so a slow submit never stalls the lease path
        campaign = Campaign(config)
        specs = campaign.plan()
        fingerprint = plan_fingerprint(specs)
        with self._lock:
            known = self._known(fingerprint)
        if known is not None:
            return known
        # an instant verdict costs less here than a lease: recorded by
        # no worker, and outside the lock too
        instant = [execute_run(stamp(vars(spec), telemetry=True)
                               if config.metrics else spec)
                   for spec in specs if spec.instant]
        for record in instant:
            if "worker" in record:
                record["worker"] = None
        with self._endpoint():
            known = self._known(fingerprint)  # a racing submit's
            if known is not None:
                return known
            cid = campaign_id or self._next_id()
            job = CampaignJob(cid, config, specs, fingerprint,
                              self.shard_size, self.log_dir / f"{cid}.jsonl",
                              campaign.plan_timing)
            (self.log_dir / f"{cid}.campaign.json").write_text(json.dumps(
                {"id": cid, "config": config_text, "fingerprint": fingerprint},
                indent=1) + "\n", encoding="utf-8")
            self._jobs[cid] = job
            job.absorb(instant, events=[
                run_event(record, job.trace, None) for record in instant])
            self._touched.append(job)
            log.info("campaign %s submitted: %d runs, %d recorded, the rest "
                     "in %d shards, in %s", cid, job.total,
                     len(job.ledger.records), len(job.shards), job.log_path)
            if job.complete:
                self._finalize(job)
            return {"campaign": cid, "reused": False, "total": job.total}

    def _known(self, fingerprint: str) -> Optional[dict]:
        """The submit reply of a campaign known by its fingerprint."""
        for job in self._jobs.values():
            if job.fingerprint == fingerprint:
                return {"campaign": job.campaign_id, "reused": True,
                        "total": job.total}
        return None

    def _next_id(self) -> str:
        self._id_seq += 1
        return f"c{self._id_seq}"

    def _job(self, campaign_id: str) -> FinishedCampaign:
        job = self._jobs.get(campaign_id)
        if job is None:
            raise KeyError(f"unknown campaign {campaign_id!r}")
        return job

    # -- event journal -------------------------------------------------------

    def _journal(self, job: CampaignJob, event: str, **fields) -> None:
        """Journal one event: in memory now, on file when the endpoint
        call that caused it ends (:meth:`_endpoint`)."""
        job.ledger.event(event, **fields)
        self._touched.append(job)

    @contextlib.contextmanager
    def _endpoint(self):
        """The lock every endpoint call runs under.

        Whatever the call journaled, on whichever campaigns, is
        written and flushed once per campaign before the lock is
        released -- so before the call returns and its reply is sent,
        also when it raises.
        """
        with self._lock:
            try:
                yield
            finally:
                for job in self._touched:
                    job.flush()
                self._touched.clear()

    def events(self, campaign_id: str, cursor: int = 0,
               limit: int = 500) -> dict:
        """One page of a campaign's event stream, from ``cursor``.

        The cursor is the event's index in arrival order; clients
        resume tailing by passing back the reply's ``next``.  A page
        is read from the journal's file, which holds every event
        journaled before the call (written whole, under the lock).
        """
        with self._endpoint():
            self._reap_expired()
            job = self._job(campaign_id)
            job.flush()
            cursor, limit = max(int(cursor), 0), max(int(limit), 1)
            page = job.pages.page(cursor, limit)
            return {
                "campaign": campaign_id,
                "trace": job.trace,
                "state": "complete" if job.complete else "running",
                "complete": job.complete,
                "cursor": cursor,
                "next": max(cursor, min(cursor + limit, job.pages.lines)),
                "total": job.pages.lines,
                "events": page,
            }

    # -- leasing (work stealing) ---------------------------------------------

    def lease(self, worker: str) -> dict:
        """Hand a campaign's lowest pending shard to ``worker``.

        Campaigns are served round-robin in submission order: each
        lease starts scanning one campaign past the previously served
        one, so concurrently submitted campaigns progress together
        instead of strictly first-come-first-served.
        """
        with self._endpoint():
            self._reap_expired()
            return self._grant(worker)

    def _grant(self, worker: str) -> dict:
        """The reply of :meth:`lease`, and the ``next`` of a
        :meth:`collect` that asked for one."""
        self._touch_worker(worker)
        jobs = list(self._jobs.values())
        for offset in range(len(jobs)):
            index = (self._rr_next + offset) % len(jobs)
            job = jobs[index]
            shard_index = None if job.complete else job.next_pending()
            if shard_index is None:
                continue
            self._rr_next = (index + 1) % len(jobs)
            specs = job.wire(shard_index)
            # the generation survives a restart: no lease of before
            # one can end or extend a lease of after it
            generation = job.ledger.tally.generations.get(shard_index, 0) + 1
            lease_id = f"{job.campaign_id}-s{shard_index}-g{generation}"
            trace = shard_trace(job.trace, shard_index, generation)
            job.leases[lease_id] = _Lease(
                lease_id, shard_index, worker,
                self._clock() + self.lease_timeout,
                generation=generation, trace=trace)
            self._journal(job, "shard_leased", shard=shard_index,
                          worker=worker, generation=generation,
                          runs=len(specs), trace=trace)
            log.info("lease %s -> %s (%d specs)", lease_id, worker,
                     len(specs))
            return {
                "campaign": job.campaign_id,
                "lease": lease_id,
                "shard": shard_index,
                "fingerprint": job.fingerprint,
                "trace": trace,
                "campaign_trace": job.trace,
                "heartbeat_s": self.lease_timeout / 3.0,
                "specs": specs,
            }
        return {"idle": True}

    def heartbeat(self, lease_id: str) -> dict:
        """Extend a live lease; tell the worker if it expired."""
        with self._endpoint():
            self._reap_expired()
            for job in self._jobs.values():
                lease = job.leases.get(lease_id)
                if lease is not None:
                    lease.deadline = self._clock() + self.lease_timeout
                    self._touch_worker(lease.worker)
                    self._journal(job, "worker_heartbeat",
                                  worker=lease.worker,
                                  shard=lease.shard_index,
                                  trace=lease.trace)
                    return {"ok": True}
            return {"ok": False, "expired": True}

    def _reap_expired(self) -> None:
        now = self._clock()
        for job in self._jobs.values():
            expired = [lease for lease in job.leases.values()
                       if lease.deadline < now]
            for lease in expired:
                del job.leases[lease.lease_id]
                self._journal(job, "lease_expired",
                              shard=lease.shard_index,
                              worker=lease.worker,
                              generation=lease.generation,
                              trace=lease.trace)
                log.warning(
                    "lease %s (worker %s) expired on shard %d of %s",
                    lease.lease_id, lease.worker, lease.shard_index,
                    job.campaign_id)

    def _touch_worker(self, worker: str) -> None:
        now = time.time()
        self._workers.setdefault(worker, {"first_seen": now})["last_seen"] = now

    # -- collection ----------------------------------------------------------

    def collect(self, campaign_id: str, lease_id: str,
                fingerprint: str, records: Sequence[dict],
                done: bool = False, worker: Optional[str] = None,
                events: Optional[Sequence[dict]] = None,
                trace: Optional[str] = None,
                lease_next: bool = False) -> dict:
        """Accept a batch of records (and their events) from a worker.

        The batch must carry the campaign's fingerprint -- shard
        results can only ever land in the campaign whose plan produced
        them (the ``merge_logs`` safety, enforced at collection time).
        Valid records are accepted even when the lease has meanwhile
        expired: they are correct by construction (pure functions of
        their specs) and deduplication keeps exactly one copy per run;
        the reply's ``expired`` flag tells the worker to abandon the
        rest of the shard.

        Worker-attached ``run`` events ride the same dedup, in the
        campaign's ledger (:meth:`CampaignLedger.absorb`): one per
        fresh record, the worker's own or one synthesized there.

        A ``done`` batch with ``lease_next`` is also the worker's next
        lease request: the reply's ``next`` is what :meth:`lease`
        would have returned to it, a shard or ``{"idle": True}``.
        """
        with self._endpoint():
            self._reap_expired()
            job = self._job(campaign_id)
            if fingerprint != job.fingerprint:
                raise ValueError(
                    f"fingerprint mismatch for campaign {campaign_id}: "
                    f"records carry {str(fingerprint)[:12]}..., campaign "
                    f"plan is {job.fingerprint[:12]}... -- refusing to "
                    "mix campaigns")
            if worker is not None:
                self._touch_worker(worker)
            lease = job.leases.get(lease_id)
            accepted = len(job.absorb(
                records, events=events, worker=worker,
                shard=lease.shard_index if lease is not None else None,
                trace=trace or (lease.trace if lease is not None
                                else None)))
            self._touched.append(job)
            self.record_batches += 1
            expired = lease is None
            if lease is not None and done:
                del job.leases[lease_id]
                self._journal(job, "shard_complete",
                              shard=lease.shard_index,
                              worker=lease.worker,
                              generation=lease.generation,
                              trace=lease.trace)
            if accepted and job.complete:
                self._finalize(job)
            reply = {"ok": True, "accepted": accepted, "expired": expired,
                     "campaign_complete": job.complete}
            if done and lease_next:
                reply["next"] = self._grant(worker or "?")
            return reply

    def _finalize(self, job: CampaignJob) -> None:
        """Close a complete campaign's ledger; keep only what its views
        read: its runs live in its files."""
        job.ledger.close(True)
        finished = FinishedCampaign(
            job.campaign_id, job.config, job.fingerprint, job.log_path,
            job.total, job.shard_count, job.tally)
        finished.pages = job.pages  # the journal's index so far
        self._jobs[job.campaign_id] = finished
        log.info("campaign %s complete: %d records", job.campaign_id,
                 job.total)

    # -- introspection -------------------------------------------------------

    def _fleet(self) -> Dict[str, dict]:
        """Every worker that contacted this dispatcher: its leases and
        records, summed over the campaigns' tallies, and when it was
        first and last heard from."""
        fleet = {name: {"leases": 0, "records": 0, **entry}
                 for name, entry in sorted(self._workers.items())}
        for job in self._jobs.values():
            for name, entry in job.tally.fleet.items():
                if name in fleet:
                    fleet[name]["leases"] += entry["leases"]
                    fleet[name]["records"] += entry["runs"]
        return fleet

    def status(self, campaign_id: Optional[str] = None) -> dict:
        with self._endpoint():
            self._reap_expired()
            if campaign_id is not None:
                return self._job(campaign_id).status()
            return {
                "campaigns": [job.status() for job in self._jobs.values()],
                "workers": self._fleet(),
            }

    def records(self, campaign_id: str) -> dict:
        """Collected records of one campaign, in plan order: a finished
        campaign's are read from its log outside the lock."""
        with self._lock:
            job = self._job(campaign_id)
            reply = {"campaign": campaign_id, "complete": job.complete,
                     "fingerprint": job.fingerprint, "total": job.total}
            if isinstance(job, CampaignJob):
                return {**reply, "records": job.ledger.ordered()}
        return {**reply, "records": job.records()}

    def metrics_text(self) -> str:
        """The ``GET /metrics`` Prometheus text exposition.

        Rendered on demand: the shard gauges, worker liveness and the
        record batches are the dispatcher's; every other
        family sums the campaigns' tallies -- journal-derived, so a
        restart keeps them -- with
        :func:`repro.obs.live.render_prometheus` (stdlib only).
        """
        with self._endpoint():
            self._reap_expired()
            now = time.time()
            by_state: Dict[str, int] = {"running": 0, "complete": 0}
            effects: Counter = Counter()
            shard_states = Counter(pending=0, leased=0, complete=0)
            sums = Counter()
            rate = 0.0
            for job in self._jobs.values():
                tally = job.tally
                state = "complete" if job.complete else "running"
                by_state[state] += 1
                if not job.complete:
                    rate += tally.rate()
                sums.update(runs=tally.done, events=tally.events,
                            leased=tally.leased, expired=tally.expired)
                shard_states.update(job.shard_states())
                effects.update(tally.effects)
            fleet = self._fleet()
            families = [
                ("gpufi_uptime_seconds", "gauge",
                 "Seconds since this dispatcher started.",
                 [({}, now - self._started)]),
                ("gpufi_campaigns", "gauge",
                 "Campaigns known to the dispatcher, by state.",
                 [({"state": state}, count)
                  for state, count in sorted(by_state.items())]),
                ("gpufi_shards", "gauge",
                 "Shards across all campaigns, by state.",
                 [({"state": state}, count)
                  for state, count in sorted(shard_states.items())]),
                ("gpufi_runs_total", "counter",
                 "Run records collected across all campaigns.",
                 [({}, sums["runs"])]),
                ("gpufi_runs_per_second", "gauge",
                 "Simulated runs per second of the running campaigns.",
                 [({}, rate)]),
                ("gpufi_run_effects_total", "counter",
                 "Collected run records by fault effect.",
                 [({"effect": effect}, count)
                  for effect, count in sorted(effects.items())]),
                ("gpufi_events_total", "counter",
                 "Events journaled across all campaign streams.",
                 [({}, sums["events"])]),
                ("gpufi_leases_granted_total", "counter",
                 "Shard leases handed to workers.",
                 [({}, sums["leased"])]),
                ("gpufi_lease_expired_total", "counter",
                 "Leases lost to missed heartbeats.",
                 [({}, sums["expired"])]),
                ("gpufi_record_batches_total", "counter",
                 "Record batches accepted from workers.",
                 [({}, self.record_batches)]),
                ("gpufi_workers", "gauge",
                 "Workers that ever contacted this dispatcher.",
                 [({}, len(fleet))]),
                ("gpufi_worker_last_heartbeat_seconds", "gauge",
                 "Seconds since each worker was last heard from.",
                 [({"worker": name}, max(now - entry["last_seen"], 0.0))
                  for name, entry in fleet.items()]),
                ("gpufi_worker_runs_total", "counter",
                 "Fresh run records accepted, by worker.",
                 [({"worker": name}, entry["records"])
                  for name, entry in fleet.items()]),
                ("gpufi_worker_leases_total", "counter",
                 "Shard leases granted, by worker.",
                 [({"worker": name}, entry["leases"])
                  for name, entry in fleet.items()]),
            ]
            return render_prometheus(families)

    # -- persistence ---------------------------------------------------------

    def _restore_persisted(self) -> None:
        """On startup, load every persisted campaign: a finished one
        from its files, an unfinished one re-planned (restart
        resume)."""
        sidecars = sorted(
            self.log_dir.glob("*.campaign.json"),
            key=lambda p: [int(s) if s.isdigit() else s
                           for s in re.findall(r"\d+|\D+", p.stem)])
        for path in sidecars:
            doc = json.loads(path.read_text(encoding="utf-8"))
            cid = doc["id"]
            number = re.match(r"c(\d+)$", cid)
            if number:
                self._id_seq = max(self._id_seq, int(number.group(1)))
            try:
                finished = FinishedCampaign.load(
                    cid, doc, self.log_dir / f"{cid}.jsonl")
                if finished is not None:
                    self._jobs[cid] = finished
                elif self.submit(doc["config"], campaign_id=cid)["reused"]:
                    continue
            except ValueError as exc:  # a config or log this code refuses
                raise ValueError(f"cannot restore {path}: {exc}") from exc
            log.info("restored campaign %s from %s", cid, path)


# -- HTTP layer --------------------------------------------------------------


class _Rejected(Exception):
    """A request refused before its body was read."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _Handler(BaseHTTPRequestHandler):
    server_version = "gpufi-dispatch/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY.  Workers keep their connection, and on a kept
    #: connection Nagle's algorithm holds a segment back until the
    #: peer's delayed ACK of the one before it: ~40 ms per request.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.connections.add(self.connection)

    def finish(self):
        self.server.connections.discard(self.connection)
        super().finish()

    @property
    def dispatcher(self) -> Dispatcher:
        return self.server.dispatcher  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        log.debug("%s - %s", self.address_string(), fmt % args)

    def _reply(self, payload: dict, status: int = 200) -> None:
        self._reply_text(json.dumps(payload), "application/json", status)

    def _reply_text(self, text: str, content_type: str,
                    status: int = 200) -> None:
        """Send a whole response, head and body, in one write: a body
        sent after its head would be the segment Nagle holds back (see
        ``disable_nagle_algorithm``), and is a second system call."""
        body = text.encode("utf-8")
        head = (f"{self.protocol_version} {status} "
                f"{HTTPStatus(status).phrase}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if self.close_connection:
            head += "Connection: close\r\n"
        self.log_request(status, len(body))
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _error(self, message: str, status: int) -> None:
        self._reply({"error": message}, status=status)

    def _payload(self) -> dict:
        """The request's JSON body.  The declared length is checked
        before anything is read: a negative one would block this
        thread on ``read(-1)`` until the peer closes, a huge one would
        allocate it."""
        declared = (self.headers.get("Content-Length") or "").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise _Rejected(400, "Content-Length must be a non-negative "
                                 f"integer, got {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _Rejected(413, f"request body of {length} bytes exceeds "
                                 f"the {MAX_BODY_BYTES}-byte limit")
        if not length:
            return {}
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def do_GET(self):  # noqa: N802 (http.server API)
        try:
            url = urlsplit(self.path)
            path = url.path
            if path == "/api/ping":
                return self._reply({"ok": True,
                                    "service": "gpufi-dispatch"})
            if path == "/metrics":
                return self._reply_text(self.dispatcher.metrics_text(),
                                        PROMETHEUS_CONTENT_TYPE)
            if path == "/api/status":
                return self._reply(self.dispatcher.status())
            match = re.fullmatch(r"/api/(status|records|events)/([\w.-]+)",
                                 path)
            if match is None:
                return self._error(f"no such endpoint: {self.path}", 404)
            view, cid = match.groups()
            if view != "events":
                return self._reply(getattr(self.dispatcher, view)(cid))
            query = parse_qs(url.query)

            def _int(name: str, default: int) -> int:
                try:
                    return int(query.get(name, [default])[0])
                except (TypeError, ValueError):
                    return default

            return self._reply(self.dispatcher.events(
                cid, cursor=_int("cursor", 0), limit=_int("limit", 500)))
        except KeyError as exc:
            return self._error(str(exc.args[0]), 404)
        except Exception as exc:  # surface, don't kill the thread
            log.exception("GET %s failed", self.path)
            return self._error(f"{type(exc).__name__}: {exc}", 500)

    def do_POST(self):  # noqa: N802 (http.server API)
        try:
            payload = self._payload()
            if self.path == "/api/submit":
                return self._reply(
                    self.dispatcher.submit(payload["config"]))
            if self.path == "/api/lease":
                return self._reply(
                    self.dispatcher.lease(payload.get("worker", "?")))
            if self.path == "/api/heartbeat":
                return self._reply(
                    self.dispatcher.heartbeat(payload.get("lease", "")))
            if self.path == "/api/records":
                return self._reply(self.dispatcher.collect(
                    payload.get("campaign", ""),
                    payload.get("lease", ""),
                    payload.get("fingerprint", ""),
                    payload.get("records", []),
                    done=bool(payload.get("done")),
                    worker=payload.get("worker"),
                    events=payload.get("events"),
                    trace=payload.get("trace"),
                    lease_next=bool(payload.get("lease_next"))))
            return self._error(f"no such endpoint: {self.path}", 404)
        except _Rejected as exc:
            # the body (if any) is still in the socket: it must not be
            # parsed as the next request of this connection
            self.close_connection = True
            return self._error(exc.message, exc.status)
        except KeyError as exc:
            return self._error(f"missing/unknown: {exc.args[0]}", 400)
        except ValueError as exc:
            return self._error(str(exc), 409)
        except Exception as exc:
            log.exception("POST %s failed", self.path)
            return self._error(f"{type(exc).__name__}: {exc}", 500)


class _HTTPServer(ThreadingHTTPServer):
    """One daemon thread per connection, for as long as the peer
    keeps it; the open connections are known so that
    :meth:`DispatcherServer.shutdown` can end them."""

    daemon_threads = True

    def __init__(self, address, dispatcher: Dispatcher):
        super().__init__(address, _Handler)
        self.dispatcher = dispatcher
        self.connections: set = set()

    def handle_error(self, request, client_address):
        # a peer that went away mid-request is its own business, not a
        # traceback on the dispatcher's stderr
        if isinstance(sys.exc_info()[1], OSError):
            log.debug("connection from %s lost", client_address,
                      exc_info=True)
        else:
            super().handle_error(request, client_address)


class DispatcherServer:
    """The HTTP face of a :class:`Dispatcher`.

    ``port=0`` binds an ephemeral port (tests); :meth:`start` serves
    on a daemon thread, :meth:`serve_forever` blocks (the CLI).
    """

    def __init__(self, dispatcher: Dispatcher,
                 host: str = "127.0.0.1", port: int = 8937):
        self.dispatcher = dispatcher
        self._httpd = _HTTPServer((host, port), dispatcher)
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % self._httpd.server_address[:2]

    def start(self) -> "DispatcherServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="gpufi-dispatch")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting, then end the connections clients kept
        open: their handler threads wake from the read they idle in
        and exit, and a client's next request finds nobody."""
        self._httpd.shutdown()
        self._httpd.server_close()
        for connection in list(self._httpd.connections):
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer closed it first
        if self._thread is not None:
            self._thread.join(timeout=5.0)
