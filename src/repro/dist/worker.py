"""The fleet worker: ``gpufi worker --connect <url>``.

A worker is deliberately dumb: it loops *lease -> execute -> stream
back*, holding no campaign state beyond its current shard.  All
scheduling intelligence (fairness, expiry, dedup, merging) lives in
the dispatcher, so workers can appear, disappear and crash freely --
the work-stealing shape of DAVOS-style grid dispatchers.

In the steady state a shard costs one request on the worker's kept
connection: its records go back in a single ``done`` send that also
asks for the next lease (``lease_next``), and the reply's ``next``
carries it.  Only a shard that runs longer than
:data:`FLUSH_AFTER_S` streams records before it is done, and only a
worker with nothing to do (or talking to a dispatcher that predates
``next``) polls ``/api/lease``.  The dispatcher going away is
idleness, not an error: the shard in hand is abandoned (what was
delivered is kept, the lease expires, the shard is re-queued) and the
worker polls until it is back.

While executing a shard the worker heartbeats on a background thread
at the cadence the lease prescribes; if the dispatcher reports the
lease expired (the worker was presumed dead and the shard re-queued),
the worker abandons the rest of the shard instead of racing its
replacement.  Records it already streamed are kept -- they are pure
functions of their specs, and the dispatcher deduplicates by run key.

Runnable as a module for subprocess fleets::

    python -m repro.dist.worker --connect http://host:8937
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Optional

from repro.dist.client import DispatcherClient, DispatchError
from repro.dist.protocol import spec_from_wire
from repro.obs.events import run_event

#: Finished runs are sent back once the previous send (or the lease)
#: is this many seconds old, and with the last run of the shard.  The
#: bound on what a crashing worker loses; nothing watches a campaign
#: more often (``DispatcherClient.wait``/``follow`` poll every 0.5 s,
#: ``gpufi top`` refreshes every second).
FLUSH_AFTER_S = 0.5


class FleetWorker:
    """Work-stealing execution loop against one dispatcher.

    Args:
        url: dispatcher base URL (``http://host:port``).
        name: worker identity shown in dispatcher status; defaults to
            ``<hostname>-<pid>``.
        poll: seconds between lease attempts while idle.
        max_idle: give up after this many seconds of continuous
            idleness (``None`` works forever); lets benches and CI
            fleets wind down by themselves.
        run_fn: per-spec work function (tests substitute stubs);
            defaults to :func:`repro.faults.executor.execute_run`.
        stop: external stop signal checked between runs.
        progress: optional callback receiving one line per shard.
        clock: monotonic clock the age of a send is read from (tests
            inject fakes).
    """

    def __init__(self, url: str, name: Optional[str] = None,
                 poll: float = 1.0, max_idle: Optional[float] = None,
                 run_fn: Optional[Callable] = None,
                 stop: Optional[threading.Event] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.client = DispatcherClient(url)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.poll = poll
        self.max_idle = max_idle
        self._clock = clock
        self.stop = stop if stop is not None else threading.Event()
        self._progress = progress or (lambda msg: None)
        self.shards_done = 0
        self.runs_done = 0
        if run_fn is None:
            from repro.faults.executor import execute_run

            run_fn = execute_run
        self._run_fn = run_fn

    def run(self) -> None:
        """Steal work until stopped (or idle past ``max_idle``).

        Raises :class:`DispatchError` only if the dispatcher cannot be
        reached at all (a mistyped URL); once it has answered, an
        outage is waited out like any other idleness.
        """
        try:
            self._run()
        finally:
            self.client.close()

    def _run(self) -> None:
        reached = False
        idle_since: Optional[float] = None
        lease: Optional[dict] = None  # handed over by the last reply
        while not self.stop.is_set():
            if lease is None:
                try:
                    lease = self.client.call("/api/lease",
                                             {"worker": self.name})
                    reached = True
                except DispatchError:
                    if not reached:
                        raise
                    lease = {"idle": True}  # an outage is idleness
            if lease.get("lease"):
                idle_since = None
                lease = self._execute_lease(lease)
                continue
            lease = None
            if idle_since is None:
                idle_since = time.monotonic()
            if (self.max_idle is not None
                    and time.monotonic() - idle_since >= self.max_idle):
                return
            self.stop.wait(self.poll)

    # -- one shard -----------------------------------------------------------

    def _execute_lease(self, lease: dict) -> Optional[dict]:
        """Run one leased shard; returns the dispatcher's answer to
        the ``lease_next`` of its last send, if it gave one."""
        specs = [spec_from_wire(wire) for wire in lease["specs"]]
        expired = threading.Event()
        hb_stop = threading.Event()
        heartbeater = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease, hb_stop, expired),
            daemon=True, name=f"heartbeat-{lease['lease']}")
        heartbeater.start()
        try:
            batch, events = [], []
            sent_at = self._clock()
            for executed, spec in enumerate(specs, 1):
                if self.stop.is_set() or expired.is_set():
                    return None
                started = time.time()
                record = self._run_fn(spec)
                if "worker" in record:
                    # a telemetry record names who executed it: on a
                    # fleet this worker, not its process's pool id
                    record["worker"] = self.name
                batch.append(record)
                events.append({"ts": round(time.time(), 6), **run_event(
                    record, lease["trace"], self.name,
                    lease.get("shard"),
                    total_s=round(time.time() - started, 6))})
                done = executed == len(specs)
                if not done and self._clock() - sent_at < FLUSH_AFTER_S:
                    continue
                try:
                    reply = self._send(lease, batch, events, done)
                except DispatchError:
                    return None  # abandon the shard: see module docstring
                if done:
                    self.shards_done += 1
                    self.runs_done += executed
                    self._progress(
                        f"{self.name}: shard {lease['shard']} of "
                        f"{lease['campaign']} done ({executed} runs)")
                    return reply.get("next")
                if reply.get("expired"):
                    return None  # lease lost: abandon the shard
                batch, events = [], []
                sent_at = self._clock()
        finally:
            hb_stop.set()
            heartbeater.join(timeout=2.0)

    def _send(self, lease: dict, batch: list, events: list,
              done: bool) -> dict:
        """Send finished runs (and their events) back.  The shard's
        last send says ``done`` and asks for the next lease in the
        same request; a dispatcher that predates ``lease_next``
        ignores it."""
        payload = {
            "campaign": lease["campaign"],
            "lease": lease["lease"],
            "fingerprint": lease["fingerprint"],
            "worker": self.name,
            "trace": lease["trace"],
            "records": batch,
            "events": events,
            "done": done,
        }
        if done:
            payload["lease_next"] = True
        return self.client.call("/api/records", payload)

    def _heartbeat_loop(self, lease: dict, hb_stop: threading.Event,
                        expired: threading.Event) -> None:
        interval = float(lease.get("heartbeat_s") or 5.0)
        try:
            while not hb_stop.wait(interval):
                try:
                    reply = self.client.call("/api/heartbeat", {
                        "lease": lease["lease"],
                        "worker": self.name,
                        "trace": lease["trace"],
                    })
                except DispatchError:
                    continue  # transient network blip: the lease survives
                if reply.get("expired"):
                    expired.set()
                    return
        finally:
            self.client.close()  # this thread's connection, if it made one


def add_worker_arguments(parser) -> None:
    """The worker's command line, shared by ``gpufi worker`` and
    ``python -m repro.dist.worker``."""
    parser.add_argument("--connect", required=True, metavar="URL",
                        help="dispatcher URL, e.g. http://host:8937")
    parser.add_argument("--name",
                        help="worker name (default: host-pid)")
    parser.add_argument("--poll", type=float, default=1.0,
                        help="seconds between lease attempts when idle")
    parser.add_argument("--max-idle", type=float,
                        help="exit after this many idle seconds "
                             "(default: work forever)")


def run_worker(args) -> int:
    """Work for the dispatcher ``args`` (parsed
    :func:`add_worker_arguments`) names until stopped or idle."""
    worker = FleetWorker(args.connect, name=args.name, poll=args.poll,
                         max_idle=args.max_idle,
                         progress=lambda msg: print(f"  .. {msg}",
                                                    flush=True))
    print(f"worker {worker.name} connecting to {args.connect}",
          flush=True)
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    except DispatchError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"worker {worker.name}: {worker.runs_done} runs in "
          f"{worker.shards_done} shards", flush=True)
    return 0


def main(argv=None) -> int:
    """``python -m repro.dist.worker`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gpufi-worker",
        description="gpuFI-4 fleet worker: lease campaign shards from "
                    "a gpufi dispatcher and execute them")
    add_worker_arguments(parser)
    return run_worker(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
