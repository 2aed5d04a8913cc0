"""Client side of the dispatch protocol: ``gpufi submit`` / ``status``.

Stdlib ``http.client`` only -- the fabric stays pip-light by design.
The :class:`DispatcherClient` is also what :class:`~repro.dist.backend
.RemoteFleetBackend` and the worker loop build on.

A client keeps one HTTP/1.1 connection per calling thread and sends
every request of that thread on it, so a request costs one exchange on
an open socket instead of a TCP handshake and a new server thread.  A
kept connection can be gone by the time it is used again (the
dispatcher restarted, or closed it after refusing a request): a
request that finds it so is sent once more on a new connection, and
only that one's failure is reported.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Callable, Iterator, List, Optional, Union


class DispatchError(RuntimeError):
    """A dispatcher request failed (unreachable, rejected, or 5xx)."""


class DispatcherClient:
    """Talks to one ``gpufi serve`` dispatcher."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        scheme, _, rest = self.base_url.rpartition("://")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._connection_type = (http.client.HTTPSConnection
                                 if scheme == "https"
                                 else http.client.HTTPConnection)
        self._local = threading.local()

    def _exchange(self, path: str, payload: Optional[dict],
                  accept: str) -> str:
        """One request on the calling thread's connection: GET without
        payload, POST with; returns the body of a 2xx reply.

        Raises :class:`DispatchError` with the server's ``error``
        message on HTTP errors, and a "cannot reach" message when the
        dispatcher is down -- callers never see raw socket or
        ``http.client`` exceptions.
        """
        data = None
        headers = {"Accept": accept}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            connection = getattr(self._local, "connection", None)
            if connection is None:
                connection = self._local.connection = \
                    self._connection_type(self._netloc,
                                          timeout=self.timeout)
            # a connection that is already open may have been dropped
            # while idle, which only shows when it is used
            for may_be_stale in (connection.sock is not None, False):
                try:
                    connection.request("GET" if data is None else "POST",
                                       self._prefix + path, body=data,
                                       headers=headers)
                    response = connection.getresponse()
                    status = response.status
                    body = response.read().decode("utf-8", "replace")
                    break
                except ConnectionError:
                    connection.close()
                    if not may_be_stale:
                        raise
        except (http.client.HTTPException, OSError) as exc:
            self.close()
            raise DispatchError(
                f"cannot reach dispatcher at {self.base_url}: "
                f"{exc}") from exc
        if status >= 400:
            detail = body
            try:
                detail = json.loads(body).get("error", body)
            except (json.JSONDecodeError, AttributeError):
                pass
            raise DispatchError(f"{path}: HTTP {status}: {detail}")
        return body

    def close(self) -> None:
        """Close the calling thread's connection; its next request
        opens a new one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def call(self, path: str, payload: Optional[dict] = None) -> dict:
        """One JSON request: GET without payload, POST with."""
        body = self._exchange(path, payload, "application/json")
        try:
            return json.loads(body or "{}")
        except json.JSONDecodeError as exc:
            raise DispatchError(
                f"{path}: dispatcher returned non-JSON: {body[:80]!r}"
            ) from exc

    def ping(self) -> dict:
        return self.call("/api/ping")

    def submit(self, config: Union[str, "object"]) -> dict:
        """Submit a campaign (a :class:`CampaignConfig` or its
        ``-gpufi_*`` option text); returns the submit reply
        (``campaign`` id, ``reused``, ``total``).

        A config is sent without its execution-group options (log,
        backend, batch, ...): the dispatcher owns those for its fleet.
        """
        if not isinstance(config, str):
            from repro.faults.config_file import dump_config

            config = dump_config(config, execution=False)
        return self.call("/api/submit", {"config": config})

    def status(self, campaign_id: Optional[str] = None) -> dict:
        if campaign_id is None:
            return self.call("/api/status")
        return self.call(f"/api/status/{campaign_id}")

    def records(self, campaign_id: str) -> List[dict]:
        return self.call(f"/api/records/{campaign_id}")["records"]

    def events(self, campaign_id: str, cursor: int = 0,
               limit: Optional[int] = None) -> dict:
        """One ``/api/events`` page starting at ``cursor``."""
        query = f"?cursor={int(cursor)}"
        if limit is not None:
            query += f"&limit={int(limit)}"
        return self.call(f"/api/events/{campaign_id}{query}")

    def metrics_text(self) -> str:
        """The dispatcher's ``/metrics`` Prometheus exposition."""
        return self._exchange("/metrics", None, "text/plain")

    def wait(self, campaign_id: str, timeout: Optional[float] = None,
             poll: float = 0.5, max_poll: float = 5.0,
             progress: Optional[Callable[[str], None]] = None,
             sleep: Callable[[float], None] = time.sleep) -> dict:
        """Poll until the campaign completes; returns its final status.

        Polls with exponential backoff: ``poll`` seconds while status
        is changing, backing off by ~1.6x (with +/-20% jitter, so a
        fleet of waiting clients never thunders in step) to at most
        ``max_poll`` while it is not -- fast at the start, gentle on a
        loaded dispatcher.  ``progress`` fires on any shard-state
        change (pending/leased/complete counts or campaign state), not
        only when the done count moves.

        Raises :class:`TimeoutError` after ``timeout`` seconds
        (``None`` waits forever).
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        last_seen = None
        delay = poll
        while True:
            status = self.status(campaign_id)
            shards = status.get("shards", {})
            seen = (status["done"], status["state"],
                    shards.get("pending"), shards.get("leased"),
                    shards.get("complete"))
            if seen != last_seen:
                delay = poll  # progress: return to fast polling
                if progress is not None:
                    progress(
                        f"{status['id']}: {status['done']}/"
                        f"{status['total']} runs "
                        f"({shards.get('pending', 0)} shards pending, "
                        f"{shards.get('leased', 0)} leased, "
                        f"{shards.get('complete', 0)} complete)")
                last_seen = seen
            if status["state"] == "complete":
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} incomplete after "
                    f"{timeout:g}s: {status['done']}/{status['total']} "
                    "runs")
            sleep(delay * random.uniform(0.8, 1.2))
            delay = min(delay * 1.6, max_poll)

    def follow(self, campaign_id: str, poll: float = 0.5,
               max_poll: float = 5.0,
               timeout: Optional[float] = None,
               cursor: int = 0,
               sleep: Callable[[float], None] = time.sleep
               ) -> Iterator[dict]:
        """Yield a campaign's events as they arrive, until complete.

        Tails ``/api/events`` with a resumable cursor and the same
        backoff-with-jitter cadence as :meth:`wait`; pass ``cursor``
        to resume a dropped tail without replaying history.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        delay = poll
        while True:
            page = self.events(campaign_id, cursor=cursor)
            for event in page["events"]:
                yield event
            if page["events"]:
                cursor = page["next"]
                delay = poll
                continue  # more may already be waiting
            if page["complete"]:
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} incomplete after "
                    f"{timeout:g}s of following")
            sleep(delay * random.uniform(0.8, 1.2))
            delay = min(delay * 1.6, max_poll)
