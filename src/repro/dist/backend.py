"""Execution backends: one campaign API, local pool or remote fleet.

The FATORI-V shape: campaigns are planned once
(:meth:`repro.faults.campaign.Campaign.plan`) and then handed to a
*backend* -- the thing that turns specs into records.  Two are built
in:

- :class:`LocalPoolBackend` (``backend="local"``, the default) wraps
  today's :class:`~repro.faults.executor.CampaignExecutor`
  multiprocessing pool.  It is byte-for-byte the pre-backend behavior:
  same records, same log, same sidecars.
- :class:`RemoteFleetBackend` (``backend="remote"``) submits the
  campaign to a ``gpufi serve`` dispatcher
  (``CampaignConfig.backend_url``), waits for the fleet to finish and
  returns the merged records -- which are byte-identical (canonical
  sort, minus timing/worker keys) to what the local pool produces for
  the same plan.

Select via ``CampaignConfig.backend`` / ``--backend`` /
``-gpufi_backend``.
"""

from __future__ import annotations

import abc
import json
from typing import List, Sequence

from repro.faults.executor import (CampaignExecutor, RunSpec,
                                   format_log_header, plan_fingerprint)
from repro.faults.options import executor_arguments

#: Registered backend names (``CampaignConfig.backend`` values).
BACKENDS = ("local", "remote")


def backend_names() -> List[str]:
    """Names accepted by ``CampaignConfig.backend``."""
    return list(BACKENDS)


def make_backend(config) -> "Backend":
    """The backend a :class:`CampaignConfig` selects."""
    if config.backend == "local":
        return LocalPoolBackend()
    if config.backend == "remote":
        return RemoteFleetBackend()
    raise ValueError(
        f"unknown backend {config.backend!r}; registered backends: "
        f"{', '.join(BACKENDS)}")


class Backend(abc.ABC):
    """Turns a planned campaign's specs into result records.

    Contract: ``execute`` returns one record per spec, in plan order,
    and every record is a pure function of its spec -- so any two
    backends produce canonically identical results for the same plan
    (see :func:`repro.dist.protocol.canonical_log_text`).
    """

    name: str

    @abc.abstractmethod
    def execute(self, campaign, specs: Sequence[RunSpec],
                jobs: int = 1, resume: bool = False,
                completed: Sequence[dict] = ()) -> List[dict]:
        """Execute ``specs`` for ``campaign``; records in plan order.
        ``completed``: records of ``specs`` the caller already holds,
        which need no execution."""


class LocalPoolBackend(Backend):
    """The in-process worker pool (default; zero behavior change)."""

    name = "local"

    def execute(self, campaign, specs: Sequence[RunSpec],
                jobs: int = 1, resume: bool = False,
                completed: Sequence[dict] = ()) -> List[dict]:
        executor = CampaignExecutor(
            jobs=jobs, progress=campaign._progress, resume=resume,
            plan_timing=campaign.plan_timing,
            **executor_arguments(campaign.config))
        try:
            return executor.execute(specs, completed)
        finally:
            campaign.last_metrics = executor.last_metrics


class RemoteFleetBackend(Backend):
    """Submit to a ``gpufi serve`` dispatcher and await the fleet.

    The client still plans locally (profiles the golden run) so it
    knows the plan order and fingerprint; the dispatcher re-plans
    deterministically on its side and the two fingerprints must agree
    -- a config drift between client and server fails loudly instead
    of merging records of a different campaign.

    ``jobs`` is a per-worker setting and is ignored here; ``resume``
    is inherent (re-submitting the same campaign joins the existing
    one instead of re-running it) and the dispatcher holds what is
    ``completed``.  With ``config.log_path`` set, the
    merged records are also written to a local log (header line
    included) so downstream tooling works identically.
    """

    name = "remote"

    def execute(self, campaign, specs: Sequence[RunSpec],
                jobs: int = 1, resume: bool = False,
                completed: Sequence[dict] = ()) -> List[dict]:
        from repro.dist.client import DispatcherClient

        config = campaign.config
        if not config.backend_url:
            raise ValueError(
                "backend='remote' needs backend_url (the dispatcher "
                "URL, e.g. http://host:8937); pass --connect on the "
                "CLI or -gpufi_backend_url in a config file")
        fingerprint = plan_fingerprint(specs)
        client = DispatcherClient(config.backend_url)
        try:
            reply = client.submit(config)
            campaign_id = reply["campaign"]
            campaign._progress(
                f"campaign {campaign_id} "
                + ("joined (already submitted)" if reply.get("reused")
                   else "submitted")
                + f" to {config.backend_url} ({reply['total']} runs)")
            client.wait(campaign_id, timeout=None,
                        progress=campaign._progress)
            status = client.status(campaign_id)
            if status["fingerprint"] != fingerprint:
                raise ValueError(
                    f"dispatcher campaign {campaign_id} has fingerprint "
                    f"{status['fingerprint'][:12]}..., local plan is "
                    f"{fingerprint[:12]}... -- client and server disagree "
                    "about the plan (version/config drift?)")
            records = client.records(campaign_id)
        finally:
            client.close()
        by_key = {(r["kernel"], r["structure"], r["run"]): r
                  for r in records}
        missing = [spec.key for spec in specs if spec.key not in by_key]
        if missing:
            raise RuntimeError(
                f"dispatcher returned {len(records)} records but "
                f"{len(missing)} run(s) are missing, first: "
                f"{missing[0]}")
        ordered = [by_key[spec.key] for spec in specs]
        if config.log_path is not None:
            config.log_path.parent.mkdir(parents=True, exist_ok=True)
            with open(config.log_path, "w", encoding="utf-8") as handle:
                handle.write(format_log_header(specs))
                for record in ordered:
                    handle.write(json.dumps(record) + "\n")
            campaign._progress(
                f"merged fleet log written to {config.log_path}")
        return ordered
