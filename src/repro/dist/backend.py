"""Execution backends: one campaign API, local pool or remote fleet.

The FATORI-V shape: campaigns are planned once
(:meth:`repro.faults.campaign.Campaign.plan`) and then handed to a
*backend* -- the thing that turns specs into records.  A backend
produces records; the campaign's
:class:`~repro.faults.ledger.CampaignLedger` keeps them, so either one
leaves the same log, journal and sidecar.  Two are built in:

- :class:`LocalPoolBackend` (``backend="local"``, the default) runs
  the :class:`~repro.faults.executor.CampaignExecutor`
  multiprocessing pool.
- :class:`RemoteFleetBackend` (``backend="remote"``) submits the
  campaign to a ``gpufi serve`` dispatcher
  (``CampaignConfig.backend_url``), waits for the fleet to finish and
  fetches the merged records -- which are byte-identical (canonical
  sort, minus timing/worker keys) to what the local pool produces for
  the same plan -- and the ``run`` events the fleet's workers stamped.

Select via ``CampaignConfig.backend`` / ``--backend`` /
``-gpufi_backend``.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, List, Sequence, Tuple

from repro.faults.executor import CampaignExecutor, RunSpec
from repro.faults.ledger import CampaignLedger, record_key
from repro.faults.options import OPTIONS, executor_arguments


def make_backend(config) -> "Backend":
    """The backend a :class:`CampaignConfig` selects."""
    if config.backend == "local":
        return LocalPoolBackend()
    if config.backend == "remote":
        return RemoteFleetBackend()
    choices = OPTIONS["backend"].metadata["argparse"]["choices"]
    raise ValueError(f"unknown backend {config.backend!r}; the option "
                     f"table offers: {', '.join(choices)}")


class Backend(abc.ABC):
    """Turns a planned campaign's specs into result records, for its
    ledger to keep.

    Contract: every record is a pure function of its spec -- so any
    two backends produce canonically identical results for the same
    plan (see :func:`repro.dist.protocol.canonical_log_text`).
    """

    @abc.abstractmethod
    def open(self, campaign, plan: Sequence[RunSpec], jobs: int,
             resume: bool, adaptive: bool) -> Tuple[CampaignLedger, Callable]:
        """Open the campaign's ledger, whose header names ``plan``:
        ``(ledger, execute)``, where ``execute(specs)`` hands the
        ledger the records of ``specs`` it lacks and returns the
        ledger's records in plan order
        (:meth:`repro.faults.campaign.Campaign.session`)."""


class LocalPoolBackend(Backend):
    """The in-process worker pool (default)."""

    def open(self, campaign, plan, jobs, resume, adaptive):
        executor = CampaignExecutor(
            jobs=jobs, progress=campaign._progress, resume=resume,
            plan_timing=campaign.plan_timing,
            **executor_arguments(campaign.config))
        ledger = executor.open(plan, adaptive)
        return ledger, functools.partial(executor.run, ledger)


class RemoteFleetBackend(Backend):
    """Submit to a ``gpufi serve`` dispatcher and await the fleet.

    The client still plans locally (profiles the golden run) so it
    knows the plan order and fingerprint; the dispatcher re-plans
    deterministically on its side and the two fingerprints must agree
    -- a config drift between client and server fails loudly instead
    of merging records of a different campaign.

    ``jobs`` is a per-worker setting and is ignored here; ``resume``
    is inherent (re-submitting the same campaign joins the existing
    one instead of re-running it): the local ledger always starts
    anew and absorbs what the dispatcher holds.  With
    ``config.log_path`` set it leaves what a local run leaves: the
    log (header line, plan-ordered records) and, with
    ``config.metrics``, journal and sidecar.
    """

    def open(self, campaign, plan, jobs, resume, adaptive):
        config = campaign.config
        if not config.backend_url:
            raise ValueError(
                "backend='remote' needs backend_url (the dispatcher "
                "URL, e.g. http://host:8937); pass --connect on the "
                "CLI or -gpufi_backend_url in a config file")
        ledger = CampaignLedger(plan, config.log_path, journal=config.metrics,
                                sidecar=config.metrics, adaptive=adaptive,
                                **campaign.plan_timing)
        return ledger, functools.partial(self._fetch, campaign, ledger)

    @staticmethod
    def _fetch(campaign, ledger: CampaignLedger,
               specs: Sequence[RunSpec]) -> List[dict]:
        from repro.dist.client import DispatcherClient

        config = campaign.config
        ledger.admit(specs)
        client = DispatcherClient(config.backend_url)
        try:
            reply = client.submit(config)
            campaign_id = reply["campaign"]
            campaign._progress(
                f"campaign {campaign_id} "
                + ("joined (already submitted)" if reply.get("reused")
                   else "submitted")
                + f" to {config.backend_url} ({reply['total']} runs)")
            status = client.wait(campaign_id, timeout=None,
                                 progress=campaign._progress)
            if status["fingerprint"] != ledger.fingerprint:
                raise ValueError(
                    f"dispatcher campaign {campaign_id} has fingerprint "
                    f"{status['fingerprint'][:12]}..., local plan is "
                    f"{ledger.fingerprint[:12]}... -- client and server "
                    "disagree about the plan (version/config drift?)")
            records = client.records(campaign_id)
            # the run events as the fleet's workers stamped them
            events = (list(client.follow(campaign_id))
                      if config.metrics else None)
        finally:
            client.close()
        by_key = {record_key(record): record for record in records}
        missing = [spec.key for spec in specs if spec.key not in by_key]
        if missing:
            raise RuntimeError(
                f"dispatcher returned {len(records)} records but "
                f"{len(missing)} run(s) are missing, first: "
                f"{missing[0]}")
        ledger.absorb([by_key[spec.key] for spec in specs], events=events)
        campaign._progress(ledger.tally.progress())
        if config.log_path is not None:
            campaign._progress(
                f"merged fleet log written to {config.log_path}")
        return ledger.ordered()
