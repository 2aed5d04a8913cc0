"""Distributed campaign fabric: shard one campaign across many hosts.

The paper's campaigns need thousands of statistically significant runs
per (kernel, structure); a single host caps how fast those samples
accumulate.  Because every run's seed derives from ``(campaign seed,
kernel, structure, run_index)`` -- never from execution order -- a
campaign can be split into shards and executed anywhere, and the
merged result is byte-identical (after canonical sort, minus
timing/worker keys) to a local run.  This package provides the layer
that exploits that:

- :mod:`repro.dist.protocol` -- deterministic shard planning, RunSpec
  wire (de)serialization and record canonicalization;
- :mod:`repro.dist.server` -- the ``gpufi serve`` dispatcher: accepts
  submitted campaigns over HTTP, leases shards to workers with
  heartbeats/timeouts, re-queues shards lost to dead workers, merges
  records into the same artifacts a local run produces;
- :mod:`repro.dist.worker` -- the ``gpufi worker`` process: leases
  shards, executes them with :func:`repro.faults.executor.execute_run`
  and sends the records back, one request per shard when runs are
  quick;
- :mod:`repro.dist.client` -- ``gpufi submit`` / ``gpufi status``
  client helpers (stdlib ``http.client`` on one kept connection per
  thread, no extra dependencies);
- :mod:`repro.dist.backend` -- the :class:`~repro.dist.backend.Backend`
  interface: ``LocalPoolBackend`` (today's in-process pool, the
  default) and ``RemoteFleetBackend`` (submit to a dispatcher), both
  behind one campaign API.

The package's names resolve on first use (PEP 562): a ``gpufi
worker`` imports neither the dispatcher nor ``http.server``.  See
``docs/distributed.md`` for the protocol and guarantees.
"""

import importlib

#: Each name the package exports, by the module that defines it.
_HOMES = {
    **dict.fromkeys(("Backend", "LocalPoolBackend", "RemoteFleetBackend",
                     "make_backend"), "backend"),
    **dict.fromkeys(("DispatcherClient", "DispatchError"), "client"),
    **dict.fromkeys(("canonical_log_text", "canonical_records",
                     "plan_shards", "spec_from_wire", "spec_to_wire"),
                    "protocol"),
    **dict.fromkeys(("Dispatcher", "DispatcherServer"), "server"),
    "FleetWorker": "worker",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"),
                   name)
