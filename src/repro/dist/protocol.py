"""Wire protocol of the distributed campaign fabric.

Three deterministic building blocks shared by the dispatcher, the
workers and the tests:

- **Shard planning** (:func:`plan_shards`): a plan is split into
  contiguous fixed-size shards *in plan order*, so the partition is a
  pure function of the plan and the shard size -- independent of how
  many workers exist or in which order they arrive.  Shards are the
  unit of leasing, re-queueing and completion.
- **Spec wire format** (:func:`spec_to_wire` / :func:`spec_from_wire`):
  :class:`~repro.faults.executor.RunSpec` round-trips through plain
  JSON so shards can be shipped over HTTP.  Unknown keys are ignored
  on the way in, so newer servers can talk to older workers.
- **Canonicalization** (:func:`canonical_records` /
  :func:`canonical_log_text`): the byte-identity normal form -- one
  record per ``(kernel, structure, run)`` key (first wins; records
  are pure functions of their coordinates), volatile keys
  (``timings``, ``worker``) stripped, sorted by key, serialized with
  sorted JSON keys.  A fleet-merged log and a local ``--jobs N`` log
  canonicalize to the same bytes; CI asserts exactly that.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.faults.executor import SPEC_FIELDS, RunSpec
# a plan's and a record's identity are part of the wire protocol too
from repro.faults.ledger import RunKey, plan_fingerprint, record_key
from repro.faults.mask import FaultMask, MultiBitMode
from repro.faults.targets import Structure

#: Record keys that legitimately differ between executions of the same
#: run (wall-clock noise and worker identity); excluded from the
#: byte-identity comparison.  ``trace`` is listed defensively: records
#: never carry traces today (traces live in events and wire payloads),
#: but a future writer that stamps one must not break byte-identity.
VOLATILE_KEYS = ("timings", "worker", "trace")

def spec_to_wire(spec: RunSpec) -> dict:
    """Serialize one :class:`RunSpec` to a plain-JSON dict.

    A flat field read: no field of ``RunSpec`` holds a dataclass, so
    the recursive deep copy of ``dataclasses.asdict`` would produce
    the same dict at twenty times the cost.  The mask the plan drew
    travels as its record form, so the worker injects that one.
    """
    wire = {name: getattr(spec, name) for name in SPEC_FIELDS}
    wire["structure"] = spec.structure.value
    wire["multibit_mode"] = spec.multibit_mode.value
    wire["windows"] = [list(window) for window in spec.windows]
    wire["mask"] = spec.mask and spec.mask.to_dict()
    return wire


def spec_from_wire(wire: dict) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its wire dict.

    Unknown keys are dropped (forward compatibility); enum, tuple and
    mask fields are restored so the result round-trips exactly:
    ``spec_from_wire(json.loads(json.dumps(spec_to_wire(s)))) == s``.
    A wire dict without a mask (an older dispatcher's) leaves the run
    to draw it.
    """
    data = {name: wire[name] for name in SPEC_FIELDS if name in wire}
    data["structure"] = Structure(data["structure"])
    data["multibit_mode"] = MultiBitMode(data["multibit_mode"])
    data["windows"] = tuple((int(start), int(end))
                            for start, end in data["windows"])
    data["seed"] = int(data["seed"])
    mask = data.get("mask")
    data["mask"] = mask and FaultMask.from_dict(mask)
    return RunSpec(**data)


def plan_shards(specs: Sequence[RunSpec],
                shard_size: int) -> List[List[RunSpec]]:
    """Split a plan into contiguous shards of at most ``shard_size``.

    The partition is exact (every spec in exactly one shard) and a
    pure function of ``(plan, shard_size)`` -- worker count and
    arrival order never influence which runs form a shard, which is
    what makes re-queued shards re-executable anywhere.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [list(specs[start:start + shard_size])
            for start in range(0, len(specs), shard_size)]


def strip_volatile(record: dict) -> dict:
    """A record without its execution-dependent keys."""
    return {key: value for key, value in record.items()
            if key not in VOLATILE_KEYS}


def canonical_records(records: Sequence[dict]) -> List[dict]:
    """Deduplicate, strip and sort records into the canonical form."""
    unique: Dict[RunKey, dict] = {}
    for record in records:
        unique.setdefault(record_key(record), strip_volatile(record))
    return [unique[key] for key in sorted(unique)]


def canonical_log_text(records: Sequence[dict]) -> str:
    """The canonical byte form of a record set.

    Two campaign executions cover the same plan iff their canonical
    texts are byte-identical -- regardless of jobs count, worker
    fleet, shard boundaries, lease re-queues or completion order.
    """
    return "".join(json.dumps(record, sort_keys=True) + "\n"
                   for record in canonical_records(records))
