"""Parser of the logged information (module 3 of gpuFI-4).

Campaigns write one JSON record per injected run.  This module reads
those JSONL logs back and rebuilds the aggregated effect counts, so
results can be post-processed (or merged across batches) without
re-running any simulation -- the role of the paper's post-processing
parser that "aggregates the results" after "every batch of fault
injections".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.faults.campaign import aggregate_counts
from repro.faults.classify import FaultEffect
from repro.faults.ledger import LOG_HEADER_KEY, RunKey, record_key
from repro.faults.targets import Structure
from repro.obs.events import parse_jsonl


def _log_lines(path: Union[str, Path], tolerate_torn_tail: bool):
    """``(line index, record)`` of a campaign log's run records."""
    return parse_jsonl(Path(path).read_text(encoding="utf-8"), path,
                       tolerate_tail=tolerate_torn_tail,
                       header_key=LOG_HEADER_KEY)


def load_records(path: Union[str, Path],
                 tolerate_torn_tail: bool = False) -> List[dict]:
    """Load every run record from a campaign JSONL log.

    Header lines (campaign fingerprint metadata, flagged by the
    ``gpufi_log`` key; see :func:`read_log_header`) are metadata, not
    run records, and are skipped.

    With ``tolerate_torn_tail=True`` a malformed **final** line is
    dropped instead of raising -- the tail of a log cut mid-write when
    the campaign was killed, the same contract the resume path's
    :func:`scan_completed_records` applies.  Post-processing entry
    points (:func:`merge_logs`, report generation) opt in so any log
    the resume path accepts can also be analysed; corruption anywhere
    before the final line still raises.
    """
    return [record for _, record in _log_lines(path, tolerate_torn_tail)]


def read_log_header(path: Union[str, Path]) -> Optional[dict]:
    """The campaign-identity header of a log, or ``None``.

    Logs written since campaign fingerprints exist start with one
    metadata line ``{"gpufi_log": 1, "fingerprint": ..., ...}``.
    Logs predating it (or assembled by hand) have none; every reader
    treats those as merge-compatible with anything.
    """
    with open(path, encoding="utf-8") as handle:
        first = next((line for line in handle if line.strip()), "null")
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        return None
    if isinstance(header, dict) and LOG_HEADER_KEY in header:
        return header
    return None


def scan_completed_records(path: Union[str, Path]) -> Dict[RunKey, dict]:
    """Index a (possibly truncated) campaign log by run coordinates.

    Used for resuming interrupted campaigns: returns
    ``{(kernel, structure, run): record}`` for every complete record
    in the log.  Unlike :func:`load_records`, a malformed **final**
    line is tolerated (the tail of a log cut mid-write when the
    campaign was killed); corruption anywhere else still raises.
    Duplicate coordinates keep the first occurrence.
    """
    completed: Dict[RunKey, dict] = {}
    for index, record in _log_lines(path, tolerate_torn_tail=True):
        try:
            key = record_key(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}:{index + 1}: record missing run coordinates"
            ) from exc
        completed.setdefault(key, record)
    return completed


def aggregate_by_model(
        records: Sequence[dict]
) -> Dict[str, Dict[str, Dict[Structure, Dict[FaultEffect, int]]]]:
    """Aggregate run records per fault model.

    Returns ``counts[fault_model][kernel][structure][effect]``.
    Records without a ``fault_model`` key (the pre-strategy schema, or
    any transient campaign -- the default is elided from the log) count
    under ``"transient"``.  Models are ordered alphabetically with
    ``transient`` first, so mixed-model merges render stably.
    """
    by_model: Dict[str, List[dict]] = {}
    for record in records:
        by_model.setdefault(
            record.get("fault_model", "transient"), []).append(record)
    ordered = sorted(by_model, key=lambda m: (m != "transient", m))
    return {model: aggregate_counts(by_model[model])
            for model in ordered}


def combine_records(paths: Iterable[Union[str, Path]],
                    tolerate_torn_tail: bool = True,
                    force: bool = False) -> List[dict]:
    """Load and combine run records from several campaign logs.

    Logs carry a campaign fingerprint in their header line (seed +
    plan hash; see :func:`repro.faults.executor.plan_fingerprint`), so
    combining is safe by construction:

    - logs whose fingerprints **differ** are different campaigns;
      concatenating them silently would produce a plausible-looking
      corrupt report, so this raises unless ``force=True`` (the
      deliberate "I know these are different campaigns" override,
      surfaced as ``gpufi report --force``);
    - logs sharing one fingerprint are shards/retries of the **same**
      campaign; their records are deduplicated by ``(kernel,
      structure, run)`` (first occurrence wins -- records are pure
      functions of their coordinates, so any copy is the same record);
    - logs without a header (predating fingerprints) are combined
      as-is: no identity to check, no dedup key trustworthy across
      campaigns.
    """
    fingerprints: Dict[str, List[str]] = {}
    seen_keys: Dict[str, set] = {}
    records: List[dict] = []
    for path in paths:
        header = read_log_header(path)
        fingerprint = (header or {}).get("fingerprint")
        loaded = load_records(path, tolerate_torn_tail=tolerate_torn_tail)
        if fingerprint is None:
            records.extend(loaded)
            continue
        fingerprints.setdefault(fingerprint, []).append(str(path))
        if len(fingerprints) > 1 and not force:
            first, second = list(fingerprints)[:2]
            raise ValueError(
                f"refusing to merge logs of different campaigns: "
                f"{fingerprints[first][0]} has fingerprint "
                f"{first[:12]}..., {fingerprints[second][0]} has "
                f"{second[:12]}... (pass force=True / --force to "
                f"merge anyway)")
        keys = seen_keys.setdefault(fingerprint, set())
        for record in loaded:
            key = record_key(record)
            if key in keys:
                continue  # duplicate shard record (e.g. re-queued lease)
            keys.add(key)
            records.append(record)
    return records


def merge_logs(paths: Iterable[Union[str, Path]],
               tolerate_torn_tail: bool = True,
               force: bool = False
               ) -> Dict[str, Dict[Structure, Dict[FaultEffect, int]]]:
    """Aggregate several batch logs together (multi-batch campaigns).

    Interrupted logs (torn final line) are accepted by default --
    anything the resume path can restart from can also be merged.
    Logs of *different* campaigns (mismatched header fingerprints) are
    rejected unless ``force=True``; same-campaign logs are
    deduplicated by run key first (see :func:`combine_records`).
    """
    return aggregate_counts(combine_records(
        paths, tolerate_torn_tail=tolerate_torn_tail, force=force))


def count_unapplied(records: Sequence[dict]) -> int:
    """Runs whose injection resolved to no live target.

    The injector logs a ``{"target": "none", ...}`` record (flagged
    ``applied: false``) when a mask's cycle finds no live warp/CTA to
    flip; the run is then fault-free by construction and classifies as
    Masked.  Reports surface this tally separately so "Masked" is not
    silently inflated by injections that never happened.  Older logs
    (records predating the ``applied`` flag) are still counted via the
    ``target`` field.
    """
    unapplied = 0
    for record in records:
        for injection in record.get("injections") or ():
            applied = injection.get("applied")
            if applied is None:
                applied = injection.get("target") != "none"
            if not applied:
                unapplied += 1
                break
    return unapplied


def failure_ratio(counts: Dict[FaultEffect, int]) -> float:
    """FR of eq. (1) from one effect-count dictionary."""
    total = sum(counts.values())
    if not total:
        return 0.0
    failures = sum(n for effect, n in counts.items() if effect.is_failure)
    return failures / total
