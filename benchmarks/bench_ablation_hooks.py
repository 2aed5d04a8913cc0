"""Ablation -- direct cache bit flips vs the paper's deferred hooks.

Our caches hold real data, so the default mode flips the targeted bit
in the line immediately; gpuFI-4 (on GPGPU-Sim's tag-only caches) had
to defer the flip to the next read access via hooks.  The two are
architecturally equivalent for read-observed faults; hooks (the
``cache_hook`` fault model) can only mask *more* (a write hit or
eviction between injection and the next read kills the hook before it
fires, and tag faults never apply at all on lines that are not read
again).
"""

import pytest

from _harness import RUNS, abbrev, emit, get_campaign, run_once
from repro.analysis.report import render_table
from repro.faults.targets import Structure

_WORKLOADS = ("pathfinder", "needle")
_STRUCTURES = (Structure.L2_CACHE, Structure.L1T_CACHE)


def collect():
    rows = []
    for name in _WORKLOADS:
        direct = get_campaign(name, "RTX2060", structures=_STRUCTURES)
        hooked = get_campaign(name, "RTX2060", structures=_STRUCTURES,
                              fault_model="cache_hook")
        for structure in _STRUCTURES:
            d_fail = sum(direct.failures(k, structure)
                         for k in direct.counts)
            h_fail = sum(hooked.failures(k, structure)
                         for k in hooked.counts)
            total = sum(direct.runs(k, structure) for k in direct.counts)
            rows.append((abbrev(name), structure.value, total,
                         d_fail, h_fail))
    return rows


def test_ablation_cache_hooks(benchmark):
    rows = run_once(benchmark, collect)
    emit("ablation_cache_hooks",
         render_table(("Benchmark", "Structure", "runs",
                       "failures direct", "failures hooked"), rows))
    for name, structure, total, d_fail, h_fail in rows:
        assert 0 <= d_fail <= total and 0 <= h_fail <= total
        # hook mode can only drop faults, never add them, so over the
        # same-sized campaign the counts should be of the same order
        assert h_fail <= max(d_fail + max(3, total // 4), total), \
            (name, structure)
