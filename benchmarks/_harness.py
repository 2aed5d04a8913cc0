"""Shared machinery for the table/figure regeneration benches.

Campaign results are cached per (benchmark, card, bits, extras) within
the pytest session, so the figure benches that consume the same
campaign data (e.g. Fig. 1 / Fig. 2 / Fig. 3 / Fig. 7 all build on the
single-bit all-structure campaigns) run it only once.

Scaling knobs (environment):

- ``GPUFI_RUNS`` -- injections per (kernel, structure), default 16.
  The paper uses 3,000 (99% confidence, <2.4% error); the default
  keeps the full suite to tens of minutes and each bench prints the
  margin of error actually achieved.
- ``GPUFI_CARDS`` -- comma list of cards (default: all three).
- ``GPUFI_BENCHMARKS`` -- comma list of workloads (default: all 12).
- ``GPUFI_JOBS`` -- worker processes per campaign (default 1).
  Results are byte-identical for any value (order-independent
  per-run seeding), so this is a pure wall-clock knob.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, Tuple

from repro.analysis.statistics import margin_of_error
from repro.bench import BENCHMARK_CLASSES, make_benchmark
from repro.faults.campaign import Campaign, CampaignConfig, CampaignResult

RUNS = int(os.environ.get("GPUFI_RUNS", "16"))
JOBS = int(os.environ.get("GPUFI_JOBS", "1"))

ALL_CARDS = ("RTX2060", "QuadroGV100", "GTXTitan")
CARDS = tuple(c.strip() for c in os.environ.get(
    "GPUFI_CARDS", ",".join(ALL_CARDS)).split(",") if c.strip())

_DEFAULT_BENCHMARKS = tuple(cls.name for cls in BENCHMARK_CLASSES)
BENCHMARKS = tuple(b.strip() for b in os.environ.get(
    "GPUFI_BENCHMARKS", ",".join(_DEFAULT_BENCHMARKS)).split(",")
    if b.strip())

#: Output directory for the regenerated tables/figures.
OUT_DIR = Path(__file__).resolve().parent / "out"

_campaigns: Dict[Tuple, CampaignResult] = {}


def abbrev(benchmark_name: str) -> str:
    """Paper abbreviation of a workload."""
    return make_benchmark(benchmark_name).abbrev


def get_campaign(benchmark: str, card: str, bits: int = 1,
                 structures=None, **extra) -> CampaignResult:
    """Cached campaign result (all supported structures by default)."""
    key = (benchmark, card, bits, structures,
           tuple(sorted(extra.items())))
    if key not in _campaigns:
        import zlib

        # keyed without the fault model, so a model that shares
        # another's masks (``seed_model``) runs over the same faults
        seed_key = (benchmark, card, bits, structures, tuple(sorted(
            (k, v) for k, v in extra.items() if k != "fault_model")))
        seed = zlib.crc32(repr(seed_key).encode()) & 0x7FFFFFFF
        config = CampaignConfig(
            benchmark=benchmark, card=card, structures=structures,
            runs_per_structure=RUNS, bits_per_fault=bits,
            seed=seed, **extra)
        print(f"\n[campaign] {benchmark} on {card} "
              f"({bits}-bit, {RUNS} runs/structure)...",
              file=sys.stderr, flush=True)
        result = Campaign(config).run(jobs=JOBS)
        _campaigns[key] = result
    return _campaigns[key]


def emit(name: str, text: str) -> None:
    """Print a regenerated table/figure and persist it to out/."""
    header = f"===== {name} (GPUFI_RUNS={RUNS}, " \
             f"error +/-{margin_of_error(RUNS) * 100:.1f}% @99%) ====="
    body = f"{header}\n{text}\n"
    print("\n" + body)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(body, encoding="utf-8")


def run_once(benchmark_fixture, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark_fixture.pedantic(fn, args=args, kwargs=kwargs,
                                      rounds=1, iterations=1)
