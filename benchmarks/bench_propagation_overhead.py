"""Propagation-tracing overhead: wall-clock of --propagation on vs off.

End-to-end campaign timing (golden profiling run included) with
checkpointing and early termination enabled on both sides, so the
tracer's listening is measured on exactly the code paths a
production campaign exercises.  Propagation tracing is strictly
observational, so two things are asserted:

- per-class effect counts are identical in both modes;
- the tracing campaign is at most ``GPUFI_PROP_MAX_OVERHEAD`` (default
  10%) slower than the plain one, best-of-``N`` rounds to keep
  shared-runner noise out of the ratio.

Run standalone for the acceptance measurement::

    PYTHONPATH=src python benchmarks/bench_propagation_overhead.py --runs 12

or under pytest-benchmark with the other benches.  ``GPUFI_PROP_RUNS``
scales the campaign, ``GPUFI_PROP_ROUNDS`` the best-of rounds, and
``GPUFI_PROP_MAX_OVERHEAD`` overrides the overhead ceiling (CI uses a
relaxed ceiling to tolerate noisy shared runners).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from _harness import emit
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.targets import Structure

RUNS = int(os.environ.get("GPUFI_PROP_RUNS", "32"))
ROUNDS = int(os.environ.get("GPUFI_PROP_ROUNDS", "5"))

#: acceptance ceiling: propagation tracing may cost at most this fraction
MAX_OVERHEAD = float(os.environ.get("GPUFI_PROP_MAX_OVERHEAD", "0.10"))

STRUCTURES = (Structure.REGISTER_FILE, Structure.L2_CACHE)


def _config(propagation: bool, runs: int, root: Path) -> CampaignConfig:
    tag = "on" if propagation else "off"
    return CampaignConfig(
        benchmark="vectoradd", card="RTX2060", structures=STRUCTURES,
        runs_per_structure=runs, seed=5,
        checkpoint_dir=root / "ckpt", early_stop="full",
        log_path=root / f"prop_{tag}.jsonl", propagation=propagation)


def _counts(result) -> Counter:
    return Counter((r["kernel"], r["structure"], r["effect"])
                   for r in result.records)


def measure(runs: int, rounds: int):
    """Best-of-``rounds`` campaign wall-clock in both modes."""
    root = Path(tempfile.mkdtemp(prefix="gpufi_prop_bench_"))
    t_off, t_on = float("inf"), float("inf")
    counts_off = counts_on = None
    try:
        # one throwaway campaign captures the checkpoint set, so disk
        # capture cost lands on neither timed side
        Campaign(_config(False, runs, root)).run()
        for _ in range(rounds):
            start = time.perf_counter()
            off = Campaign(_config(False, runs, root)).run()
            t_off = min(t_off, time.perf_counter() - start)

            start = time.perf_counter()
            on = Campaign(_config(True, runs, root)).run()
            t_on = min(t_on, time.perf_counter() - start)

            counts_off, counts_on = _counts(off), _counts(on)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return t_off, t_on, counts_off == counts_on


def report(runs: int, rounds: int):
    t_off, t_on, identical = measure(runs, rounds)
    overhead = (t_on - t_off) / t_off if t_off else 0.0
    text = "\n".join([
        f"propagation overhead: {runs} runs/structure x "
        f"{len(STRUCTURES)} structures, best of {rounds} rounds",
        f"propagation off: {t_off:6.2f}s",
        f"propagation on:  {t_on:6.2f}s  (site fates + consumer chain "
        f"+ divergence window)",
        f"overhead: {overhead * 100:+.2f}%  "
        f"(ceiling {MAX_OVERHEAD * 100:.0f}%)",
        f"effect counts identical: {identical}",
    ])
    return overhead, identical, text


def test_propagation_overhead(benchmark):
    def once():
        return report(RUNS, ROUNDS)

    overhead, identical, text = benchmark.pedantic(
        once, rounds=1, iterations=1)
    emit("propagation_overhead", text)
    assert identical, "propagation tracing changed classification counts"
    assert overhead <= MAX_OVERHEAD, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    args = parser.parse_args(argv)

    overhead, identical, text = report(args.runs, args.rounds)
    print(text)
    from _harness import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "propagation_overhead.txt").write_text(text + "\n",
                                                      encoding="utf-8")
    if not identical:
        print("FAIL: effect counts diverged", file=sys.stderr)
        return 1
    if overhead > MAX_OVERHEAD:
        print(f"FAIL: overhead {overhead * 100:.2f}% > "
              f"{MAX_OVERHEAD * 100:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
