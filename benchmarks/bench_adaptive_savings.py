"""Adaptive planner savings: stratified stopping vs uniform sizing.

Runs the same error target twice per workload:

- **uniform**: the fixed Leveugle sizing ``required_injections(N, e)``
  at the worst-case ``p = 0.5`` -- what a non-adaptive campaign would
  have to execute;
- **adaptive**: the stratified planner (``--adaptive``), which proves
  the dead mass by classification draws, stops each stratum at its
  scaled Wilson target and splits a short round's budget evenly.

The adaptive side must terminate with every stratum met and save at
least ``GPUFI_ADAPTIVE_MIN_SAVED`` (fraction of the uniform run
count, default 0.5).  Only the adaptive campaigns are *executed*; the
uniform figure is the closed-form baseline, so the bench stays cheap.
Most of those uniform runs are instant verdicts (synthesized or
pre-screened), so each row also states how many the uniform plan
would *simulate*: the non-instant specs of its :meth:`Campaign.plan`.

Run standalone for the acceptance measurement::

    PYTHONPATH=src python benchmarks/bench_adaptive_savings.py

or under pytest-benchmark with the other benches.
``GPUFI_ADAPTIVE_RUNS`` scales the per-group budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from _harness import emit
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.targets import Structure

#: per-group run budget for the adaptive side
BUDGET = int(os.environ.get("GPUFI_ADAPTIVE_RUNS", "200"))

#: error target the two sides are compared at
ERROR_TARGET = float(os.environ.get("GPUFI_ADAPTIVE_ERROR", "0.1"))

#: acceptance floor: fraction of the uniform runs that must be saved
MIN_SAVED_FRACTION = float(os.environ.get("GPUFI_ADAPTIVE_MIN_SAVED",
                                          "0.5"))

MATRIX = (
    ("vectoradd", Structure.REGISTER_FILE, 3),
    ("bfs", Structure.REGISTER_FILE, 5),
)


def measure(budget: int):
    """Run the adaptive matrix; collect per-group savings."""
    root = Path(tempfile.mkdtemp(prefix="gpufi_adaptive_bench_"))
    rows, executed_total, uniform_total = [], 0, 0
    all_met = True
    try:
        for bench, structure, seed in MATRIX:
            start = time.perf_counter()
            campaign = Campaign(CampaignConfig(
                benchmark=bench, card="RTX2060",
                structures=(structure,), runs_per_structure=budget,
                seed=seed, adaptive="on", error_target=ERROR_TARGET,
                log_path=root / f"{bench}.jsonl"))
            campaign.run()
            elapsed = time.perf_counter() - start
            plan = campaign.last_plan
            all_met &= plan.all_met()
            executed = plan.executed()
            uniform = sum(plan.uniform_runs.values())
            executed_total += executed
            uniform_total += uniform
            # a run's seed is a pure function of its coordinates: the
            # first n runs of a group are the plan of n runs
            sized = plan.uniform_runs
            specs = Campaign(dataclasses.replace(
                campaign.config, adaptive="off", log_path=None,
                runs_per_structure=max(sized.values()))).plan()
            simulated = sum(
                not spec.instant for spec in specs
                if spec.run_index < sized[(spec.kernel,
                                           spec.structure.value)])
            rows.append((bench, structure.value, executed, uniform,
                         simulated, plan.rounds, plan.all_met(), elapsed))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return rows, executed_total, uniform_total, all_met


def report(budget: int):
    rows, executed, uniform, all_met = measure(budget)
    saved = max(uniform - executed, 0)
    fraction = saved / uniform if uniform else 0.0
    lines = [f"adaptive vs uniform at error target "
             f"+/-{ERROR_TARGET * 100:.0f}% (99% confidence), "
             f"budget {budget}/group"]
    for bench, structure, n, base, simulated, rounds, met, elapsed in rows:
        lines.append(
            f"{bench:>10s}/{structure}: adaptive {n:4d} runs "
            f"({rounds} rounds, {elapsed:5.1f}s, "
            f"{'met' if met else 'BUDGET EXHAUSTED'})  "
            f"uniform {base:4d} runs ({simulated} simulated)")
    lines.append(f"overall: {executed} adaptive vs {uniform} uniform "
                 f"-- {saved} runs saved "
                 f"({fraction:.0%}; floor {MIN_SAVED_FRACTION:.0%})")
    lines.append(f"all strata met: {all_met}")
    return fraction, all_met, "\n".join(lines)


def test_adaptive_savings(benchmark):
    def once():
        return report(BUDGET)

    fraction, all_met, text = benchmark.pedantic(
        once, rounds=1, iterations=1)
    emit("adaptive_savings", text)
    assert all_met, "adaptive planner exhausted its budget:\n" + text
    assert fraction >= MIN_SAVED_FRACTION, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=BUDGET,
                        help="per-group adaptive run budget")
    args = parser.parse_args(argv)

    fraction, all_met, text = report(args.runs)
    print(text)
    from _harness import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "adaptive_savings.txt").write_text(text + "\n",
                                                  encoding="utf-8")
    if not all_met:
        print("FAIL: budget exhausted before every stratum met",
              file=sys.stderr)
        return 1
    if fraction < MIN_SAVED_FRACTION:
        print(f"FAIL: saved fraction {fraction:.0%} "
              f"< {MIN_SAVED_FRACTION:.0%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
