#!/usr/bin/env python
"""Hunting a "Performance" fault effect (paper section VI.D).

Some faults never corrupt the output yet change the execution time --
e.g. a flipped cache tag silently drops a line, forcing a refetch.
The paper stresses that only a microarchitecture-level framework can
see this class at all.  This script injects faults into kmeans until
it catches one: the run PASSES but takes a different number of cycles
than the fault-free execution.

Run:  python examples/performance_effect.py [attempts]
"""

import sys

import numpy as np

from repro.bench import make_benchmark
from repro.faults.campaign import profile_application
from repro.faults.classify import (TIMEOUT_FACTOR, FaultEffect,
                                   classify_run)
from repro.faults.injector import Injector
from repro.faults.mask import MaskGenerator
from repro.faults.runner import run_application
from repro.faults.targets import Structure
from repro.sim.cards import get_card
from repro.sim.device import RunOptions

BENCH = "kmeans"
CARD = "RTX2060"


def main() -> None:
    profile, golden = profile_application(BENCH, CARD)
    print(f"fault-free: {golden.cycles} cycles, {golden.message}")
    kp = next(iter(profile.kernels.values()))
    generator = MaskGenerator(get_card(CARD), kp.windows,
                              kp.regs_per_thread, kp.smem_bytes,
                              kp.local_bytes, np.random.default_rng(42))

    budget = TIMEOUT_FACTOR * golden.cycles
    tally = {effect: 0 for effect in FaultEffect}
    caught = None
    attempts = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    for attempt in range(attempts):
        structure = (Structure.REGISTER_FILE, Structure.L1T_CACHE,
                     Structure.L2_CACHE)[attempt % 3]
        mask = generator.generate(structure)
        result = run_application(
            make_benchmark(BENCH), CARD,
            options=RunOptions(injector=Injector([mask]),
                               cycle_budget=budget))
        effect = classify_run(result, golden.cycles)
        tally[effect] += 1
        if effect is FaultEffect.PERFORMANCE and caught is None:
            caught = (mask, result)
            break

    print("outcome tally:",
          {e.value: n for e, n in tally.items() if n})
    if caught is None:
        print("no performance effect caught in this budget -- rerun "
              "with more attempts (they are a few %% of masked faults)")
        return
    mask, result = caught
    delta = result.cycles - golden.cycles
    print()
    print("caught one:")
    print(f"  fault     : {mask.structure.value}, bit(s) "
          f"{list(mask.bit_offsets)} at cycle {mask.cycle}")
    print(f"  outcome   : {result.message} -- output correct")
    print(f"  cycles    : {result.cycles} vs {golden.cycles} fault-free "
          f"({delta:+d} cycles, {delta / golden.cycles:+.2%})")
    print("  => a Performance fault effect: functionally masked, "
          "timing visibly perturbed.")


if __name__ == "__main__":
    main()
