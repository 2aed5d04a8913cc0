#!/usr/bin/env python
"""Simultaneous multi-structure faults (paper Table IV, modes iii/iv).

gpuFI-4 supports faults striking several hardware structures in the
same cycle -- e.g. a particle strike grazing both the register file
and a nearby shared-memory bank.  This example generates combined
masks with :meth:`MaskGenerator.generate_simultaneous`, runs a small
campaign by hand, and classifies each run.

Run:  python examples/multi_structure.py [runs]
"""

import sys
from collections import Counter

import numpy as np

from repro.bench import make_benchmark
from repro.faults.campaign import profile_application
from repro.faults.classify import TIMEOUT_FACTOR, classify_run
from repro.faults.injector import Injector
from repro.faults.mask import MaskGenerator
from repro.faults.runner import run_application
from repro.faults.targets import Structure
from repro.sim.cards import get_card
from repro.sim.device import RunOptions

BENCH = "scalarprod"  # uses registers, shared and local memory
CARD = "RTX2060"
COMBO = (Structure.REGISTER_FILE, Structure.SHARED_MEM,
         Structure.LOCAL_MEM)


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    profile, golden = profile_application(BENCH, CARD)
    kp = next(iter(profile.kernels.values()))
    generator = MaskGenerator(get_card(CARD), kp.windows,
                              kp.regs_per_thread, kp.smem_bytes,
                              kp.local_bytes, np.random.default_rng(13))

    outcomes = Counter()
    for i in range(runs):
        masks = generator.generate_simultaneous(COMBO)
        assert len({m.cycle for m in masks}) == 1  # truly simultaneous
        result = run_application(
            make_benchmark(BENCH), CARD,
            options=RunOptions(injector=Injector(list(masks)),
                               cycle_budget=TIMEOUT_FACTOR * golden.cycles))
        outcomes[classify_run(result, golden.cycles).value] += 1
        print(f"run {i:3d} @cycle {masks[0].cycle:6d}: "
              f"{result.message}")

    print()
    print(f"{runs} simultaneous {'+'.join(s.value for s in COMBO)} "
          f"faults on {BENCH}:")
    for effect, count in outcomes.most_common():
        print(f"  {effect:<12} {count}")


if __name__ == "__main__":
    main()
