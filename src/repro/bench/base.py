"""Benchmark abstraction (the paper's "slightly modified CUDA apps").

A benchmark builds deterministic inputs on the device, launches its
kernels, and checks the device output against a golden reference
computed on the host -- the predefined-result evaluation mode the
paper uses (section III.B).  Inputs are seeded so a campaign of
thousands of runs replays the exact same application every time, and
only the injected fault differs.
"""

from __future__ import annotations

import abc
from typing import Dict, Sequence

from repro.sim.device import Device
from repro.sim.kernel import Kernel


class Benchmark(abc.ABC):
    """One CUDA-style workload with a golden self-check."""

    #: Full benchmark name, e.g. ``"hotspot"`` (registry key).
    name: str = ""
    #: Paper abbreviation, e.g. ``"HS"`` (used in result tables).
    abbrev: str = ""

    @abc.abstractmethod
    def build(self, dev: Device) -> Dict:
        """Allocate and upload inputs; returns the run state."""

    @abc.abstractmethod
    def execute(self, dev: Device, state: Dict) -> None:
        """Launch every kernel of the application."""

    @abc.abstractmethod
    def check(self, dev: Device, state: Dict) -> bool:
        """Download outputs and compare with the golden reference."""

    @abc.abstractmethod
    def kernels(self) -> Sequence[Kernel]:
        """The static kernels of the application (campaign metadata)."""

    def run(self, dev: Device) -> bool:
        """Convenience: build + execute + check in one call."""
        state = self.build(dev)
        self.execute(dev, state)
        return self.check(dev, state)
