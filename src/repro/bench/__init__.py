"""The twelve benchmark workloads of the paper (section V.B).

Rodinia suite: Hot Spot (HS), K-Means (KM), SRAD v1/v2, LU
Decomposition (LUD), Breadth-First Search (BFS), Pathfinder (PATHF),
Needleman-Wunsch (NW), Gaussian Elimination (GE), Backpropagation
(BP).  CUDA SDK: Vector Addition (VA), Scalar Product (SP).

Each module implements one workload as SASS-like kernels plus a host
driver with a numpy golden check, registered here by both its full
name and its paper abbreviation.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.bench.backprop import Backprop
from repro.bench.base import Benchmark
from repro.bench.bfs import BFS
from repro.bench.gaussian import Gaussian
from repro.bench.hotspot import Hotspot
from repro.bench.kmeans import KMeans
from repro.bench.lud import LUD
from repro.bench.needle import NeedlemanWunsch
from repro.bench.pathfinder import Pathfinder
from repro.bench.scalarprod import ScalarProd
from repro.bench.srad import SRAD1, SRAD2
from repro.bench.vectoradd import VectorAdd

#: All benchmark classes in the paper's presentation order.
BENCHMARK_CLASSES: List[Type[Benchmark]] = [
    Hotspot,
    KMeans,
    SRAD1,
    SRAD2,
    LUD,
    BFS,
    Pathfinder,
    NeedlemanWunsch,
    Gaussian,
    Backprop,
    VectorAdd,
    ScalarProd,
]

#: Registry: full name and paper abbreviation -> class.
REGISTRY: Dict[str, Type[Benchmark]] = {}
for _cls in BENCHMARK_CLASSES:
    REGISTRY[_cls.name] = _cls
    REGISTRY[_cls.abbrev.lower()] = _cls


def benchmark_names() -> List[str]:
    """Full names of all benchmarks, in paper order."""
    return [cls.name for cls in BENCHMARK_CLASSES]


def make_benchmark(name: str, **kwargs) -> Benchmark:
    """Instantiate a benchmark by full name or paper abbreviation."""
    key = name.lower()
    if key not in REGISTRY:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {benchmark_names()}")
    return REGISTRY[key](**kwargs)


__all__ = [
    "Benchmark",
    "BENCHMARK_CLASSES",
    "REGISTRY",
    "benchmark_names",
    "make_benchmark",
]
