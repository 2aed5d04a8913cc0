"""The three GPU card models used throughout the paper.

Parameters come from Table V of the paper (SMs, occupancy limits,
register file, shared memory, cache sizes) and the technology data of
section VI.F (raw FIT per bit: 1.8e-6 for the 12 nm RTX 2060 / Quadro
GV100, 1.2e-5 for the 28 nm GTX Titan).  The derived chip-level
structure sizes reproduce Table I exactly (asserted in
``tests/test_cards.py`` and ``benchmarks/bench_table1_sizes.py``).

GTX Titan (Kepler) does not cache global data in L1 -- accesses go
straight to L2 -- hence its ``l1d`` is ``None`` ("N/A" in Tables I/V).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.sim.config import CacheGeometry, GPUConfig


def rtx_2060() -> GPUConfig:
    """RTX 2060 (Turing, 12 nm): 30 SMs, 64 KB L1D, 3 MB L2."""
    return GPUConfig(
        name="RTX2060",
        architecture="Turing",
        num_sms=30,
        max_threads_per_sm=1024,
        max_ctas_per_sm=32,
        registers_per_sm=65536,
        shared_mem_per_sm=64 * 1024,
        num_schedulers_per_sm=4,
        l1d=CacheGeometry(64 * 1024, assoc=4),
        l1t=CacheGeometry(128 * 1024, assoc=8),
        l2=CacheGeometry(3 * 1024 * 1024, assoc=8),
        l2_banks=12,
        l1i_size_per_sm=128 * 1024,
        l1c_size_per_sm=64 * 1024,
        technology_nm=12,
        raw_fit_per_bit=1.8e-6,
    )


def quadro_gv100() -> GPUConfig:
    """Quadro GV100 (Volta, 12 nm): 80 SMs, 32 KB L1D, 6 MB L2."""
    return GPUConfig(
        name="QuadroGV100",
        architecture="Volta",
        num_sms=80,
        max_threads_per_sm=2048,
        max_ctas_per_sm=32,
        registers_per_sm=65536,
        shared_mem_per_sm=96 * 1024,
        num_schedulers_per_sm=4,
        l1d=CacheGeometry(32 * 1024, assoc=4),
        l1t=CacheGeometry(128 * 1024, assoc=8),
        l2=CacheGeometry(6 * 1024 * 1024, assoc=8),
        l2_banks=16,
        l1i_size_per_sm=128 * 1024,
        l1c_size_per_sm=64 * 1024,
        technology_nm=12,
        raw_fit_per_bit=1.8e-6,
    )


def gtx_titan() -> GPUConfig:
    """GTX Titan (Kepler, 28 nm): 14 SMs, no L1D for globals, 1.5 MB L2."""
    return GPUConfig(
        name="GTXTitan",
        architecture="Kepler",
        num_sms=14,
        max_threads_per_sm=2048,
        max_ctas_per_sm=16,
        registers_per_sm=65536,
        shared_mem_per_sm=48 * 1024,
        num_schedulers_per_sm=4,
        l1d=None,
        l1t=CacheGeometry(48 * 1024, assoc=4),
        l2=CacheGeometry(1536 * 1024, assoc=8),
        l2_banks=12,
        l1i_size_per_sm=4 * 1024,
        l1c_size_per_sm=12 * 1024,
        technology_nm=28,
        raw_fit_per_bit=1.2e-5,
    )


#: Registry of the paper's cards, keyed by the names used in the text.
CARDS: Dict[str, "GPUConfig"] = {}


def _register() -> None:
    for factory in (rtx_2060, quadro_gv100, gtx_titan):
        card = factory()
        CARDS[card.name] = card


_register()


def get_card(name: str, model_icache: bool = False) -> GPUConfig:
    """Look up a card by name (case-insensitive, also accepts aliases),
    with the instruction-cache model on when ``model_icache`` asks.

    Accepted spellings include ``"RTX2060"``, ``"rtx_2060"``,
    ``"Quadro GV100"``, ``"gtxtitan"`` ...
    """
    key = name.replace(" ", "").replace("_", "").replace("-", "").lower()
    for card_name, card in CARDS.items():
        if card_name.lower() == key:
            return (dataclasses.replace(card, model_icache=True)
                    if model_icache else card)
    raise KeyError(f"unknown card {name!r}; known: {sorted(CARDS)}")
