"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.faults import campaign
from repro.sim.cards import rtx_2060
from repro.sim.config import CacheGeometry, GPUConfig
from repro.sim.device import Device
from repro.sim.kernel import Kernel


#: The large budget of the generated tests that take theirs from
#: :func:`generated`: ``pytest --hypothesis-profile nightly`` (CI's
#: scheduled / on-demand ``fuzz`` job).  Random, and the failing
#: example is printed as the ``@example`` to check in.
settings.register_profile("nightly", max_examples=20_000, deadline=None,
                          print_blob=True)


def generated(tier1_examples: int) -> settings:
    """Settings of a generated test with two budgets: small and
    deterministic in tier-1, the ``nightly`` profile's when that is
    the one selected."""
    nightly = settings.get_profile("nightly")
    if settings.default is nightly:
        return nightly
    return settings(max_examples=tier1_examples, derandomize=True,
                    deadline=None)


@pytest.fixture(autouse=True)
def cold_golden_runs():
    """Every test starts with an empty golden-run memo: whether a
    campaign simulates, and what its ``campaign_start`` says, must not
    depend on the tests that ran before it."""
    campaign._GOLDEN_RUNS.clear()


@pytest.fixture
def rtx() -> GPUConfig:
    """The RTX 2060 card model."""
    return rtx_2060()


@pytest.fixture
def device() -> Device:
    """A fresh RTX 2060 device."""
    return Device("RTX2060")


def tiny_config(**overrides) -> GPUConfig:
    """A small config for focused microarchitecture tests."""
    defaults = dict(
        name="Tiny",
        architecture="Test",
        num_sms=2,
        max_threads_per_sm=256,
        max_ctas_per_sm=4,
        registers_per_sm=4096,
        shared_mem_per_sm=16 * 1024,
        num_schedulers_per_sm=2,
        l1d=CacheGeometry(4 * 1024, assoc=2),
        l1t=CacheGeometry(4 * 1024, assoc=2),
        l2=CacheGeometry(32 * 1024, assoc=4),
        l2_banks=2,
        global_mem_bytes=1024 * 1024,
    )
    defaults.update(overrides)
    return GPUConfig(**defaults)


def page_source(memory):
    """A ``fetch_page`` for ``GPU.restore`` / ``GlobalMemory.restore``
    serving the pages ``memory`` holds right now (what a checkpoint
    set's page pool does from disk)."""
    pages = {digest: bytes(memory.page(index))
             for index, digest in memory.page_table().items()}
    return pages.__getitem__


def format3_cache(snap: dict) -> dict:
    """A cache's row arrays as format 3's dict per line."""
    entries, row = [], 0
    for last_use, valid, dirty, tag in snap.get("lines", np.empty(0)).tolist():
        entry = {"valid": bool(valid), "last_use": last_use}
        if valid:
            entry.update(dirty=bool(dirty), tag=tag, data=snap["data"][row],
                         armed=snap["armed"].get(row))
            row += 1
        entries.append(entry)
    sets = snap["sets"].tolist() if entries else []
    assoc = len(entries) // max(len(sets), 1)
    return {"tick": snap["tick"], "stats": snap["stats"],
            "sets": {set_idx: entries[at * assoc:(at + 1) * assoc]
                     for at, set_idx in enumerate(sets)}}


def format3(snap: dict) -> dict:
    """A format-4 snapshot (flat ``{part name: piece}``) in the nested
    shape format 3 stored and digested."""
    out = dict(snap["rest"], memory=snap["memory"],
               l2=format3_cache(snap["l2"]), cores=[])
    while f"c{len(out['cores'])}" in snap:
        name = f"c{len(out['cores'])}"
        core = dict(snap[name], ctas=[])
        for level in ("l1d", "l1t", "l1c", "l1i"):
            core[level] = (format3_cache(snap[f"{name}.{level}"])
                           if f"{name}.{level}" in snap else None)
        while f"{name}.cta{len(core['ctas'])}" in snap:
            cta_name = f"{name}.cta{len(core['ctas'])}"
            cta = dict(snap[cta_name], warps=[])
            while f"{cta_name}.w{len(cta['warps'])}" in snap:
                cta["warps"].append(snap[f"{cta_name}.w{len(cta['warps'])}"])
            core["ctas"].append(cta)
        out["cores"].append(core)
    return out


def run_lanes(source: str, num_threads: int = 32, params=(),
              device: Device = None, smem_bytes: int = 0,
              local_bytes: int = 0, block=None, grid: int = 1):
    """Assemble + run a snippet on one (or more) CTAs; returns the device.

    The kernel must store its observable results to global memory.
    """
    dev = device or Device("RTX2060")
    kernel = Kernel("snippet", source, num_params=len(params),
                    smem_bytes=smem_bytes, local_bytes=local_bytes)
    dev.launch(kernel, grid=grid, block=block or num_threads, params=params)
    return dev


def as_f32_bits(value: float) -> int:
    """fp32 bit pattern of a Python float."""
    return int(np.float32(value).view(np.uint32))
