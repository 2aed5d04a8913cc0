"""CTA (Compute Thread Array / thread block) state.

A CTA owns its warps and its private shared-memory instance, mirroring
how GPGPU-Sim (and real hardware) give each resident block a private
shared-memory allocation -- which is exactly why the paper introduces
the ``df_smem`` derating factor for shared-memory AVF.

Shared memory carries the same leading runs axis as the warp state
(see :mod:`repro.sim.warp`): ``smem`` is ``(ncols, bytes)`` uint8 and
``smem_words`` a ``(ncols, words)`` uint32 view of the same buffer.

What a shared-memory instruction does besides moving data -- which
lanes execute, on which words, whether two lanes meet on one, how many
bank cycles it takes -- depends on its address *pattern* alone, and a
kernel has few of those (hotspot: 928 accesses, 51 patterns).
:meth:`CTA.smem_pattern` computes it once per pattern, process-wide.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from repro.sim.errors import MemoryViolation
from repro.sim.kernel import KernelLaunch, sreg_lanes
from repro.sim.warp import WARP_SIZE, Warp


#: Number of shared-memory banks (4-byte interleaved).
SMEM_BANKS = 32

#: :meth:`CTA.smem_pattern`'s memo, one per process: a pure function of
#: its key, whose values nobody can write to.  Filled by a process's
#: first runs, emptied when it reaches :data:`PATTERN_CAP` entries.
_PATTERNS: Dict[tuple, tuple] = {}
PATTERN_CAP = 4096


class CTA:
    """One resident thread block with its warps and shared memory."""

    def __init__(self, cta_id: Tuple[int, int], launch: KernelLaunch,
                 core, age_base: int, smem_ceiling: int, ncols: int = 1):
        self.cta_id = cta_id
        self.launch = launch
        self.core = core
        kernel = launch.kernel
        #: Direct reference to the assembled instruction list, saving
        #: two attribute hops per issued instruction in the cycle loop.
        self.instructions = kernel.instructions
        #: Word-typed backing buffer; ``smem`` is its byte view (what
        #: the injector flips bits in and snapshots store).
        self.smem_words = np.zeros((ncols, (kernel.smem_bytes + 3) // 4),
                                   dtype="<u4")
        self.smem = self.smem_words.view(np.uint8)[:, :kernel.smem_bytes]
        #: Per-SM shared memory capacity; offsets past the CTA's own
        #: allocation but inside the SM window alias back into the CTA
        #: (silent corruption), beyond the window they fault.
        self.smem_ceiling = smem_ceiling

        ctaid = {"SR_CTAID_X": sreg_lanes(cta_id[0]),
                 "SR_CTAID_Y": sreg_lanes(cta_id[1])}
        nthreads = launch.threads_per_cta
        self.live_warp_count = launch.warps_per_cta
        self.warps: List[Warp] = []
        for wid in range(launch.warps_per_cta):
            first = wid * WARP_SIZE
            count = min(WARP_SIZE, nthreads - first)
            warp = Warp(wid, count, kernel.num_regs, kernel.local_bytes,
                        cta=self, age=age_base + wid, ncols=ncols)
            # the launch's lanes, plus this CTA's two
            warp.sregs = dict(launch.warp_sregs[wid], **ctaid)
            self.warps.append(warp)

    @property
    def done(self) -> bool:
        """Whether every warp of this CTA has drained."""
        return self.live_warp_count == 0

    def release(self) -> None:
        """Cut the links to the core and the warps of a CTA that will
        not run again.  Warps point back at their CTA and the core's
        scheduler state at warps, so a dropped CTA is otherwise cyclic
        garbage, freed only by the collector's next full pass; with
        the loops cut, its state goes with the last reference."""
        self.core = None
        self.warps = []

    def on_warp_done(self) -> None:
        """Bookkeeping callback from :meth:`Warp.normalize_stack`; the
        core keeps its occupancy counters and retires the CTA when
        its last warp drains."""
        self.live_warp_count -= 1
        if self.core is not None:
            self.core.on_warp_done(self)

    def live_warps(self) -> List[Warp]:
        """Warps that have not yet completed."""
        return [w for w in self.warps if not w.done]

    def live_thread_count(self) -> int:
        """Number of created-and-not-exited threads (for df_reg stats)."""
        return sum(w.live_count for w in self.warps)

    # -- shared memory ---------------------------------------------------------

    def _resolve_smem(self, addr: int) -> int:
        if addr % 4:
            raise MemoryViolation("shared", addr, "misaligned access")
        if addr < 0 or addr + 4 > self.smem_ceiling:
            raise MemoryViolation("shared", addr)
        nbytes = self.smem.shape[1]
        if nbytes == 0:
            raise MemoryViolation("shared", addr, "kernel declares no smem")
        return addr % nbytes if addr + 4 > nbytes else addr

    def smem_word_indices(self, addrs: np.ndarray) -> np.ndarray:
        """:meth:`_resolve_smem` for one address per lane, as word
        indices into ``smem_words``; a violation is raised for the
        first offending address in the order given."""
        nbytes = self.smem.shape[1]
        top = int(addrs.max()) + 4
        if (not nbytes or addrs.min() < 0 or top > self.smem_ceiling
                or (addrs & 3).any()):
            for addr in addrs:
                self._resolve_smem(int(addr))
        if top > nbytes:
            # past the CTA's own allocation: aliases back into it
            addrs = np.where(addrs + 4 > nbytes, addrs % nbytes, addrs)
        return addrs >> 2

    def smem_pattern(self, base: np.ndarray, offset: int,
                     mask: np.ndarray) -> tuple:
        """What the lane addresses ``base + offset`` (``base`` one
        uint32 per lane) of the lanes in ``mask`` decide, as
        ``(lanes, words, word_list, distinct, conflicts)``: the
        executing lane indices, their :meth:`smem_word_indices` (as
        array and as list), whether no two lanes share a word and the
        worst number of distinct addresses on one bank.  Shared,
        read-only arrays.  The key holds all the
        result depends on -- this CTA's shared bytes and its SM's
        ceiling too, so no kernel or card is served another's -- and a
        faulting pattern raises before it could be stored."""
        key = (self.smem.shape[1], self.smem_ceiling, offset,
               base.tobytes(), mask.tobytes())
        pattern = _PATTERNS.get(key)
        if pattern is None:
            lanes = np.nonzero(mask)[0]
            lane_addrs = base[lanes].astype(np.int64) + offset
            words = self.smem_word_indices(lane_addrs)  # may raise
            for shared in (lanes, words):
                shared.setflags(write=False)
            word_list = words.tolist()
            banks = Counter((addr >> 2) % SMEM_BANKS
                            for addr in set(lane_addrs.tolist()))
            if len(_PATTERNS) >= PATTERN_CAP:
                _PATTERNS.clear()
            pattern = _PATTERNS[key] = (
                lanes, words, word_list,
                len(set(word_list)) == len(word_list),
                max(banks.values()))
        return pattern

    # -- checkpointing -----------------------------------------------------

    def parts(self, name: str):
        """This CTA's parts of :meth:`repro.sim.gpu.GPU.parts`: its id,
        counters and shared memory under ``name``, then one part per
        warp (column 0, in the runs-axis-free shapes)."""
        yield name, lambda: {"cta_id": tuple(self.cta_id),
                             "age_base": self.warps[0].age,
                             "live_warp_count": self.live_warp_count,
                             "smem": self.smem[0].copy()}
        for index, warp in enumerate(self.warps):
            yield f"{name}.w{index}", warp.snapshot

    @classmethod
    def from_snapshot(cls, snap: dict, name: str, launch: KernelLaunch,
                      core) -> "CTA":
        """Rebuild a resident CTA from its :meth:`parts` in ``snap``.

        The constructor recomputes identity state (sregs, geometry)
        exactly as the original assignment did; the mutable state is
        then overwritten per warp, every column from the snapshot's
        one.
        """
        own = snap[name]
        cta = cls(tuple(own["cta_id"]), launch, core, own["age_base"],
                  core.config.shared_mem_per_sm, ncols=core.gpu.ncols)
        cta.smem[:] = own["smem"]
        cta.live_warp_count = own["live_warp_count"]
        for index, warp in enumerate(cta.warps):
            warp.restore_state(snap[f"{name}.w{index}"])
        return cta

    # -- barrier ------------------------------------------------------------------

    def try_release_barrier(self) -> bool:
        """Release the CTA barrier once every live warp has arrived."""
        live = self.live_warps()
        if live and all(w.at_barrier for w in live):
            for w in live:
                w.at_barrier = False
                w.wake()
            return True
        return False
