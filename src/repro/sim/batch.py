"""Lockstep packs: N injected runs riding one simulated process.

Every injected run of a campaign shares its control flow with the
golden run until (and usually after) the fault lands -- the dominant
Masked outcome never diverges at all.  The simulator's per-run data
state (register files, predicates, local memory, shared memory)
carries a *runs axis* (see :mod:`repro.sim.warp`), and the one issue
path in :mod:`repro.sim.core` executes every instruction on all of its
columns.  An ordinary run is that engine at width 1.  A
:class:`LockstepPack` is the same engine born ``R+1`` wide: column 0
is the uninjected golden reference and columns ``1..R`` belong to the
pack's members, each carrying its own fault.

Everything that exists once -- SIMT stacks, exit masks, scoreboards,
caches, global memory, scheduler state, timing -- follows column 0,
and is therefore golden for as long as no member is allowed to steer
it.  This module is what is specific to running more than one column:

- **Agreement** (:meth:`LockstepPack.check_rows`).  Data-level
  divergence between columns is free (the ALU handlers are
  shape-polymorphic).  Agreement with column 0 is required only where
  a column could influence shared state, and the core asks for it
  there: the guard predicate of a guarded EXIT/BRANCH/memory op on
  active lanes (it changes control flow or the issue-latency path),
  the address base register of a memory op on executing lanes
  (addresses steer caches, banks and coalescing), and the source
  values of global stores/atomics (they enter shared global memory).
- **Peel-off.**  A disagreeing member peels *before* the shared
  mutation and is re-run through the ordinary width-1 path, so
  correctness never depends on staying convergent; its column keeps
  executing harmlessly (writes land in slices nobody reads back).
- **Per-member injection.**  One real
  :class:`~repro.faults.injector.Injector` per member, told which
  column it corrupts -- so injection logs (targets, RNG draws,
  applied cycles) are byte-identical to solo runs.
- **Per-member convergence**, mirroring
  :class:`~repro.faults.early_stop.ConvergenceMonitor`: at every
  golden checkpoint cycle a member whose column equals column 0 has,
  together with the shared golden state, exactly the state whose
  digest the solo monitor would have matched -- it resolves as
  converged and inherits the golden suffix.  When every member is
  resolved, what is left is column 0, the golden run: the pack ends
  the simulation as a width-1 witness does, with
  :class:`~repro.faults.early_stop.EarlyConvergence`.
- **The host-read guard**: every DtoH copy is compared with the golden
  recording, as a safety net under the peel invariant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.checkpoint import host_read_matches


class PackAbort(Exception):
    """The pack observed something its invariants rule out (e.g. a
    non-golden host read).  The batch executor catches it and re-runs
    every unresolved member solo; records stay correct regardless."""


class PackMember:
    """One injected run riding in a pack (column ``col``)."""

    __slots__ = ("mask", "col", "entries", "pos", "injector", "resolution")

    def __init__(self, mask, col: int, entries: Sequence[dict]):
        self.mask = mask
        self.col = col
        #: The golden checkpoint entries that may witness the member's
        #: convergence (what the solo ConvergenceMonitor gets), sorted.
        self.entries = sorted(entries, key=lambda e: e["cycle"])
        self.pos = 0
        self.injector = None  # built by LockstepPack.reset()
        #: ``None`` while unresolved, else ("converged"|"peeled", cycle).
        self.resolution = None


class LockstepPack:
    """Drives N member runs through one cycle loop.

    Passed as ``RunOptions(pack=...)``; :meth:`attach` widens the
    GPU's runs axis and takes the ``convergence`` rider slot of an
    injected run: :meth:`on_cycle` checks member convergence against
    column 0, ends the simulation once nobody is left, and fans
    injection out to the per-member real injectors;
    :meth:`on_host_read` guards the shared golden-memory invariant.
    ``golden_cycles`` is what a run ended that way inherits.
    """

    def __init__(self, members: Sequence[PackMember], golden_cycles: int,
                 golden_host_reads: Optional[Sequence[dict]] = None):
        self.members = list(members)
        self.ncols = len(self.members) + 1
        self.golden_cycles = golden_cycles
        self.gpu = None
        self._by_col: Dict[int, PackMember] = {
            m.col: m for m in self.members}
        self._unresolved: List[int] = []
        self._reads = golden_host_reads  # None: nothing to compare with
        self._read_pos = 0
        #: Peel events as ``(col, cycle, reason)`` (for batch metrics).
        self.peels: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Fresh per attempt: injector logs, convergence positions and
        resolutions are consumed by a run."""
        from repro.faults.injector import Injector

        for member in self.members:
            member.injector = Injector([member.mask], column=member.col)
            member.pos = 0
            member.resolution = None
        self._unresolved = [m.col for m in self.members]
        self._read_pos = 0
        self.peels = []

    def attach(self, gpu) -> None:
        """Called by the device before any CTA exists: every CTA of
        this GPU is born ``ncols`` wide."""
        self.gpu = gpu
        gpu.pack = self
        gpu.ncols = self.ncols
        gpu.convergence = self

    # -- resolution -------------------------------------------------------

    def peel(self, col: int, reason: str) -> None:
        """Remove a member whose fault is about to touch shared state;
        the batch executor re-runs it through the solo path."""
        cycle = self.gpu.cycle if self.gpu is not None else 0
        self._by_col[col].resolution = ("peeled", cycle)
        self._unresolved.remove(col)
        self.peels.append((col, cycle, reason))
        if not self._unresolved and self.gpu is not None:
            self.gpu.due = cycle  # the pack is due: nobody is left

    def check_rows(self, stacked: np.ndarray,
                   lanes_mask: np.ndarray) -> None:
        """Peel every unresolved member whose row of ``stacked``
        differs from row 0 on ``lanes_mask`` lanes.  Called *before*
        any shared mutation the rows feed."""
        if not self._unresolved:
            return
        diff = (stacked != stacked[0]) & lanes_mask
        if not diff.any():
            return
        rows = diff.any(axis=1)
        for col in [c for c in self._unresolved if rows[c]]:
            self.peel(col, "divergence")

    # -- the convergence-slot protocol ------------------------------------

    def on_cycle(self, gpu, launch, queue) -> None:
        """Resolve converged members, stop when none is left, then let
        each member's injector inject into its own column -- logs and
        RNG draws are byte-identical to the solo runs."""
        if self._unresolved:
            launch_index = gpu.stats.current.launch_index
            for col in list(self._unresolved):
                member = self._by_col[col]
                entries = member.entries
                while (member.pos < len(entries)
                        and entries[member.pos]["cycle"] < gpu.cycle):
                    member.pos += 1
                if member.pos >= len(entries):
                    continue
                entry = entries[member.pos]
                if entry["cycle"] != gpu.cycle:
                    continue
                member.pos += 1
                if entry["launch_index"] != launch_index:
                    continue
                if self._column_matches_golden(gpu, col):
                    member.resolution = ("converged", gpu.cycle)
                    self._unresolved.remove(col)
        if not self._unresolved:
            from repro.faults.early_stop import EarlyConvergence

            raise EarlyConvergence(gpu.cycle, self.golden_cycles)
        for col in list(self._unresolved):
            self._by_col[col].injector.apply_due(gpu, gpu.cycle)

    @staticmethod
    def _column_matches_golden(gpu, col: int) -> bool:
        """Member state equals golden <=> its column equals column 0:
        everything outside the stacked arrays is shared (and golden by
        the peel invariant), and column 0 replays the golden data flow
        exactly, so slice equality is equivalent to the solo monitor's
        full state-digest match."""
        for core in gpu.cores:
            for cta in core.ctas:
                if not np.array_equal(cta.smem[col], cta.smem[0]):
                    return False
                for warp in cta.warps:
                    if not np.array_equal(warp.regs[:, col], warp.regs[:, 0]):
                        return False
                    if not np.array_equal(warp.preds[:, col],
                                          warp.preds[:, 0]):
                        return False
                    if warp.local_mem is not None and not np.array_equal(
                            warp.local_mem[col], warp.local_mem[0]):
                        return False
        return True

    def on_host_read(self, tag: int, addr: int, nbytes: int,
                     data) -> None:
        """Shared global memory must stay golden (stores that could
        diverge peel first); verify each DtoH copy against the golden
        recording as a safety net."""
        if self._reads is None:
            return
        if not host_read_matches(self._reads, self._read_pos, tag, addr,
                                 nbytes, data):
            raise PackAbort(f"host read 0x{addr:x}+{nbytes} diverged "
                            "from the golden recording")
        self._read_pos += 1

    def due_cycle(self) -> Optional[int]:
        """Earliest cycle a member is injected or checked at (0: none left)."""
        members = [self._by_col[col] for col in self._unresolved]
        dues = [m.injector.due_cycle() for m in members]
        dues += [m.entries[m.pos]["cycle"] for m in members
                 if m.pos < len(m.entries)]
        return min((due for due in dues if due is not None),
                   default=None if members else 0)
