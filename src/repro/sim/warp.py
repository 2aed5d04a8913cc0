"""Warp state: registers, predicates, SIMT stack, scoreboard, local memory.

One :class:`Warp` owns the architectural state of its 32 lanes.  The
per-run *data* state carries a **runs axis** of width ``ncols`` just
before the lane axis:

- ``regs``       ``(num_regs, ncols, 32)`` uint32 -- per-thread
  registers in the paper's terminology, the primary injection target
- ``preds``      ``(8, ncols, 32)`` bool
- ``local_mem``  ``(ncols, 32, local_bytes)`` uint8, with
  ``local_words`` a ``(ncols, 32, words)`` uint32 view of the same
  buffer, so an aligned 32-bit access is one indexing operation

An ordinary run has ``ncols == 1`` and column 0 *is* the run.  A
lockstep pack (:mod:`repro.sim.batch`) is born wider: column 0 is the
fault-free reference, columns ``1..`` the pack's members.  The runs
axis leads the lane axis so ``(32,)`` operands (immediates, special
registers, the shared active mask) broadcast against it.

Everything else -- the SIMT reconvergence stack (IPDOM reconvergence
from the ``reconv_pc`` annotations computed at assembly time), exit
mask, scoreboard -- exists once per warp and follows column 0.
Snapshots store column 0 in the runs-axis-free shapes, so the
checkpoint format and state digests do not depend on the width.

``ready_at`` and ``next_plan`` are the scheduler's memo of this warp's
next instruction: the exact cycle it can issue at (its operand hazards
clear, or its instruction-fetch miss returns; "never" at a barrier or
once drained) and its :class:`~repro.sim.core.IssuePlan` (``None``: not
resolved; always with the L1I modelled).  Asking before ``ready_at`` is
one integer compare (:meth:`repro.sim.core.SIMTCore.cycle`), asking
then issues ``next_plan``.  Both are derived state: never snapshotted,
0 ("ask me") and ``None`` on a fresh or restored warp.  Only the warp's
own issue changes them, except for writers outside the warp, and each
calls :meth:`Warp.wake`: the fault injector after it writes the
scoreboard or the SIMT stack, and the CTA when a barrier releases.

``StackEntry.active`` is the same kind of memo for the lanes an issue
executes on, ``mask & ~exited``: two ufunc calls per issue for a value
that changes once per hundreds of issues.  Whatever changes it -- an
EXIT, a divergent branch's pushes, a pop -- goes through
:meth:`Warp.normalize_stack`, which computes the new top entry's lanes
anyway and leaves them on it; a writer from outside (the injector
flipping a mask bit of any entry, :meth:`Warp.restore_state`) leaves
entries without one, through :meth:`Warp.wake` or by building them
afresh, and the next issue computes it.  The arrays are shared with
every reader of an issue's lanes: replaced, never written in place.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.isa.operands import PT_INDEX
from repro.sim.errors import MemoryViolation

WARP_SIZE = 32


class StackEntry:
    """One SIMT reconvergence stack entry.  ``active`` memoises ``mask
    & ~warp.exited`` (``None``: not known; see the module docstring);
    ``where`` is what an unguarded ALU commit hands numpy: the same
    lanes, or ``True`` when all 32 execute (its unmasked loops)."""

    __slots__ = ("pc", "mask", "reconv_pc", "active", "where")

    def __init__(self, pc: int, mask: np.ndarray, reconv_pc: int):
        self.pc = pc
        self.mask = mask
        self.reconv_pc = reconv_pc
        self.active = self.where = None


class Warp:
    """The architectural and micro-architectural state of one warp."""

    __slots__ = ("warp_id", "cta", "age", "num_threads", "num_regs",
                 "regs", "iregs", "fregs", "preds", "exited", "stack",
                 "live_count",
                 "local_bytes", "local_mem", "local_words", "reg_ready",
                 "pred_ready", "sb_latest", "at_barrier", "done",
                 "ifetch_ready", "ready_at", "next_plan", "sregs")

    def __init__(self, warp_id_in_cta: int, num_threads: int, num_regs: int,
                 local_bytes: int, cta, age: int, ncols: int = 1):
        self.warp_id = warp_id_in_cta
        self.cta = cta
        self.age = age
        self.num_threads = num_threads
        self.num_regs = num_regs

        self.regs = np.zeros((max(num_regs, 1), ncols, WARP_SIZE),
                             dtype=np.uint32)
        #: The same registers as int32 and as fp32 lanes (``regs`` is
        #: only ever written in place), for the execution unit.
        self.iregs = self.regs.view(np.int32)
        self.fregs = self.regs.view(np.float32)
        self.preds = np.zeros((8, ncols, WARP_SIZE), dtype=bool)
        self.preds[PT_INDEX] = True

        init_mask = np.zeros(WARP_SIZE, dtype=bool)
        init_mask[:num_threads] = True
        self.exited = ~init_mask
        self.stack: List[StackEntry] = [StackEntry(0, init_mask, -1)]
        #: Cached count of live (created, not exited) threads.
        self.live_count = num_threads

        self.local_bytes = local_bytes
        #: Word-typed backing buffer; ``local_mem`` is its byte view
        #: (what the injector flips bits in and snapshots store).
        self.local_words: Optional[np.ndarray] = None
        self.local_mem: Optional[np.ndarray] = None
        if local_bytes:
            self.local_words = np.zeros(
                (ncols, WARP_SIZE, (local_bytes + 3) // 4), dtype="<u4")
            self.local_mem = self.local_words.view(
                np.uint8)[..., :local_bytes]

        #: Scoreboard: register/predicate index -> cycle the value is ready.
        self.reg_ready: Dict[int, int] = {}
        self.pred_ready: Dict[int, int] = {}
        #: Latest completion cycle of any in-flight write (fast path:
        #: once the clock passes this, every operand is hazard-free).
        self.sb_latest = 0

        self.at_barrier = False
        self.done = False
        #: Instruction-fetch stall (icache extension): no issue before.
        self.ifetch_ready = 0
        #: The remembered next instruction: the exact cycle it can
        #: issue at and its plan (see the module docstring).
        self.ready_at, self.next_plan = 0, None

        # special-register lanes, filled by the CTA constructor
        self.sregs: Dict[str, np.ndarray] = {}

    # -- SIMT stack ----------------------------------------------------------

    def active_lanes(self, top: StackEntry) -> np.ndarray:
        """Compute and memoise the lanes the top entry executes on."""
        active = top.active = top.mask & ~self.exited
        top.where = True if active.all() else active
        return active

    def normalize_stack(self) -> None:
        """Pop empty/reconverged entries, leaving the new top entry's
        active lanes (never empty) memoised on it; sets ``done`` when
        drained."""
        stack = self.stack
        while stack:
            top = stack[-1]
            if top.pc == top.reconv_pc or not self.active_lanes(top).any():
                stack.pop()
            else:
                return
        if not self.done:
            self.done = True
            self.cta.on_warp_done()

    def wake(self) -> None:
        """Forget the remembered next instruction and active lanes:
        something outside this warp's own issue changed what, when or
        on which lanes it may issue (scoreboard or SIMT-stack
        injection, barrier release)."""
        self.ready_at, self.next_plan = 0, None
        for entry in self.stack:
            entry.active = None
        core = self.cta.core
        if core is not None:
            core.on_wake(self)

    # -- scoreboard --------------------------------------------------------

    def hazards_clear_at(self, regs, preds) -> int:
        """Latest ready cycle over the given register and predicate
        indices (0 when none is in flight)."""
        ready = 0
        reg_ready = self.reg_ready
        for idx in regs:
            cycle = reg_ready.get(idx, 0)
            if cycle > ready:
                ready = cycle
        if preds:
            pred_ready = self.pred_ready
            for idx in preds:
                cycle = pred_ready.get(idx, 0)
                if cycle > ready:
                    ready = cycle
        return ready

    # -- local memory -----------------------------------------------------------

    def _local_word(self, addr: int) -> int:
        if self.local_mem is None or addr % 4 or not (
                0 <= addr <= self.local_bytes - 4):
            raise MemoryViolation("local", addr)
        return addr >> 2

    def local_word_indices(self, addrs: np.ndarray) -> np.ndarray:
        """Word index of each lane's (aligned, in-bounds) address, for
        one gather/scatter over ``local_words``; a violation is raised
        for the first offending address in the order given."""
        if (self.local_mem is None or addrs.min() < 0
                or addrs.max() > self.local_bytes - 4 or (addrs & 3).any()):
            for addr in addrs:
                self._local_word(int(addr))
        return addrs >> 2

    # -- introspection (used by the fault injector) ----------------------------

    def live_lanes(self) -> np.ndarray:
        """Indices of lanes that are created and not yet exited."""
        alive = np.zeros(WARP_SIZE, dtype=bool)
        alive[:self.num_threads] = True
        return np.nonzero(alive & ~self.exited)[0]

    # -- checkpointing -----------------------------------------------------

    #: Fields a snapshot holds as they are / as a shallow copy.
    _PLAIN = ("live_count", "sb_latest", "at_barrier", "done", "ifetch_ready")
    _COPIED = ("exited", "reg_ready", "pred_ready")

    def snapshot(self) -> dict:
        """Capture the warp's mutable architectural + pipeline state.

        Identity fields (ids, geometry) and the derived ``sregs`` are
        omitted: restore reconstructs the warp through the CTA
        constructor, which recomputes them.  Column 0 is stored, in
        the shapes a warp without a runs axis would have.
        """
        snap = {name: getattr(self, name) for name in self._PLAIN}
        snap.update((name, getattr(self, name).copy())
                    for name in self._COPIED)
        snap.update(regs=self.regs[:, 0].copy(), preds=self.preds[:, 0].copy(),
                    stack=[(e.pc, e.mask.copy(), e.reconv_pc)
                           for e in self.stack],
                    local_mem=(self.local_mem[0].copy()
                               if self.local_mem is not None else None))
        return snap

    def restore_state(self, snap: dict) -> None:
        """Overwrite mutable state from a :meth:`snapshot` dict
        (every column starts from the snapshot's one)."""
        for name in self._PLAIN:
            setattr(self, name, snap[name])
        for name in self._COPIED:
            setattr(self, name, snap[name].copy())
        self.regs[:] = snap["regs"][:, None]
        self.preds[:] = snap["preds"][:, None]
        self.stack = [StackEntry(pc, mask.copy(), reconv)
                      for pc, mask, reconv in snap["stack"]]
        if self.local_mem is not None:
            self.local_mem[:] = snap["local_mem"]
