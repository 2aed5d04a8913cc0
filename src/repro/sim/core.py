"""The SIMT core (Nvidia SM) model.

Each core owns its L1 data and texture caches and a set of resident
CTAs, and issues at most one instruction per warp scheduler per cycle.
Scheduling is greedy-then-oldest (GTO) by default -- the GPGPU-Sim 4.0
default -- with loose-round-robin (LRR) available for the scheduler
ablation bench.

Issue semantics ("atomic access, delayed timing"): an instruction
executes functionally at issue, and its destination registers become
available to dependents ``latency`` cycles later, enforced by the
per-warp scoreboard.  Memory instructions walk the cache hierarchy at
issue time; their latency reflects where the accesses hit and how many
coalesced segments they produced.

**Scheduling without polling.**  A scheduler asks its warps in
priority order (GTO: the warp it issued last, then by age; LRR: from
just after that warp) and issues the first that can go.  A warp's next
instruction is resolved once -- right after its issue
(:meth:`SIMTCore._resolve`), else at its first ask -- into its plan and
the exact cycle it can issue at (``Warp.next_plan`` / ``ready_at``, see
:mod:`repro.sim.warp`): asking before then is one integer compare,
asking then issues the plan.  The earliest such cycle per scheduler and
per core (:attr:`SIMTCore.ready_at`) is what
:meth:`repro.sim.gpu.GPU._cycle_loop` skips ahead to.  Only the warp's
own issue moves it, except for :meth:`Warp.wake` (injector, barrier
release), CTA arrival and :meth:`SIMTCore.restore`, which reset it; so
the loop visits every cycle at which asking every warp would issue, or
a GTO scheduler *runs ahead*: it issues a straight ALU run of its warp
at the run's own cycles while nothing could come before.  With the
instruction cache modelled (``config.model_icache``) asking a warp *is*
an L1I access (LRU state, hit counters, armed faults): only the
fetch-miss stall is remembered, every visited cycle asks, and an issue
visits the next one.

**Issue plans.**  What ``_issue`` needs from an instruction is
resolved once into an :class:`IssuePlan` cached on the (immutable)
:class:`~repro.isa.instruction.Instruction`: kind, handler, hazard and
destination index tuples, guard, operands (see
:func:`repro.sim.exec_unit.bind`).  What changes between issues, but
rarely, is remembered as well: a stack entry's active lanes
(:mod:`repro.sim.warp`), what a guard leaves of them (:func:`guard_masks`),
a shared-memory access pattern's resolution (:mod:`repro.sim.cta`), a
global one's (:meth:`repro.sim.memory.GlobalMemory.shape`), the
occupancy sums (:mod:`repro.sim.stats`).

There is one issue path for every run width.  Register, predicate,
local- and shared-memory *data* carry a runs axis (see
:mod:`repro.sim.warp`): one decode+issue executes the instruction on
every column at once.  Everything that exists once per warp or per
chip -- control flow, addresses, cache and memory traffic, timing --
follows column 0, which at width 1 is simply the run.  In a lockstep
pack (:mod:`repro.sim.batch`) column 0 is the fault-free reference,
and before column 0 steers shared state on behalf of all columns the
pack's agreement check removes the members that would have steered it
differently; that check is the core's only knowledge of packs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.isa.encoding import WORD_BYTES, DecodeError, decode_instruction
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODES, OpClass
from repro.sim import exec_unit
from repro.sim.cache import Cache
from repro.sim.config import GPUConfig
from repro.sim.cta import CTA
from repro.sim.errors import InvalidOperation
from repro.sim.warp import StackEntry, Warp

#: Sentinel wake cycle meaning "no wake time known".
NEVER = 1 << 62

#: Read-only lanes of ``RZ`` as a store source or an address base,
#: hoisted out of the per-issue hot path.
_RZ_WORDS = np.zeros((1, 32), dtype=np.uint32)  # any width broadcasts
_RZ_WORDS.setflags(write=False)

#: :attr:`IssuePlan.kind`
_ALU, _MEMORY, _BRANCH, _BARRIER, _EXIT = range(5)

#: A guarded issue's lanes, one memo per process, as
#: :meth:`repro.sim.memory.GlobalMemory.shape`'s: ``(active lanes,
#: guard predicate row of every column, negate)`` as bytes -> see
#: :func:`guard_masks`.  Read-only arrays; emptied at :data:`GUARD_CAP`.
_GUARDS: dict = {}
GUARD_CAP = 4096


def guard_masks(active: np.ndarray, guard: np.ndarray, negate: bool):
    """The lanes a guarded issue executes on: the per-column execution
    mask, column 0's, whether it has a lane, a branch's fall-through
    lanes and whether it has one; memoised (shared, read-only)."""
    key = (active.tobytes(), guard.tobytes(), negate)
    masks = _GUARDS.get(key)
    if masks is None:
        taken = ~guard if negate else guard
        exec_mask, fall = active & taken, active & ~taken[0]
        exec_mask.setflags(write=False)
        fall.setflags(write=False)
        if len(_GUARDS) >= GUARD_CAP:
            _GUARDS.clear()
        exec0 = exec_mask[0]
        masks = _GUARDS[key] = (exec_mask, exec0, bool(exec0.any()),
                                fall, bool(fall.any()))
    return masks


class IssuePlan:
    """What issuing one static instruction takes, resolved once.

    Built at the instruction's first issue and cached in its ``plan``
    slot; holds nothing of a card's configuration or a run's state, so
    every core of every device may share it.

    Attributes:
        inst: the instruction (hooks and diagnostics take it).
        kind: ``_ALU`` / ``_MEMORY`` / ``_BRANCH`` / ``_BARRIER`` /
            ``_EXIT``.
        run: ``_ALU``: the :mod:`~repro.sim.exec_unit` handler,
            ``run(plan, warp, mask)``; ``_MEMORY``: the memory-space
            handler, ``run(core, plan, warp, mask) -> latency``.
        sfu: completes after the SFU latency instead of the ALU one.
        hazard_regs, hazard_preds: every register / predicate index
            whose pending write delays the issue (sources, guard and
            destinations merged, ``RZ``/``PT`` excluded).
        src_regs: the register indices this instruction reads.
        dst_regs, dst_preds: the indices this instruction writes.
        guard, guard_negate: guard predicate index (``None``:
            unguarded) and its polarity.
        steers: a guarded instruction whose guard decides state that
            exists once for all columns (exit mask, SIMT stack, memory
            latency path): pack members are checked for agreement.
        srcs, dst, dsts, modifiers, fn: ALU operands, see
            :func:`repro.sim.exec_unit.bind`.
        base, offset, addrs: memory operand ``[R<base>+offset]``
            (``c[offset]`` for ``LDC``); with an ``RZ`` base ``base``
            is ``None`` and ``addrs`` the read-only per-lane addresses.
        dst, src: memory ops: register index loaded into (``LDG``..,
            ``ATOM``) / stored from; ``None`` for ``RZ`` or absent.
        is_load, is_atomic, via_texture: memory-op traits;
            ``modifiers[0]`` is an atomic's operation.
    """

    __slots__ = ("inst", "kind", "run", "sfu", "hazard_regs", "hazard_preds",
                 "src_regs", "dst_regs", "dst_preds", "guard", "guard_negate",
                 "steers",
                 "srcs", "dst", "dsts", "modifiers", "fn",
                 "base", "offset", "addrs", "src", "is_load", "is_atomic",
                 "via_texture")

    def __init__(self, inst: Instruction):
        spec = OPCODES[inst.opcode]
        klass = spec.klass
        self.inst = inst
        src_regs, dst_regs, src_preds, dst_preds = inst.scoreboard_sets()
        self.hazard_regs = tuple(dict.fromkeys(src_regs + dst_regs))
        self.hazard_preds = tuple(dict.fromkeys(src_preds + dst_preds))
        self.src_regs = src_regs
        self.dst_regs, self.dst_preds = dst_regs, dst_preds
        guard = inst.guard
        self.guard = guard.index if guard is not None else None
        self.guard_negate = guard is not None and guard.negate
        self.steers = guard is not None and (
            spec.is_memory or klass in (OpClass.EXIT, OpClass.BRANCH))
        self.sfu = klass is OpClass.SFU
        self.run = None
        if spec.is_memory:
            self.kind = _MEMORY
            self._bind_memory(inst, spec)
        elif klass is OpClass.BRANCH:
            self.kind = _BRANCH
        elif klass is OpClass.BARRIER:
            self.kind = _BARRIER
        elif klass is OpClass.EXIT:
            self.kind = _EXIT
        else:
            self.kind = _ALU
            exec_unit.bind(self, inst)

    def _bind_memory(self, inst: Instruction, spec) -> None:
        self.run = _MEMORY_HANDLERS.get(spec.space, SIMTCore._exec_global)
        self.is_load = spec.klass is OpClass.LOAD
        self.is_atomic = spec.klass is OpClass.ATOMIC
        self.via_texture = spec.space == "tex"
        self.modifiers = inst.modifiers
        dst = inst.dsts[0] if inst.dsts else None
        self.dst = dst.index if dst is not None and not dst.is_rz else None
        self.src = None
        if len(inst.srcs) > 1 and not inst.srcs[1].is_rz:
            self.src = inst.srcs[1].index
        self.base = self.addrs = None
        if spec.space == "const":
            self.offset = inst.srcs[0].offset
            return
        mem = inst.srcs[0]
        self.offset = mem.offset
        if mem.base.is_rz:
            self.addrs = np.full(32, mem.offset, dtype=np.int64)
            self.addrs.setflags(write=False)
        else:
            self.base = mem.base.index


class SIMTCore:
    """One streaming multiprocessor."""

    def __init__(self, core_id: int, config: GPUConfig, gpu):
        self.core_id = core_id
        self.config = config
        self.gpu = gpu
        self.l1d: Optional[Cache] = (
            Cache(f"L1D.{core_id}", config.l1d, config.tag_bits)
            if config.l1d else None)
        self.l1t = Cache(f"L1T.{core_id}", config.l1t, config.tag_bits)
        #: L1 constant cache (paper future-work extension): services
        #: LDC parameter/constant reads with 64-byte lines.
        self.l1c = Cache(f"L1C.{core_id}", config.l1c, config.tag_bits)
        #: L1 instruction cache (paper future-work extension): holds
        #: the kernels' encoded 16-byte instruction words; active only
        #: with ``config.model_icache``.
        self.l1i = Cache(f"L1I.{core_id}", config.l1i, config.tag_bits)
        #: The L1s this card has, by attribute name.
        self.l1s = {attr: cache for attr in ("l1d", "l1t", "l1c", "l1i")
                    if (cache := getattr(self, attr)) is not None}
        self.ctas: List[CTA] = []
        self.scheduler_policy = "gto"
        #: Per scheduler, the warp it issued last.
        self._last_issued: List[Optional[Warp]] = \
            [None] * config.num_schedulers_per_sm
        self._age_counter = 0
        self._sched_cache: Optional[List[List[Warp]]] = None
        #: Earliest cycle any warp of this core can issue (``NEVER``:
        #: none until something outside wakes one).  Exact between
        #: polls; see the module docstring.
        self.ready_at = 0
        #: The same per scheduler.
        self._sched_ready = [0] * config.num_schedulers_per_sm
        #: Resident warps that have not completed and threads that have
        #: not exited, kept at CTA arrival, thread EXIT, warp drain and
        #: CTA retirement (each drops ``gpu.stats.occupancy``).
        self.live_warps = self.live_threads = 0
        #: Scratch line buffer for L1I miss fills (re-zeroed per use;
        #: :meth:`Cache.fill` copies, so reuse is safe).
        self._ifetch_scratch = np.zeros(self.l1i.geometry.line_bytes,
                                        dtype=np.uint8)

    # -- CTA residency ---------------------------------------------------

    def next_warp_age(self, nwarps: int) -> int:
        """Reserve ``nwarps`` consecutive age slots for a new CTA."""
        base = self._age_counter
        self._age_counter += nwarps
        return base

    def add_cta(self, cta: CTA) -> None:
        """Make a CTA resident on this core."""
        self.ctas.append(cta)
        self.live_warps += cta.live_warp_count
        self.live_threads += cta.live_thread_count()
        self.gpu.stats.occupancy = None
        self._sched_cache = None
        # new warps to ask: every scheduler polls at its next cycle
        self.ready_at = 0
        self._sched_ready = [0] * len(self._sched_ready)

    def on_wake(self, warp: Warp) -> None:
        """:meth:`Warp.wake` of a resident warp: its scheduler polls
        again at its next cycle."""
        self.ready_at = 0
        self._sched_ready[warp.age % len(self._sched_ready)] = 0

    def on_warp_done(self, cta: CTA) -> None:
        """A resident warp drained (its EXIT, or an injected SIMT-stack
        fault); the CTA's last one hands it to the cycle loop, which
        retires it at the end of the iteration."""
        self.live_warps -= 1
        self.gpu.stats.occupancy = None
        if cta.done:
            self.gpu.drained.append(cta)

    def retire(self, cta: CTA) -> None:
        """Drop a completed CTA."""
        self.ctas.remove(cta)
        self.live_threads -= cta.live_thread_count()
        self.gpu.stats.occupancy = None
        self._sched_cache = None
        cta.release()

    def invalidate_l1(self) -> None:
        """Kernel-boundary L1 reset (L1s are not persistent across kernels)."""
        for cache in self.l1s.values():
            cache.invalidate_all()

    # -- checkpointing -----------------------------------------------------

    def parts(self):
        """This core's parts of :meth:`repro.sim.gpu.GPU.parts`: its
        scheduler state, each L1, then every resident CTA's.

        ``_last_issued`` warps are recorded by their (core-unique) age
        while resident, ``None`` once their CTA retired -- what restore
        resolves such an age to and how the scheduler treats it, so a
        restored run digests like the run it was captured from.  The
        per-scheduler buckets, the remembered next instructions and the
        occupancy counters are derived and rebuilt.
        """
        name = f"c{self.core_id}"
        yield name, lambda: {
            "scheduler_policy": self.scheduler_policy,
            "age_counter": self._age_counter,
            "last_issued": {
                sid: (w.age if w is not None and w.cta.core is self else None)
                for sid, w in enumerate(self._last_issued)}}
        for attr, cache in self.l1s.items():
            yield f"{name}.{attr}", cache.snapshot
        for index, cta in enumerate(self.ctas):
            yield from cta.parts(f"{name}.cta{index}")

    def restore(self, snap: dict, launch) -> None:
        """Rebuild core state from its :meth:`parts` in ``snap``.

        ``launch`` must be the KernelLaunch the snapshot was taken in;
        resident CTAs are reconstructed against it.
        """
        name = f"c{self.core_id}"
        own = snap[name]
        self.scheduler_policy = own["scheduler_policy"]
        self._age_counter = own["age_counter"]
        for attr, cache in self.l1s.items():
            cache.restore(snap[f"{name}.{attr}"])
        self.ctas = []
        self.live_warps = self.live_threads = 0
        while f"{name}.cta{len(self.ctas)}" in snap:
            self.add_cta(CTA.from_snapshot(
                snap, f"{name}.cta{len(self.ctas)}", launch, self))
        by_age = {w.age: w for cta in self.ctas for w in cta.warps}
        # ages referencing warps of already-retired CTAs resolve to
        # None -- equivalent, since the scheduler treats a warp that
        # is no longer resident exactly like None
        last = own["last_issued"]
        self._last_issued = [by_age.get(last[sid])
                             for sid in range(len(last))]

    # -- scheduling --------------------------------------------------------

    def _scheduler_warps(self) -> List[List[Warp]]:
        """Resident warps per scheduler, in age order."""
        if self._sched_cache is None:
            nsched = self.config.num_schedulers_per_sm
            cache: List[List[Warp]] = [[] for _ in range(nsched)]
            for cta in self.ctas:
                for warp in cta.warps:
                    cache[warp.age % nsched].append(warp)
            for bucket in cache:
                bucket.sort(key=lambda w: w.age)
            self._sched_cache = cache
        return self._sched_cache

    def cycle(self, now: int, horizon: int) -> bool:
        """Run the cycle ``now``, and runs ahead of it before ``horizon``
        (0: none; see :meth:`_resolve`); returns whether anything issued
        and leaves :attr:`ready_at` at the earliest cycle anything can."""
        issued = False
        sched_ready = self._sched_ready
        last_issued = self._last_issued
        always_ask = self.config.model_icache
        greedy = self.scheduler_policy == "gto"
        if not greedy:
            horizon = 0
        ask, resolve = self._ask, self._resolve
        for sched_id, warps in enumerate(self._scheduler_warps()):
            if sched_ready[sched_id] > now and not always_ask:
                continue
            first = last = last_issued[sched_id]
            order = warps
            if last is None or last.cta.core is not self:
                first = None  # nothing issued yet, or its CTA retired
            elif not greedy:
                # LRR: rotate to just after the last issued warp
                pivot = warps.index(last) + 1
                order = warps[pivot:] + warps[:pivot]
                first = None
            wake = NEVER
            if first is not None:
                # GTO asks the last issued warp before any other: it
                # is the one that issues in most visits
                wake = first.ready_at
                if wake <= now:
                    wake = ask(first, now)
                    if not wake:
                        issued = True
                        wake = resolve(first, warps, now, horizon)
                        order = ()  # the others are not asked
            # ... then the others by age
            for warp in order:
                if warp is first:
                    continue
                ready = warp.ready_at
                if ready <= now:
                    ready = ask(warp, now)
                    if not ready:
                        last_issued[sched_id] = warp
                        issued = True
                        wake = resolve(warp, warps, now, horizon)
                        break
                if ready < wake:
                    wake = ready
            sched_ready[sched_id] = wake
        self.ready_at = min(sched_ready)
        return issued

    def _ask(self, warp: Warp, now: int) -> int:
        """Issue ``warp``'s next instruction if it can go at ``now``
        (returns 0), else return the cycle before which it cannot: the
        remembered plan, else the one resolved now (:meth:`_next`) or,
        with the L1I modelled, fetched (only a miss is remembered)."""
        plan = warp.next_plan
        if plan is None and not self.config.model_icache:
            ready = self._next(warp, now)
            if ready > now:
                return ready
            plan = warp.next_plan
            if plan is None:
                # a control-unit fault sent the pc out of the kernel;
                # hardware would fetch garbage and fault: a crash
                raise InvalidOperation(
                    f"pc {warp.stack[-1].pc} outside kernel "
                    f"{warp.cta.launch.kernel.name} "
                    f"(0..{len(warp.cta.instructions) - 1})")
        elif plan is None:
            if warp.done or warp.at_barrier:
                # until a barrier release wakes it / for good
                warp.ready_at = NEVER
                return NEVER
            inst = self._fetch(warp, now)
            if inst is None:
                warp.ready_at = warp.ifetch_ready
                return warp.ifetch_ready
            plan = inst.plan
            if plan is None:
                plan = inst.plan = IssuePlan(inst)
            if warp.sb_latest > now:
                ready = warp.hazards_clear_at(plan.hazard_regs,
                                              plan.hazard_preds)
                if ready > now:
                    return ready  # the next ask fetches again
        self._issue(warp, plan, now)
        return 0

    def _next(self, warp: Warp, at: int) -> int:
        """Resolve ``warp``'s next instruction (no L1I): remember its
        plan and the exact cycle, ``at`` or later, it can issue at
        (``next_plan`` / ``ready_at``) and return that cycle: NEVER at a
        barrier or drained, 0 without a plan for a pc outside the
        kernel (the ask that issues raises)."""
        plan, ready = None, NEVER
        if not (warp.done or warp.at_barrier):
            pc, instructions = warp.stack[-1].pc, warp.cta.instructions
            ready = 0
            if 0 <= pc < len(instructions):
                inst = instructions[pc]
                plan = inst.plan
                if plan is None:
                    plan = inst.plan = IssuePlan(inst)
                ready = at
                if warp.sb_latest > at:
                    ready = max(at, warp.hazards_clear_at(
                        plan.hazard_regs, plan.hazard_preds))
        warp.ready_at, warp.next_plan = ready, plan
        return ready

    def _resolve(self, warp: Warp, warps: List[Warp], now: int,
                 horizon: int) -> int:
        """After ``warp`` issued at ``now``: resolve its next instruction
        (:meth:`_next`) and return when ``warps``' scheduler can issue
        next.  While it is an ALU op nothing could come before, issue it
        at its cycle ``t`` and go on: no L1I, no listener on issue (they
        hear issues in cycle order), ``t + 1`` before ``horizon`` and
        the next rider due (read here: a pack's last peel lowers it),
        ``pc + 1`` short of the entry's reconv pc (a pop may drain the
        warp), ``t`` before every other warp's ``ready_at`` and none at
        a barrier (a release would wake it)."""
        soon = now + 1
        if self.config.model_icache:
            return soon  # asking is an L1I access: ask then
        gpu = self.gpu
        limit = 0 if gpu.on_issue else min(horizon, gpu.due) - 1  # t < limit
        others = None
        while True:
            ready = self._next(warp, soon)
            plan = warp.next_plan
            ahead = (ready < limit and plan is not None
                     and plan.kind == _ALU
                     and warp.stack[-1].pc + 1 != warp.stack[-1].reconv_pc)
            if not ahead and ready <= soon:
                break
            if others is None:
                others, waiting = NEVER, False
                for other in warps:
                    if other is not warp:
                        if other.ready_at < others:
                            others = other.ready_at
                        waiting = waiting or other.at_barrier
            if not ahead or ready >= others or waiting:
                break
            self._issue(warp, plan, ready)
            soon = ready + 1
        return soon if ready <= soon else max(soon, min(ready, others))

    # -- instruction fetch (icache extension) ------------------------------

    def _fetch(self, warp: Warp, now: int) -> Optional[Instruction]:
        """Fetch + decode the warp's next instruction through the L1I.

        Returns ``None`` while the warp is fetch-stalled on a miss.
        Decoding happens from the (possibly fault-corrupted) line
        bytes; ill-formed words raise the illegal-instruction error.
        """
        if warp.ifetch_ready > now:
            return None
        kernel, pc = warp.cta.launch.kernel, warp.stack[-1].pc
        addr = self.gpu.code_base(kernel) + pc * WORD_BYTES
        base = self.l1i.line_base(addr)
        line = self.l1i.lookup(base)
        if line is None:
            binary = kernel.binary
            code_off = base - self.gpu.code_base(kernel)
            chunk = binary[max(code_off, 0):max(code_off, 0)
                           + self.l1i.geometry.line_bytes]
            data = self._ifetch_scratch
            data[:] = 0
            if code_off >= 0 and chunk:
                data[:len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
            self.l1i.fill(base, data)
            warp.ifetch_ready = now + self.config.ifetch_miss_latency
            return None
        offset = addr - base
        decoded = line.meta if isinstance(line.meta, dict) else {}
        inst = decoded.get(offset)
        if inst is None:
            word = bytes(line.data[offset:offset + WORD_BYTES])
            try:
                inst = decode_instruction(word, pc)
            except DecodeError as exc:
                raise InvalidOperation(
                    f"illegal instruction at pc {pc} "
                    f"(kernel {kernel.name}): {exc}") from exc
            decoded[offset] = inst
            line.meta = decoded
        return inst


    # -- issue --------------------------------------------------------------

    def _issue(self, warp: Warp, plan: IssuePlan, now: int) -> None:
        gpu = self.gpu
        inst = plan.inst
        top = warp.stack[-1]
        # memoised on the entry; see repro.sim.warp
        active = top.active
        if active is None:
            active = warp.active_lanes(top)
        guarded = plan.guard is not None
        if guarded:
            guard = warp.preds[plan.guard]
            if plan.steers and gpu.pack is not None:
                # column 0's guard is about to decide the exit mask,
                # the SIMT stack or the memory-latency path for all
                # columns: members whose guard differs leave first
                # (the polarity does not change who differs)
                gpu.pack.check_rows(guard, active)
            # per-column execution mask; column 0's steers control flow
            exec_mask, exec0, any0, fall, any_fall = guard_masks(
                active, guard, plan.guard_negate)
        else:
            exec0 = active
            exec_mask = top.where
        for hear in gpu.on_issue:
            # before execution: the lanes are those it starts from, and
            # an issue that raises has been heard
            hear(self.core_id, warp, plan, exec0, now)
        latency = self.config.alu_latency
        kind = plan.kind

        if kind == _ALU or kind == _MEMORY:
            if kind == _ALU:
                plan.run(plan, warp, exec_mask)
                if plan.sfu:
                    latency = self.config.sfu_latency
            elif not guarded or any0:
                # (only a guard can have emptied the lanes)
                latency = plan.run(self, plan, warp, exec0)
            top.pc += 1
            # the active lanes are what they were (non-empty: the
            # stack was normalized when they last changed), so only
            # reaching the reconvergence point can pop
            if top.pc == top.reconv_pc:
                warp.normalize_stack()
        elif kind == _BRANCH:
            if not guarded or not any_fall:
                top.pc = inst.target_pc
            elif not any0:
                top.pc += 1
            else:
                # the entries own their masks: the injector flips
                # them in place
                reconv = inst.reconv_pc
                top.pc = reconv
                warp.stack.append(StackEntry(inst.pc + 1, fall.copy(), reconv))
                top = StackEntry(inst.target_pc, exec0.copy(), reconv)
                warp.stack.append(top)
            # as above, for the entry now on top
            if top.pc == top.reconv_pc:
                warp.normalize_stack()
        elif kind == _BARRIER:
            top.pc += 1
            warp.at_barrier = True
            warp.cta.try_release_barrier()
        else:  # _EXIT
            warp.exited |= exec0
            live = warp.num_threads - int(
                np.count_nonzero(warp.exited[:warp.num_threads]))
            self.live_threads -= warp.live_count - live
            warp.live_count = live
            gpu.stats.occupancy = None
            top.pc += 1
            warp.normalize_stack()
            if warp.done:
                warp.cta.try_release_barrier()

        # the scoreboard: when the destinations become available
        if plan.dst_regs or plan.dst_preds:
            done_at = now + latency
            for idx in plan.dst_regs:
                warp.reg_ready[idx] = done_at
            for idx in plan.dst_preds:
                warp.pred_ready[idx] = done_at
            if done_at > warp.sb_latest:
                warp.sb_latest = done_at
        gpu.stats.current.instructions += 1

    # -- memory pipeline ----------------------------------------------------------

    def _base(self, plan: IssuePlan, warp: Warp, mask: np.ndarray):
        """Column 0's base register lanes (``None``: ``RZ``).

        Addresses steer state that exists once (caches, banks,
        coalescing, bounds faults), so pack members whose base differs
        on an executing lane leave before they are used.
        """
        if plan.base is None:
            return None
        base = warp.regs[plan.base]
        if self.gpu.pack is not None:
            self.gpu.pack.check_rows(base, mask)
        return base[0]

    def _exec_const(self, plan: IssuePlan, warp: Warp,
                    mask: np.ndarray) -> int:
        offset = plan.offset
        bank = self.gpu.const_bank
        bank.read_word(offset)  # bounds/alignment check
        l1c = self.l1c
        base = offset - offset % l1c.line_bytes
        line = l1c.lookup(base)
        if line is None:
            latency = self.config.l2_hit_latency  # constant-cache miss
            end = min(base + l1c.line_bytes, bank.SIZE)
            data = np.zeros(l1c.line_bytes, dtype=np.uint8)
            data[:end - base] = bank.data[base:end]
            line, _ = l1c.fill(base, data)
        else:
            latency = self.config.const_latency
        if plan.dst is not None:
            at = offset - base
            np.copyto(warp.regs[plan.dst], line.data[at:at + 4].view("<u4"),
                      where=mask)
        return latency

    def _exec_shared(self, plan: IssuePlan, warp: Warp,
                     mask: np.ndarray) -> int:
        cta = warp.cta
        base = self._base(plan, warp, mask)
        lanes, words, word_list, distinct, conflicts = cta.smem_pattern(
            _RZ_WORDS[0] if base is None else base, plan.offset, mask)
        is_load = plan.is_load
        # data is per column (each reads and writes its own smem row),
        # so neither direction needs agreement between pack members
        if is_load:
            if plan.dst is not None:
                warp.regs[plan.dst][:, lanes] = cta.smem_words[:, words]
        else:
            src = warp.regs[plan.src] if plan.src is not None else _RZ_WORDS
            if distinct:
                cta.smem_words[:, words] = src[:, lanes]
            else:
                # two lanes on one word (numpy leaves the winner of a
                # repeated index open): the higher lane's value stays
                for lane, word in zip(lanes, words):
                    cta.smem_words[:, word] = src[:, lane]
        for hear in self.gpu.on_words:
            hear("shared", self.core_id, cta.warps[0].age, word_list, lanes,
                 is_load, warp, plan, self.gpu.cycle)
        # bank-conflict serialisation: worst-case multiplicity over banks
        return self.config.smem_latency + (conflicts - 1)

    def _exec_local(self, plan: IssuePlan, warp: Warp,
                    mask: np.ndarray) -> int:
        addrs = _addresses(plan, self._base(plan, warp, mask))
        lanes = np.nonzero(mask)[0]
        is_load = plan.is_load
        # each lane has its own words: no two lanes share one
        words = warp.local_word_indices(addrs[lanes])
        if is_load:
            if plan.dst is not None:
                warp.regs[plan.dst][:, lanes] = \
                    warp.local_words[:, lanes, words]
        else:
            src = warp.regs[plan.src] if plan.src is not None else _RZ_WORDS
            warp.local_words[:, lanes, words] = src[:, lanes]
        for hear in self.gpu.on_words:
            hear("local", self.core_id, warp.age, words.tolist(), lanes,
                 is_load, warp, plan, self.gpu.cycle)
        return self.config.l1_hit_latency

    def _exec_global(self, plan: IssuePlan, warp: Warp,
                     mask: np.ndarray) -> int:
        cfg = self.config
        gpu = self.gpu
        base = self._base(plan, warp, mask)
        # bounds/alignment of every lane first (address-register faults
        # surface here as crashes, before any cache state changes), and
        # the coalescing: one segment per line touched, by address
        first, (lanes, segments, _, _) = gpu.memory.shape(
            base, plan.offset, mask, gpu.l2.line_bytes)

        if not plan.is_load:
            if plan.src is None:
                src = _RZ_WORDS[0]
            else:
                if gpu.pack is not None:
                    # store/atomic values enter the one global memory
                    gpu.pack.check_rows(warp.regs[plan.src], mask)
                src = warp.regs[plan.src, 0]
            if plan.is_atomic:
                return self._exec_atomic(plan, warp, lanes,
                                         _addresses(plan, base), src)

        via_texture = plan.via_texture
        l1 = self.l1t if via_texture else self.l1d
        use_l2 = cfg.l2_service_all or via_texture
        worst = 0
        if plan.is_load:
            dst = plan.dst
            for line, seg_lanes, offs in segments:
                latency, words = gpu.read_line_via(l1, first + line, use_l2)
                worst = max(worst, latency)
                if dst is not None:
                    # the line exists once: every column loads its words
                    warp.regs[dst][:, seg_lanes] = words[offs]
            for hear in gpu.on_words:
                # the cells read are the lines the caches' ``on_cache``
                # named on the way: no words
                hear("global", self.core_id, warp.age, (), lanes, True, warp,
                     plan, gpu.cycle)
        else:  # global store: write-evict L1, write-allocate L2
            write = gpu.l2_write_words if use_l2 else gpu.dram_write_words
            for line, seg_lanes, offs in segments:
                base = first + line
                worst = max(worst, write(base, offs, src[seg_lanes]))
                if l1 is not None:
                    l1.invalidate(base)
                self.l1t.invalidate(base)
        return worst + (len(segments) - 1) * cfg.segment_overhead

    def _exec_atomic(self, plan: IssuePlan, warp: Warp,
                     lanes: np.ndarray, addrs: np.ndarray,
                     src: np.ndarray) -> int:
        """Atomics bypass L1 and read-modify-write in the L2."""
        gpu = self.gpu
        op = plan.modifiers[0]
        dst = plan.dst  # ATOM's; RED has none
        worst = 0
        for lane in lanes:
            addr = int(addrs[lane])
            old, latency = gpu.l2_rmw(addr, op, int(src[lane]))
            worst = max(worst, latency)
            if dst is not None:
                warp.regs[dst][:, lane] = old
            line_base = addr - addr % gpu.l2.line_bytes
            if self.l1d is not None:
                self.l1d.invalidate(line_base)
            self.l1t.invalidate(line_base)
        for hear in gpu.on_words:  # as after a global load
            hear("global", self.core_id, warp.age, (), lanes, True, warp,
                 plan, gpu.cycle)
        return worst


def _addresses(plan: IssuePlan, base) -> np.ndarray:
    """Per-lane int64 addresses from :meth:`SIMTCore._base`'s lanes."""
    return plan.addrs if base is None else base.astype(np.int64) + plan.offset


#: Memory space -> handler (``global`` and ``tex`` share one).
_MEMORY_HANDLERS = {
    "const": SIMTCore._exec_const,
    "shared": SIMTCore._exec_shared,
    "local": SIMTCore._exec_local,
}
