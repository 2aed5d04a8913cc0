"""The top-level GPU: cores, L2, DRAM, GigaThread scheduler, cycle loop.

The cycle loop visits only the cycles where a warp can issue, a CTA
retired or a rider is due: the next visit is the minimum of the busy
cores' ``ready_at`` (the earliest cycle any of their warps can issue,
also just after an issue; :mod:`repro.sim.core` says why that memo is
exact) and the riders' ``due_cycle()`` (:meth:`GPU._ride`).  A CTA whose
last warp drains puts itself on :attr:`GPU.drained` for the loop to
retire at the end of the iteration; the occupancy integrals read
per-core counters.  Cycles, integrals, checkpoint cycles and state
digests are those of a loop that asks every warp every cycle; only
``loop_iterations`` and ``idle_cycles_skipped`` tell the two apart (a
core may issue an ALU run ahead, at cycles the loop does not visit).
Deadlock (no warp can ever wake) raises
:class:`~repro.sim.errors.DeadlockError`, exceeding the externally set
cycle budget :class:`~repro.sim.errors.SimTimeout`; the fault
classifier maps both to the paper's *Timeout* outcome.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.sim.cache import Cache
from repro.sim.config import GPUConfig
from repro.sim.core import NEVER, SIMTCore
from repro.sim.cta import CTA
from repro.sim.errors import DeadlockError, SimTimeout
from repro.sim.kernel import KernelLaunch
from repro.sim.memory import ConstantBank, GlobalMemory
from repro.sim.stats import StatsCollector


#: What a run reports, each to every listener of it with one
#: signature (``docs/architecture.md``, *Listeners*):
#: ``on_issue(core_id, warp, plan, exec0, now)`` before an instruction
#: executes; ``on_words(space, core_id, owner_age, words, lanes,
#: is_load, warp, plan, now)`` the 32-bit words it touched, one per
#: executing lane; ``on_cache(name, line, kind)`` what became of a
#: cache line; ``on_cta_assigned(core_id, cta, visible_from)``.
EVENTS = ("on_issue", "on_words", "on_cache", "on_cta_assigned")


class GPU:
    """One simulated GPU chip."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.memory = GlobalMemory(config.global_mem_bytes)
        self.const_bank = ConstantBank()
        self.l2 = Cache("L2", config.l2, config.tag_bits)
        self.cores = [SIMTCore(i, config, self)
                      for i in range(config.num_sms)]
        self.stats = StatsCollector()
        #: Global application cycle, cumulative across kernel launches.
        self.cycle = 0
        #: Optional cycle budget; exceeded -> :class:`SimTimeout`.
        self.cycle_budget: Optional[int] = None
        #: Optional fault injector (duck-typed; see repro.faults.injector).
        self.injector = None
        #: Optional checkpoint recorder (duck-typed; see
        #: repro.sim.checkpoint): its ``on_cycle(gpu, launch, queue)``
        #: runs at the top of a cycle-loop iteration once it is due.
        self.checkpointer = None
        #: Optional golden witness of an injected run (duck-typed; see
        #: repro.faults.early_stop): checked after the checkpointer,
        #: before the injector, at matching checkpoint cycles.
        self.convergence = None
        #: When a rider is next due, and a skip's limit (:meth:`_ride`).
        self.due = self.skip_to = NEVER
        #: Who hears what this run does (see :meth:`listen`), and per
        #: event of :data:`EVENTS` their bound methods, in the order
        #: they began to listen; every cache has its own ``on_cache``.
        self.listeners: list = []
        self.on_issue = self.on_words = self.on_cta_assigned = ()
        #: Whether the cycle loop is running: work outside it (launch
        #: entry, host copies) precedes a fault injected at its cycle.
        self.in_loop = False
        #: Width of the runs axis every CTA is born with, and the
        #: lockstep pack riding it (see :mod:`repro.sim.batch`, whose
        #: ``attach`` sets both).  An ordinary run is the width-1 case.
        self.ncols = 1
        self.pack = None
        #: Per-bank busy-until cycles for L2 contention modelling.
        self._l2_bank_busy = [0] * config.l2_banks
        #: Per-channel busy-until cycles for DRAM contention modelling.
        self._dram_busy = [0] * config.dram_channels
        #: Observability counters (plain ints, sampled once per run by
        #: the fault runner): cycle-loop iterations actually executed,
        #: and cycles covered by skips instead of iteration.
        #: Deliberately NOT part of :meth:`snapshot` -- a restored run
        #: counts only its simulated suffix, and the convergence
        #: state digest stays independent of observability.
        self.loop_iterations = 0
        self.idle_cycles_skipped = 0
        #: Code-segment bases per kernel (icache extension): each
        #: kernel's binary image gets a disjoint 1 MB code window.
        self._code_bases: dict = {}
        #: CTAs whose last warp drained (appended by their core), for
        #: the cycle loop to retire at the end of the iteration.
        self.drained: List[CTA] = []

    def listen(self, listener) -> None:
        """Have ``listener`` hear the events of :data:`EVENTS` it has
        a method for, and know its ``gpu``.  The simulator reports; it
        never asks who listens, and a listener changes nothing it is
        told about -- so a run's cycles, digests and records are those
        of the run nobody heard."""
        listener.gpu = self
        self.listeners.append(listener)
        self._sort_listeners()

    def unlisten(self, listener) -> None:
        """``listener`` hears no more of this GPU (and lets go of it)."""
        listener.gpu = None
        self.listeners.remove(listener)
        self._sort_listeners()

    def _sort_listeners(self) -> None:
        caches = (self.l2, *(cache for core in self.cores
                             for cache in core.l1s.values()))
        for event in EVENTS:
            heard = tuple(getattr(each, event) for each in self.listeners
                          if hasattr(each, event))
            for holder in caches if event == "on_cache" else (self,):
                setattr(holder, event, heard)

    def release(self) -> None:
        """Cut the back-references of a finished run.

        Cores point at their GPU, resident CTAs at their core, warps at
        their CTA, and the per-cycle hooks at the GPU: a dropped GPU is
        cyclic garbage that only the collector's next full pass frees,
        so a campaign's peak memory would be however many dead GPUs
        fit between two passes.  With the loops cut, the last reference
        frees the state.  Counters, stats and memory stay readable.
        """
        for core in self.cores:
            core.gpu = None
            for cta in core.ctas:
                cta.release()
        self.drained.clear()
        for listener in list(self.listeners):
            self.unlisten(listener)
        # the pack keeps its ``gpu``; the GPU lets go of the pack
        self.pack = self.injector = self.convergence = None

    # -- CTA scheduling (GigaThread) -------------------------------------

    def max_ctas_per_core(self, launch: KernelLaunch) -> int:
        """Occupancy limit of one SM for this launch.

        The minimum of the CTA-count, thread-count, register-file and
        shared-memory constraints (zero resources never constrain).
        """
        cfg = self.config
        kernel = launch.kernel
        threads = launch.threads_per_cta
        if threads > cfg.max_threads_per_sm:
            raise ValueError(
                f"CTA of {threads} threads exceeds SM capacity "
                f"{cfg.max_threads_per_sm}")
        limit = min(cfg.max_ctas_per_sm, cfg.max_threads_per_sm // threads)
        regs_per_cta = kernel.num_regs * threads
        if regs_per_cta:
            limit = min(limit, cfg.registers_per_sm // regs_per_cta)
        if kernel.smem_bytes:
            limit = min(limit, cfg.shared_mem_per_sm // kernel.smem_bytes)
        if limit < 1:
            raise ValueError(
                f"kernel {kernel.name} cannot fit on an SM "
                f"(regs={kernel.num_regs}/thread, smem={kernel.smem_bytes})")
        return limit

    def _assign_ctas(self, launch: KernelLaunch, queue: List[Tuple[int, int]],
                     limit: int, visible_from: int) -> None:
        # visible_from = first cycle the injector can observe the CTA:
        # the current cycle for launch-entry assignment, the next cycle
        # for mid-loop assignment (the injector for this cycle already
        # fired before retirement freed the slot)
        while queue:
            candidates = [c for c in self.cores if len(c.ctas) < limit]
            if not candidates:
                return
            core = min(candidates, key=lambda c: (len(c.ctas), c.core_id))
            cta_id = queue.pop(0)
            age_base = core.next_warp_age(launch.warps_per_cta)
            cta = CTA(cta_id, launch, core, age_base,
                      self.config.shared_mem_per_sm, ncols=self.ncols)
            core.add_cta(cta)
            for hear in self.on_cta_assigned:
                hear(core.core_id, cta, visible_from)

    # -- the cycle loop -----------------------------------------------------

    def run_launch(self, launch: KernelLaunch) -> "LaunchStats":
        """Run one kernel launch to completion; returns its stats."""
        self.const_bank.load_params(list(launch.params))
        for core in self.cores:
            core.invalidate_l1()
        stats = self.stats.begin_launch(
            launch.kernel.name, self.cycle, self.config.max_warps_per_sm)
        stats.grid_ctas = launch.num_ctas
        stats.threads_per_cta = launch.threads_per_cta
        stats.regs_per_thread = launch.kernel.num_regs
        stats.smem_bytes_per_cta = launch.kernel.smem_bytes
        # force assembly before timing starts so errors surface early
        launch.kernel.instructions  # noqa: B018

        gx, gy = launch.grid
        queue = [(x, y) for y in range(gy) for x in range(gx)]
        limit = self.max_ctas_per_core(launch)
        self._assign_ctas(launch, queue, limit, self.cycle)
        return self._cycle_loop(launch, queue, limit)

    def resume_launch(self, launch: KernelLaunch,
                      queue: List[Tuple[int, int]]) -> "LaunchStats":
        """Re-enter the cycle loop after :meth:`restore`.

        The launch-entry work of :meth:`run_launch` (parameter load, L1
        invalidation, stats record, CTA assignment) is *not* redone --
        all of it is part of the restored state.
        """
        launch.kernel.instructions  # noqa: B018 -- force assembly
        limit = self.max_ctas_per_core(launch)
        return self._cycle_loop(launch, queue, limit)

    def _cycle_loop(self, launch: KernelLaunch, queue: List[Tuple[int, int]],
                    limit: int) -> "LaunchStats":
        # cores holding a CTA, in core order (the order in which their
        # memory traffic meets the shared L2/DRAM); changes only when
        # a CTA retires
        busy = [core for core in self.cores if core.ctas]
        # with the L1I modelled, asking a warp is a cache access:
        # every visited cycle asks, and an issue visits the next one
        always_ask = self.config.model_icache
        # the first cycle past the budget
        late = NEVER if self.cycle_budget is None else self.cycle_budget + 1
        drained = self.drained
        # the first iteration asks every rider: a launch's first witness
        self.due, every = self.cycle, True
        self.in_loop = True
        try:
            # the fp32 handlers divide by zero and overflow like the
            # hardware does: silently
            with np.errstate(all="ignore"):
                while queue or busy:
                    self.loop_iterations += 1
                    now = self.cycle
                    if now >= self.due:
                        self._ride(launch, queue, every)
                        every = False
                    issued = False
                    wake = NEVER
                    for core in busy:
                        if core.ready_at <= now or always_ask:
                            # runs ahead stay short of the budget and
                            # wait for the launch's last CTA to arrive
                            if core.cycle(now, 0 if queue else late - 1):
                                issued = True
                        if core.ready_at < wake:
                            wake = core.ready_at

                    # CTAs whose last warp drained this iteration
                    retired = bool(drained)
                    if retired:
                        for cta in drained:
                            cta.core.retire(cta)
                        drained.clear()
                        if queue:
                            self._assign_ctas(launch, queue, limit,
                                              visible_from=now + 1)
                    elif wake == NEVER and not issued:
                        raise DeadlockError(now, "no warp can make progress")
                    # visit the cycle after an issue where a visit may
                    # capture, re-assert, access the L1I, time out or
                    # find a deadlock (wake == NEVER)
                    if retired or issued and (always_ask or wake >= late
                                              or self.due <= now + 1):
                        delta = 1
                    else:
                        delta = max(1, min(wake, self.skip_to) - now)
                        self.idle_cycles_skipped += delta - 1
                    # over the cores busy when the iteration began,
                    # with the residency they have now
                    self.stats.sample(busy, delta)
                    self.cycle = now + delta
                    if self.cycle >= late:
                        raise SimTimeout(self.cycle)
                    if retired:
                        busy = [core for core in self.cores if core.ctas]
        finally:
            self.in_loop = False

        return self.stats.end_launch(self.cycle)

    def _ride(self, launch: KernelLaunch, queue: List[Tuple[int, int]],
              every: bool) -> None:
        """Ask the riders due now (``every``: all) in capture order and
        note when each is next due; all but the checkpointer limit a
        skip (a capture fires at the first visit past its target)."""
        now = self.cycle
        self.due = self.skip_to = NEVER
        for rider in (self.checkpointer, self.convergence, self.injector):
            if rider is None:
                continue
            if every or _due(rider) <= now:
                if rider is self.injector:
                    rider.apply_due(self, now)
                else:
                    rider.on_cycle(self, launch, queue)
            due = _due(rider)
            self.due = min(self.due, due)
            if rider is not self.checkpointer and now < due < self.skip_to:
                self.skip_to = due

    def code_base(self, kernel) -> int:
        """Base address of a kernel's code segment (icache extension).

        Keyed by kernel *name* (unique within an application), not
        object identity, so the mapping survives snapshot/restore and
        is reproducible across processes.
        """
        base = self._code_bases.get(kernel.name)
        if base is None:
            base = (len(self._code_bases) + 1) * (1 << 20)
            self._code_bases[kernel.name] = base
        return base

    # -- checkpointing -----------------------------------------------------

    def parts(self, launch: KernelLaunch, queue: List[Tuple[int, int]]):
        """The complete architectural + timing state mid-launch as
        ordered ``(name, capture)`` parts, ``capture()`` copying one
        out as plain values: ``rest`` (what exists once per chip and
        is small; the in-flight ``launch`` as the descriptor a restore
        validates the replayed launch against, ``queue`` its
        unassigned CTAs), ``memory`` (the page-hash table), ``l2``,
        and per core ``c<i>`` (scheduler state), ``c<i>.l1d`` ..
        ``c<i>.l1i``, per resident CTA ``c<i>.cta<j>`` (shared memory,
        counters) and ``c<i>.cta<j>.w<k>`` (a warp).  The one
        description of a GPU's state: :meth:`snapshot` captures every
        part, :meth:`restore` reads them back by name, a state digest
        is :func:`repro.sim.checkpoint.part_digest` of each.
        """
        yield "rest", lambda: {
            "cycle": self.cycle,
            "launch": {
                "kernel": launch.kernel.name,
                "grid": tuple(launch.grid),
                "block": tuple(launch.block),
                "params": tuple(int(p) for p in launch.params),
            },
            "queue": [tuple(c) for c in queue],
            "l2_bank_busy": list(self._l2_bank_busy),
            "dram_busy": list(self._dram_busy),
            "code_bases": dict(self._code_bases),
            "const_bank": self.const_bank.snapshot(),
            "stats": self.stats.snapshot(),
        }
        yield "memory", self.memory.snapshot
        yield "l2", self.l2.snapshot
        for core in self.cores:
            yield from core.parts()

    def snapshot(self, launch: KernelLaunch,
                 queue: List[Tuple[int, int]]) -> dict:
        """Capture every part of :meth:`parts`, by name and in order."""
        return {name: capture() for name, capture in self.parts(launch, queue)}

    def part_holding(self, site) -> Optional[str]:
        """Name of the part that holds a fault site's cell (duck-typed
        :class:`repro.faults.sites.Site`): its cache, its warp, or for
        shared memory its CTA; ``None`` once that CTA has retired."""
        if site.cache is not None:
            level = site.cache.split(".")[0].lower()
            return level if site.core is None else f"c{site.core}.{level}"
        for j, cta in enumerate(self.cores[site.core].ctas):
            for k, warp in enumerate(cta.warps):
                if warp.age == site.age:
                    return f"c{site.core}.cta{j}" + (
                        "" if site.kind == "shared" else f".w{k}")
        return None

    def restore(self, snap: dict, launch: KernelLaunch,
                fetch_page: Callable[[bytes], bytes]
                ) -> List[Tuple[int, int]]:
        """Rebuild the GPU from a :meth:`snapshot` dict.

        ``launch`` must be the replayed KernelLaunch matching the
        snapshot's launch descriptor (the caller validates);
        ``fetch_page`` supplies the bytes of the DRAM pages that differ
        (see :meth:`GlobalMemory.restore`; the snapshot holds only
        their hashes).  Returns the restored CTA queue to pass to
        :meth:`resume_launch`.
        """
        # first: the one step that can fail (an unreadable page)
        self.memory.restore(snap["memory"], fetch_page)
        rest = snap["rest"]
        self.cycle = rest["cycle"]
        self._l2_bank_busy = list(rest["l2_bank_busy"])
        self._dram_busy = list(rest["dram_busy"])
        self._code_bases = dict(rest["code_bases"])
        self.const_bank.restore(rest["const_bank"])
        self.l2.restore(snap["l2"])
        self.stats.restore(rest["stats"])
        # a snapshot is taken between iterations: nothing awaits retirement
        self.drained.clear()
        for core in self.cores:
            core.restore(snap, launch)
        return [tuple(c) for c in rest["queue"]]

    # -- memory hierarchy services (called by the cores) ---------------------

    def _contention(self, base: int, busy: List[int], service: int) -> int:
        """Conflict delay of an access to line ``base`` now: ``busy``
        holds the L2 banks' or DRAM channels' busy-until cycles (lines
        interleave, paper IV.B.5), each serving one per ``service``."""
        at = base // self.l2.line_bytes % len(busy)
        delay = max(0, busy[at] - self.cycle)
        busy[at] = self.cycle + delay + service
        return delay

    def _dram_contention(self, base: int) -> int:
        return self._contention(base, self._dram_busy,
                                self.config.dram_service)

    def _l2_line(self, base: int,
                 for_write: bool = False) -> Tuple["CacheLine", int]:
        """Return the (resident) L2 line for ``base`` and the access latency."""
        contention = self._contention(base, self._l2_bank_busy,
                                      self.config.l2_bank_service)
        line = self.l2.lookup(base, for_write=for_write)
        if line is not None:
            return line, self.config.l2_hit_latency + contention
        contention += self._dram_contention(base)
        line, writeback = self.l2.fill(
            base, self.memory.read_line(base, self.l2.line_bytes))
        if writeback is not None:
            self.memory.write_line(*writeback)
        return line, self.config.dram_latency + contention

    def read_line_via(self, l1: Optional[Cache], base: int,
                      use_l2: bool = True) -> Tuple[int, np.ndarray]:
        """Read path for one coalesced segment.

        Returns ``(latency, words)`` where ``words`` is the uint32 view
        of the line now resident in the highest cache level -- so
        injected bits in that level are observed, exactly like
        hardware.  ``use_l2=False`` models the GPGPU-Sim mode where the
        L2 services texture traffic only (the request goes straight to
        DRAM past the L2).
        """
        if l1 is not None:
            line = l1.lookup(base)
            if line is not None:
                return self.config.l1_hit_latency, line.data.view("<u4")
        if use_l2:
            l2_line, latency = self._l2_line(base)
            data, absorb = l2_line.data, self._l2_merge_line
        else:
            data = self.memory.read_line(base, self.l2.line_bytes)
            latency = self.config.dram_latency + self._dram_contention(base)
            absorb = self.memory.write_line
        if l1 is None:
            return latency, data.view("<u4")
        line, writeback = l1.fill(base, data)
        if writeback is not None:
            absorb(*writeback)
        return latency, line.data.view("<u4")

    def dram_write_words(self, base: int, offsets, values: np.ndarray) -> int:
        """Direct DRAM word writes (L2 bypass mode for non-texture);
        ``offsets`` as for :meth:`l2_write_words`."""
        line_bytes = self.l2.line_bytes
        if base + line_bytes <= self.memory.size:
            line = self.memory.read_line(base, line_bytes)
            line.view("<u4")[offsets] = values
            self.memory.write_line(base, line)
        for stale, *_ in self._peek_l2(base, 1):
            stale.data.view("<u4")[offsets] = values
        return self.config.dram_latency + self._dram_contention(base)

    def l2_write_words(self, base: int, offsets, values: np.ndarray) -> int:
        """Vectorised word writes into one L2 line (write-allocate):
        ``values`` at word ``offsets``, an index array or a slice (a
        whole line)."""
        line, latency = self._l2_line(base, for_write=True)
        line.data.view("<u4")[offsets] = values
        line.dirty = True
        return latency

    def _l2_merge_line(self, base: int, data: np.ndarray) -> None:
        """Absorb an L1 writeback line into the L2 (write-allocate)."""
        line, _ = self._l2_line(base, for_write=True)
        line.data[:] = data
        line.dirty = True

    def l2_rmw(self, addr: int, op: str, value: int) -> Tuple[int, int]:
        """Atomic read-modify-write in the L2; returns (old value, latency)."""
        base = self.l2.line_base(addr)
        line, latency = self._l2_line(base)
        old = self.l2.read_word(line, addr)
        def _s32(x):
            return x - (1 << 32) if x & 0x80000000 else x

        if op == "ADD":
            new = (old + value) & 0xFFFFFFFF
        elif op == "MAX":
            new = max(_s32(old), _s32(value)) & 0xFFFFFFFF
        elif op == "MIN":
            new = min(_s32(old), _s32(value)) & 0xFFFFFFFF
        elif op == "EXCH":
            new = value & 0xFFFFFFFF
        else:  # pragma: no cover - assembler restricts modifiers
            raise ValueError(f"unknown atomic op {op}")
        self.l2.write_word(line, addr, int(new))
        return old, latency

    # -- host-side access (cudaMemcpy) -------------------------------------------

    def _peek_l2(self, addr: int, nbytes: int):
        """The resident L2 lines overlapping ``[addr, addr + nbytes)``,
        seen past LRU and counters (a ``peek`` event each), each as
        ``(line, base, lo, hi)``: its base address and the overlap."""
        line_bytes = self.l2.line_bytes
        for base in range(addr - addr % line_bytes, addr + nbytes,
                          line_bytes):
            line = self.l2.peek(base, observed=True)
            if line is not None:
                yield (line, base, max(base, addr),
                       min(base + line_bytes, addr + nbytes))

    def host_read(self, addr: int, nbytes: int) -> np.ndarray:
        """Host read of device memory, observing resident L2 lines.

        Clean-but-fault-corrupted L2 lines are visible to the host this
        way, as they would be through the real L2 on a DtoH copy.
        """
        out = self.memory.data[addr:addr + nbytes].copy()
        for line, base, lo, hi in self._peek_l2(addr, nbytes):
            out[lo - addr:hi - addr] = line.data[lo - base:hi - base]
        return out

    def host_write(self, addr: int, data: np.ndarray) -> None:
        """Host write to device memory, updating resident L2 lines."""
        self.memory.write_bytes(addr, data)
        for line, base, lo, hi in self._peek_l2(addr, len(data)):
            line.data[lo - base:hi - base] = data[lo - addr:hi - addr]


def _due(rider) -> int:
    """``rider.due_cycle()`` (``None``: never); 0 when it cannot say."""
    due = rider.due_cycle() if hasattr(rider, "due_cycle") else 0
    return NEVER if due is None else due
