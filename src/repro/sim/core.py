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

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.encoding import WORD_BYTES, DecodeError, decode_instruction
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.isa.operands import ConstRef, MemRef
from repro.sim.cache import Cache
from repro.sim.config import GPUConfig
from repro.sim.cta import CTA
from repro.sim.errors import InvalidOperation
from repro.sim.exec_unit import execute_alu, read_pred
from repro.sim.warp import StackEntry, Warp

#: Sentinel wake cycle meaning "no wake time known".
NEVER = 1 << 62

#: Number of shared-memory banks (4-byte interleaved).
SMEM_BANKS = 32

#: Read-only fallback lanes, hoisted out of the per-issue hot path:
#: no-guard branch fall-through, RZ address bases, RZ store sources.
#: Consumers only read (or ``.copy()``) them, never write in place.
_NO_LANES = np.zeros(32, dtype=bool)
_NO_LANES.setflags(write=False)
_RZ_BASE = np.zeros(32, dtype=np.int64)
_RZ_BASE.setflags(write=False)
_RZ_WORDS = np.zeros((1, 32), dtype=np.uint32)  # any width broadcasts
_RZ_WORDS.setflags(write=False)


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
        self.ctas: List[CTA] = []
        self.scheduler_policy = "gto"
        self._last_issued: Dict[int, Optional[Warp]] = {
            i: None for i in range(config.num_schedulers_per_sm)}
        self._age_counter = 0
        self._sched_cache: Optional[List[List[Warp]]] = None
        #: Scratch line buffer for L1I miss fills (re-zeroed per use;
        #: :meth:`Cache.fill` copies, so reuse is safe).
        self._ifetch_scratch = np.zeros(self.l1i.geometry.line_bytes,
                                        dtype=np.uint8)

    # -- CTA residency ---------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether any CTA is resident."""
        return bool(self.ctas)

    def next_warp_age(self, nwarps: int) -> int:
        """Reserve ``nwarps`` consecutive age slots for a new CTA."""
        base = self._age_counter
        self._age_counter += nwarps
        return base

    def add_cta(self, cta: CTA) -> None:
        """Make a CTA resident on this core."""
        self.ctas.append(cta)
        self._sched_cache = None

    def retire_finished_ctas(self) -> int:
        """Drop completed CTAs; returns how many retired."""
        finished = [cta for cta in self.ctas if cta.done]
        if finished:
            self.ctas = [cta for cta in self.ctas if not cta.done]
            self._sched_cache = None
            for cta in finished:
                cta.release()
        return len(finished)

    def live_warp_count(self) -> int:
        """Resident warps that have not completed."""
        return sum(cta.live_warp_count for cta in self.ctas)

    def live_thread_count(self) -> int:
        """Resident threads that have not exited."""
        return sum(cta.live_thread_count() for cta in self.ctas)

    def invalidate_l1(self) -> None:
        """Kernel-boundary L1 reset (L1s are not persistent across kernels)."""
        if self.l1d is not None:
            self.l1d.invalidate_all()
        self.l1t.invalidate_all()
        self.l1c.invalidate_all()
        self.l1i.invalidate_all()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture caches, resident CTAs and scheduler state.

        ``_last_issued`` warps are recorded by their (core-unique) age;
        the per-scheduler bucket cache is derived and rebuilt lazily.
        """
        return {
            "scheduler_policy": self.scheduler_policy,
            "age_counter": self._age_counter,
            "last_issued": {sid: (w.age if w is not None else None)
                            for sid, w in self._last_issued.items()},
            "l1d": self.l1d.snapshot() if self.l1d is not None else None,
            "l1t": self.l1t.snapshot(),
            "l1c": self.l1c.snapshot(),
            "l1i": self.l1i.snapshot(),
            "ctas": [cta.snapshot() for cta in self.ctas],
        }

    def restore(self, snap: dict, launch) -> None:
        """Rebuild core state from a :meth:`snapshot` dict.

        ``launch`` must be the KernelLaunch the snapshot was taken in;
        resident CTAs are reconstructed against it.
        """
        self.scheduler_policy = snap["scheduler_policy"]
        self._age_counter = snap["age_counter"]
        if self.l1d is not None:
            self.l1d.restore(snap["l1d"])
        self.l1t.restore(snap["l1t"])
        self.l1c.restore(snap["l1c"])
        self.l1i.restore(snap["l1i"])
        self.ctas = [CTA.from_snapshot(s, launch, self)
                     for s in snap["ctas"]]
        self._sched_cache = None
        by_age = {w.age: w for cta in self.ctas for w in cta.warps}
        # ages referencing warps of already-retired CTAs resolve to
        # None -- equivalent, since _candidate_order treats a warp that
        # is no longer resident exactly like None
        self._last_issued = {
            sid: (by_age.get(age) if age is not None else None)
            for sid, age in snap["last_issued"].items()}

    # -- scheduling --------------------------------------------------------

    def _scheduler_warps(self, sched_id: int) -> List[Warp]:
        if self._sched_cache is None:
            nsched = self.config.num_schedulers_per_sm
            cache: List[List[Warp]] = [[] for _ in range(nsched)]
            for cta in self.ctas:
                for warp in cta.warps:
                    cache[warp.age % nsched].append(warp)
            for bucket in cache:
                bucket.sort(key=lambda w: w.age)
            self._sched_cache = cache
        return self._sched_cache[sched_id]

    def _candidate_order(self, sched_id: int, warps: List[Warp]) -> List[Warp]:
        last = self._last_issued.get(sched_id)
        if self.scheduler_policy == "gto":
            if last is None or last not in warps:
                return warps
            ordered = [last]
            ordered.extend(w for w in warps if w is not last)
            return ordered
        # LRR: rotate to just after the last issued warp
        if last is None or last not in warps:
            return warps
        pivot = warps.index(last) + 1
        return warps[pivot:] + warps[:pivot]

    def cycle(self, now: int) -> Tuple[bool, int]:
        """Run one cycle; returns ``(issued_anything, earliest_wake)``."""
        issued = False
        wake = NEVER
        for sched_id in range(self.config.num_schedulers_per_sm):
            warps = self._scheduler_warps(sched_id)
            if not warps:
                continue
            for warp in self._candidate_order(sched_id, warps):
                if warp.done or warp.at_barrier:
                    continue
                if self.config.model_icache:
                    inst = self._fetch(warp, now)
                    if inst is None:
                        wake = min(wake, warp.ifetch_ready)
                        continue
                else:
                    if not 0 <= warp.pc < len(warp.cta.instructions):
                        # control-unit faults can corrupt the pc right
                        # out of the kernel; hardware would fetch
                        # garbage and fault -- classify as a crash
                        raise InvalidOperation(
                            f"pc {warp.pc} outside kernel "
                            f"{warp.cta.launch.kernel.name} "
                            f"(0..{len(warp.cta.instructions) - 1})")
                    inst = warp.cta.instructions[warp.pc]
                if warp.sb_latest > now:
                    ready = warp.operands_ready_at(inst)
                    if ready > now:
                        wake = min(wake, ready)
                        continue
                self._issue(warp, inst, now)
                self._last_issued[sched_id] = warp
                issued = True
                break
        return issued, wake

    # -- instruction fetch (icache extension) ------------------------------

    def _fetch(self, warp: Warp, now: int) -> Optional[Instruction]:
        """Fetch + decode the warp's next instruction through the L1I.

        Returns ``None`` while the warp is fetch-stalled on a miss.
        Decoding happens from the (possibly fault-corrupted) line
        bytes; ill-formed words raise the illegal-instruction error.
        """
        if warp.ifetch_ready > now:
            return None
        kernel = warp.cta.launch.kernel
        addr = self.gpu.code_base(kernel) + warp.pc * WORD_BYTES
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
                inst = decode_instruction(word, warp.pc)
            except DecodeError as exc:
                raise InvalidOperation(
                    f"illegal instruction at pc {warp.pc} "
                    f"(kernel {kernel.name}): {exc}") from exc
            decoded[offset] = inst
            line.meta = decoded
        return inst

    # -- issue --------------------------------------------------------------

    def _issue(self, warp: Warp, inst: Instruction, now: int) -> None:
        cfg = self.config
        gpu = self.gpu
        klass = inst.spec.klass
        active = warp.active_mask()
        if inst.guard is not None:
            guard = read_pred(warp, inst.guard)
            if gpu.pack is not None and (inst.is_memory or klass in (
                    OpClass.EXIT, OpClass.BRANCH)):
                # column 0's guard is about to decide the exit mask,
                # the SIMT stack or the memory-latency path for all
                # columns: members whose guard differs leave first
                gpu.pack.check_rows(guard, active)
            # per-column execution mask; column 0's steers control flow
            exec_mask = active & guard
            exec0 = exec_mask[0]
        else:
            guard = None
            exec_mask = exec0 = active
        lv = gpu.liveness
        if lv is not None:
            # before execution: kill-coverage needs pre-exec lane state
            lv.on_issue(self.core_id, warp, inst, exec0, now)
        prop = gpu.propagation
        if prop is not None and prop.armed:
            # corrupted-register reads/overwrites + consumer-chain taint
            prop.on_issue(self.core_id, warp, inst, exec0, now)
        latency = cfg.alu_latency
        top = warp.stack[-1]

        if klass is OpClass.BARRIER:
            top.pc += 1
            warp.at_barrier = True
            warp.cta.try_release_barrier()
        elif klass is OpClass.EXIT:
            warp.exited |= exec0
            warp.live_count = warp.num_threads - int(
                np.count_nonzero(warp.exited[:warp.num_threads]))
            top.pc += 1
            warp.normalize_stack()
            if warp.done:
                warp.cta.try_release_barrier()
        elif klass is OpClass.BRANCH:
            taken = exec0
            fall = (active & ~guard[0]) if guard is not None else _NO_LANES
            if not fall.any():
                top.pc = inst.target_pc
            elif not taken.any():
                top.pc += 1
            else:
                reconv = inst.reconv_pc
                top.pc = reconv
                warp.stack.append(StackEntry(inst.pc + 1, fall.copy(), reconv))
                warp.stack.append(StackEntry(inst.target_pc, taken.copy(),
                                             reconv))
            warp.normalize_stack()
        else:
            if inst.is_memory:
                if exec0.any():
                    latency = self._exec_memory(inst, warp, exec0)
            elif klass is OpClass.SFU:
                execute_alu(inst, warp, exec_mask)
                latency = cfg.sfu_latency
            else:
                execute_alu(inst, warp, exec_mask)
            top.pc += 1
            warp.normalize_stack()

        warp.mark_writes(inst, now + latency)
        if lv is not None and warp.done:
            lv.on_warp_done(self.core_id, warp, now)
        gpu.stats.on_issue(inst)
        if gpu.tracer is not None:
            gpu.tracer.on_issue(now, self, warp, inst, exec0)

    # -- memory pipeline ----------------------------------------------------------

    def _exec_memory(self, inst: Instruction, warp: Warp,
                     mask: np.ndarray) -> int:
        space = inst.spec.space
        if space == "const":
            return self._exec_const(inst, warp, mask)
        if space == "shared":
            return self._exec_shared(inst, warp, mask)
        if space == "local":
            return self._exec_local(inst, warp, mask)
        return self._exec_global(inst, warp, mask)

    def _addresses(self, inst: Instruction, warp: Warp,
                   mask: np.ndarray) -> np.ndarray:
        """Per-lane addresses, from column 0's base register.

        Addresses steer state that exists once (caches, banks,
        coalescing, bounds faults), so pack members whose base differs
        on an executing lane leave before they are used.
        """
        mem = inst.srcs[0]
        assert isinstance(mem, MemRef)
        if mem.base.is_rz:
            return _RZ_BASE + mem.offset
        base = warp.regs[mem.base.index]
        if self.gpu.pack is not None:
            self.gpu.pack.check_rows(base, mask)
        return base[0].astype(np.int64) + mem.offset

    def _exec_const(self, inst: Instruction, warp: Warp,
                    mask: np.ndarray) -> int:
        const = inst.srcs[0]
        assert isinstance(const, ConstRef)
        bank = self.gpu.const_bank
        bank.read_word(const.offset)  # bounds/alignment check
        line_bytes = self.l1c.geometry.line_bytes
        base = const.offset - const.offset % line_bytes
        line = self.l1c.lookup(base)
        if line is None:
            latency = self.config.l2_hit_latency  # constant-cache miss
            end = min(base + line_bytes, bank.SIZE)
            data = np.zeros(line_bytes, dtype=np.uint8)
            data[:end - base] = bank.data[base:end]
            self.l1c.fill(base, data)
            line = self.l1c.peek(base)
        else:
            latency = self.config.const_latency
        value = self.l1c.read_word(line, const.offset)
        dst = inst.dsts[0]
        if not dst.is_rz:
            warp.regs[dst.index][:, mask] = np.uint32(value)
        return latency

    def _exec_shared(self, inst: Instruction, warp: Warp,
                     mask: np.ndarray) -> int:
        addrs = self._addresses(inst, warp, mask)
        lanes = np.nonzero(mask)[0]
        cta = warp.cta
        is_load = inst.spec.klass is OpClass.LOAD
        # data is per column (each reads and writes its own smem row),
        # so neither direction needs agreement between pack members
        if is_load:
            dst = inst.dsts[0]
            out = warp.regs[dst.index]
            for lane in lanes:
                words = cta.smem_read(int(addrs[lane]))
                if not dst.is_rz:
                    out[:, lane] = words
        else:
            src = warp.regs[inst.srcs[1].index] if not inst.srcs[1].is_rz \
                else _RZ_WORDS
            for lane in lanes:
                cta.smem_write(int(addrs[lane]), src[:, lane])
        lv = self.gpu.liveness
        if lv is not None:
            age_base = cta.warps[0].age
            for lane in lanes:
                word = cta._resolve_smem(int(addrs[lane])) >> 2
                lv.on_smem(self.core_id, age_base, word, is_load)
        prop = self.gpu.propagation
        if prop is not None and prop.armed:
            prop.on_shared_access(self.core_id, cta.warps[0].age, cta,
                                  warp, inst, addrs, lanes, is_load,
                                  self.gpu.cycle)
        # bank-conflict serialisation: worst-case multiplicity over banks
        bank_counts: Dict[int, int] = {}
        for addr in {int(addrs[lane]) for lane in lanes}:
            bank = (addr >> 2) % SMEM_BANKS
            bank_counts[bank] = bank_counts.get(bank, 0) + 1
        conflicts = max(bank_counts.values()) if bank_counts else 1
        return self.config.smem_latency + (conflicts - 1)

    def _exec_local(self, inst: Instruction, warp: Warp,
                    mask: np.ndarray) -> int:
        addrs = self._addresses(inst, warp, mask)
        lanes = np.nonzero(mask)[0]
        is_load = inst.spec.klass is OpClass.LOAD
        if is_load:
            dst = inst.dsts[0]
            out = warp.regs[dst.index]
            for lane in lanes:
                words = warp.local_read(int(lane), int(addrs[lane]))
                if not dst.is_rz:
                    out[:, lane] = words
        else:
            src = warp.regs[inst.srcs[1].index] if not inst.srcs[1].is_rz \
                else _RZ_WORDS
            for lane in lanes:
                warp.local_write(int(lane), int(addrs[lane]), src[:, lane])
        lv = self.gpu.liveness
        if lv is not None:
            for lane in lanes:
                lv.on_local(self.core_id, warp.age, int(lane),
                            int(addrs[lane]) >> 2, is_load)
        prop = self.gpu.propagation
        if prop is not None and prop.armed:
            prop.on_local_access(self.core_id, warp, inst, addrs, lanes,
                                 is_load, self.gpu.cycle)
        return self.config.l1_hit_latency

    def _exec_global(self, inst: Instruction, warp: Warp,
                     mask: np.ndarray) -> int:
        cfg = self.config
        gpu = self.gpu
        addrs = self._addresses(inst, warp, mask)
        lanes = np.nonzero(mask)[0]
        klass = inst.spec.klass
        via_texture = inst.spec.space == "tex"

        # bounds/alignment check every lane first (address-register faults
        # surface here as crashes, before any cache state changes)
        lane_addrs = addrs[lanes]
        gpu.memory.check_many(lane_addrs)

        if klass is not OpClass.LOAD:
            src_reg = inst.srcs[1]
            if src_reg.is_rz:
                src = _RZ_WORDS[0]
            else:
                if gpu.pack is not None:
                    # store/atomic values enter the one global memory
                    gpu.pack.check_rows(warp.regs[src_reg.index], mask)
                src = warp.regs[src_reg.index, 0]
        if klass is OpClass.ATOMIC:
            return self._exec_atomic(inst, warp, lanes, addrs, src)

        l1: Optional[Cache]
        if via_texture:
            l1 = self.l1t
        else:
            l1 = self.l1d

        line_bytes = gpu.l2.geometry.line_bytes
        bases = lane_addrs - lane_addrs % line_bytes
        unique_bases = np.unique(bases)
        use_l2 = cfg.l2_service_all or via_texture

        worst = 0
        if klass is OpClass.LOAD:
            dst = inst.dsts[0]
            for base in unique_bases:
                base = int(base)
                latency, words = gpu.read_line_via(l1, base, use_l2=use_l2)
                worst = max(worst, latency)
                if not dst.is_rz:
                    seg = bases == base
                    seg_lanes = lanes[seg]
                    offs = (lane_addrs[seg] - base) >> 2
                    # the line exists once: every column loads its words
                    warp.regs[dst.index][:, seg_lanes] = words[offs]
            prop = gpu.propagation
            if prop is not None and prop.armed:
                # a watched cache line consumed this cycle makes this
                # load the consumer (taints its destination)
                prop.note_load(self.core_id, warp, inst, gpu.cycle)
        else:  # global store: write-evict L1, write-allocate L2
            for base in unique_bases:
                base = int(base)
                seg = bases == base
                offs = (lane_addrs[seg] - base) >> 2
                if use_l2:
                    latency = gpu.l2_write_words(base, offs,
                                                 src[lanes[seg]])
                else:
                    latency = gpu.dram_write_words(base, offs,
                                                   src[lanes[seg]])
                if l1 is not None:
                    l1.invalidate(base)
                self.l1t.invalidate(base)
                worst = max(worst, latency)
        return worst + (len(unique_bases) - 1) * cfg.segment_overhead

    def _exec_atomic(self, inst: Instruction, warp: Warp,
                     lanes: np.ndarray, addrs: np.ndarray,
                     src: np.ndarray) -> int:
        """Atomics bypass L1 and read-modify-write in the L2."""
        gpu = self.gpu
        op = inst.modifiers[0]
        returns = inst.opcode == "ATOM"
        dst = inst.dsts[0] if returns else None
        worst = 0
        for lane in lanes:
            addr = int(addrs[lane])
            old, latency = gpu.l2_rmw(addr, op, int(src[lane]))
            worst = max(worst, latency)
            if returns and dst is not None and not dst.is_rz:
                warp.regs[dst.index][:, lane] = old
            line_base = addr - addr % gpu.l2.geometry.line_bytes
            if self.l1d is not None:
                self.l1d.invalidate(line_base)
            self.l1t.invalidate(line_base)
        prop = gpu.propagation
        if prop is not None and prop.armed:
            prop.note_load(self.core_id, warp, inst, gpu.cycle)
        return worst
