"""The injection engine: applies fault masks to live GPU state.

The GPU cycle loop calls :meth:`Injector.apply_due` every iteration;
when a mask's cycle is reached, the injector resolves its *spatial*
target from run-time liveness (a random active thread/warp for the
register file and local memory, random active CTAs for shared memory,
random busy SIMT cores for the L1 caches -- section IV.B of the
paper) and corrupts the mask's bits.  Every application is logged so
the campaign parser can attribute outcomes.

*What* the corruption does to the stored bits is delegated to the
mask's :class:`~repro.faults.models.FaultModel` strategy: the default
``transient`` model XORs (the paper's single-event upset, bit-exact
with the pre-strategy injector), ``stuck_at_0``/``stuck_at_1`` force
the bits low/high *and persist* -- the injector re-asserts every
persistent site at the top of each subsequent cycle-loop iteration,
so overwrites and cache refills are re-corrupted like a stuck SRAM
cell.  Cycles the GPU idle-skips change no state, so skipping the
re-assertion there is exact.

Two spatial handlers go beyond the paper's storage arrays into the
SIMT control units (:data:`Structure.SIMT_STACK`,
:data:`Structure.SCOREBOARD`): reconvergence-stack entries (active
mask / pc / reconvergence pc fields) and per-register scoreboard
ready cycles.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.mask import FaultMask
from repro.faults.models import FaultModel, get_model
from repro.faults.targets import (SIMT_STACK_ENTRY_BITS, Structure)


class Injector:
    """Applies a list of :class:`FaultMask` at their due cycles.

    ``faults`` is the mask list; each mask names its own
    :class:`~repro.faults.models.FaultModel` (``mask.fault_model``).
    ``cache_hook_mode`` switches cache injections from direct bit
    flips to the paper's deferred hook mechanism (see
    :meth:`repro.sim.cache.Cache.arm_hook`); hooks encode one-shot flip semantics,
    so persistent models reject the combination.

    ``column`` is the column of the runs axis (see
    :mod:`repro.sim.warp`) whose registers, local and shared memory
    the faults corrupt: 0, the run itself, except for the members of a
    lockstep pack.  Target selection never depends on it, so a pack
    member's log is the log of its solo run.
    """

    def __init__(self, faults: Optional[Sequence[FaultMask]] = None,
                 cache_hook_mode: bool = False, column: int = 0):
        self.masks: List[FaultMask] = sorted(faults or (),
                                             key=lambda m: m.cycle)
        self.cache_hook_mode = cache_hook_mode
        self.column = column
        for mask in self.masks:
            model = get_model(mask.fault_model)
            if cache_hook_mode and not model.supports_cache_hooks:
                raise ValueError(
                    f"fault model {model.name!r} does not support "
                    "cache_hook_mode (hooks encode one-shot flip "
                    "semantics)")
        self._next = 0
        #: One log record per applied mask (see campaign JSONL schema).
        self.log: List[dict] = []
        #: Live persistent sites: ``(log record, re-assert closure)``.
        #: The closure returns True when it actually changed state;
        #: the record's ``reasserted`` count is deterministic (pure
        #: function of the post-injection execution).
        self._persistent: List[Tuple[dict, Callable]] = []
        # closures staged by the handler of the mask being applied
        self._staged: List[Callable] = []

    def due_cycle(self) -> Optional[int]:
        """Cycle of the earliest unapplied mask, or ``None``."""
        if self._next >= len(self.masks):
            return None
        return self.masks[self._next].cycle

    def apply_due(self, gpu, now: int) -> None:
        """Apply every mask whose cycle has been reached, then
        re-assert live persistent faults."""
        while self._next < len(self.masks) and \
                self.masks[self._next].cycle <= now:
            mask = self.masks[self._next]
            self._next += 1
            record = self._apply(gpu, mask, now)
            record["mask"] = mask.to_dict()
            record["applied_at"] = now
            # "no live target" resolutions are NOT injections; flag
            # them so downstream tallies don't fold them into Masked
            record["applied"] = record.get("target") != "none"
            self.log.append(record)
        if self._persistent:
            for record, reassert in self._persistent:
                if reassert(gpu):
                    record["reasserted"] += 1

    # -- spatial resolution -------------------------------------------------

    def _apply(self, gpu, mask: FaultMask, now: int) -> dict:
        rng = np.random.default_rng(mask.seed)
        model = get_model(mask.fault_model)
        self._staged = []
        record = self._HANDLERS[mask.structure](self, gpu, mask, rng,
                                                model)
        if model.persistent and record.get("target") != "none":
            record["reasserted"] = 0
            for closure in self._staged:
                self._persistent.append((record, closure))
        self._staged = []
        return record

    def _stage(self, model: FaultModel, closure: Callable) -> None:
        """Register a re-assert closure when the model is persistent."""
        if model.persistent:
            self._staged.append(closure)

    @staticmethod
    def _live_warps(gpu) -> List[Tuple[int, object]]:
        """All live warps as ``(core_id, warp)``, deterministic order."""
        out = []
        for core in gpu.cores:
            for cta in core.ctas:
                for warp in cta.warps:
                    if not warp.done:
                        out.append((core.core_id, warp))
        return out

    @staticmethod
    def _word_mask(bit_offsets) -> np.uint32:
        flip = np.uint32(0)
        for bit in bit_offsets:
            flip |= np.uint32(1 << (bit % 32))
        return flip

    def _inject_register_file(self, gpu, mask: FaultMask,
                              rng: np.random.Generator,
                              model: FaultModel) -> dict:
        warps = self._live_warps(gpu)
        if not warps:
            return {"target": "none", "reason": "no live warp"}
        core_id, warp = warps[int(rng.integers(0, len(warps)))]
        reg = mask.entry_index % warp.regs.shape[0]
        flip = self._word_mask(mask.bit_offsets)
        prop = gpu.propagation
        if mask.warp_level:
            lanes = warp.live_lanes()
        else:
            live = warp.live_lanes()
            lanes = np.asarray([int(live[int(rng.integers(0, len(live)))])])
        cells = warp.regs[reg, self.column]
        cells[lanes] = model.apply_word(cells[lanes], flip)

        def reassert(gpu, warp=warp, cells=cells, lanes=lanes, flip=flip,
                     model=model):
            if warp.done:
                return False
            current = cells[lanes]
            wanted = model.apply_word(current, flip)
            if np.array_equal(wanted, current):
                return False
            cells[lanes] = wanted
            return True

        self._stage(model, reassert)
        if prop is not None:
            prop.on_register_site(core_id, warp.age, reg, lanes,
                                  persistent=model.persistent)
        if mask.warp_level:
            return {"target": "warp", "core": core_id,
                    "warp_age": warp.age, "register": int(reg),
                    "lanes": [int(l) for l in lanes]}
        return {"target": "thread", "core": core_id, "warp_age": warp.age,
                "lane": int(lanes[0]), "register": int(reg)}

    def _inject_local(self, gpu, mask: FaultMask,
                      rng: np.random.Generator,
                      model: FaultModel) -> dict:
        warps = [(cid, w) for cid, w in self._live_warps(gpu)
                 if w.local_mem is not None]
        if not warps:
            return {"target": "none", "reason": "no live warp with local mem"}
        core_id, warp = warps[int(rng.integers(0, len(warps)))]
        nwords = warp.local_bytes // 4
        word = mask.entry_index % max(nwords, 1)
        byte_masks = {}
        for bit in mask.bit_offsets:
            byte = word * 4 + (bit % 32) // 8
            byte_masks[byte] = byte_masks.get(byte, 0) | (1 << ((bit % 32) % 8))
        if mask.warp_level:
            lanes = warp.live_lanes()
        else:
            live = warp.live_lanes()
            lanes = [int(live[int(rng.integers(0, len(live)))])]

        cells = warp.local_mem[self.column]

        def corrupt(gpu, warp=warp, cells=cells, lanes=lanes,
                    byte_masks=byte_masks, model=model):
            if warp.done:
                return False
            changed = False
            for byte, bits in byte_masks.items():
                bits = np.uint8(bits)
                for lane in lanes:
                    current = cells[lane, byte]
                    wanted = model.apply_word(current, bits)
                    if wanted != current:
                        cells[lane, byte] = wanted
                        changed = True
            return changed

        corrupt(gpu)
        self._stage(model, corrupt)
        if gpu.propagation is not None:
            gpu.propagation.on_local_site(core_id, warp.age, word, lanes,
                                          persistent=model.persistent)
        return {"target": "warp" if mask.warp_level else "thread",
                "core": core_id, "warp_age": warp.age,
                "lanes": [int(l) for l in lanes], "word": int(word)}

    def _inject_shared(self, gpu, mask: FaultMask,
                       rng: np.random.Generator,
                       model: FaultModel) -> dict:
        ctas = [cta for core in gpu.cores for cta in core.ctas
                if not cta.done and cta.smem.shape[1]]
        if not ctas:
            return {"target": "none", "reason": "no live CTA with smem"}
        count = min(mask.n_blocks, len(ctas))
        picks = rng.choice(len(ctas), size=count, replace=False)
        hit = []
        for idx in picks:
            cta = ctas[int(idx)]
            cells = cta.smem[self.column]
            word = mask.entry_index % (len(cells) // 4)
            byte_masks = {}
            for bit in mask.bit_offsets:
                byte = word * 4 + (bit % 32) // 8
                byte_masks[byte] = byte_masks.get(byte, 0) \
                    | (1 << ((bit % 32) % 8))

            def corrupt(gpu, cta=cta, cells=cells, byte_masks=byte_masks,
                        model=model):
                if cta.done:
                    return False
                changed = False
                for byte, bits in byte_masks.items():
                    current = cells[byte]
                    wanted = model.apply_word(current, np.uint8(bits))
                    if wanted != current:
                        cells[byte] = wanted
                        changed = True
                return changed

            corrupt(gpu)
            self._stage(model, corrupt)
            hit.append({"core": cta.core.core_id, "cta": list(cta.cta_id),
                        "word": int(word)})
            if gpu.propagation is not None:
                gpu.propagation.on_shared_site(
                    cta.core.core_id, cta.warps[0].age, cta.cta_id, word,
                    persistent=model.persistent)
        return {"target": "cta", "blocks": hit}

    def _inject_l1(self, gpu, mask: FaultMask, rng: np.random.Generator,
                   model: FaultModel, kind: str) -> dict:
        if kind == "d" and not gpu.config.has_l1d:
            return {"target": "none", "reason": "card has no L1D"}
        cores = [core for core in gpu.cores if core.ctas]
        if not cores:
            return {"target": "none", "reason": "no busy core"}
        count = min(mask.n_cores, len(cores))
        picks = rng.choice(len(cores), size=count, replace=False)
        records = []
        for idx in picks:
            core = cores[int(idx)]
            cache = {"d": core.l1d, "t": core.l1t, "c": core.l1c,
                     "i": core.l1i}[kind]
            line = mask.entry_index % cache.geometry.num_lines
            records.extend(self._corrupt_cache(cache, line,
                                               mask.bit_offsets, model))
        self._register_cache_sites(gpu, records, model)
        return {"target": "l1", "flips": records}

    def _corrupt_cache(self, cache, line: int, bit_offsets,
                       model: FaultModel) -> List[dict]:
        bits = [bit % cache.bits_per_line for bit in bit_offsets]
        if self.cache_hook_mode:
            return [cache.arm_hook(line, bits)]
        op = model.cache_op
        records = [cache.flip_bit(line, bit, op=op) for bit in bits]

        def reassert(gpu, cache=cache, line=line, bits=bits, op=op):
            return cache.assert_bits(line, bits, op)

        self._stage(model, reassert)
        return records

    @staticmethod
    def _register_cache_sites(gpu, records: List[dict],
                              model: FaultModel) -> None:
        if gpu.propagation is None:
            return
        for rec in records:
            gpu.propagation.on_cache_site(
                rec["cache"], rec["line"], rec.get("mode", "flip"),
                rec["valid"], persistent=model.persistent)

    def _inject_l1d(self, gpu, mask, rng, model):
        return self._inject_l1(gpu, mask, rng, model, kind="d")

    def _inject_l1t(self, gpu, mask, rng, model):
        return self._inject_l1(gpu, mask, rng, model, kind="t")

    def _inject_l1c(self, gpu, mask, rng, model):
        return self._inject_l1(gpu, mask, rng, model, kind="c")

    def _inject_l1i(self, gpu, mask, rng, model):
        return self._inject_l1(gpu, mask, rng, model, kind="i")

    def _inject_l2(self, gpu, mask: FaultMask,
                   rng: np.random.Generator, model: FaultModel) -> dict:
        line = mask.entry_index % gpu.l2.geometry.num_lines
        flips = self._corrupt_cache(gpu.l2, line, mask.bit_offsets, model)
        self._register_cache_sites(gpu, flips, model)
        return {"target": "l2", "flips": flips}

    # -- control units (extension) ------------------------------------------

    def _inject_simt_stack(self, gpu, mask: FaultMask,
                           rng: np.random.Generator,
                           model: FaultModel) -> dict:
        """Corrupt one reconvergence-stack entry of a live warp.

        Entry layout (:data:`SIMT_STACK_ENTRY_BITS` = 64): bits 0-31
        hit the active mask (one lane each), 32-47 the 16-bit pc,
        48-63 the 16-bit reconvergence pc.  The targeted physical slot
        is ``entry_index`` modulo the warp's current stack depth; a
        persistent fault keeps re-asserting into that slot while it
        exists (stack pushes/pops move *logical* entries through the
        stuck physical cells, exactly like hardware).
        """
        warps = self._live_warps(gpu)
        if not warps:
            return {"target": "none", "reason": "no live warp"}
        core_id, warp = warps[int(rng.integers(0, len(warps)))]
        slot = mask.entry_index % len(warp.stack)
        mask_bits = []
        pc_mask = 0
        reconv_mask = 0
        for bit in mask.bit_offsets:
            bit %= SIMT_STACK_ENTRY_BITS
            if bit < 32:
                mask_bits.append(bit)
            elif bit < 48:
                pc_mask |= 1 << (bit - 32)
            else:
                reconv_mask |= 1 << (bit - 48)

        def corrupt(gpu, warp=warp, slot=slot, mask_bits=mask_bits,
                    pc_mask=pc_mask, reconv_mask=reconv_mask,
                    model=model):
            if warp.done or slot >= len(warp.stack):
                return False
            entry = warp.stack[slot]
            changed = False
            for lane in mask_bits:
                old = bool(entry.mask[lane])
                new = model.apply_bool(old)
                if new != old:
                    entry.mask[lane] = new
                    changed = True
            if pc_mask:
                new_pc = int(model.apply_word(entry.pc & 0xFFFF, pc_mask))
                if new_pc != entry.pc:
                    entry.pc = new_pc
                    changed = True
            if reconv_mask:
                # reconv_pc -1 ("never reconverge") is all-ones in the
                # 16-bit field; 0xFFFF behaves identically downstream
                rep = entry.reconv_pc & 0xFFFF if entry.reconv_pc >= 0 \
                    else 0xFFFF
                new_rp = int(model.apply_word(rep, reconv_mask))
                if new_rp != rep:
                    entry.reconv_pc = new_rp
                    changed = True
            if changed:
                # the control logic reacts immediately: an emptied or
                # reconverged top entry pops (possibly draining the warp)
                warp.normalize_stack()
                # what the scheduler remembered about this warp's next
                # instruction no longer holds
                warp.wake()
            return changed

        corrupt(gpu)
        self._stage(model, corrupt)
        if gpu.propagation is not None:
            gpu.propagation.on_control_site(
                "simt_stack", core_id, warp.age, slot,
                persistent=model.persistent)
        fields = []
        if mask_bits:
            fields.append("mask")
        if pc_mask:
            fields.append("pc")
        if reconv_mask:
            fields.append("reconv_pc")
        return {"target": "warp", "core": core_id, "warp_age": warp.age,
                "slot": int(slot), "fields": fields}

    def _inject_scoreboard(self, gpu, mask: FaultMask,
                           rng: np.random.Generator,
                           model: FaultModel) -> dict:
        """Corrupt one scoreboard ready-cycle entry of a live warp.

        The entry is the 32-bit "value ready at cycle" counter of one
        register: raising it stalls every consumer (Performance /
        Timeout territory), lowering it releases a hazard early and
        lets a consumer issue before its operand landed.
        """
        warps = self._live_warps(gpu)
        if not warps:
            return {"target": "none", "reason": "no live warp"}
        core_id, warp = warps[int(rng.integers(0, len(warps)))]
        reg = mask.entry_index % max(warp.num_regs, 1)
        flip = int(self._word_mask(mask.bit_offsets))

        def corrupt(gpu, warp=warp, reg=reg, flip=flip, model=model):
            if warp.done:
                return False
            current = int(warp.reg_ready.get(reg, 0)) & 0xFFFFFFFF
            wanted = int(model.apply_word(current, flip)) & 0xFFFFFFFF
            if wanted == current:
                return False
            warp.reg_ready[reg] = wanted
            if wanted > warp.sb_latest:
                # keep the "every hazard cleared" fast path honest
                warp.sb_latest = wanted
            # a lowered entry releases a stall the scheduler remembers
            warp.wake()
            return True

        before = int(warp.reg_ready.get(reg, 0))
        corrupt(gpu)
        self._stage(model, corrupt)
        if gpu.propagation is not None:
            gpu.propagation.on_control_site(
                "scoreboard", core_id, warp.age, reg,
                persistent=model.persistent)
        return {"target": "warp", "core": core_id, "warp_age": warp.age,
                "register": int(reg), "ready_before": before,
                "ready_after": int(warp.reg_ready.get(reg, 0))}

    #: Structure -> unbound handler; built once at class definition
    #: instead of per applied mask.
    _HANDLERS = {
        Structure.REGISTER_FILE: _inject_register_file,
        Structure.LOCAL_MEM: _inject_local,
        Structure.SHARED_MEM: _inject_shared,
        Structure.L1D_CACHE: _inject_l1d,
        Structure.L1T_CACHE: _inject_l1t,
        Structure.L1C_CACHE: _inject_l1c,
        Structure.L1I_CACHE: _inject_l1i,
        Structure.L2_CACHE: _inject_l2,
        Structure.SIMT_STACK: _inject_simt_stack,
        Structure.SCOREBOARD: _inject_scoreboard,
    }
