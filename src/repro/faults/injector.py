"""The injection engine: corrupts the sites fault masks land on.

The GPU cycle loop calls :meth:`Injector.apply_due` once its
:meth:`Injector.due_cycle` is reached; when a mask's cycle is, it asks
:func:`repro.faults.sites.resolve` where it lands on the live GPU (a
random active thread/warp for the register file and local memory,
random active CTAs for shared memory, random busy SIMT cores for the
L1 caches -- section IV.B of the paper) and owns the rest: a per-kind
*corrupter* changes the bits behind each resolved
:class:`~repro.faults.sites.Site`, the propagation tracer is told to
watch it, and the application is logged so the campaign parser can
attribute outcomes.

*What* the corruption does to the stored bits is delegated to the
mask's :class:`~repro.faults.models.FaultModel` strategy: the default
``transient`` model XORs (the paper's single-event upset, bit-exact
with the pre-strategy injector), ``stuck_at_0``/``stuck_at_1`` force
the bits low/high *and persist*: re-asserted at every visited cycle
(the loop then visits the one after each issue; a skipped cycle
changes no state), overwrites and cache refills are re-corrupted like
a stuck SRAM cell.

Two corrupters go beyond the paper's storage arrays into the
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
from repro.faults.sites import LiveState, Site, resolve
from repro.faults.targets import Structure


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

    ``tracer`` is told every site a mask lands on
    (:meth:`repro.obs.propagation.PropagationTracer.watch`).
    """

    def __init__(self, faults: Optional[Sequence[FaultMask]] = None,
                 cache_hook_mode: bool = False, column: int = 0,
                 tracer=None):
        self.masks: List[FaultMask] = sorted(faults or (),
                                             key=lambda m: m.cycle)
        self.cache_hook_mode = cache_hook_mode
        self.column = column
        self.tracer = tracer
        for mask in self.masks:
            get_model(mask.fault_model).check_cache_hooks(cache_hook_mode)
        self._next = 0
        #: One log record per applied mask (see campaign JSONL schema).
        self.log: List[dict] = []
        #: The sites the last applied mask landed on (none: no target).
        self.sites: Sequence[Site] = ()
        #: Live persistent sites: ``(log record, re-assert closure)``.
        #: The closure returns True when it actually changed state;
        #: the record's ``reasserted`` count is deterministic (pure
        #: function of the post-injection execution).
        self._persistent: List[Tuple[dict, Callable]] = []
        # closures staged by the handler of the mask being applied
        self._staged: List[Callable] = []

    def due_cycle(self) -> Optional[int]:
        """Cycle of the earliest unapplied mask, or ``None``; 0 (every
        visited cycle) while a persistent fault is live."""
        if self._persistent:
            return 0
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
        for record, reassert in self._persistent:
            if reassert(gpu):
                record["reasserted"] += 1

    # -- resolve, then corrupt ------------------------------------------------

    def _apply(self, gpu, mask: FaultMask, now: int) -> dict:
        model = get_model(mask.fault_model)
        sites = resolve(mask, LiveState(gpu), self.cache_hook_mode)
        if isinstance(sites, str):
            return {"target": "none", "reason": sites}
        self.sites = sites
        kind = sites[0].kind
        corrupt = self._CORRUPTERS[sites[0].unit or kind]
        self._staged = []
        parts = []
        for site in sites:
            part = corrupt(self, site, mask, model)
            parts.append(part)
            if self.tracer is not None:
                # a cache line is registered once per flip record, as
                # the logs have always listed it: a multi-bit flip into
                # an invalid line (closed at once, never watched, so
                # never deduplicated) appears once per bit
                for _ in part if kind == "cache" else (None,):
                    self.tracer.watch(site, model.persistent, gpu)
        if kind == "shared":
            record = {"target": "cta", "blocks": parts}
        elif kind == "cache":
            record = {"target": "l2" if sites[0].core is None else "l1",
                      "flips": [flip for part in parts for flip in part]}
        else:
            record = parts[0]
        if model.persistent:
            record["reasserted"] = 0
            self._persistent.extend((record, closure)
                                    for closure in self._staged)
        self._staged = []
        return record

    def _stage(self, model: FaultModel, closure: Callable) -> None:
        """Register a re-assert closure when the model is persistent."""
        if model.persistent:
            self._staged.append(closure)

    @staticmethod
    def _word_mask(bit_offsets) -> np.uint32:
        flip = np.uint32(0)
        for bit in bit_offsets:
            flip |= np.uint32(1 << (bit % 32))
        return flip

    @staticmethod
    def _byte_masks(word: int, bit_offsets) -> dict:
        """``{byte offset: bit mask}`` of a 32-bit word's flipped bits."""
        byte_masks = {}
        for bit in bit_offsets:
            byte = word * 4 + (bit % 32) // 8
            byte_masks[byte] = (byte_masks.get(byte, 0)
                                | (1 << ((bit % 32) % 8)))
        return byte_masks

    def _corrupt_register(self, site: Site, mask: FaultMask,
                          model: FaultModel) -> dict:
        warp, lanes = site.handle, list(site.lanes)
        flip = self._word_mask(mask.bit_offsets)
        cells = warp.regs[site.index, self.column]
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
        if mask.warp_level:
            return {"target": "warp", "core": site.core,
                    "warp_age": site.age, "register": site.index,
                    "lanes": lanes}
        return {"target": "thread", "core": site.core, "warp_age": site.age,
                "lane": lanes[0], "register": site.index}

    def _corrupt_word(self, site: Site, mask: FaultMask,
                      model: FaultModel) -> dict:
        """One 32-bit word: of a CTA's shared memory, or of the local
        memory of some lanes of a warp."""
        owner = site.handle
        if site.kind == "shared":
            rows = [owner.smem[self.column]]
        else:
            rows = [owner.local_mem[self.column][lane]
                    for lane in site.lanes]
        byte_masks = self._byte_masks(site.index, mask.bit_offsets)

        def corrupt(gpu, owner=owner, rows=rows, byte_masks=byte_masks,
                    model=model):
            if owner.done:
                return False
            changed = False
            for byte, bits in byte_masks.items():
                bits = np.uint8(bits)
                for row in rows:
                    current = row[byte]
                    wanted = model.apply_word(current, bits)
                    if wanted != current:
                        row[byte] = wanted
                        changed = True
            return changed

        corrupt(None)
        self._stage(model, corrupt)
        if site.kind == "shared":
            return {"core": site.core, "cta": list(site.cta),
                    "word": site.index}
        return {"target": "warp" if mask.warp_level else "thread",
                "core": site.core, "warp_age": site.age,
                "lanes": list(site.lanes), "word": site.index}

    def _corrupt_cache(self, site: Site, mask: FaultMask,
                       model: FaultModel) -> List[dict]:
        cache, line = site.handle, site.index
        bits = [bit % cache.bits_per_line for bit in mask.bit_offsets]
        if site.mode == "hook":
            return [cache.arm_hook(line, bits)]
        op = model.cache_op
        records = [cache.flip_bit(line, bit, op=op) for bit in bits]

        def reassert(gpu, cache=cache, line=line, bits=bits, op=op):
            return cache.assert_bits(line, bits, op)

        self._stage(model, reassert)
        return records

    # -- control units (extension) ------------------------------------------

    def _corrupt_simt_stack(self, site: Site, mask: FaultMask,
                            model: FaultModel) -> dict:
        """Corrupt one reconvergence-stack entry of a live warp.

        Entry layout (``Structure.SIMT_STACK.width`` = 64 bits): 0-31
        hit the active mask (one lane each), 32-47 the 16-bit pc,
        48-63 the 16-bit reconvergence pc.  The targeted physical slot
        is ``entry_index`` modulo the warp's current stack depth; a
        persistent fault keeps re-asserting into that slot while it
        exists (stack pushes/pops move *logical* entries through the
        stuck physical cells, exactly like hardware).
        """
        warp, slot = site.handle, site.index
        mask_bits = []
        pc_mask = 0
        reconv_mask = 0
        for bit in mask.bit_offsets:
            bit %= Structure.SIMT_STACK.width
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

        corrupt(None)
        self._stage(model, corrupt)
        fields = []
        if mask_bits:
            fields.append("mask")
        if pc_mask:
            fields.append("pc")
        if reconv_mask:
            fields.append("reconv_pc")
        return {"target": "warp", "core": site.core, "warp_age": site.age,
                "slot": slot, "fields": fields}

    def _corrupt_scoreboard(self, site: Site, mask: FaultMask,
                            model: FaultModel) -> dict:
        """Corrupt one scoreboard ready-cycle entry of a live warp.

        The entry is the 32-bit "value ready at cycle" counter of one
        register: raising it stalls every consumer (Performance /
        Timeout territory), lowering it releases a hazard early and
        lets a consumer issue before its operand landed.
        """
        warp, reg = site.handle, site.index
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
        corrupt(None)
        self._stage(model, corrupt)
        return {"target": "warp", "core": site.core, "warp_age": site.age,
                "register": reg, "ready_before": before,
                "ready_after": int(warp.reg_ready.get(reg, 0))}

    #: Site kind (control: unit) -> unbound corrupter.  Each takes one
    #: resolved site, changes the state behind it, stages what a
    #: persistent model must keep re-asserting and returns the site's
    #: part of the injection log.
    _CORRUPTERS = {
        "register": _corrupt_register,
        "local": _corrupt_word,
        "shared": _corrupt_word,
        "cache": _corrupt_cache,
        "simt_stack": _corrupt_simt_stack,
        "scoreboard": _corrupt_scoreboard,
    }
