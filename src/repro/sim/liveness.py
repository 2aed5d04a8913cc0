"""Golden-run liveness tracing for dead-site fault pre-screening.

The prefix of every injected run is byte-identical to the golden run,
so the *spatial* target of a fault mask (which warp, register, shared
word or cache line it hits) can be resolved from the golden run alone
-- and if the golden run proves the targeted bits are *dead* at the
injection cycle (overwritten or evicted before any read, or never
accessed again), the fault is Masked by construction and the run never
needs to be simulated (ACE-analysis style liveness, cf. Mukherjee et
al.).

A :class:`LivenessTrace` listens to the golden profiling run
(:meth:`repro.sim.gpu.GPU.listen`) and records:

- CTA residency intervals per core, in assignment order (the order the
  injector enumerates ``core.ctas`` in), with per-warp lane exits and
  completion cycles;
- per cell -- keyed as a :class:`repro.faults.sites.Site` is, ``(kind,
  owner)`` then index: a warp's register or local word, a CTA's shared
  word, a cache's line -- what happened to it: ``r`` a read, ``k`` a
  kill (a write after which the previous value is unreachable: of a
  register, one covering every live lane), and for a line ``rh`` read
  hit, ``wh`` write hit, ``fill``, ``inv`` invalidate, ``wb``
  writeback, ``peek`` host/stale-line observation.

Event timestamps are ``(cycle, phase)`` pairs: phase 0 marks work done
*outside* the cycle loop (launch-entry L1 invalidation, host reads
between launches), phase 1 marks in-loop work.  The injector fires at
the top of a loop iteration -- after launch-entry work of that cycle,
before any issue -- so an event is post-injection for a fault at cycle
``c`` iff its timestamp is ``(> c)`` or ``(== c, phase 1)``.

The query side answers *what was live at cycle c*, in the (core,
CTA-assignment, warp) order a GPU enumerates its own state in, and
whether a cache line was valid then.  It owns nothing else of a fault:
:class:`repro.faults.sites.GoldenState` presents these queries as a
population :func:`repro.faults.sites.resolve` draws a mask's target
from -- the same routine, fed by the live GPU, that the injector uses
-- and the deadness verdicts live in :mod:`repro.faults.early_stop`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def post_injection(event: Tuple[int, int, str], cycle: int) -> bool:
    """Whether a cache-line event comes after a fault injected at
    ``cycle``.  The injector fires at the top of a loop iteration:
    events of the same cycle follow it only when recorded inside the
    loop (phase 1); launch-entry invalidations and inter-launch host
    peeks at that cycle precede it."""
    when, phase, _ = event
    return when > cycle or (when == cycle and phase == 1)


class LivenessTrace:
    """Records liveness intervals during one golden run.

    Attach via ``RunOptions(liveness=...)``: the device has it listen
    to the GPU.  Recording costs nothing on fault runs (nobody
    listens: the simulator iterates empty tuples).

    A finished trace is plain data (:data:`CONTENT`): it pickles
    without the simulator it was recorded on -- a checkpoint set keeps
    it as ``liveness.bin`` -- and two traces are equal when their
    content is.
    """

    #: The attributes a finished trace consists of; everything else is
    #: recording state.
    CONTENT = ("cores", "events")

    def __init__(self):
        #: The GPU listened to (:meth:`repro.sim.gpu.GPU.listen`).
        self.gpu = None
        #: core_id -> CTA records in assignment order.
        self.cores: Dict[int, List[dict]] = {}
        #: ``(kind, owner)`` -> {index: [event]}, see :meth:`cell_events`.
        self.events: Dict[tuple, Dict[int, List[tuple]]] = {}
        #: Running warps: (core_id, age) -> (warp record, its CTA's record).
        self._warp_recs: Dict[Tuple[int, int], Tuple[dict, dict]] = {}

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.CONTENT}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.__dict__.update(state)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LivenessTrace):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    # -- recording (what the simulator reports) --------------------------

    def on_cta_assigned(self, core_id: int, cta, visible_from: int) -> None:
        """One CTA became resident on ``core_id``.

        ``visible_from`` is the first cycle at which the injector can
        see it: the current cycle for launch-entry assignment, the next
        cycle for mid-loop assignment (the injector already ran this
        cycle when CTAs are assigned after retirement).
        """
        warps = [{"age": warp.age, "num_threads": warp.num_threads,
                  "done_cycle": None, "exits": []}  # [(cycle, (lane, ...))]
                 for warp in cta.warps]
        rec = {"age_base": cta.warps[0].age, "cta_id": tuple(cta.cta_id),
               "visible_from": visible_from, "done_cycle": None,
               "has_smem": bool(cta.smem.shape[1]), "warps": warps}
        for wrec in warps:
            self._warp_recs[(core_id, wrec["age"])] = (wrec, rec)
        self.cores.setdefault(core_id, []).append(rec)

    def on_issue(self, core_id: int, warp, plan, exec_mask, now: int) -> None:
        """Record the register reads/kills -- for an ``EXIT``, the
        leaving lanes -- of one issue.

        ``plan`` is the instruction's :class:`~repro.sim.core.IssuePlan`;
        ``exec_mask`` the lanes executing, all of them live.
        """
        src_regs, dst_regs = plan.src_regs, plan.dst_regs
        if src_regs or dst_regs:
            events = self.events.setdefault(
                ("register", (core_id, warp.age)), {})
            for reg in src_regs:
                events.setdefault(reg, []).append((now, "r"))
            if dst_regs:
                # a write covering every live lane kills the old value;
                # a partial (divergent) write leaves other lanes' bits
                # reachable -- conservatively a read
                live = warp.live_count
                kind = ("k" if live and np.count_nonzero(exec_mask) == live
                        else "r")
                for reg in dst_regs:
                    events.setdefault(reg, []).append((now, kind))
        elif plan.inst.is_exit:  # (which has no register operand)
            lanes = np.nonzero(exec_mask)[0].tolist()
            if lanes:
                wrec, cta = self._warp_recs[(core_id, warp.age)]
                wrec["exits"].append((now, tuple(lanes)))
                if len(lanes) == warp.live_count:
                    # its last lanes: the warp drains during ``now``
                    del self._warp_recs[(core_id, warp.age)]
                    wrec["done_cycle"] = now
                    if all(w["done_cycle"] is not None for w in cta["warps"]):
                        cta["done_cycle"] = now

    def on_words(self, space: str, core_id: int, owner_age: int,
                 words: List[int], lanes, is_load: bool, warp, plan,
                 now: int) -> None:
        """The resolved 32-bit words of one shared- or local-memory
        instruction, one per executing lane, in lane order.  A shared
        word is its CTA's whichever lane touches it, a local word one
        cell per lane (the event says which); a global access has no
        words (its cells are the cache lines :meth:`on_cache` hears of).
        """
        if not words:
            return
        events = self.events.setdefault((space, (core_id, owner_age)), {})
        kind = "r" if is_load else "k"
        if space == "local":
            for lane, word in zip(lanes.tolist(), words):
                events.setdefault(word, []).append((now, lane, kind))
        else:
            event = (now, kind)
            for word in words:
                events.setdefault(word, []).append(event)

    def on_cache(self, name: str, line_index: int, kind: str) -> None:
        """What became of one cache line, with its phase: 1 inside the
        cycle loop, 0 outside it."""
        self.events.setdefault(("cache", name), {}).setdefault(
            line_index, []).append(
                (self.gpu.cycle, 1 if self.gpu.in_loop else 0, kind))

    # -- queries (a GPU's own enumeration order) -------------------------

    def _live_ctas(self, cycle: int):
        """``(core_id, CTA record)`` of every CTA resident at ``cycle``."""
        for core_id in sorted(self.cores):
            for rec in self.cores[core_id]:
                done = rec["done_cycle"]
                if rec["visible_from"] <= cycle and (done is None
                                                     or cycle <= done):
                    yield core_id, rec

    def live_warps(self, cycle: int) -> List[Tuple[int, int, dict]]:
        """``(core_id, age, warp record)`` for every live warp at
        ``cycle``, in exactly the order
        :class:`repro.faults.sites.LiveState` enumerates them on a GPU."""
        return [(core_id, wrec["age"], wrec)
                for core_id, rec in self._live_ctas(cycle)
                for wrec in rec["warps"]
                if wrec["done_cycle"] is None or cycle <= wrec["done_cycle"]]

    @staticmethod
    def live_lanes(wrec: dict, cycle: int) -> List[int]:
        """Lane indices alive at ``cycle`` (created, not yet exited),
        ascending -- the order ``Warp.live_lanes`` returns."""
        exited = set()
        for when, lanes in wrec["exits"]:
            if when < cycle:  # an exit during cycle c is live at c
                exited.update(lanes)
        return [lane for lane in range(wrec["num_threads"])
                if lane not in exited]

    def live_smem_ctas(self, cycle: int) -> List[tuple]:
        """``(core_id, age_base, cta_id, CTA record)`` of every live CTA
        with shared memory, in a GPU's enumeration order."""
        return [(core_id, rec["age_base"], rec["cta_id"], rec)
                for core_id, rec in self._live_ctas(cycle)
                if rec["has_smem"]]

    def busy_cores(self, cycle: int) -> List[int]:
        """Cores with any resident CTA at ``cycle``, ascending."""
        return list(dict.fromkeys(
            core_id for core_id, _ in self._live_ctas(cycle)))

    def line_valid(self, name: str, line_index: int, cycle: int) -> bool:
        """Whether a cache line held data when a fault at ``cycle``
        struck: its last pre-injection fill / invalidation decides."""
        valid = False
        for event in self.cell_events("cache", name, line_index):
            if post_injection(event, cycle):
                break
            if event[2] in ("fill", "inv"):
                valid = event[2] == "fill"
        return valid

    def cell_events(self, kind: str, owner, index: int) -> List[tuple]:
        """What happened to one cell (:attr:`repro.faults.sites.Site
        .cell`), in order: ``(cycle, kind)`` for a register or a shared
        word, ``(cycle, lane, kind)`` for a local word, ``(cycle,
        phase, kind)`` for a cache line."""
        return self.events.get((kind, owner), {}).get(index, [])
