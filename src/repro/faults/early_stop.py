"""Masked-fault early termination (Relyzer/GangES-style acceleration).

Two cooperating mechanisms cut the wall-clock cost of the dominant
Masked outcome class without changing a single classification:

1. **Convergence early-exit** (:class:`ConvergenceMonitor`).  The
   golden checkpoint set (PR 2) stores a canonical
   :func:`~repro.sim.checkpoint.state_digest` per snapshot.  An
   injected run hashes its own state at every golden checkpoint cycle
   past the injection; a digest match means the *complete* mutable
   simulator state -- architectural and timing -- equals the golden
   run's, so the remaining execution is determined: the run terminates
   with :class:`EarlyConvergence` and inherits the golden suffix
   (passed, ``cycles == golden_cycles``, hence Masked).  Host-side
   control flow is covered by comparing every DtoH copy performed so
   far against the golden recording; any mismatch permanently disables
   the monitor for that run.

2. **Dead-site pre-screening** (:class:`Prescreener`).  The prefix of
   every injected run is byte-identical to the golden run, so a
   mask's spatial target (which warp/register/word/cache line the
   injector will pick) is resolvable from the golden
   :class:`~repro.sim.liveness.LivenessTrace` alone -- by replaying
   the injector's RNG draws against the reconstructed live-target
   lists.  If the golden trace proves the targeted bits are *dead* at
   the injection cycle (overwritten or evicted before any read, or
   never accessed again), the fault cannot alter any architectural
   value or any timing decision: the run is Masked with
   ``cycles == golden_cycles`` by construction and is never simulated.

Soundness notes for the pre-screen verdicts:

- Register values influence execution only through reads; scoreboard
  and scheduler decisions depend on register *indices*, never values.
  A register whose first post-injection event is a full-coverage write
  (or that is never accessed again, or whose targeted lanes exit) is
  dead.
- Cache *data* bits are observed only via read hits, dirty writebacks,
  flushes and host peeks; tag bits of a *valid* line participate in
  every set probe (hit/miss timing), so only data bits are screened on
  valid lines.  Flips into invalid lines are architecturally masked
  (the paper's own observation): invalid tags are never compared and
  the next fill rewrites tag and data.
- In hook mode (deferred injection), writebacks and peeks are
  transparent -- the armed flips are not yet in the line data -- while
  a write hit, refill or invalidation drops the hook entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.faults.mask import FaultMask
from repro.faults.models import get_model
from repro.faults.targets import Structure
from repro.sim.checkpoint import host_read_matches, state_digest

EARLY_STOP_MODES = ("off", "converge", "full")


class EarlyConvergence(Exception):
    """An injected run's state re-converged with the golden run.

    Deliberately *not* a :class:`~repro.sim.errors.SimulationError`:
    convergence is a success path, never a crash classification.
    :func:`~repro.faults.runner.run_application` catches it and
    completes the result from the golden suffix.
    """

    def __init__(self, cycle: int, golden_cycles: int):
        super().__init__(
            f"state re-converged with the golden run at cycle {cycle}")
        self.cycle = cycle
        self.golden_cycles = golden_cycles


class ConvergenceMonitor:
    """The golden witness of one injected run: compares its state
    against the golden checkpoint digests and its DtoH copies against
    the golden recording.

    Args:
        entries: the golden checkpoint manifest entries that may
            witness this run (each with ``cycle``, ``launch_index``
            and ``state_hash``; see
            :meth:`repro.sim.checkpoint.CheckpointSet.digests_after`).
        host_reads: the golden run's recorded DtoH copies (in order).
        golden_cycles: total golden-run cycle count to inherit.
        terminate: raise :class:`EarlyConvergence` on the first match
            (early stop applies to the run).  A witness that only
            observes stops comparing there instead: a full-state match
            means the rest of the run is golden.
        observer: optional propagation observer (duck-typed, see
            :class:`repro.obs.propagation.PropagationTracer`), told
            about every digest comparison and about host-read
            divergence -- the same under every ``early_stop`` mode.
    """

    def __init__(self, entries: Sequence[dict], host_reads: Sequence[dict],
                 golden_cycles: int, terminate: bool = True,
                 observer=None):
        self._entries: List[dict] = sorted(entries,
                                           key=lambda e: e["cycle"])
        self._pos = 0
        self._reads = list(host_reads)
        self._read_pos = 0
        self.golden_cycles = golden_cycles
        self.terminate = terminate
        self.observer = observer
        #: Host-side state diverged from golden: no convergence claim
        #: is sound any more, the monitor goes inert.
        self.diverged = False

    def next_cycle(self) -> Optional[int]:
        """Earliest remaining check cycle (for the idle-skip clamp)."""
        if self.diverged or self._pos >= len(self._entries):
            return None
        return self._entries[self._pos]["cycle"]

    def on_cycle(self, gpu, launch, queue) -> None:
        """Digest-compare when a golden checkpoint cycle is reached.

        Called at the top of every cycle-loop iteration, *before* the
        injector -- the same point the golden checkpointer captured at.
        Checkpoint cycles an injected run never visits (its timing
        diverged) are skipped, never misattributed.
        """
        if self.diverged:
            return
        entries = self._entries
        while self._pos < len(entries) \
                and entries[self._pos]["cycle"] < gpu.cycle:
            # a checkpoint cycle this run never landed on is timing
            # divergence -- a mismatch
            self._report(entries[self._pos]["cycle"], False)
            self._pos += 1
        if self._pos >= len(entries):
            return
        entry = entries[self._pos]
        if entry["cycle"] != gpu.cycle:
            return
        self._pos += 1
        if entry["launch_index"] != gpu.stats.current.launch_index:
            self._report(entry["cycle"], False)
            return
        matched = (state_digest(gpu.snapshot(launch, queue))
                   == entry["state_hash"])
        self._report(entry["cycle"], matched)
        if matched:
            if self.terminate:
                raise EarlyConvergence(gpu.cycle, self.golden_cycles)
            self._pos = len(entries)

    def _report(self, cycle: int, matched: bool) -> None:
        if self.observer is not None:
            self.observer.on_digest_check(cycle, matched)

    def on_host_read(self, tag: int, addr: int, nbytes: int, data) -> None:
        """Verify one DtoH copy against the golden recording.

        GPU-state convergence alone is not enough: host code may have
        already read corrupted data and branched on it.  Every copy is
        compared in sequence; any difference (content, order, or more
        reads than golden performed) disables the monitor for good.
        """
        if self.diverged:
            return
        if not host_read_matches(self._reads, self._read_pos, tag, addr,
                                 nbytes, data):
            self.diverged = True
            if self.observer is not None:
                self.observer.on_host_divergence()
        self._read_pos += 1


class Prescreener:
    """Classifies provably-dead fault targets from the golden trace.

    :meth:`evaluate` replays a mask's spatial RNG draws bit-exactly
    against the liveness trace (the pre-injection prefix of the
    injected run is byte-identical to golden, so the reconstructed
    live-target lists equal the injector's) and applies the deadness
    rules documented in the module docstring.  Returns a reason string
    when the fault is provably Masked, ``None`` when the run must be
    simulated.  ``last_target`` exposes the resolved target of the
    most recent evaluation for cross-checking against injector logs.
    """

    def __init__(self, trace, card, cache_hook_mode: bool = False):
        self.trace = trace
        self.card = card
        self.cache_hook_mode = cache_hook_mode
        self.last_target: Dict[str, object] = {}
        #: Propagation fate label proved for the most recent dead
        #: verdict ("overwritten" / "evicted" / "never_touched"), used
        #: to build propagation records for pre-screened runs.
        self.last_fate: str = "never_touched"

    def evaluate(self, mask: FaultMask, regs_per_thread: int,
                 smem_bytes: int, local_bytes: int) -> Optional[str]:
        """Dead-reason string, or ``None`` when liveness is possible."""
        self.last_target = {}
        self.last_fate = "never_touched"
        if not get_model(mask.fault_model).prescreen_safe:
            # persistent faults invalidate every deadness rule: an
            # "overwritten" site is re-corrupted right after the
            # overwrite, an "evicted" line is re-corrupted on refill
            return None
        s = mask.structure
        if s is Structure.REGISTER_FILE:
            return self._screen_register(mask, regs_per_thread)
        if s is Structure.LOCAL_MEM:
            return self._screen_local(mask, local_bytes)
        if s is Structure.SHARED_MEM:
            return self._screen_shared(mask, smem_bytes)
        if s is Structure.L2_CACHE:
            return self._screen_l2(mask)
        if s.is_cache:
            kind = {Structure.L1D_CACHE: "d", Structure.L1T_CACHE: "t",
                    Structure.L1C_CACHE: "c", Structure.L1I_CACHE: "i"}[s]
            return self._screen_l1(mask, kind)
        return None  # unknown structure: never pre-screen

    # -- register file ---------------------------------------------------

    def _screen_register(self, mask: FaultMask,
                         regs_per_thread: int) -> Optional[str]:
        rng = np.random.default_rng(mask.seed)
        warps = self.trace.live_warps(mask.cycle)
        if not warps:
            return "no live warp at the injection cycle"
        core_id, wrec = warps[int(rng.integers(0, len(warps)))]
        reg = mask.entry_index % max(regs_per_thread, 1)
        self.last_target = {"core": core_id, "warp_age": wrec["age"],
                            "register": int(reg)}
        # lane choice (thread-level masks draw one) cannot change the
        # verdict: reads are screened lane-insensitively and kills
        # cover every live lane, so the draw need not be replayed
        fate = self._register_fate(core_id, wrec["age"], reg, mask.cycle)
        if fate is not None:
            self.last_fate = fate
            return (f"register R{reg} of warp {wrec['age']} on core "
                    f"{core_id} is dead at cycle {mask.cycle}")
        return None

    def _register_fate(self, core_id: int, warp_age: int, reg: int,
                       cycle: int) -> Optional[str]:
        """Dead fate of the register, or ``None`` when it may be read."""
        for when, kind in self.trace.register_events(core_id, warp_age,
                                                     reg):
            if when >= cycle:  # issues at the injection cycle are post
                return "overwritten" if kind == "k" else None
        return "never_touched"  # never accessed again

    def _register_dead(self, core_id: int, warp_age: int, reg: int,
                       cycle: int) -> bool:
        return self._register_fate(core_id, warp_age, reg, cycle) \
            is not None

    # -- local memory ----------------------------------------------------

    def _screen_local(self, mask: FaultMask,
                      local_bytes: int) -> Optional[str]:
        if local_bytes <= 0:
            return "kernel allocates no local memory"
        rng = np.random.default_rng(mask.seed)
        warps = self.trace.live_warps(mask.cycle)
        if not warps:
            return "no live warp with local memory at the injection cycle"
        core_id, wrec = warps[int(rng.integers(0, len(warps)))]
        word = mask.entry_index % max(local_bytes // 4, 1)
        if mask.warp_level:
            lanes = self.trace.live_lanes(wrec, mask.cycle)
        else:
            live = self.trace.live_lanes(wrec, mask.cycle)
            lanes = [live[int(rng.integers(0, len(live)))]]
        self.last_target = {"core": core_id, "warp_age": wrec["age"],
                            "word": int(word),
                            "lanes": [int(l) for l in lanes]}
        events = self.trace.local_word_events(core_id, wrec["age"], word)
        firsts = []
        for lane in lanes:
            first = next((kind for when, elane, kind in events
                          if when >= mask.cycle and elane == lane), None)
            if first == "r":
                return None
            firsts.append(first)
        self.last_fate = ("overwritten" if any(f == "k" for f in firsts)
                          else "never_touched")
        return (f"local word {word} of warp {wrec['age']} on core "
                f"{core_id} is dead for every targeted lane")

    # -- shared memory ---------------------------------------------------

    def _screen_shared(self, mask: FaultMask,
                       smem_bytes: int) -> Optional[str]:
        if smem_bytes <= 0:
            return "kernel allocates no shared memory"
        rng = np.random.default_rng(mask.seed)
        ctas = self.trace.live_smem_ctas(mask.cycle)
        if not ctas:
            return "no live CTA with shared memory at the injection cycle"
        count = min(mask.n_blocks, len(ctas))
        picks = rng.choice(len(ctas), size=count, replace=False)
        word = mask.entry_index % max(smem_bytes // 4, 1)
        blocks = []
        for idx in picks:
            core_id, crec = ctas[int(idx)]
            blocks.append({"core": core_id, "cta": list(crec["cta_id"]),
                           "word": int(word)})
        self.last_target = {"blocks": blocks}
        firsts = []
        for idx in picks:
            core_id, crec = ctas[int(idx)]
            events = self.trace.smem_word_events(core_id,
                                                 crec["age_base"], word)
            first = next((kind for when, kind in events
                          if when >= mask.cycle), None)
            if first == "r":
                return None
            firsts.append(first)
        self.last_fate = ("overwritten" if any(f == "k" for f in firsts)
                          else "never_touched")
        return (f"shared word {word} is dead in every targeted CTA at "
                f"cycle {mask.cycle}")

    # -- caches ----------------------------------------------------------

    def _screen_l1(self, mask: FaultMask, kind: str) -> Optional[str]:
        geom = {"d": self.card.l1d, "t": self.card.l1t,
                "c": self.card.l1c, "i": self.card.l1i}[kind]
        if kind == "d" and not self.card.has_l1d:
            return "card has no L1 data cache"
        rng = np.random.default_rng(mask.seed)
        cores = self.trace.busy_cores(mask.cycle)
        if not cores:
            return "no busy core at the injection cycle"
        count = min(mask.n_cores, len(cores))
        picks = rng.choice(len(cores), size=count, replace=False)
        line = mask.entry_index % geom.num_lines
        bits = [b % (self.card.tag_bits + geom.line_bytes * 8)
                for b in mask.bit_offsets]
        names = [f"L1{kind.upper()}.{cores[int(idx)]}" for idx in picks]
        self.last_target = {"caches": names, "line": int(line)}
        fates = []
        for name in names:
            fate = self._cache_line_fate(name, line, bits, mask.cycle)
            if fate is None:
                return None
            fates.append(fate)
        self.last_fate = self._join_fates(fates)
        return (f"line {line} is dead/invalid in every targeted "
                f"L1{kind.upper()} at cycle {mask.cycle}")

    def _screen_l2(self, mask: FaultMask) -> Optional[str]:
        geom = self.card.l2
        line = mask.entry_index % geom.num_lines
        bits = [b % (self.card.tag_bits + geom.line_bytes * 8)
                for b in mask.bit_offsets]
        self.last_target = {"caches": ["L2"], "line": int(line)}
        fate = self._cache_line_fate("L2", line, bits, mask.cycle)
        if fate is not None:
            self.last_fate = fate
            return f"L2 line {line} is dead/invalid at cycle {mask.cycle}"
        return None

    @staticmethod
    def _join_fates(fates: List[str]) -> str:
        for fate in ("overwritten", "evicted"):
            if fate in fates:
                return fate
        return "never_touched"

    def _cache_line_fate(self, name: str, line: int, bits: List[int],
                         cycle: int) -> Optional[str]:
        """Dead fate of the line, or ``None`` when it may be observed."""
        events = self.trace.cache_line_events(name, line)

        def post(event) -> bool:
            # the injector fires at the top of a loop iteration: events
            # of the same cycle are post-injection only when recorded
            # inside the loop (phase 1); launch-entry invalidations and
            # inter-launch host peeks at that cycle precede it
            when, phase, _ = event
            return when > cycle or (when == cycle and phase == 1)

        valid = False
        for event in events:
            if post(event):
                break
            kind = event[2]
            if kind == "fill":
                valid = True
            elif kind == "inv":
                valid = False
        if not valid:
            # invalid tags are never compared; the next fill rewrites
            # tag and data -- architecturally masked (and in hook mode
            # arm_hook refuses invalid lines outright)
            return "never_touched"

        suffix = [event[2] for event in events if post(event)]
        if self.cache_hook_mode:
            for kind in suffix:
                if kind == "rh":
                    return None  # hook fires: flips enter the data
                if kind == "wh":
                    return "overwritten"  # hook dropped by write hit
                if kind in ("fill", "inv"):
                    return "evicted"  # hook dropped with the line
                # "wb"/"peek" carry clean data while the hook is armed
            return "never_touched"  # never read again: hook never fires

        if any(bit < self.card.tag_bits for bit in bits):
            return None  # tag bits of a valid line steer every probe
        for kind in suffix:
            if kind in ("rh", "wh", "wb", "peek"):
                # data observed (or partially overwritten: "wh" may not
                # cover the flipped bits -- conservative)
                return None
            if kind in ("fill", "inv"):
                return "evicted"  # data rewritten/dropped before read
        return "never_touched"  # never accessed again
