"""Masked-fault early termination (Relyzer/GangES-style acceleration).

Two cooperating mechanisms cut the wall-clock cost of the dominant
Masked outcome class without changing a single classification:

1. **Convergence early-exit** (:class:`ConvergenceMonitor`).  The
   golden checkpoint set stores, per snapshot, a digest of every named
   part of the GPU's state (:meth:`repro.sim.gpu.GPU.parts`,
   :func:`~repro.sim.checkpoint.part_digest`).  An injected run
   compares its own parts at every golden checkpoint cycle past the
   injection; when the part lists are equal and *every* digest
   matches, the complete mutable simulator state -- architectural and
   timing -- equals the golden run's, so the remaining execution is
   determined: the run terminates with :class:`EarlyConvergence` and
   inherits the golden suffix (passed, ``cycles == golden_cycles``,
   hence Masked).  One differing part settles a check the other way,
   so the part that differed last time -- before the first check, the
   one the fault landed in -- is asked first.  Host-side
   control flow is covered by comparing every DtoH copy performed so
   far against the golden recording; any mismatch permanently disables
   the monitor for that run.

2. **Dead-site pre-screening** (:class:`Prescreener`).  The prefix of
   every injected run is byte-identical to the golden run, so a
   mask's spatial target (which warp/register/word/cache line the
   injector will pick) is resolvable from the golden
   :class:`~repro.sim.liveness.LivenessTrace` alone --
   :func:`repro.faults.sites.resolve`, the injector's own routine, fed
   by :class:`~repro.faults.sites.GoldenState` instead of a live GPU.
   This module owns only the *judgement* (:meth:`Prescreener.judge`):
   if the golden trace proves every resolved site *dead* at the
   injection cycle (overwritten or evicted before any read, or never
   accessed again), the fault cannot alter any architectural value or
   any timing decision: the run is Masked with ``cycles ==
   golden_cycles`` by construction and is never simulated.

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
- Under ``cache_hook`` (deferred injection), writebacks and peeks are
  transparent -- the armed flips are not yet in the line data -- while
  a write hit, refill or invalidation drops the hook entirely.
"""

from __future__ import annotations

import functools
from itertools import zip_longest
from types import SimpleNamespace
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.faults.mask import FaultMask
from repro.faults.models import get_model
from repro.faults.sites import GoldenState, Site, resolve
from repro.faults.targets import Structure, entry_bits
from repro.sim.checkpoint import host_read_matches, part_digest
from repro.sim.liveness import post_injection

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
            and ``parts``, the snapshot's ``{part name: digest}``; see
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
        #: The part found differing at the previous check -- before
        #: the first, the one the injector's site is in: asked first.
        self._suspect: Optional[str] = None
        #: Host-side state diverged from golden: no convergence claim
        #: is sound any more, the monitor goes inert.
        self.diverged = False

    def due_cycle(self) -> Optional[int]:
        """Earliest remaining check cycle (``None``: no check left)."""
        if self.diverged or self._pos >= len(self._entries):
            return None
        return self._entries[self._pos]["cycle"]

    def on_cycle(self, gpu, launch, queue) -> None:
        """Digest-compare when a golden checkpoint cycle is reached.

        Called once :meth:`due_cycle` is reached, *before* the injector
        -- the same point the golden checkpointer captured at.
        Checkpoint cycles an injected run never visits (its timing
        diverged) are skipped, never misattributed.
        """
        if self.diverged:
            return
        entries = self._entries
        while self._pos < len(entries) \
                and entries[self._pos]["cycle"] < gpu.cycle:
            # a checkpoint cycle this run never landed on is timing
            # divergence -- a mismatch, in the part that holds the clock
            self._report(entries[self._pos]["cycle"], "rest")
            self._pos += 1
        if self._pos >= len(entries):
            return
        entry = entries[self._pos]
        if entry["cycle"] != gpu.cycle:
            return
        self._pos += 1
        if entry["launch_index"] != gpu.stats.current.launch_index:
            self._report(entry["cycle"], "rest")
            return
        if self._suspect is None and getattr(gpu.injector, "sites", ()):
            self._suspect = gpu.part_holding(gpu.injector.sites[0])
        differs = self.first_difference(gpu.parts(launch, queue),
                                        entry["parts"])
        self._report(entry["cycle"], differs)
        if differs is not None:
            self._suspect = differs
        elif self.terminate:
            raise EarlyConvergence(gpu.cycle, self.golden_cycles)
        else:
            self._pos = len(entries)

    def first_difference(self, parts, golden: dict) -> Optional[str]:
        """The name of a part of ``parts`` (a GPU's ``(name,
        capture)`` enumeration) whose digest is not the one ``golden``
        (a snapshot's ``{part name: digest}``) has for it -- the
        suspect when it differs or this run no longer holds it, else
        the first in enumeration order -- or ``None`` when the part
        lists are equal and every digest matches.  A part is captured
        only to be digested: a check costs what it takes to find a
        difference, and only a match takes every part.
        """
        captures = dict(parts)
        suspect = self._suspect
        if suspect in golden and (
                suspect not in captures
                or part_digest(captures[suspect]()) != golden[suspect]):
            return suspect
        if list(captures) != list(golden):
            # where the lists part ways: the part one side lacks
            return next(
                mine if mine is not None and mine not in golden else theirs
                for mine, theirs in zip_longest(captures, golden)
                if mine != theirs)
        return next((name for name in golden if name != suspect
                     and part_digest(captures[name]()) != golden[name]),
                    None)

    def _report(self, cycle: int, differs: Optional[str]) -> None:
        if self.observer is not None:
            self.observer.on_digest_check(cycle, differs is None, differs)

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


class Verdict(NamedTuple):
    """What the golden trace says about one mask."""

    #: Why the run is provably Masked; ``None``: simulate it.
    reason: Optional[str] = None
    #: The sites the mask resolves to (none: nothing live to hit, or
    #: not resolvable from a trace).
    sites: Tuple[Site, ...] = ()
    #: Per site, the fate proven for it (``overwritten`` / ``evicted``
    #: / ``never_touched``); ``None`` when it may be observed.
    fates: Tuple[Optional[str], ...] = ()
    #: Cycle of the earliest golden read that is the first thing to
    #: happen to a corrupted cell, when there is one.
    first_read: Optional[int] = None


#: What the first post-injection event of a cell means for a fault in
#: it -- the module docstring's soundness notes as data: a dead fate,
#: ``read`` (observed) or ``live`` (possibly observed: a cache write
#: hit may not cover the flipped bits).  A kind a rule does not name
#: is transparent (an armed hook is not in the line data yet).
_ISSUE_RULE = {"r": "read", "k": "overwritten"}
_FLIP_RULE = {"rh": "read", "wb": "read", "peek": "read", "wh": "live",
              "fill": "evicted", "inv": "evicted"}
_HOOK_RULE = {"rh": "read", "wh": "overwritten", "fill": "evicted",
              "inv": "evicted"}

#: A record's ``prescreen_reason`` for the injection log's
#: no-live-target reasons (:func:`repro.faults.sites.resolve`) ...
_NO_TARGET = {
    "no live warp": "no live warp at the injection cycle",
    "no live warp with local mem":
        "no live warp with local memory at the injection cycle",
    "no live CTA with smem":
        "no live CTA with shared memory at the injection cycle",
    "no busy core": "no busy core at the injection cycle",
    "card has no L1D": "card has no L1 data cache",
}
#: ... and when every site is dead, by site kind (the L2 has its own).
_DEAD = {
    "register": "register R{s.index} of warp {s.age} on core {s.core} "
                "is dead at cycle {cycle}",
    "local": "local word {s.index} of warp {s.age} on core {s.core} "
             "is dead for every targeted lane",
    "shared": "shared word {s.index} is dead in every targeted CTA at "
              "cycle {cycle}",
    "cache": "line {s.index} is dead/invalid in every targeted {level} "
             "at cycle {cycle}",
    Structure.L2_CACHE: "L2 line {s.index} is dead/invalid at cycle {cycle}",
}


class Prescreener:
    """Classifies provably-dead fault targets from the golden trace.

    :meth:`evaluate` resolves a mask against the trace (the
    pre-injection prefix of the injected run is byte-identical to
    golden, so :class:`~repro.faults.sites.GoldenState` is the
    population the injector will draw from), has :meth:`judge` apply
    the deadness rules documented in the module docstring to every
    site, and returns what it found as a :class:`Verdict`.
    """

    def __init__(self, trace, card):
        self.trace = trace
        self.card = card
        # the trace as GoldenState asks it: each live set once per cycle,
        # shared read-only (kept here: a kept trace equals its pickle)
        self._asked = SimpleNamespace(
            live_lanes=trace.live_lanes, line_valid=trace.line_valid,
            **{question: functools.lru_cache(1024)(getattr(trace, question))
               for question in ("live_warps", "live_smem_ctas", "busy_cores")})

    def evaluate(self, mask: FaultMask, regs_per_thread: int,
                 smem_bytes: int, local_bytes: int, rng=None) -> Verdict:
        """The verdict on ``mask``, struck in a kernel with these
        allocations (``rng``: see :func:`~repro.faults.sites.resolve`)."""
        if not get_model(mask.fault_model).prescreen_safe:
            # persistent faults invalidate every deadness rule: an
            # "overwritten" site is re-corrupted right after the
            # overwrite, an "evicted" line is re-corrupted on refill
            return Verdict()
        structure = mask.structure
        sites = resolve(mask, GoldenState(
            self._asked, mask.cycle, self.card, regs_per_thread, smem_bytes,
            local_bytes), rng)
        if sites is None:
            return Verdict()  # control units: never pre-screened
        if isinstance(sites, str):
            return Verdict(_NO_TARGET[sites])
        # tag bits of a valid line steer every probe of its set
        tag_hit = structure.is_cache and any(
            bit % entry_bits(self.card, structure) < self.card.tag_bits
            for bit in mask.bit_offsets)
        judged = [self.judge(site, mask.cycle, tag_hit) for site in sites]
        fates = tuple(fate for fate, _ in judged)
        reason = None
        if None not in fates:
            reason = _DEAD.get(structure, _DEAD[structure.kind]).format(
                s=sites[0], cycle=mask.cycle,
                level=(structure.cache or "").upper())
        return Verdict(reason, sites, fates, min(
            (read for _, read in judged if read is not None), default=None))

    def judge(self, site: Site, cycle: int, tag_hit: bool = False
              ) -> Tuple[Optional[str], Optional[int]]:
        """``(fate, first read)`` of a transient fault striking
        ``site`` at ``cycle``: the dead fate the trace proves (``None``
        when the site may be observed) and the cycle of the read that
        observes it first (``None`` without one).

        The one walk over a cell's golden events after the injection:
        its first event a rule names decides.  A local-memory site is
        one cell per lane; it is ``overwritten`` only when every lane
        is (what the online tracer says too).
        """
        trace, lanes, rule = self.trace, (None,), _ISSUE_RULE
        if site.kind == "cache":
            if not site.valid:
                # invalid tags are never compared; the next fill
                # rewrites tag and data -- architecturally masked (and
                # arm_hook refuses invalid lines outright)
                return "never_touched", None
            rule = _HOOK_RULE if site.mode == "hook" else _FLIP_RULE
            if tag_hit and rule is _FLIP_RULE:
                return None, None

            def post(event):
                return post_injection(event, cycle)
        else:
            if site.kind == "local":
                lanes = site.lanes

            def post(event):  # issues at the injection cycle follow it
                return event[0] >= cycle
        events = trace.cell_events(*site.cell)
        firsts = [next(((rule[event[-1]], event[0]) for event in events
                        if post(event) and event[-1] in rule
                        and (lane is None or event[1] == lane)),
                       ("never_touched", None))
                  for lane in lanes]
        if (site.kind == "register" and firsts[0][0] == "overwritten"
                and site.handle is not None and not set(site.lanes) <= set(
                    trace.live_lanes(site.handle, firsts[0][1]))):
            # a kill covers the lanes live *then*: a targeted lane that
            # exited first keeps its flipped bits, out of reach
            return "never_touched", None
        outcomes = {outcome for outcome, _ in firsts}
        if outcomes & {"read", "live"}:
            return None, min((when for outcome, when in firsts
                              if outcome == "read"), default=None)
        return (outcomes.pop() if len(outcomes) == 1
                else "never_touched"), None
