"""The fault site: where a mask lands, decided once.

A mask fixes structure, cycle, entry and bits; *which* active thread
or warp, which CTAs, which SIMT cores it hits is drawn at injection
time from run-time liveness and the mask's seed (paper section IV.B,
Table IV).  :func:`resolve` is that draw -- the one place a mask's
seed becomes a generator -- and a :class:`Site` is what it lands on.
Everything else does one thing to a site: the injector corrupts it
(:mod:`repro.faults.injector`), the pre-screener judges it against the
golden trace (:mod:`repro.faults.early_stop`), the propagation tracer
watches it (:mod:`repro.obs.propagation`).

The draw indexes *what is live at this instant, in (core,
CTA-assignment, warp) order*.  Two populations provide it:
:class:`LiveState` reads a GPU, :class:`GoldenState` reconstructs the
same lists from the golden run's
:class:`~repro.sim.liveness.LivenessTrace` -- the prefix of an injected
run is the golden run, so both resolve a mask to equal sites
(``tests/test_sites.py`` compares them on all twelve workloads).

``docs/architecture.md``, *Life of a fault site*, has the table of
what is drawn per structure.  The entry index wraps at the target's
own entry count: :func:`~repro.faults.targets.entry_count` of the
kernel it runs, the live depth of a SIMT stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.faults.mask import FaultMask
from repro.faults.targets import Structure, entry_count

#: Per kind, the coordinates of a site's propagation record, in order;
#: ``register`` / ``word`` / ``line`` / ``index`` all name the entry.
_RECORD_FIELDS = {
    "register": ("core", "warp_age", "register", "lanes"),
    "local": ("core", "warp_age", "word", "lanes"),
    "shared": ("core", "cta", "word"),
    "cache": ("cache", "line", "mode", "valid"),
    "control": ("unit", "core", "warp_age", "index"),
}


@dataclass(frozen=True)
class Site:
    """One resolved fault target: plain coordinates.

    ``age`` is the warp's age, or for a shared-memory site the
    ``age_base`` of its CTA (the age of its first warp): ages are
    unique per core and survive in the golden trace, ids do not.
    ``handle`` is the population's own object behind the coordinates
    -- a live warp, CTA or cache for whoever corrupts the site, the
    golden trace's warp record for whoever judges it -- and not part
    of the site's value.
    """

    kind: str  # register | local | shared | cache | control
    index: int  # register, 32-bit word, flat line, stack slot, entry
    core: Optional[int] = None  # None: the L2
    age: Optional[int] = None
    cta: Optional[Tuple[int, ...]] = None
    lanes: Tuple[int, ...] = ()  # register / local, ascending
    cache: Optional[str] = None  # the cache's name, "L1D.3" / "L2"
    valid: Optional[bool] = None  # cache: the line's state when hit
    mode: Optional[str] = None  # cache: "flip", or "hook" (deferred)
    unit: Optional[str] = None  # control: the structure's name
    handle: object = field(default=None, compare=False, repr=False)

    @property
    def cell(self) -> tuple:
        """The key of the site's cell wherever its accesses are kept
        (the golden trace's events, the tracer's watches): ``(kind,
        owner, index)``, the owner ``(core, age)`` or a cache's name."""
        return self.kind, self.cache or (self.core, self.age), self.index

    def record(self, fate: str = "never_touched",
               persistent: bool = False) -> dict:
        """The site as propagation records list it."""
        values = {"core": self.core, "warp_age": self.age,
                  "cta": list(self.cta or ()), "lanes": list(self.lanes),
                  "cache": self.cache, "mode": self.mode,
                  "valid": self.valid, "unit": self.unit}
        out = {"kind": self.kind,
               **{name: values.get(name, self.index)
                  for name in _RECORD_FIELDS[self.kind]}}
        out.update(fate=fate, fate_cycle=None, pc=None, kernel=None,
                   events=[])
        if persistent:
            # persistent (stuck-at) faults never end: the site stays
            # open for the whole run and counts every consumption
            out.update(persistent=True, reads=0)
        return out


class LiveState:
    """What is live on a GPU right now: the injector's population."""

    def __init__(self, gpu):
        self.gpu = gpu
        self.config = gpu.config

    def warps(self, with_local: bool = False) -> List[tuple]:
        """``(core, age, warp)`` of every live warp."""
        return [(core.core_id, warp.age, warp)
                for core in self.gpu.cores for cta in core.ctas
                for warp in cta.warps
                if not warp.done
                and not (with_local and warp.local_mem is None)]

    def lanes(self, warp) -> List[int]:
        return warp.live_lanes().tolist()

    def smem_ctas(self) -> List[tuple]:
        """``(core, age_base, cta_id, cta)`` of every live CTA that
        has shared memory."""
        return [(core.core_id, cta.warps[0].age, cta.cta_id, cta)
                for core in self.gpu.cores for cta in core.ctas
                if not cta.done and cta.smem.shape[1]]

    def busy_cores(self) -> List[int]:
        return [core.core_id for core in self.gpu.cores if core.ctas]

    def entries(self, structure: Structure, target) -> int:
        """Entry count ``target`` (a warp or a CTA) has of a structure."""
        if structure is Structure.SIMT_STACK:
            return len(target.stack)
        kernel = getattr(target, "cta", target).launch.kernel
        return entry_count(self.config, structure, kernel.num_regs,
                           kernel.smem_bytes, kernel.local_bytes)

    def line(self, structure: Structure, core: Optional[int],
             index: int) -> tuple:
        """``(cache name, valid, cache)`` of one line."""
        cache = getattr(self.gpu if core is None else self.gpu.cores[core],
                        structure.cache)
        return cache.name, cache.line_by_index(index).valid, cache


class GoldenState:
    """What was live at ``cycle`` of the golden run, from its liveness
    trace: the pre-screener's population.  The trace keeps no kernel
    facts, so the caller names the allocations of the kernel the cycle
    falls in; it keeps no control-unit state either, so the entry
    count of a control structure is ``None`` (not resolvable)."""

    def __init__(self, trace, cycle: int, config, regs_per_thread: int,
                 smem_bytes: int, local_bytes: int):
        self.trace = trace
        self.cycle = cycle
        self.config = config
        self.kernel_facts = (regs_per_thread, smem_bytes, local_bytes)

    def warps(self, with_local: bool = False) -> List[tuple]:
        if with_local and self.kernel_facts[2] <= 0:
            return []
        return self.trace.live_warps(self.cycle)

    def lanes(self, wrec) -> List[int]:
        return self.trace.live_lanes(wrec, self.cycle)

    def smem_ctas(self) -> List[tuple]:
        return self.trace.live_smem_ctas(self.cycle)

    def busy_cores(self) -> List[int]:
        return self.trace.busy_cores(self.cycle)

    def entries(self, structure: Structure, target) -> Optional[int]:
        if structure.is_control:
            return None
        return entry_count(self.config, structure, *self.kernel_facts)

    def line(self, structure: Structure, core: Optional[int],
             index: int) -> tuple:
        name = structure.cache.upper() + ("" if core is None else f".{core}")
        return name, self.trace.line_valid(name, index, self.cycle), None


def _sample(rng: np.random.Generator, items: list, count: int) -> list:
    """``min(count, len)`` distinct items, in drawn order."""
    if not items:
        return []
    count = min(count, len(items))
    if count == 1:
        # what choice(n, size=1, replace=False) draws, and all it draws
        return [items[int(rng.integers(0, len(items)))]]
    picks = rng.choice(len(items), size=count, replace=False)
    return [items[int(pick)] for pick in picks]


def resolve(mask: FaultMask, population, hook_mode: bool = False,
            rng: Optional[np.random.Generator] = None
            ) -> Union[Tuple[Site, ...], str, None]:
    """The sites ``mask`` lands on in ``population``.

    Returns the reason (the injection log's wording) when nothing it
    could hit is live, ``None`` when the population cannot place the
    entry.  The draws, their order and their arguments are the mask's
    identity in a log: a campaign is repeatable because they never
    change.  They come from ``numpy.random.default_rng(mask.seed)``,
    or from ``rng`` when given one set to that stream
    (:func:`repro.faults.mask.seeded_streams`).
    """
    s = mask.structure
    if rng is None and s is not Structure.L2_CACHE:  # one L2: no draw
        rng = np.random.default_rng(mask.seed)
    if s.is_cache:
        geometry = getattr(population.config, s.cache)
        if geometry is None:
            return "card has no L1D"
        cores = [None]
        if s is not Structure.L2_CACHE:
            cores = _sample(rng, population.busy_cores(), mask.n_cores)
            if not cores:
                return "no busy core"
        line = mask.entry_index % geometry.num_lines
        mode = "hook" if hook_mode else "flip"
        sites = []
        for core in cores:
            name, valid, cache = population.line(s, core, line)
            sites.append(Site("cache", line, core=core, cache=name,
                              valid=valid, mode=mode, handle=cache))
        return tuple(sites)
    if s is Structure.SHARED_MEM:
        ctas = _sample(rng, population.smem_ctas(), mask.n_blocks)
        if not ctas:
            return "no live CTA with smem"
        return tuple(
            Site("shared", mask.entry_index % population.entries(s, cta),
                 core=core, age=age, cta=tuple(cta_id), handle=cta)
            for core, age, cta_id, cta in ctas)
    # a thread's or a warp's entry: one live warp, then its lanes
    local = s is Structure.LOCAL_MEM
    warps = population.warps(with_local=local)
    if not warps:
        return "no live warp with local mem" if local else "no live warp"
    core, age, warp = warps[int(rng.integers(0, len(warps)))]
    entries = population.entries(s, warp)
    if entries is None:
        return None
    index = mask.entry_index % entries
    if s.is_control:
        return (Site("control", index, core=core, age=age, unit=s.value,
                     handle=warp),)
    lanes = population.lanes(warp)
    if not mask.warp_level:
        lanes = [lanes[int(rng.integers(0, len(lanes)))]]
    return (Site(s.kind, index, core=core, age=age, lanes=tuple(lanes),
                 handle=warp),)
