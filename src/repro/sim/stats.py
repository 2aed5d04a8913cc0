"""Per-launch simulation statistics.

The fields feed the paper's analysis directly: ``cycles`` weight the
per-kernel AVFs into the chip wAVF (eq. 3), ``occupancy`` is the red
dot series of Fig. 3, and ``mean_threads_per_sm`` /
``mean_ctas_per_sm`` feed the df_reg / df_smem derating factors of
section V.A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set


@dataclass
class LaunchStats:
    """Statistics of one kernel launch."""

    kernel_name: str
    launch_index: int
    start_cycle: int
    max_warps_per_sm: int
    end_cycle: int = 0
    instructions: int = 0
    #: Integrals over busy-SM cycles (an SM is busy while it has a CTA).
    busy_sm_cycles: int = 0
    warp_cycles: int = 0
    thread_cycles: int = 0
    cta_cycles: int = 0
    cores_used: Set[int] = field(default_factory=set)
    grid_ctas: int = 0
    threads_per_cta: int = 0
    regs_per_thread: int = 0
    smem_bytes_per_cta: int = 0

    @property
    def cycles(self) -> int:
        """Wall-clock cycles of this launch."""
        return self.end_cycle - self.start_cycle

    @property
    def occupancy(self) -> float:
        """Mean ratio of resident warps to the SM warp capacity."""
        if not self.busy_sm_cycles:
            return 0.0
        return self.warp_cycles / (self.busy_sm_cycles * self.max_warps_per_sm)

    @property
    def mean_threads_per_sm(self) -> float:
        """Mean live threads per busy SM (#THREADS_MEAN of df_reg)."""
        if not self.busy_sm_cycles:
            return 0.0
        return self.thread_cycles / self.busy_sm_cycles

    @property
    def mean_ctas_per_sm(self) -> float:
        """Mean live CTAs per busy SM (#CTAS_MEAN of df_smem)."""
        if not self.busy_sm_cycles:
            return 0.0
        return self.cta_cycles / self.busy_sm_cycles

    def copy(self) -> "LaunchStats":
        """``copy.deepcopy(self)``, without its walk."""
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__)
        dup.cores_used = set(self.cores_used)
        return dup


class StatsCollector:
    """Accumulates :class:`LaunchStats` across an application run."""

    def __init__(self):
        self.launches: List[LaunchStats] = []
        self.current: LaunchStats = None  # type: ignore[assignment]
        #: What :meth:`sample` last summed over which cores; whoever
        #: changes a core's residency or live counts sets it to
        #: ``None`` (derived state: never snapshotted).
        self.occupancy = None

    def begin_launch(self, kernel_name: str, start_cycle: int,
                     max_warps_per_sm: int) -> LaunchStats:
        """Open the stats record of a new launch."""
        self.current = LaunchStats(
            kernel_name=kernel_name,
            launch_index=len(self.launches),
            start_cycle=start_cycle,
            max_warps_per_sm=max_warps_per_sm,
        )
        self.occupancy = None
        return self.current

    def end_launch(self, end_cycle: int) -> LaunchStats:
        """Close the current record and archive it."""
        done = self.current
        done.end_cycle = end_cycle
        self.launches.append(done)
        self.current = self.occupancy = None  # type: ignore[assignment]
        return done

    def on_issue(self, inst) -> None:
        """Count one issued instruction."""
        if self.current is not None:
            self.current.instructions += 1

    def sample(self, cores, delta: int) -> None:
        """Accumulate occupancy integrals for ``delta`` cycles over
        the cores that still hold a CTA.  The sums are taken again
        only after :attr:`occupancy` was dropped or for another list
        of cores; in between an iteration costs four multiplications."""
        cur = self.current
        if cur is None:
            return
        sums = self.occupancy
        if sums is None or sums[0] is not cores:
            busy = warps = threads = ctas = 0
            for core in cores:
                resident = len(core.ctas)
                if not resident:
                    continue
                cur.cores_used.add(core.core_id)
                busy += 1
                warps += core.live_warps
                threads += core.live_threads
                ctas += resident
            sums = self.occupancy = (cores, busy, warps, threads, ctas)
        cur.busy_sm_cycles += sums[1] * delta
        cur.warp_cycles += sums[2] * delta
        cur.thread_cycles += sums[3] * delta
        cur.cta_cycles += sums[4] * delta

    def total_cycles(self) -> int:
        """Sum of launch cycles across the application."""
        return sum(ls.cycles for ls in self.launches)

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Copy the archived and in-flight launch records."""
        return {"launches": [ls.copy() for ls in self.launches],
                "current": self.current and self.current.copy()}

    def restore(self, snap: dict) -> None:
        """Rebuild collector state (copies, so shared snapshots stay
        pristine across repeated restores)."""
        self.launches = [ls.copy() for ls in snap["launches"]]
        self.current = snap["current"] and snap["current"].copy()
        self.occupancy = None
