"""Optional instruction-level execution tracing.

A :class:`Tracer` attached to a device (one more listener, see
:meth:`repro.sim.gpu.GPU.listen`) records every issued instruction
(cycle, core, CTA, warp, pc, rendered instruction, active lane count)
subject to cheap filters.  It exists to answer the
questions fault-injection debugging raises constantly: *what touched
this register between the injection and the corruption?  which warp
was at that PC at cycle X?*

Usage::

    tracer = Tracer(kernels=["kmeansPoint"], max_records=10_000)
    tracer.attach(dev)
    dev.launch(...)
    print(tracer.render(limit=50))
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One issued instruction."""

    cycle: int
    core: int
    cta: tuple
    warp: int
    pc: int
    text: str
    active_lanes: int
    #: Exact operand register index sets (from the instruction's
    #: scoreboard sets, RZ excluded); empty for records built without
    #: an instruction object.
    src_regs: Tuple[int, ...] = field(default=())
    dst_regs: Tuple[int, ...] = field(default=())

    def __str__(self) -> str:
        return (f"{self.cycle:>8}  core{self.core:<3} "
                f"cta{self.cta} w{self.warp:<3} pc{self.pc:<4} "
                f"[{self.active_lanes:>2}] {self.text}")


class Tracer:
    """Collects :class:`TraceRecord` for issued instructions.

    Args:
        kernels: only trace these kernel names (``None`` = all).
        opcodes: only trace these opcodes (``None`` = all).
        cores: only trace these core ids (``None`` = all).
        max_records: ring-buffer capacity; the newest records win.
    """

    def __init__(self, kernels: Optional[Sequence[str]] = None,
                 opcodes: Optional[Sequence[str]] = None,
                 cores: Optional[Sequence[int]] = None,
                 max_records: int = 100_000):
        self.kernels = set(kernels) if kernels else None
        self.opcodes = set(opcodes) if opcodes else None
        self.cores = set(cores) if cores else None
        self.max_records = max_records
        #: Ring buffer (a deque with ``maxlen``): appending beyond
        #: capacity evicts the oldest record in O(1) instead of the
        #: old list ``pop(0)``'s O(n) shift.
        self.records: Deque[TraceRecord] = deque(maxlen=max_records)
        self.dropped = 0

    def attach(self, device) -> "Tracer":
        """Listen to a device's issues; returns self for chaining."""
        device.gpu.listen(self)
        return self

    def on_issue(self, core_id: int, warp, plan, exec_mask, now: int) -> None:
        """One issue, heard before it executes: one that raises is the
        newest record."""
        inst = plan.inst
        if self.opcodes is not None and inst.opcode not in self.opcodes:
            return
        if self.cores is not None and core_id not in self.cores:
            return
        if self.kernels is not None and \
                warp.cta.launch.kernel.name not in self.kernels:
            return
        if len(self.records) == self.max_records:
            # the deque evicts the oldest on append; keep the tally
            self.dropped += 1
        self.records.append(TraceRecord(
            cycle=now,
            core=core_id,
            cta=tuple(warp.cta.cta_id),
            warp=warp.warp_id,
            pc=inst.pc,
            text=str(inst),
            active_lanes=int(exec_mask.sum()),
            src_regs=plan.src_regs,
            dst_regs=plan.dst_regs,
        ))

    def render(self, limit: Optional[int] = None) -> str:
        """The trace as text, newest-last (optionally only the tail)."""
        records = list(self.records)
        if limit is not None:
            records = records[-limit:]
        header = (f"{len(self.records)} records"
                  + (f" ({self.dropped} dropped)" if self.dropped else ""))
        return "\n".join([header] + [str(r) for r in records])
