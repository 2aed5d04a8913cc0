"""The decoded-instruction record produced by the assembler."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.opcodes import OPCODES, OpClass, OpSpec
from repro.isa.operands import Operand, PredRef


class Instruction:
    """One decoded instruction of a kernel.

    ``__slots__``-backed (hand-written: ``dataclass(slots=True)``
    needs Python 3.10): instructions sit on the issue hot path and a
    kernel's list of them is traversed every simulated cycle.

    Attributes:
        opcode: canonical mnemonic (``"IADD"``, ``"LDG"``, ...).
        modifiers: dot-modifiers in source order (``("GE", "AND")``).
        dsts: destination operands.
        srcs: source operands.
        guard: the ``@P``/``@!P`` guard predicate, or ``None``.
        pc: index of this instruction in the kernel's instruction list.
        target_pc: resolved branch target (branches only).
        reconv_pc: immediate-post-dominator reconvergence point attached
            by CFG analysis (potentially-divergent branches only).
        line: 1-based source line, for diagnostics.
        plan: cache slot owned by the simulator: the issue plan
            :class:`repro.sim.core.IssuePlan` resolves from this
            (immutable) instruction at its first issue.  Not part of
            the instruction's identity.
    """

    __slots__ = ("opcode", "modifiers", "dsts", "srcs", "guard", "pc",
                 "target_pc", "reconv_pc", "line", "plan", "_sb_cache")

    def __init__(self, opcode: str, modifiers: Tuple[str, ...] = (),
                 dsts: Tuple[Operand, ...] = (),
                 srcs: Tuple[Operand, ...] = (),
                 guard: Optional[PredRef] = None, pc: int = -1,
                 target_pc: int = -1, reconv_pc: int = -1, line: int = 0):
        self.opcode = opcode
        self.modifiers = modifiers
        self.dsts = dsts
        self.srcs = srcs
        self.guard = guard
        self.pc = pc
        self.target_pc = target_pc
        self.reconv_pc = reconv_pc
        self.line = line
        self.plan = None
        self._sb_cache = None

    def __repr__(self) -> str:
        return ("Instruction(opcode={!r}, modifiers={!r}, dsts={!r}, "
                "srcs={!r}, guard={!r}, pc={!r}, target_pc={!r}, "
                "reconv_pc={!r}, line={!r})").format(
                    self.opcode, self.modifiers, self.dsts, self.srcs,
                    self.guard, self.pc, self.target_pc, self.reconv_pc,
                    self.line)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Instruction:
            return NotImplemented
        return (self.opcode, self.modifiers, self.dsts, self.srcs,
                self.guard, self.pc, self.target_pc, self.reconv_pc,
                self.line) == (
                    other.opcode, other.modifiers, other.dsts, other.srcs,
                    other.guard, other.pc, other.target_pc,
                    other.reconv_pc, other.line)

    @property
    def spec(self) -> OpSpec:
        """The static :class:`OpSpec` for this opcode."""
        return OPCODES[self.opcode]

    @property
    def is_branch(self) -> bool:
        """Whether this instruction is a branch."""
        return self.spec.klass is OpClass.BRANCH

    @property
    def is_exit(self) -> bool:
        """Whether this instruction terminates a thread."""
        return self.spec.klass is OpClass.EXIT

    @property
    def is_memory(self) -> bool:
        """Whether this instruction accesses a memory space."""
        return self.spec.is_memory

    @property
    def may_diverge(self) -> bool:
        """Whether this branch can split a warp (i.e. it is guarded)."""
        return self.is_branch and self.guard is not None and not (
            self.guard.is_pt and not self.guard.negate
        )

    def scoreboard_sets(self):
        """Register/predicate index sets used by the scoreboard.

        Returns ``(src_regs, dst_regs, src_preds, dst_preds)`` as
        tuples of indices, excluding the hardwired ``RZ``/``PT``.
        Computed once per instruction and cached.
        """
        cached = self._sb_cache
        if cached is not None:
            return cached
        from repro.isa.operands import MemRef, PredRef, RegRef, PT_INDEX, RZ_INDEX

        src_regs, dst_regs, src_preds, dst_preds = [], [], [], []
        for op in self.srcs:
            if isinstance(op, RegRef) and op.index != RZ_INDEX:
                src_regs.append(op.index)
            elif isinstance(op, MemRef) and op.base.index != RZ_INDEX:
                src_regs.append(op.base.index)
            elif isinstance(op, PredRef) and op.index != PT_INDEX:
                src_preds.append(op.index)
        for op in self.dsts:
            if isinstance(op, RegRef) and op.index != RZ_INDEX:
                dst_regs.append(op.index)
            elif isinstance(op, PredRef) and op.index != PT_INDEX:
                dst_preds.append(op.index)
        if self.guard is not None and self.guard.index != PT_INDEX:
            src_preds.append(self.guard.index)
        cached = (tuple(src_regs), tuple(dst_regs),
                  tuple(src_preds), tuple(dst_preds))
        self._sb_cache = cached
        return cached

    def __str__(self) -> str:
        parts = []
        if self.guard is not None:
            parts.append(f"@{self.guard}")
        mnemonic = self.opcode
        if self.modifiers:
            mnemonic += "." + ".".join(self.modifiers)
        parts.append(mnemonic)
        operands = ", ".join(str(op) for op in (*self.dsts, *self.srcs))
        if operands:
            parts.append(operands)
        return " ".join(parts)
