"""Vectorised functional execution of the non-memory opcodes.

Every handler operates on all 32 lanes of every column of the warp's
runs axis (see :mod:`repro.sim.warp`) at once with numpy and commits
results only under the instruction's active mask: register operands
are ``(ncols, 32)``, while immediates, special registers and an
unguarded mask are plain ``(32,)`` and broadcast.  The commit is one
call writing the destination register in place -- a ufunc with
``out=``/``where=mask``, or ``np.copyto(where=mask)`` of a result that
has to exist first -- through the view of the register file typed for
the result (``warp.regs``/``iregs``/``fregs``).  ``mask`` is handed on
as ``where=`` and nothing else, so it may be ``True`` when all 32 lanes
execute: numpy then runs its unmasked loops.  A source may be the
destination register itself; element-wise in-place is safe, but a
handler with two writes computes both results first.  Integer arithmetic
is modular 32-bit (uint32 views); floating point is IEEE-754 binary32
via numpy float32, matching CUDA single-precision behaviour closely
enough for the benchmarks' golden comparisons.

Handlers never look at an :class:`~repro.isa.instruction.Instruction`.
They take the instruction's issue plan (:class:`repro.sim.core
.IssuePlan`), whose operand fields :func:`bind` resolves once per
static instruction: sources become :class:`Source` records (an
immediate or ``RZ`` is materialised as read-only lanes, a register is
an index plus its ``-``/``|..|`` flags), destinations become plain
indices (``None`` for the write-discarding ``RZ``/``PT``), and the
modifier-selected function of ``ISETP``/``FSETP``/``MUFU`` is looked
up.  Floating-point handlers rely on the cycle loop running under
``np.errstate(all="ignore")`` (:meth:`repro.sim.gpu.GPU._cycle_loop`).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict

import numpy as np

from repro.isa.operands import Immediate, PredRef, RegRef
from repro.sim.warp import Warp

_U32 = np.uint32
_I32 = np.int32
_F32 = np.float32

_NEGATE, _ABSOLUTE = 1, 2


class Source:
    """One register-or-immediate source operand, resolved once.

    ``u32``/``i32``/``f32`` hold read-only lanes when the value does
    not depend on warp state (immediate, ``RZ``), with the operand
    modifiers already applied under integer and under floating-point
    semantics; otherwise all are ``None`` and ``index``/``flags`` name
    the register and its modifiers.
    """

    __slots__ = ("index", "flags", "u32", "i32", "f32")

    def __init__(self, op):
        self.index = -1
        self.flags = 0
        self.u32 = self.i32 = self.f32 = None
        if isinstance(op, Immediate):
            self.i32 = np.full(32, op.value, dtype=_U32).view(_I32)
            self.f32 = self.i32.view(_F32)
        else:
            self.flags = (_NEGATE if op.negate else 0) \
                | (_ABSOLUTE if op.absolute else 0)
            if not op.is_rz:
                self.index = op.index
                return
            self.i32 = _modify(np.zeros(32, dtype=_I32), self.flags)
            self.f32 = _modify(np.zeros(32, dtype=_F32), self.flags)
        self.u32 = self.i32.view(_U32)
        for lanes in (self.u32, self.i32, self.f32):
            lanes.setflags(write=False)


def _modify(values: np.ndarray, flags: int) -> np.ndarray:
    """``|..|`` then ``-`` on int32 lanes (signed absolute value,
    two's-complement negate) or on fp32 lanes."""
    if flags & _ABSOLUTE:
        values = np.abs(values)
    if flags & _NEGATE:
        values = -values
    return values


def read_u32(warp: Warp, src: Source) -> np.ndarray:
    """Read a source as raw/integer lanes (uint32).  The result may
    be the register itself: callers must not write into it."""
    if src.u32 is not None:
        return src.u32
    if src.flags:
        return _modify(warp.iregs[src.index], src.flags).view(_U32)
    return warp.regs[src.index]


def read_i32(warp: Warp, src: Source) -> np.ndarray:
    """:func:`read_u32` as signed lanes (int32)."""
    if src.i32 is not None:
        return src.i32
    values = warp.iregs[src.index]
    return _modify(values, src.flags) if src.flags else values


def read_f32(warp: Warp, src: Source) -> np.ndarray:
    """Read a source as fp32 lanes, applying ``-``/``|..|`` modifiers."""
    if src.f32 is not None:
        return src.f32
    values = warp.fregs[src.index]
    return _modify(values, src.flags) if src.flags else values


def read_pred(warp: Warp, op: PredRef) -> np.ndarray:
    """Read a predicate operand (bool[ncols, 32]), honouring negation.
    Not negated, the result is the predicate itself: finish reading
    it before writing any predicate."""
    values = warp.preds[op.index]
    return ~values if op.negate else values


# ---------------------------------------------------------------------------
# handlers: fn(op, warp, mask) -> None, ``op`` being the issue plan
# ---------------------------------------------------------------------------

def _h_mov(op, warp, mask):
    np.copyto(warp.regs[op.dst], read_u32(warp, op.srcs[0]), where=mask)


def _h_s2r(op, warp, mask):
    np.copyto(warp.regs[op.dst], warp.sregs[op.srcs[0].name], where=mask)


def _h_sel(op, warp, mask):
    picked = np.where(read_pred(warp, op.srcs[2]),
                      read_u32(warp, op.srcs[0]), read_u32(warp, op.srcs[1]))
    np.copyto(warp.regs[op.dst], picked, where=mask)


def _int_binop(ufunc):
    def handler(op, warp, mask):
        ufunc(read_u32(warp, op.srcs[0]), read_u32(warp, op.srcs[1]),
              out=warp.regs[op.dst], where=mask)
    return handler


def _h_imad(op, warp, mask):
    a = read_u32(warp, op.srcs[0])
    b = read_u32(warp, op.srcs[1])
    np.add(a * b, read_u32(warp, op.srcs[2]), out=warp.regs[op.dst],
           where=mask)


def _h_imnmx(op, warp, mask):
    op.fn(read_i32(warp, op.srcs[0]), read_i32(warp, op.srcs[1]),
          out=warp.iregs[op.dst], where=mask)


def _h_iabs(op, warp, mask):
    np.abs(read_i32(warp, op.srcs[0]), out=warp.iregs[op.dst], where=mask)


def _h_shl(op, warp, mask):
    np.left_shift(read_u32(warp, op.srcs[0]),
                  read_u32(warp, op.srcs[1]) & 31,
                  out=warp.regs[op.dst], where=mask)


def _h_shr(op, warp, mask):
    if op.fn:  # .S: arithmetic
        np.right_shift(read_i32(warp, op.srcs[0]),
                       read_i32(warp, op.srcs[1]) & 31,
                       out=warp.iregs[op.dst], where=mask)
    else:
        np.right_shift(read_u32(warp, op.srcs[0]),
                       read_u32(warp, op.srcs[1]) & 31,
                       out=warp.regs[op.dst], where=mask)


def _h_not(op, warp, mask):
    np.invert(read_u32(warp, op.srcs[0]), out=warp.regs[op.dst], where=mask)


_CMP = {
    "EQ": np.equal, "NE": np.not_equal, "LT": np.less, "LE": np.less_equal,
    "GT": np.greater, "GE": np.greater_equal,
}
_BOOL = {"AND": np.logical_and, "OR": np.logical_or, "XOR": np.logical_xor}


def _setp_fn(modifiers):
    """``(compare, combine, unsigned)`` selected by a SETP's modifiers."""
    return (_CMP[next(m for m in modifiers if m in _CMP)],
            _BOOL[next(m for m in modifiers if m in _BOOL)],
            "U32" in modifiers)


def _setp(op, warp, mask, a, b):
    compare, combine, _ = op.fn
    cmp = compare(a, b)
    other = read_pred(warp, op.srcs[2])
    first, second = op.dsts
    if second is not None:
        # both results before either write: ``other`` may be the very
        # predicate dsts[0] names (``ISETP.LT.AND P0, P1, R2, 8, P0``)
        complement = combine(~cmp, other)
    if first is not None:
        combine(cmp, other, out=warp.preds[first], where=mask)
    if second is not None:
        np.copyto(warp.preds[second], complement, where=mask)


def _h_isetp(op, warp, mask):
    read = read_u32 if op.fn[2] else read_i32
    _setp(op, warp, mask, read(warp, op.srcs[0]), read(warp, op.srcs[1]))


def _h_fsetp(op, warp, mask):
    _setp(op, warp, mask, read_f32(warp, op.srcs[0]),
          read_f32(warp, op.srcs[1]))


def _float_binop(fn):
    def handler(op, warp, mask):
        # computed on every lane, then committed: numpy's masked loops
        # return the *other* operand's payload when both are NaN
        np.copyto(warp.fregs[op.dst],
                  fn(read_f32(warp, op.srcs[0]), read_f32(warp, op.srcs[1])),
                  where=mask)
    return handler


def _h_ffma(op, warp, mask):
    a = read_f32(warp, op.srcs[0])
    b = read_f32(warp, op.srcs[1])
    # two roundings, and unmasked like FADD/FMUL
    np.copyto(warp.fregs[op.dst], a * b + read_f32(warp, op.srcs[2]),
              where=mask)


def _h_fmnmx(op, warp, mask):
    op.fn(read_f32(warp, op.srcs[0]), read_f32(warp, op.srcs[1]),
          out=warp.fregs[op.dst], where=mask)


_MUFU_FN = {
    "RCP": lambda x: _F32(1.0) / x,
    "SQRT": np.sqrt,
    "RSQ": lambda x: _F32(1.0) / np.sqrt(x),
    "EX2": np.exp2,
    "LG2": np.log2,
    "SIN": np.sin,
    "COS": np.cos,
}


def _h_mufu(op, warp, mask):
    # the transcendentals keep the call shape their results were
    # recorded with: which libm/SIMD loop a masked or in-place call
    # runs, and so its last bit, is numpy's choice
    np.copyto(warp.fregs[op.dst], op.fn(read_f32(warp, op.srcs[0])),
              where=mask)


def _h_i2f(op, warp, mask):
    read = read_u32 if op.fn else read_i32
    np.copyto(warp.fregs[op.dst], read(warp, op.srcs[0]), where=mask)


def _h_f2i(op, warp, mask):
    values = read_f32(warp, op.srcs[0]).astype(np.float64)
    values = np.nan_to_num(values, nan=0.0, posinf=2**31 - 1, neginf=-2**31)
    if op.fn:  # .U32
        np.copyto(warp.regs[op.dst], np.clip(values, 0, 2**32 - 1),
                  where=mask, casting="unsafe")
    else:
        np.copyto(warp.iregs[op.dst], np.clip(values, -(2**31), 2**31 - 1),
                  where=mask, casting="unsafe")


def _h_nop(op, warp, mask):
    del op, warp, mask


#: Dispatch table: opcode -> handler(op, warp, mask).  Precondition for
#: any caller outside the cycle loop: run the fp32 handlers under
#: ``np.errstate(all="ignore")``; they divide by zero and overflow
#: silently, like the hardware.
HANDLERS: Dict[str, Callable[[object, Warp, np.ndarray], None]] = {
    "MOV": _h_mov,
    "S2R": _h_s2r,
    "SEL": _h_sel,
    "IADD": _int_binop(np.add),
    "ISUB": _int_binop(np.subtract),
    "IMUL": _int_binop(np.multiply),
    "IMAD": _h_imad,
    "IMNMX": _h_imnmx,
    "IABS": _h_iabs,
    "SHL": _h_shl,
    "SHR": _h_shr,
    "AND": _int_binop(np.bitwise_and),
    "OR": _int_binop(np.bitwise_or),
    "XOR": _int_binop(np.bitwise_xor),
    "NOT": _h_not,
    "ISETP": _h_isetp,
    "FSETP": _h_fsetp,
    "FADD": _float_binop(operator.add),
    "FMUL": _float_binop(operator.mul),
    "FFMA": _h_ffma,
    "FMNMX": _h_fmnmx,
    "MUFU": _h_mufu,
    "I2F": _h_i2f,
    "F2I": _h_f2i,
    "NOP": _h_nop,
}


def _minmax_fn(modifiers):
    return np.minimum if "MIN" in modifiers else np.maximum


#: Opcodes whose modifiers select the function applied (or a variant
#: flag): opcode -> resolver(modifiers), looked up once by :func:`bind`.
_MODIFIER_FN = {
    "ISETP": _setp_fn,
    "FSETP": _setp_fn,
    "MUFU": lambda modifiers: _MUFU_FN[modifiers[0]],
    "IMNMX": _minmax_fn,
    "FMNMX": _minmax_fn,
    "SHR": lambda modifiers: "S" in modifiers,
    "I2F": lambda modifiers: "U32" in modifiers,
    "F2I": lambda modifiers: "U32" in modifiers,
}


def bind(op, inst) -> None:
    """Resolve ``inst``'s ALU side into the issue plan ``op``:
    ``run`` (the handler), ``srcs``, ``dst``/``dsts``, ``modifiers``
    and ``fn``."""
    op.modifiers = inst.modifiers
    op.srcs = tuple(Source(s) if isinstance(s, (RegRef, Immediate)) else s
                    for s in inst.srcs)
    op.dsts = tuple(None if (d.is_pt if isinstance(d, PredRef) else d.is_rz)
                    else d.index for d in inst.dsts)
    op.dst = op.dsts[0] if op.dsts else None
    # ``RZ``/``PT`` discard: with nothing to write there is nothing to do
    discards = all(dst is None for dst in op.dsts)
    op.run = _h_nop if discards else HANDLERS[inst.opcode]
    resolver = _MODIFIER_FN.get(inst.opcode)
    op.fn = resolver(inst.modifiers) if resolver is not None else None
