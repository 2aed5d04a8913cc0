"""Vectorised functional execution of the non-memory opcodes.

Every handler operates on all 32 lanes of every column of the warp's
runs axis (see :mod:`repro.sim.warp`) at once with numpy and commits
results only under the instruction's active mask: register operands
are ``(ncols, 32)``, while immediates, special registers and an
unguarded mask are plain ``(32,)`` and broadcast.  Integer arithmetic
is modular 32-bit (uint32 views); floating point is IEEE-754 binary32
via numpy float32, matching CUDA single-precision behaviour closely
enough for the benchmarks' golden comparisons.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.operands import Immediate, PredRef, RegRef, SpecialReg
from repro.sim.warp import Warp

_U32 = np.uint32
_I32 = np.int32
_F32 = np.float32

#: Shared all-zero RZ read (read-only; every consumer copies before
#: mutating), hoisted out of the per-issue hot path.
_RZ_U32 = np.zeros(32, dtype=_U32)
_RZ_U32.setflags(write=False)


def read_u32(warp: Warp, op) -> np.ndarray:
    """Read an operand as raw/integer lanes (uint32).

    The ``-``/``|..|`` operand modifiers are applied with integer
    semantics (two's-complement negate, signed absolute value).
    """
    if isinstance(op, Immediate):
        return np.full(32, op.value, dtype=_U32)
    assert isinstance(op, RegRef)
    values = _RZ_U32 if op.is_rz else warp.regs[op.index].copy()
    if op.absolute:
        values = np.abs(values.view(_I32)).view(_U32)
    if op.negate:
        values = (-values.view(_I32)).view(_U32)
    return values


def read_f32(warp: Warp, op) -> np.ndarray:
    """Read an operand as fp32 lanes, applying ``-``/``|..|`` modifiers."""
    if isinstance(op, Immediate):
        return np.full(32, op.value, dtype=_U32).view(_F32)
    assert isinstance(op, RegRef)
    raw = _RZ_U32 if op.is_rz else warp.regs[op.index]
    values = raw.view(_F32).copy()
    if op.absolute:
        values = np.abs(values)
    if op.negate:
        values = -values
    return values


def read_pred(warp: Warp, op: PredRef) -> np.ndarray:
    """Read a predicate operand (bool[ncols, 32]), honouring negation."""
    values = warp.preds[op.index]
    return ~values if op.negate else values.copy()


def write_u32(warp: Warp, op: RegRef, values: np.ndarray,
              mask: np.ndarray) -> None:
    """Commit uint32 lanes to a destination register under ``mask``
    (values and mask broadcast against the register's columns)."""
    if op.is_rz:
        return
    np.copyto(warp.regs[op.index], values.astype(_U32, copy=False),
              where=mask)


def write_f32(warp: Warp, op: RegRef, values: np.ndarray,
              mask: np.ndarray) -> None:
    """Commit fp32 lanes (bit-pattern) to a register under ``mask``."""
    write_u32(warp, op, values.astype(_F32, copy=False).view(_U32), mask)


def write_pred(warp: Warp, op: PredRef, values: np.ndarray,
               mask: np.ndarray) -> None:
    """Commit predicate lanes under ``mask`` (writes to ``PT`` discard)."""
    if op.is_pt:
        return
    np.copyto(warp.preds[op.index], values, where=mask)


# ---------------------------------------------------------------------------
# handlers: fn(inst, warp, mask) -> None
# ---------------------------------------------------------------------------

def _h_mov(inst, warp, mask):
    write_u32(warp, inst.dsts[0], read_u32(warp, inst.srcs[0]), mask)


def _h_s2r(inst, warp, mask):
    sreg = inst.srcs[0]
    assert isinstance(sreg, SpecialReg)
    write_u32(warp, inst.dsts[0], warp.sregs[sreg.name], mask)


def _h_sel(inst, warp, mask):
    pred = read_pred(warp, inst.srcs[2])
    values = np.where(pred, read_u32(warp, inst.srcs[0]),
                      read_u32(warp, inst.srcs[1]))
    write_u32(warp, inst.dsts[0], values, mask)


def _int_binop(fn):
    def handler(inst, warp, mask):
        a = read_u32(warp, inst.srcs[0])
        b = read_u32(warp, inst.srcs[1])
        write_u32(warp, inst.dsts[0], fn(a, b), mask)
    return handler


def _h_imad(inst, warp, mask):
    a = read_u32(warp, inst.srcs[0])
    b = read_u32(warp, inst.srcs[1])
    c = read_u32(warp, inst.srcs[2])
    write_u32(warp, inst.dsts[0], a * b + c, mask)


def _h_imnmx(inst, warp, mask):
    a = read_u32(warp, inst.srcs[0]).view(_I32)
    b = read_u32(warp, inst.srcs[1]).view(_I32)
    values = np.minimum(a, b) if "MIN" in inst.modifiers else np.maximum(a, b)
    write_u32(warp, inst.dsts[0], values.view(_U32), mask)


def _h_iabs(inst, warp, mask):
    a = read_u32(warp, inst.srcs[0]).view(_I32)
    write_u32(warp, inst.dsts[0], np.abs(a).view(_U32), mask)


def _h_shl(inst, warp, mask):
    a = read_u32(warp, inst.srcs[0])
    s = read_u32(warp, inst.srcs[1]) & 31
    write_u32(warp, inst.dsts[0], a << s, mask)


def _h_shr(inst, warp, mask):
    a = read_u32(warp, inst.srcs[0])
    s = read_u32(warp, inst.srcs[1]) & 31
    if "S" in inst.modifiers:
        values = (a.view(_I32) >> s.astype(_I32)).view(_U32)
    else:
        values = a >> s
    write_u32(warp, inst.dsts[0], values, mask)


def _h_not(inst, warp, mask):
    write_u32(warp, inst.dsts[0], ~read_u32(warp, inst.srcs[0]), mask)


_CMP = {
    "EQ": np.equal, "NE": np.not_equal, "LT": np.less, "LE": np.less_equal,
    "GT": np.greater, "GE": np.greater_equal,
}
_BOOL = {"AND": np.logical_and, "OR": np.logical_or, "XOR": np.logical_xor}


def _setp(inst, warp, mask, a, b):
    cmp_mod = next(m for m in inst.modifiers if m in _CMP)
    bool_mod = next(m for m in inst.modifiers if m in _BOOL)
    cmp = _CMP[cmp_mod](a, b)
    combine = read_pred(warp, inst.srcs[2])
    write_pred(warp, inst.dsts[0], _BOOL[bool_mod](cmp, combine), mask)
    write_pred(warp, inst.dsts[1], _BOOL[bool_mod](~cmp, combine), mask)


def _h_isetp(inst, warp, mask):
    a = read_u32(warp, inst.srcs[0])
    b = read_u32(warp, inst.srcs[1])
    if "U32" not in inst.modifiers:
        a, b = a.view(_I32), b.view(_I32)
    _setp(inst, warp, mask, a, b)


def _h_fsetp(inst, warp, mask):
    _setp(inst, warp, mask, read_f32(warp, inst.srcs[0]),
          read_f32(warp, inst.srcs[1]))


def _float_binop(fn):
    def handler(inst, warp, mask):
        a = read_f32(warp, inst.srcs[0])
        b = read_f32(warp, inst.srcs[1])
        with np.errstate(all="ignore"):
            write_f32(warp, inst.dsts[0], fn(a, b), mask)
    return handler


def _h_ffma(inst, warp, mask):
    a = read_f32(warp, inst.srcs[0])
    b = read_f32(warp, inst.srcs[1])
    c = read_f32(warp, inst.srcs[2])
    with np.errstate(all="ignore"):
        write_f32(warp, inst.dsts[0], a * b + c, mask)


def _h_fmnmx(inst, warp, mask):
    a = read_f32(warp, inst.srcs[0])
    b = read_f32(warp, inst.srcs[1])
    values = np.minimum(a, b) if "MIN" in inst.modifiers else np.maximum(a, b)
    write_f32(warp, inst.dsts[0], values, mask)


_MUFU_FN = {
    "RCP": lambda x: _F32(1.0) / x,
    "SQRT": np.sqrt,
    "RSQ": lambda x: _F32(1.0) / np.sqrt(x),
    "EX2": np.exp2,
    "LG2": np.log2,
    "SIN": np.sin,
    "COS": np.cos,
}


def _h_mufu(inst, warp, mask):
    fn = _MUFU_FN[inst.modifiers[0]]
    with np.errstate(all="ignore"):
        write_f32(warp, inst.dsts[0], fn(read_f32(warp, inst.srcs[0])), mask)


def _h_i2f(inst, warp, mask):
    raw = read_u32(warp, inst.srcs[0])
    values = (raw.astype(_F32) if "U32" in inst.modifiers
              else raw.view(_I32).astype(_F32))
    write_f32(warp, inst.dsts[0], values, mask)


def _h_f2i(inst, warp, mask):
    values = read_f32(warp, inst.srcs[0]).astype(np.float64)
    values = np.nan_to_num(values, nan=0.0, posinf=2**31 - 1, neginf=-2**31)
    if "U32" in inst.modifiers:
        clipped = np.clip(values, 0, 2**32 - 1)
        write_u32(warp, inst.dsts[0], clipped.astype(np.uint32), mask)
    else:
        clipped = np.clip(values, -(2**31), 2**31 - 1)
        write_u32(warp, inst.dsts[0],
                  clipped.astype(np.int64).astype(_I32).view(_U32), mask)


def _h_nop(inst, warp, mask):
    del inst, warp, mask


#: Dispatch table: opcode -> handler(inst, warp, mask).
HANDLERS: Dict[str, Callable[[Instruction, Warp, np.ndarray], None]] = {
    "MOV": _h_mov,
    "S2R": _h_s2r,
    "SEL": _h_sel,
    "IADD": _int_binop(lambda a, b: a + b),
    "ISUB": _int_binop(lambda a, b: a - b),
    "IMUL": _int_binop(lambda a, b: a * b),
    "IMAD": _h_imad,
    "IMNMX": _h_imnmx,
    "IABS": _h_iabs,
    "SHL": _h_shl,
    "SHR": _h_shr,
    "AND": _int_binop(lambda a, b: a & b),
    "OR": _int_binop(lambda a, b: a | b),
    "XOR": _int_binop(lambda a, b: a ^ b),
    "NOT": _h_not,
    "ISETP": _h_isetp,
    "FSETP": _h_fsetp,
    "FADD": _float_binop(lambda a, b: a + b),
    "FMUL": _float_binop(lambda a, b: a * b),
    "FFMA": _h_ffma,
    "FMNMX": _h_fmnmx,
    "MUFU": _h_mufu,
    "I2F": _h_i2f,
    "F2I": _h_f2i,
    "NOP": _h_nop,
}


def execute_alu(inst: Instruction, warp: Warp, mask: np.ndarray) -> None:
    """Execute one non-memory, non-control instruction on a warp."""
    HANDLERS[inst.opcode](inst, warp, mask)
