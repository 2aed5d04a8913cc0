"""Vectorised functional execution of the non-memory opcodes.

Every handler operates on all 32 lanes of every column of the warp's
runs axis (see :mod:`repro.sim.warp`) at once with numpy and commits
results only under the instruction's active mask: register operands
are ``(ncols, 32)``, while immediates, special registers and an
unguarded mask are plain ``(32,)`` and broadcast.  Integer arithmetic
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

    ``u32``/``f32`` hold read-only lanes when the value does not
    depend on warp state (immediate, ``RZ``), with the operand
    modifiers already applied under integer and under floating-point
    semantics; otherwise both are ``None`` and ``index``/``flags``
    name the register and its modifiers.
    """

    __slots__ = ("index", "flags", "u32", "f32")

    def __init__(self, op):
        self.index = -1
        self.flags = 0
        self.u32 = self.f32 = None
        if isinstance(op, Immediate):
            lanes = np.full(32, op.value, dtype=_U32)
            self.u32, self.f32 = lanes, lanes.view(_F32)
        else:
            self.flags = (_NEGATE if op.negate else 0) \
                | (_ABSOLUTE if op.absolute else 0)
            if op.is_rz:
                zeros = np.zeros(32, dtype=_U32)
                self.u32 = _modify_int(zeros, self.flags)
                self.f32 = _modify_float(zeros.view(_F32), self.flags)
            else:
                self.index = op.index
        for lanes in (self.u32, self.f32):
            if lanes is not None:
                lanes.setflags(write=False)


def _modify_int(values: np.ndarray, flags: int) -> np.ndarray:
    """``|..|`` then ``-`` with integer semantics (signed absolute
    value, two's-complement negate)."""
    if flags & _ABSOLUTE:
        values = np.abs(values.view(_I32)).view(_U32)
    if flags & _NEGATE:
        values = (-values.view(_I32)).view(_U32)
    return values


def _modify_float(values: np.ndarray, flags: int) -> np.ndarray:
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
    values = warp.regs[src.index]
    return _modify_int(values, src.flags) if src.flags else values


def read_f32(warp: Warp, src: Source) -> np.ndarray:
    """Read a source as fp32 lanes, applying ``-``/``|..|`` modifiers."""
    if src.f32 is not None:
        return src.f32
    values = warp.regs[src.index].view(_F32)
    return _modify_float(values, src.flags) if src.flags else values


def read_pred(warp: Warp, op: PredRef) -> np.ndarray:
    """Read a predicate operand (bool[ncols, 32]), honouring negation.
    Not negated, the result is the predicate itself: finish reading
    it before writing any predicate."""
    values = warp.preds[op.index]
    return ~values if op.negate else values


def write_u32(warp: Warp, dst, values: np.ndarray, mask: np.ndarray) -> None:
    """Commit uint32 lanes to register ``dst`` under ``mask`` (values
    and mask broadcast against the register's columns); ``None`` is
    ``RZ`` and discards."""
    if dst is not None:
        np.copyto(warp.regs[dst], values.astype(_U32, copy=False),
                  where=mask)


def write_f32(warp: Warp, dst, values: np.ndarray, mask: np.ndarray) -> None:
    """Commit fp32 lanes (bit-pattern) to a register under ``mask``."""
    if dst is not None:
        np.copyto(warp.regs[dst],
                  values.astype(_F32, copy=False).view(_U32), where=mask)


def write_pred(warp: Warp, dst, values: np.ndarray, mask: np.ndarray) -> None:
    """Commit predicate lanes under ``mask`` (``None`` is ``PT``)."""
    if dst is not None:
        np.copyto(warp.preds[dst], values, where=mask)


# ---------------------------------------------------------------------------
# handlers: fn(op, warp, mask) -> None, ``op`` being the issue plan
# ---------------------------------------------------------------------------

def _h_mov(op, warp, mask):
    write_u32(warp, op.dst, read_u32(warp, op.srcs[0]), mask)


def _h_s2r(op, warp, mask):
    write_u32(warp, op.dst, warp.sregs[op.srcs[0].name], mask)


def _h_sel(op, warp, mask):
    pred = read_pred(warp, op.srcs[2])
    values = np.where(pred, read_u32(warp, op.srcs[0]),
                      read_u32(warp, op.srcs[1]))
    write_u32(warp, op.dst, values, mask)


def _int_binop(fn):
    def handler(op, warp, mask):
        a = read_u32(warp, op.srcs[0])
        b = read_u32(warp, op.srcs[1])
        write_u32(warp, op.dst, fn(a, b), mask)
    return handler


def _h_imad(op, warp, mask):
    a = read_u32(warp, op.srcs[0])
    b = read_u32(warp, op.srcs[1])
    c = read_u32(warp, op.srcs[2])
    write_u32(warp, op.dst, a * b + c, mask)


def _h_imnmx(op, warp, mask):
    a = read_u32(warp, op.srcs[0]).view(_I32)
    b = read_u32(warp, op.srcs[1]).view(_I32)
    values = np.minimum(a, b) if "MIN" in op.modifiers else np.maximum(a, b)
    write_u32(warp, op.dst, values.view(_U32), mask)


def _h_iabs(op, warp, mask):
    a = read_u32(warp, op.srcs[0]).view(_I32)
    write_u32(warp, op.dst, np.abs(a).view(_U32), mask)


def _h_shl(op, warp, mask):
    a = read_u32(warp, op.srcs[0])
    s = read_u32(warp, op.srcs[1]) & 31
    write_u32(warp, op.dst, a << s, mask)


def _h_shr(op, warp, mask):
    a = read_u32(warp, op.srcs[0])
    s = read_u32(warp, op.srcs[1]) & 31
    if "S" in op.modifiers:
        values = (a.view(_I32) >> s.astype(_I32)).view(_U32)
    else:
        values = a >> s
    write_u32(warp, op.dst, values, mask)


def _h_not(op, warp, mask):
    write_u32(warp, op.dst, ~read_u32(warp, op.srcs[0]), mask)


_CMP = {
    "EQ": np.equal, "NE": np.not_equal, "LT": np.less, "LE": np.less_equal,
    "GT": np.greater, "GE": np.greater_equal,
}
_BOOL = {"AND": np.logical_and, "OR": np.logical_or, "XOR": np.logical_xor}


def _setp_fn(modifiers):
    """``(compare, combine)`` selected by a SETP's modifiers."""
    return (_CMP[next(m for m in modifiers if m in _CMP)],
            _BOOL[next(m for m in modifiers if m in _BOOL)])


def _setp(op, warp, mask, a, b):
    compare, combine = op.fn
    cmp = compare(a, b)
    other = read_pred(warp, op.srcs[2])
    # both results before either write: ``other`` may be the very
    # predicate dsts[0] names (``ISETP.LT.AND P0, P1, R2, 8, P0``)
    first, second = combine(cmp, other), combine(~cmp, other)
    write_pred(warp, op.dsts[0], first, mask)
    write_pred(warp, op.dsts[1], second, mask)


def _h_isetp(op, warp, mask):
    a = read_u32(warp, op.srcs[0])
    b = read_u32(warp, op.srcs[1])
    if "U32" not in op.modifiers:
        a, b = a.view(_I32), b.view(_I32)
    _setp(op, warp, mask, a, b)


def _h_fsetp(op, warp, mask):
    _setp(op, warp, mask, read_f32(warp, op.srcs[0]),
          read_f32(warp, op.srcs[1]))


def _float_binop(fn):
    def handler(op, warp, mask):
        a = read_f32(warp, op.srcs[0])
        b = read_f32(warp, op.srcs[1])
        write_f32(warp, op.dst, fn(a, b), mask)
    return handler


def _h_ffma(op, warp, mask):
    a = read_f32(warp, op.srcs[0])
    b = read_f32(warp, op.srcs[1])
    c = read_f32(warp, op.srcs[2])
    write_f32(warp, op.dst, a * b + c, mask)


def _h_fmnmx(op, warp, mask):
    a = read_f32(warp, op.srcs[0])
    b = read_f32(warp, op.srcs[1])
    values = np.minimum(a, b) if "MIN" in op.modifiers else np.maximum(a, b)
    write_f32(warp, op.dst, values, mask)


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
    write_f32(warp, op.dst, op.fn(read_f32(warp, op.srcs[0])), mask)


def _h_i2f(op, warp, mask):
    raw = read_u32(warp, op.srcs[0])
    values = (raw.astype(_F32) if "U32" in op.modifiers
              else raw.view(_I32).astype(_F32))
    write_f32(warp, op.dst, values, mask)


def _h_f2i(op, warp, mask):
    values = read_f32(warp, op.srcs[0]).astype(np.float64)
    values = np.nan_to_num(values, nan=0.0, posinf=2**31 - 1, neginf=-2**31)
    if "U32" in op.modifiers:
        clipped = np.clip(values, 0, 2**32 - 1)
        write_u32(warp, op.dst, clipped.astype(np.uint32), mask)
    else:
        clipped = np.clip(values, -(2**31), 2**31 - 1)
        write_u32(warp, op.dst,
                  clipped.astype(np.int64).astype(_I32).view(_U32), mask)


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

#: Opcodes whose modifiers select the function applied: opcode ->
#: resolver(modifiers), looked up once by :func:`bind`.
_MODIFIER_FN = {
    "ISETP": _setp_fn,
    "FSETP": _setp_fn,
    "MUFU": lambda modifiers: _MUFU_FN[modifiers[0]],
}


def bind(op, inst) -> None:
    """Resolve ``inst``'s ALU side into the issue plan ``op``:
    ``run`` (the handler), ``srcs``, ``dst``/``dsts``, ``modifiers``
    and ``fn``."""
    op.run = HANDLERS[inst.opcode]
    op.modifiers = inst.modifiers
    op.srcs = tuple(Source(s) if isinstance(s, (RegRef, Immediate)) else s
                    for s in inst.srcs)
    op.dsts = tuple(None if (d.is_pt if isinstance(d, PredRef) else d.is_rz)
                    else d.index for d in inst.dsts)
    op.dst = op.dsts[0] if op.dsts else None
    resolver = _MODIFIER_FN.get(inst.opcode)
    op.fn = resolver(inst.modifiers) if resolver is not None else None
