"""ALU differential fuzz: every ``exec_unit`` handler against a scalar
per-lane reference (ROADMAP 5(a), first oracle).

A case is one instruction as assembly *text* -- any opcode of
``exec_unit.HANDLERS``, its modifiers, every operand kind (register,
immediate, ``RZ``, ``-``/``|..|``, negated predicates, ``PT``) over
four registers and three predicates, so a destination aliases a source
in about a quarter of the cases (``dst == src0/src1/src2``, a SETP's
``dsts[0]`` == its predicate source, ``dsts[0] == dsts[1]``), a guard
that may be a predicate the instruction writes -- plus a data seed,
the kind of active mask and the width of the runs axis.  The register
file is filled from the seed with integer and fp32 edge patterns (NaN
payloads, +-inf, -0.0, denormals, values that overflow to inf, shift
counts >= 32, F2I saturation points) and random words.

The reference computes each executing lane with Python ints and
``np.float32`` scalars from the state *before* the instruction; every
other lane, register and predicate must be bit-identical to before.

Budgets: small and deterministic in tier-1; ``--hypothesis-profile
nightly`` (``tests/conftest.py``) runs it large and random.  A failing
case is printed as the ``@example(...)`` line to check in below.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.isa.assembler import assemble
from repro.isa.opcodes import (BOOL_MODIFIERS, CMP_MODIFIERS, MUFU_MODIFIERS,
                               OPCODES)
from repro.isa.operands import Immediate, SpecialReg
from repro.sim.core import IssuePlan
from repro.sim.exec_unit import HANDLERS
from repro.sim.warp import Warp
from tests.conftest import generated

M32 = 0xFFFFFFFF
NUM_REGS, NUM_PREDS = 4, 3

#: Words worth meeting: integer corners, shift counts, fp32 specials.
EDGE_WORDS = (
    0, 1, 2, 3, 31, 32, 33, 63, 0x7FFFFFFF, 0x80000000, 0x80000001, M32,
    # (0x80000000 is also -0.0, 0x80000001 the smallest negative denormal)
    0xFFFFFFFE, 0x0000FFFF, 0x00010000,
    0x3F800000, 0xBF800000,    # +-1.0
    0x3F000000, 0xBF000000,    # +-0.5
    0x3FC00000, 0x40200000,    # 1.5, 2.5
    0x7F800000, 0xFF800000,    # +-inf
    0x7FC00000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0xFFBFFFFF,  # NaNs
    0x00000001, 0x007FFFFF, 0x00800000,  # denormals, min normal
    0x7F7FFFFF, 0xFF7FFFFF,    # +-max: overflow to inf when added/multiplied
    0x4F000000, 0xCF000000, 0x4F800000, 0x4EFFFFFF,  # 2^31, -2^31, 2^32, <2^31
    0x4B800000, 0x4B800001,    # 2^24 (I2F rounding), 2^24+2
    0x60AD78EC, 0xE0AD78EC,    # +-1e20
    0x42C80000, 0xC2C80000,    # +-100.0 (EX2 range)
)

_CMP = {"EQ": lambda a, b: a == b, "NE": lambda a, b: a != b,
        "LT": lambda a, b: a < b, "LE": lambda a, b: a <= b,
        "GT": lambda a, b: a > b, "GE": lambda a, b: a >= b}
_BOOL = {"AND": lambda a, b: a and b, "OR": lambda a, b: a or b,
         "XOR": lambda a, b: a != b}
#: Opcodes whose sources are read as fp32.
_FLOAT_SOURCES = {"FADD", "FMUL", "FFMA", "FMNMX", "FSETP", "MUFU", "F2I"}
#: Opcodes whose NaN result carries an unspecified payload.
_ANY_NAN = {"FADD", "FMUL", "FFMA", "FMNMX", "MUFU"}
#: libm-backed functions: compared within this many units in the last
#: place of the correctly rounded result.
_LIBM, _LIBM_ULPS = {"EX2", "LG2", "SIN", "COS"}, 4


# -- the generator --------------------------------------------------------

def _register(draw, modifiers=True):
    name = draw(st.sampled_from(["R0", "R1", "R2", "R3", "RZ"]))
    if modifiers:
        if draw(st.booleans()) and draw(st.booleans()):
            name = f"|{name}|"
        if draw(st.booleans()) and draw(st.booleans()):
            name = f"-{name}"
    return name


def _predicate(draw, negatable=True):
    name = draw(st.sampled_from(["P0", "P1", "P2", "PT"]))
    if negatable and draw(st.booleans()):
        name = f"!{name}"
    return name


def _operand(draw, letter):
    if letter == "RI" and draw(st.booleans()):
        word = draw(st.one_of(st.sampled_from(EDGE_WORDS),
                              st.integers(0, M32)))
        return f"{word:#x}"
    if letter in ("R", "RI"):
        return _register(draw)
    if letter == "P":
        return _predicate(draw)
    assert letter == "S", letter
    return draw(st.sampled_from(SpecialReg.NAMES))


def _modifiers(draw, opcode):
    if opcode in ("ISETP", "FSETP"):
        mods = [draw(st.sampled_from(CMP_MODIFIERS))]
        if opcode == "ISETP" and draw(st.booleans()):
            mods.append("U32")
        return mods + [draw(st.sampled_from(BOOL_MODIFIERS))]
    if opcode in ("IMNMX", "FMNMX"):
        return [draw(st.sampled_from(["MIN", "MAX"]))]
    if opcode == "MUFU":
        return [draw(st.sampled_from(MUFU_MODIFIERS))]
    optional = {"SHR": "S", "I2F": "U32", "F2I": "U32"}.get(opcode)
    return [optional] if optional and draw(st.booleans()) else []


@st.composite
def instruction_texts(draw):
    opcode = draw(st.sampled_from(sorted(HANDLERS)))
    spec = OPCODES[opcode]
    text = ".".join([opcode] + _modifiers(draw, opcode))
    operands = [_predicate(draw, negatable=False) if letter == "P"
                else _register(draw, modifiers=False)
                for letter in spec.dsts]
    operands += [_operand(draw, letter) for letter in spec.srcs]
    if operands:
        text += " " + ", ".join(operands)
    if draw(st.booleans()) and draw(st.booleans()):
        text = f"@{_predicate(draw)} {text}"
    return text


#: "dense" leaves long runs of lanes with a ragged end: where numpy's
#: masked loops go from their vector body to their tail.
MASK_KINDS = ("empty", "one", "ragged", "dense", "full", "all")


def build_state(seed, ncols, mask_kind):
    """A warp (no CTA needed) filled from ``seed``, and its active
    lanes: a bool array, or ``True`` for kind ``"all"``."""
    rng = np.random.default_rng(seed)
    warp = Warp(0, 32, NUM_REGS, 0, cta=None, age=0, ncols=ncols)
    shape = warp.regs.shape
    edge = rng.choice(np.array(EDGE_WORDS, dtype=np.uint32), size=shape)
    noise = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64)
    warp.regs[:] = np.where(rng.random(shape) < 0.6, edge,
                            noise.astype(np.uint32))
    if seed % 3 == 0:
        # a pack's columns mostly agree with column 0
        keep = rng.random(shape) < 0.9
        warp.regs[:] = np.where(keep, warp.regs[:, :1], warp.regs)
    warp.preds[:NUM_PREDS] = rng.random((NUM_PREDS, ncols, 32)) < 0.5
    warp.sregs = {name: rng.integers(0, 1 << 16, size=32).astype(np.uint32)
                  for name in SpecialReg.NAMES}
    active = np.zeros(32, dtype=bool)
    if mask_kind == "one":
        active[rng.integers(0, 32)] = True
    elif mask_kind == "ragged":
        active[:] = rng.random(32) < 0.5
    elif mask_kind == "dense":
        active[:] = rng.random(32) < 0.94
    elif mask_kind in ("full", "all"):
        active[:] = True
    return warp, (True if mask_kind == "all" else active)


# -- the scalar reference ---------------------------------------------------

def _s32(word):
    return word - (1 << 32) if word & 0x80000000 else word


def _f32(word):
    return np.uint32(word).view(np.float32)


def _bits(value):
    return int(np.float32(value).view(np.uint32))


def _is_nan(word):
    return word & 0x7F800000 == 0x7F800000 and word & 0x007FFFFF != 0


def _ordered(word):
    """fp32 bit pattern -> integer monotone in the value it encodes."""
    return -(word & 0x7FFFFFFF) if word & 0x80000000 else word


def _source_word(op, as_float, regs, col, lane):
    """One lane of a register-or-immediate source, modifiers applied
    bitwise (fp32) or on the signed value (integer)."""
    if isinstance(op, Immediate):
        return op.value
    word = 0 if op.is_rz else int(regs[op.index, col, lane])
    if as_float:
        if op.absolute:
            word &= 0x7FFFFFFF
        if op.negate:
            word ^= 0x80000000
        return word
    if op.absolute:
        word = abs(_s32(word)) & M32
    if op.negate:
        word = -_s32(word) & M32
    return word


def _mufu(function, x):
    """Expected fp32 bit pattern of one MUFU lane."""
    one = np.float32(1.0)
    if function == "RCP":
        return _bits(one / x)
    if function == "SQRT":
        return _bits(np.sqrt(x))
    if function == "RSQ":
        return _bits(one / np.sqrt(x))
    value = float(x)
    if math.isnan(value):
        return 0x7FC00000
    if function == "EX2":
        if value == math.inf:
            return 0x7F800000
        # past the exponent range of a double: 0 or inf in fp32 anyway
        return _bits(2.0 ** max(min(value, 1000.0), -1000.0))
    if function == "LG2":
        if value == 0.0:
            return 0xFF800000
        if value < 0.0:
            return 0x7FC00000
        return _bits(math.log2(value)) if value != math.inf else 0x7F800000
    if math.isinf(value):
        return 0x7FC00000
    return _bits(math.sin(value) if function == "SIN" else math.cos(value))


def _f2i(x, unsigned):
    value = float(x)
    if math.isnan(value):
        return 0
    if math.isinf(value):
        # +inf saturates at the *signed* maximum under either flavour
        whole = 2**31 - 1 if value > 0 else -2**31
    else:
        whole = int(value)  # truncates, exactly
    low, high = (0, 2**32 - 1) if unsigned else (-2**31, 2**31 - 1)
    return min(max(whole, low), high) & M32


def reference(inst, regs, preds, sregs, col, lane):
    """What one executing lane writes: ``[(kind, index, value)]`` in
    commit order, from the state before the instruction."""
    opcode, mods = inst.opcode, inst.modifiers
    as_float = opcode in _FLOAT_SOURCES

    def word(i):
        return _source_word(inst.srcs[i], as_float, regs, col, lane)

    def pred(i):
        op = inst.srcs[i]
        return bool(preds[op.index, col, lane]) != op.negate

    if opcode == "NOP":
        return []
    if opcode in ("ISETP", "FSETP"):
        a, b = word(0), word(1)
        if opcode == "FSETP":
            a, b = _f32(a), _f32(b)
        elif "U32" not in mods:
            a, b = _s32(a), _s32(b)
        cmp = bool(_CMP[next(m for m in mods if m in _CMP)](a, b))
        combine = _BOOL[next(m for m in mods if m in _BOOL)]
        return [("P", inst.dsts[0].index, combine(cmp, pred(2))),
                ("P", inst.dsts[1].index, combine(not cmp, pred(2)))]
    with np.errstate(all="ignore"):
        if opcode == "MOV":
            out = word(0)
        elif opcode == "S2R":
            out = int(sregs[inst.srcs[0].name][lane])
        elif opcode == "SEL":
            out = word(0) if pred(2) else word(1)
        elif opcode == "IADD":
            out = word(0) + word(1)
        elif opcode == "ISUB":
            out = word(0) - word(1)
        elif opcode == "IMUL":
            out = word(0) * word(1)
        elif opcode == "IMAD":
            out = word(0) * word(1) + word(2)
        elif opcode == "IMNMX":
            pick = min if "MIN" in mods else max
            out = pick(_s32(word(0)), _s32(word(1)))
        elif opcode == "IABS":
            out = abs(_s32(word(0)))
        elif opcode == "SHL":
            out = word(0) << (word(1) & 31)
        elif opcode == "SHR":
            value = _s32(word(0)) if "S" in mods else word(0)
            out = value >> (word(1) & 31)
        elif opcode == "AND":
            out = word(0) & word(1)
        elif opcode == "OR":
            out = word(0) | word(1)
        elif opcode == "XOR":
            out = word(0) ^ word(1)
        elif opcode == "NOT":
            out = ~word(0)
        elif opcode == "FADD":
            out = _bits(_f32(word(0)) + _f32(word(1)))
        elif opcode == "FMUL":
            out = _bits(_f32(word(0)) * _f32(word(1)))
        elif opcode == "FFMA":  # two roundings
            out = _bits(np.float32(_f32(word(0)) * _f32(word(1)))
                        + _f32(word(2)))
        elif opcode == "FMNMX":
            a, b = _f32(word(0)), _f32(word(1))
            if np.isnan(a) or np.isnan(b):
                out = 0x7FC00000
            elif "MIN" in mods:
                out = _bits(a if a < b else b)
            else:
                out = _bits(a if a > b else b)
        elif opcode == "MUFU":
            out = _mufu(mods[0], _f32(word(0)))
        elif opcode == "I2F":
            value = word(0)
            out = _bits(np.float32(value if "U32" in mods else _s32(value)))
        elif opcode == "F2I":
            out = _f2i(_f32(word(0)), "U32" in mods)
        else:  # pragma: no cover - a new opcode needs a reference
            raise AssertionError(f"no reference for {opcode}")
    return [("R", inst.dsts[0].index, out & M32)]


def _same(opcode, function, got, want):
    """Whether the word a handler wrote is the word expected."""
    if got == want:
        return True
    if opcode in _ANY_NAN and _is_nan(want):
        return _is_nan(got)
    if opcode == "FMNMX" and {got, want} == {0, 0x80000000}:
        return True  # min/max of +0.0 and -0.0: either zero
    return (function in _LIBM and not _is_nan(got)
            and abs(_ordered(got) - _ordered(want)) <= _LIBM_ULPS)


def check_case(text, seed, mask_kind, ncols):
    inst = assemble(text + "\nEXIT")[0]
    warp, active = build_state(seed, ncols, mask_kind)
    regs, preds = warp.regs.copy(), warp.preds.copy()
    mask = active
    if inst.guard is not None:
        guard = preds[inst.guard.index] != inst.guard.negate
        mask = active & guard  # per column
    plan = IssuePlan(inst)
    with np.errstate(all="ignore"):
        plan.run(plan, warp, mask)

    executing = np.broadcast_to(mask, (ncols, 32))
    want_regs = [[[int(w) for w in column] for column in reg] for reg in regs]
    want_preds = preds.copy()
    inexact = set()
    for col, lane in zip(*np.nonzero(executing)):
        for kind, index, value in reference(inst, regs, preds, warp.sregs,
                                            col, lane):
            if kind == "P" and index != 7:       # PT discards
                want_preds[index, col, lane] = value
            elif kind == "R" and index != 255:   # RZ discards
                want_regs[index][col][lane] = value
                inexact.add((index, col, lane))
    function = inst.modifiers[0] if inst.opcode == "MUFU" else None
    for index in range(NUM_REGS):
        for col in range(ncols):
            for lane in range(32):
                got = int(warp.regs[index, col, lane])
                want = want_regs[index][col][lane]
                assert got == want or (
                    (index, col, lane) in inexact
                    and _same(inst.opcode, function, got, want)), (
                    f"{text}: R{index} col {col} lane {lane}: "
                    f"{got:#010x}, expected {want:#010x} "
                    f"(was {int(regs[index, col, lane]):#010x})")
    assert np.array_equal(warp.preds, want_preds), (
        f"{text}: predicates {np.argwhere(warp.preds != want_preds)[:4]}")


# -- the tests ------------------------------------------------------------------

@generated(tier1_examples=1500)
@given(text=instruction_texts(), seed=st.integers(0, 10_000),
       mask_kind=st.sampled_from(MASK_KINDS), ncols=st.sampled_from([1, 3]))
# the SETP destination-aliasing bug PR 14's uncommitted fuzz found
@example(text="ISETP.LT.AND P0, P1, R2, 0x8, P0", seed=1, mask_kind="full",
         ncols=1)
@example(text="@P0 ISETP.GE.U32.XOR P0, P0, R1, R1, !P0", seed=2,
         mask_kind="ragged", ncols=3)
@example(text="FSETP.NE.OR P1, P1, R0, -|R0|, P1", seed=3, mask_kind="all",
         ncols=3)
# in-place commits: the destination is every source
@example(text="IMAD R1, R1, R1, -R1", seed=4, mask_kind="ragged", ncols=3)
@example(text="FFMA R2, R2, -R2, |R2|", seed=5, mask_kind="all", ncols=1)
@example(text="SEL R0, R0, R0, !P1", seed=6, mask_kind="one", ncols=3)
@example(text="SHR.S R3, R3, R3", seed=7, mask_kind="full", ncols=3)
@example(text="MUFU.RSQ R1, |R1|", seed=8, mask_kind="ragged", ncols=1)
# saturation and the signed-maximum +inf of the unsigned flavour
@example(text="F2I.U32 R0, R0", seed=21, mask_kind="all", ncols=3)
@example(text="F2I R0, -R0", seed=10, mask_kind="full", ncols=1)
@example(text="I2F.U32 R2, -|R2|", seed=11, mask_kind="ragged", ncols=3)
# discarded destinations write nothing
@example(text="@!P2 IADD RZ, R0, 0xffffffff", seed=12, mask_kind="all",
         ncols=1)
@example(text="ISETP.EQ.AND PT, PT, R0, R0, PT", seed=13, mask_kind="full",
         ncols=3)
def test_handler_matches_scalar_reference(text, seed, mask_kind, ncols):
    check_case(text, seed, mask_kind, ncols)


#: Every modifier of every opcode that takes one, at least once.
VARIANTS = {
    "ISETP": [".LT.AND", ".GE.U32.OR", ".NE.XOR", ".EQ.U32.AND", ".LE.OR",
              ".GT.XOR"],
    "FSETP": [".GT.OR", ".EQ.AND", ".LE.XOR", ".NE.AND", ".LT.OR", ".GE.XOR"],
    "IMNMX": [".MIN", ".MAX"], "FMNMX": [".MIN", ".MAX"],
    "MUFU": ["." + function for function in MUFU_MODIFIERS],
    "SHR": ["", ".S"], "I2F": ["", ".U32"], "F2I": ["", ".U32"],
}


@pytest.mark.parametrize("opcode", sorted(HANDLERS))
def test_every_opcode_under_every_mask(opcode):
    """Whatever the generator's budget reaches: each handler, under
    each of its modifiers, each mask kind and both widths, on enough
    register files to meet every edge word."""
    spec = OPCODES[opcode]
    operands = ["P0" if letter == "P" else "R1" for letter in spec.dsts]
    operands += [{"R": "R1", "RI": "R2", "P": "P0", "S": "SR_LANEID"}[letter]
                 for letter in spec.srcs]
    for mods in VARIANTS.get(opcode, [""]):
        text = f"{opcode}{mods} {', '.join(operands)}".strip()
        for seed in range(6):
            for mask_kind in MASK_KINDS:
                check_case(text, seed, mask_kind, 1 + 2 * (seed % 2))
