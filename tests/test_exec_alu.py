"""Functional semantics of the ALU / SFU / conversion opcodes.

Each test runs a tiny kernel that computes into a register and stores
it to global memory, then compares against numpy-computed expectations
for all active lanes.
"""

import numpy as np
import pytest

from repro.sim.device import Device
from repro.sim.kernel import Kernel

_F32 = np.float32
_I32 = np.int32
_U32 = np.uint32


def run_op(body: str, a=None, b=None, c=None, n: int = 32) -> np.ndarray:
    """Run ``body`` (computing R10 from R4,R5,R6) over n lanes.

    ``a``/``b``/``c`` are per-lane uint32 source arrays loaded into
    R4/R5/R6; the kernel stores R10 to the output buffer.
    """
    dev = Device("RTX2060")
    sources = []
    loads = []
    for reg, values in (("R4", a), ("R5", b), ("R6", c)):
        if values is None:
            continue
        arr = np.asarray(values, dtype=np.uint32)
        ptr = dev.to_device(arr)
        slot = len(sources)
        loads.append(f"    LDC R20, c[{4 * slot:#x}]\n"
                     f"    IADD R21, R20, R3\n"
                     f"    LDG {reg}, [R21]")
        sources.append(ptr)
    out_slot = len(sources)
    out_ptr = dev.malloc(4 * n)
    source = (
        "    S2R R0, SR_TID_X\n"
        "    SHL R3, R0, 2\n"
        + "\n".join(loads) + "\n"
        + body + "\n"
        + f"    LDC R22, c[{4 * out_slot:#x}]\n"
        "    IADD R23, R22, R3\n"
        "    STG [R23], R10\n"
        "    EXIT\n"
    )
    kernel = Kernel("op_test", source, num_params=out_slot + 1)
    dev.launch(kernel, grid=1, block=n, params=sources + [out_ptr])
    return dev.read_array(out_ptr, (n,), np.uint32)


def rnd_u32(seed, n=32):
    return np.random.default_rng(seed).integers(0, 2**32, n, dtype=np.uint64
                                                ).astype(np.uint32)


def rnd_f32(seed, n=32, lo=-10, hi=10):
    gen = np.random.default_rng(seed)
    return (gen.random(n, dtype=np.float32) * (hi - lo) + lo).astype(_F32)


class TestIntegerOps:
    def test_iadd_wraps(self):
        a, b = rnd_u32(1), rnd_u32(2)
        out = run_op("    IADD R10, R4, R5", a, b)
        assert np.array_equal(out, a + b)

    def test_isub(self):
        a, b = rnd_u32(3), rnd_u32(4)
        out = run_op("    ISUB R10, R4, R5", a, b)
        assert np.array_equal(out, a - b)

    def test_imul_low32(self):
        a, b = rnd_u32(5), rnd_u32(6)
        out = run_op("    IMUL R10, R4, R5", a, b)
        assert np.array_equal(out, a * b)

    def test_imad(self):
        a, b, c = rnd_u32(7), rnd_u32(8), rnd_u32(9)
        out = run_op("    IMAD R10, R4, R5, R6", a, b, c)
        assert np.array_equal(out, a * b + c)

    def test_imnmx_min_signed(self):
        a, b = rnd_u32(10), rnd_u32(11)
        out = run_op("    IMNMX.MIN R10, R4, R5", a, b)
        expect = np.minimum(a.view(_I32), b.view(_I32)).view(_U32)
        assert np.array_equal(out, expect)

    def test_imnmx_max_signed(self):
        a, b = rnd_u32(12), rnd_u32(13)
        out = run_op("    IMNMX.MAX R10, R4, R5", a, b)
        expect = np.maximum(a.view(_I32), b.view(_I32)).view(_U32)
        assert np.array_equal(out, expect)

    def test_iabs(self):
        a = rnd_u32(14)
        out = run_op("    IABS R10, R4", a)
        assert np.array_equal(out, np.abs(a.view(_I32)).view(_U32))

    def test_shl_masks_shift(self):
        a = rnd_u32(15)
        out = run_op("    SHL R10, R4, 33", a)  # 33 & 31 == 1
        assert np.array_equal(out, a << np.uint32(1))

    def test_shr_logical(self):
        a = rnd_u32(16)
        out = run_op("    SHR R10, R4, 4", a)
        assert np.array_equal(out, a >> np.uint32(4))

    def test_shr_arithmetic(self):
        a = rnd_u32(17)
        out = run_op("    SHR.S R10, R4, 4", a)
        assert np.array_equal(out, (a.view(_I32) >> 4).view(_U32))

    @pytest.mark.parametrize("op,fn", [
        ("AND", np.bitwise_and),
        ("OR", np.bitwise_or),
        ("XOR", np.bitwise_xor),
    ])
    def test_bitwise(self, op, fn):
        a, b = rnd_u32(18), rnd_u32(19)
        out = run_op(f"    {op} R10, R4, R5", a, b)
        assert np.array_equal(out, fn(a, b))

    def test_not(self):
        a = rnd_u32(20)
        out = run_op("    NOT R10, R4", a)
        assert np.array_equal(out, ~a)

    def test_iadd_negated_source(self):
        a, b = rnd_u32(21), rnd_u32(22)
        out = run_op("    IADD R10, R4, -R5", a, b)
        assert np.array_equal(out, a - b)


class TestMoves:
    def test_mov_immediate(self):
        out = run_op("    MOV R10, 0xdead")
        assert (out == 0xDEAD).all()

    def test_mov_rz_reads_zero(self):
        out = run_op("    MOV R10, RZ")
        assert (out == 0).all()

    def test_write_to_rz_discarded(self):
        out = run_op("    MOV RZ, 7\n    MOV R10, RZ")
        assert (out == 0).all()

    def test_s2r_laneid(self):
        out = run_op("    S2R R10, SR_LANEID")
        assert np.array_equal(out, np.arange(32, dtype=np.uint32))

    def test_sel(self):
        a, b = rnd_u32(23), rnd_u32(24)
        body = ("    ISETP.GE.AND P0, PT, R4, RZ, PT\n"
                "    SEL R10, R4, R5, P0")
        out = run_op(body, a, b)
        expect = np.where(a.view(_I32) >= 0, a, b)
        assert np.array_equal(out, expect)


class TestFloatOps:
    def test_fadd(self):
        a, b = rnd_f32(30), rnd_f32(31)
        out = run_op("    FADD R10, R4, R5", a.view(_U32), b.view(_U32))
        assert np.array_equal(out.view(_F32), a + b)

    def test_fmul(self):
        a, b = rnd_f32(32), rnd_f32(33)
        out = run_op("    FMUL R10, R4, R5", a.view(_U32), b.view(_U32))
        assert np.array_equal(out.view(_F32), a * b)

    def test_ffma(self):
        a, b, c = rnd_f32(34), rnd_f32(35), rnd_f32(36)
        out = run_op("    FFMA R10, R4, R5, R6", a.view(_U32),
                     b.view(_U32), c.view(_U32))
        assert np.allclose(out.view(_F32), a * b + c, rtol=1e-6)

    def test_fmnmx(self):
        a, b = rnd_f32(37), rnd_f32(38)
        out = run_op("    FMNMX.MIN R10, R4, R5", a.view(_U32), b.view(_U32))
        assert np.array_equal(out.view(_F32), np.minimum(a, b))

    def test_float_abs_modifier(self):
        a = rnd_f32(39)
        out = run_op("    FADD R10, |R4|, 0.0", a.view(_U32))
        assert np.array_equal(out.view(_F32), np.abs(a))

    def test_float_negate_modifier(self):
        a, b = rnd_f32(40), rnd_f32(41)
        out = run_op("    FADD R10, R4, -R5", a.view(_U32), b.view(_U32))
        assert np.array_equal(out.view(_F32), a - b)

    def test_float_immediate(self):
        a = rnd_f32(42)
        out = run_op("    FMUL R10, R4, 0.5", a.view(_U32))
        assert np.array_equal(out.view(_F32), a * _F32(0.5))


class TestSFU:
    def test_mufu_rcp(self):
        a = rnd_f32(50, lo=1, hi=10)
        out = run_op("    MUFU.RCP R10, R4", a.view(_U32))
        assert np.allclose(out.view(_F32), 1.0 / a, rtol=1e-6)

    def test_mufu_sqrt(self):
        a = rnd_f32(51, lo=0.1, hi=100)
        out = run_op("    MUFU.SQRT R10, R4", a.view(_U32))
        assert np.allclose(out.view(_F32), np.sqrt(a), rtol=1e-6)

    def test_mufu_rsq(self):
        a = rnd_f32(52, lo=0.1, hi=100)
        out = run_op("    MUFU.RSQ R10, R4", a.view(_U32))
        assert np.allclose(out.view(_F32), 1.0 / np.sqrt(a), rtol=1e-6)

    def test_mufu_ex2_lg2_roundtrip(self):
        a = rnd_f32(53, lo=0.5, hi=4)
        out = run_op("    MUFU.LG2 R10, R4", a.view(_U32))
        assert np.allclose(out.view(_F32), np.log2(a), rtol=1e-5)

    def test_mufu_sin_cos(self):
        a = rnd_f32(54, lo=-3, hi=3)
        out = run_op("    MUFU.SIN R10, R4", a.view(_U32))
        assert np.allclose(out.view(_F32), np.sin(a), rtol=1e-5, atol=1e-6)


class TestConversions:
    def test_i2f_signed(self):
        a = rnd_u32(60)
        out = run_op("    I2F R10, R4", a)
        assert np.array_equal(out.view(_F32), a.view(_I32).astype(_F32))

    def test_i2f_unsigned(self):
        a = rnd_u32(61)
        out = run_op("    I2F.U32 R10, R4", a)
        assert np.array_equal(out.view(_F32), a.astype(_F32))

    def test_f2i_truncates(self):
        a = rnd_f32(62)
        out = run_op("    F2I R10, R4", a.view(_U32))
        assert np.array_equal(out.view(_I32), a.astype(np.float64
                                                       ).astype(np.int64
                                                                ).astype(_I32))

    def test_f2i_saturates(self):
        a = np.full(32, 1e20, dtype=_F32)
        out = run_op("    F2I R10, R4", a.view(_U32))
        assert (out.view(_I32) == 2**31 - 1).all()

    def test_f2i_nan_is_zero(self):
        a = np.full(32, np.nan, dtype=_F32)
        out = run_op("    F2I R10, R4", a.view(_U32))
        assert (out == 0).all()


class TestPredicates:
    @pytest.mark.parametrize("cmp_mod,fn", [
        ("EQ", np.equal), ("NE", np.not_equal), ("LT", np.less),
        ("LE", np.less_equal), ("GT", np.greater), ("GE", np.greater_equal),
    ])
    def test_isetp_compare(self, cmp_mod, fn):
        a, b = rnd_u32(70), rnd_u32(71)
        body = (f"    ISETP.{cmp_mod}.AND P0, PT, R4, R5, PT\n"
                "    SEL R10, R4, R5, P0")
        out = run_op(body, a, b)
        expect = np.where(fn(a.view(_I32), b.view(_I32)), a, b)
        assert np.array_equal(out, expect)

    def test_isetp_unsigned(self):
        a = np.full(32, 0xFFFFFFFF, dtype=_U32)
        b = np.ones(32, dtype=_U32)
        body = ("    ISETP.GT.U32.AND P0, PT, R4, R5, PT\n"
                "    SEL R10, R4, R5, P0")
        out = run_op(body, a, b)
        assert (out == 0xFFFFFFFF).all()  # unsigned: big > 1

    def test_isetp_second_dst_gets_complement(self):
        a, b = rnd_u32(72), rnd_u32(73)
        body = ("    ISETP.LT.AND P0, P1, R4, R5, PT\n"
                "    SEL R10, R4, R5, P1")
        out = run_op(body, a, b)
        expect = np.where(a.view(_I32) < b.view(_I32), b, a)
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("bool_mod,fn", [
        ("AND", np.logical_and), ("OR", np.logical_or),
        ("XOR", np.logical_xor)])
    def test_first_dst_may_be_the_combine_predicate(self, bool_mod, fn):
        """``ISETP P0, P1, .., P0``: P1 combines with P0's value from
        before the instruction, not the one it has just written."""
        a = np.arange(32, dtype=_U32)
        body = ("    ISETP.LT.AND P0, PT, R4, 16, PT\n"
                f"    ISETP.GE.{bool_mod} P0, P1, R4, 8, P0\n"
                "    MOV R10, RZ\n"
                "@P0 IADD R10, R10, 1\n"
                "@P1 IADD R10, R10, 2")
        out = run_op(body, a)
        old = a < 16
        expect = fn(a >= 8, old) * 1 + fn(a < 8, old) * 2
        assert np.array_equal(out, expect.astype(_U32))

    def test_fsetp(self):
        a, b = rnd_f32(74), rnd_f32(75)
        body = ("    FSETP.LT.AND P0, PT, R4, R5, PT\n"
                "    SEL R10, R4, R5, P0")
        out = run_op(body, a.view(_U32), b.view(_U32))
        expect = np.where(a < b, a, b)
        assert np.array_equal(out.view(_F32), expect)

    def test_guard_false_lanes_keep_old_value(self):
        a = rnd_u32(76)
        body = ("    MOV R10, 7\n"
                "    ISETP.GE.AND P0, PT, R4, RZ, PT\n"
                "@P0 MOV R10, 9")
        out = run_op(body, a)
        expect = np.where(a.view(_I32) >= 0, 9, 7)
        assert np.array_equal(out, expect.astype(_U32))
