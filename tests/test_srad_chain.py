"""The SRAD v1 kernel chain: extract, prepare, reduce, compress."""

import numpy as np
import pytest

from repro.bench.srad import (_COMPRESS, _EXTRACT, _PREPARE, _REDUCE,
                              _REDUCE_BLOCK)
from repro.bench import make_benchmark
from repro.bench.common import ceil_div
from repro.sim.device import Device


@pytest.fixture
def dev():
    return Device("RTX2060")


class TestExtractCompress:
    def test_extract_is_exp_over_255(self, dev):
        image = np.linspace(1, 250, 128).astype(np.float32)
        ptr = dev.to_device(image)
        dev.launch(_EXTRACT, grid=1, block=128, params=[ptr, 128])
        out = dev.read_array(ptr, (128,), np.float32)
        assert np.allclose(out, np.exp(image / 255.0), rtol=1e-5)

    def test_compress_inverts_extract(self, dev):
        image = np.linspace(10, 200, 128).astype(np.float32)
        ptr = dev.to_device(image)
        dev.launch(_EXTRACT, grid=1, block=128, params=[ptr, 128])
        dev.launch(_COMPRESS, grid=1, block=128, params=[ptr, 128])
        out = dev.read_array(ptr, (128,), np.float32)
        assert np.allclose(out, image, rtol=1e-4, atol=1e-2)

    def test_guard_respects_n(self, dev):
        image = np.ones(128, dtype=np.float32)
        ptr = dev.to_device(image)
        dev.launch(_EXTRACT, grid=1, block=128, params=[ptr, 64])
        out = dev.read_array(ptr, (128,), np.float32)
        assert np.allclose(out[64:], 1.0)  # untouched tail
        assert not np.allclose(out[:64], 1.0)


class TestPrepareReduce:
    def test_prepare_squares(self, dev):
        data = np.arange(1, 129, dtype=np.float32)
        pj = dev.to_device(data)
        ps = dev.malloc(data.nbytes)
        ps2 = dev.malloc(data.nbytes)
        dev.launch(_PREPARE, grid=1, block=128,
                   params=[pj, ps, ps2, 128])
        sums = dev.read_array(ps, (128,), np.float32)
        sums2 = dev.read_array(ps2, (128,), np.float32)
        assert np.array_equal(sums, data)
        assert np.allclose(sums2, data * data)

    def test_reduce_totals(self, dev):
        n = 1024
        rng = np.random.default_rng(3)
        values = rng.random(n, dtype=np.float32)
        squares = (values * values).astype(np.float32)
        ps = dev.to_device(values)
        ps2 = dev.to_device(squares)
        live = n
        while live > 1:
            blocks = ceil_div(live, _REDUCE_BLOCK)
            dev.launch(_REDUCE, grid=blocks, block=_REDUCE_BLOCK,
                       params=[ps, ps2, live])
            live = blocks
        total = dev.read_array(ps, (1,), np.float32)[0]
        total2 = dev.read_array(ps2, (1,), np.float32)[0]
        assert total == pytest.approx(values.sum(dtype=np.float64),
                                      rel=1e-4)
        assert total2 == pytest.approx(squares.sum(dtype=np.float64),
                                       rel=1e-4)

    def test_reduce_partial_block(self, dev):
        # 100 live elements in a 128-thread block: the guard zeroes
        # the out-of-range lanes
        values = np.ones(128, dtype=np.float32)
        ps = dev.to_device(values)
        ps2 = dev.to_device(values)
        dev.launch(_REDUCE, grid=1, block=_REDUCE_BLOCK,
                   params=[ps, ps2, 100])
        assert dev.read_array(ps, (1,), np.float32)[0] == 100.0


class TestChainProfile:
    def test_six_static_kernels(self):
        bench = make_benchmark("srad1")
        names = [k.name for k in bench.kernels()]
        assert names == ["extract", "prepare", "reduce", "srad_cuda_1",
                         "srad_cuda_2", "compress"]

    def test_launch_count(self):
        dev = Device("RTX2060")
        bench = make_benchmark("srad1")
        assert bench.run(dev)
        by_kernel = {}
        for launch in dev.launches:
            by_kernel[launch.kernel_name] = \
                by_kernel.get(launch.kernel_name, 0) + 1
        assert by_kernel["extract"] == 1
        assert by_kernel["compress"] == 1
        assert by_kernel["prepare"] == bench.iterations
        assert by_kernel["reduce"] == 2 * bench.iterations  # 1024 -> 8 -> 1
