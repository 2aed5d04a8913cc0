"""Deferred cache-hook arm/drop state machine (paper section IV.B.4).

Complements the basic hook tests in ``test_cache.py`` with the
state-machine *edges*: sequences of events on one armed line (write
hit then read hit, invalidation while armed, flush transparency) and
the propagation tracer's view of each transition.
"""

import numpy as np

from repro.faults.sites import Site
from repro.obs.propagation import PropagationTracer
from repro.sim.cache import Cache
from repro.sim.config import CacheGeometry


def make_cache(size=4 * 1024, line=128, assoc=2, tag_bits=57) -> Cache:
    return Cache("test", CacheGeometry(size, line_bytes=line, assoc=assoc),
                 tag_bits)


def line_data(byte: int, line=128) -> np.ndarray:
    return np.full(line, byte, dtype=np.uint8)


def make_tracer(cache, record):
    """A tracer watching the armed line, with a fixed-cycle fake GPU."""
    tracer = PropagationTracer(injection_cycle=100)

    class _Gpu:
        cycle = 100
        stats = None

    tracer.gpu = _Gpu()
    cache.on_cache = (tracer.on_cache,)
    tracer.watch(Site("cache", record["line"], cache=record["cache"],
                      mode=record["mode"], valid=record["valid"]))
    return tracer


class TestArmDropEdges:
    def test_write_hit_then_read_hit_never_applies(self):
        # write hit drops the hook; the subsequent read hit must not
        # resurrect it
        cache = make_cache()
        cache.fill(0, line_data(0))
        record = cache.arm_hook(0, [57])
        assert record["valid"] is True
        cache.lookup(0, for_write=True)
        line = cache.lookup(0)  # read hit AFTER the drop
        assert line.armed is None
        assert cache.read_word(line, 0) == 0  # flip never applied

    def test_invalidation_while_armed_drops(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        cache.arm_hook(0, [57])
        cache.invalidate(0)
        # refill and read: the hook must be gone
        cache.fill(0, line_data(0))
        line = cache.lookup(0)
        assert line.armed is None
        assert cache.read_word(line, 0) == 0

    def test_invalidate_all_while_armed_drops(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        cache.arm_hook(0, [57])
        cache.invalidate_all()
        cache.fill(0, line_data(0))
        assert cache.read_word(cache.lookup(0), 0) == 0

    def test_rearm_after_drop_fires_again(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        cache.arm_hook(0, [57])
        cache.lookup(0, for_write=True)  # drop
        cache.arm_hook(0, [57])  # second injection, same line
        line = cache.lookup(0)
        assert cache.read_word(line, 0) == 1

    def test_read_hit_applies_only_once(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        cache.arm_hook(0, [57])
        assert cache.read_word(cache.lookup(0), 0) == 1
        assert cache.read_word(cache.lookup(0), 0) == 1  # no double flip


class TestTracerSeesTransitions:
    def test_read_hit_consumes(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        record = cache.arm_hook(0, [57])
        tracer = make_tracer(cache, record)
        cache.lookup(0)
        site = tracer.sites[0]
        assert site["fate"] == "consumed"
        assert site["fate_cycle"] == 100

    def test_write_hit_overwrites(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        record = cache.arm_hook(0, [57])
        tracer = make_tracer(cache, record)
        cache.lookup(0, for_write=True)
        assert tracer.sites[0]["fate"] == "overwritten"
        # a later read hit must not flip the fate back
        cache.lookup(0)
        assert tracer.sites[0]["fate"] == "overwritten"

    def test_invalidation_evicts(self):
        cache = make_cache()
        cache.fill(0, line_data(0))
        record = cache.arm_hook(0, [57])
        tracer = make_tracer(cache, record)
        cache.invalidate(0)
        assert tracer.sites[0]["fate"] == "evicted"

    def test_refill_evicts(self):
        cache = make_cache(assoc=1)
        set_stride = cache.geometry.num_sets * 128
        cache.fill(0, line_data(0))
        record = cache.arm_hook(0, [57])
        tracer = make_tracer(cache, record)
        cache.fill(set_stride, line_data(9))
        assert tracer.sites[0]["fate"] == "evicted"

    def test_invalid_line_site_is_never_touched(self):
        cache = make_cache()
        record = cache.arm_hook(3, [57])  # invalid line: no hook
        tracer = make_tracer(cache, record)
        site = tracer.sites[0]
        assert site["fate"] == "never_touched"
        assert site["valid"] is False
