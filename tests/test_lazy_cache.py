"""A restored cache builds a set at its first touch.

:meth:`Cache.restore` leaves every restored set *pending* -- its rows
of the snapshot's arrays -- until an operation touches it.  Defended
here, against the eager restore this replaced (every line of every
set rebuilt at once, kept below as :func:`eager_restore`):

- any interleaving of fills, lookups (for writes and reads), writes,
  peeks, invalidations, flips, hooks, stuck-at re-assertions, line
  reads, snapshots and restores gives the same return values, the same
  ``on_cache`` events in the same order, the same
  :meth:`Cache.snapshot` and the same ``part_digest``;
- only a touch builds a set: the pending sets are exactly the restored
  sets no operation has touched since (``invalidate_all`` touches
  none);
- restoring again and again from one shared snapshot never changes it.
"""

import pickle

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.sim.cache import Cache, CacheLine
from repro.sim.checkpoint import part_digest
from repro.sim.config import CacheGeometry
from tests.conftest import generated

#: 8 sets of 2 ways of 16 bytes: four tags compete for every set.
GEOMETRY = CacheGeometry(256, line_bytes=16, assoc=2)
LINE_BYTES = GEOMETRY.line_bytes
TAG_BITS = 57

addresses = st.builds(lambda block, word: block * LINE_BYTES + 4 * word,
                      st.integers(0, 4 * GEOMETRY.num_sets - 1),
                      st.integers(0, LINE_BYTES // 4 - 1))
line_indices = st.integers(0, GEOMETRY.num_lines - 1)
bit_offsets = st.integers(0, TAG_BITS + 8 * LINE_BYTES - 1)


def eager_restore(cache: Cache, snap: dict) -> None:
    """The reference: every line of every restored set built at once,
    each with its own copy of its data."""
    cache.restore({"tick": snap["tick"], "stats": snap["stats"]})
    if "sets" not in snap:
        return
    lines, row = [], 0
    for last_use, valid, dirty, tag in snap["lines"].tolist():
        line = CacheLine(cache.line_bytes)
        line.last_use = last_use
        if valid:
            line.valid, line.dirty, line.tag = True, bool(dirty), tag
            line.data[:] = snap["data"][row]
            armed = snap["armed"].get(row)
            line.armed = list(armed) if armed is not None else None
            row += 1
        lines.append(line)
    for at, set_idx in enumerate(snap["sets"].tolist()):
        cache._sets[set_idx] = lines[at * cache.assoc:(at + 1) * cache.assoc]


def view(value):
    """A comparable picture of what a cache operation returned."""
    if isinstance(value, CacheLine):
        return (value.valid, value.dirty, value.tag, value.last_use,
                value.data.tobytes(), value.armed)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(view(item) for item in value)
    if isinstance(value, dict):
        return {key: view(item) for key, item in value.items()}
    return value


def listened() -> Cache:
    cache = Cache("L1D", GEOMETRY, TAG_BITS)
    events = []
    cache.on_cache = (lambda *event: events.append(event),)
    cache.events = events
    return cache


class LazyRestore(RuleBasedStateMachine):
    """One cache restored lazily, one eagerly, driven alike."""

    def __init__(self):
        super().__init__()
        self.lazy, self.eager = listened(), listened()
        #: the snapshot both were last restored from, and its pickle
        self.shared = None
        #: restored sets nothing has touched since the restore
        self.untouched = set()

    def both(self, call):
        got, want = call(self.lazy), call(self.eager)
        assert view(got) == view(want)
        return got

    def touch(self, set_idx: int) -> None:
        self.untouched.discard(set_idx)

    def touch_addr(self, addr: int) -> None:
        self.touch(addr // LINE_BYTES % GEOMETRY.num_sets)

    def restore_from(self, snap: dict) -> None:
        self.lazy.restore(snap)
        eager_restore(self.eager, snap)
        self.untouched = set(snap["sets"].tolist()) if "sets" in snap else set()

    @initialize(fills=st.lists(st.tuples(addresses, st.integers(0, 255)),
                               max_size=16),
                writes=st.lists(addresses, max_size=6),
                hooks=st.lists(st.tuples(line_indices, bit_offsets),
                               max_size=4))
    def warm(self, fills, writes, hooks):
        """Fill, dirty and arm lines, then restore from their snapshot:
        a start with pending sets that hold every kind of line."""
        for addr, payload in fills:
            self.fill(addr, payload)
        for addr in writes:
            self.write(addr, addr ^ 0x5A5A5A5A)
        for index, bit in hooks:
            self.arm_hook(index, [bit])
        self.snapshot_and_restore()

    @rule(addr=addresses, payload=st.integers(0, 255))
    def fill(self, addr, payload):
        self.touch_addr(addr)
        self.both(lambda c: c.fill(
            addr, np.full(LINE_BYTES, payload, dtype=np.uint8)))

    @rule(addr=addresses, for_write=st.booleans())
    def lookup(self, addr, for_write):
        self.touch_addr(addr)
        self.both(lambda c: c.lookup(addr, for_write=for_write))

    @rule(addr=addresses, value=st.integers(0, 2**32 - 1))
    def write(self, addr, value):
        self.touch_addr(addr)

        def write_hit(cache):
            line = cache.lookup(addr, for_write=True)
            if line is not None:
                cache.write_word(line, addr, value)
            return line

        self.both(write_hit)

    @rule(addr=addresses, observed=st.booleans())
    def peek(self, addr, observed):
        self.touch_addr(addr)
        self.both(lambda c: c.peek(addr, observed=observed))

    @rule(addr=addresses)
    def invalidate(self, addr):
        self.touch_addr(addr)
        self.both(lambda c: c.invalidate(addr))

    @rule()
    def invalidate_all(self):
        self.both(lambda c: c.invalidate_all())

    @rule(index=line_indices, bit=bit_offsets,
          op=st.sampled_from(["xor", "set", "clear"]))
    def flip_bit(self, index, bit, op):
        self.touch(index // GEOMETRY.assoc)
        self.both(lambda c: c.flip_bit(index, bit, op=op))

    @rule(index=line_indices,
          bits=st.lists(bit_offsets, min_size=1, max_size=3, unique=True))
    def arm_hook(self, index, bits):
        self.touch(index // GEOMETRY.assoc)
        self.both(lambda c: c.arm_hook(index, bits))

    @rule(index=line_indices,
          bits=st.lists(bit_offsets, min_size=1, max_size=3, unique=True),
          op=st.sampled_from(["set", "clear"]))
    def assert_bits(self, index, bits, op):
        self.touch(index // GEOMETRY.assoc)
        self.both(lambda c: c.assert_bits(index, bits, op))

    @rule(index=line_indices)
    def line_by_index(self, index):
        self.touch(index // GEOMETRY.assoc)
        self.both(lambda c: c.line_by_index(index))

    @rule()
    def snapshot_and_restore(self):
        snap = self.both(lambda c: c.snapshot())
        self.shared = (snap, pickle.dumps(snap))
        self.restore_from(snap)

    @precondition(lambda self: self.shared is not None)
    @rule()
    def restore_again(self):
        self.restore_from(self.shared[0])

    @invariant()
    def same_state(self):
        lazy, eager = self.lazy.snapshot(), self.eager.snapshot()
        assert view(lazy) == view(eager)
        assert part_digest(lazy) == part_digest(eager)
        assert self.lazy.events == self.eager.events
        assert set(self.lazy._pending) == self.untouched
        if self.shared is not None:
            assert pickle.dumps(self.shared[0]) == self.shared[1]


LazyRestore.TestCase.settings = settings(generated(150),
                                         stateful_step_count=30)
TestLazyRestore = LazyRestore.TestCase


def test_invalidate_all_tells_pending_sets_in_restored_order():
    """Sets in restored order -- a set built since keeps its place --
    ways ascending, and no pending set is built."""
    cache = listened()
    for block in (13, 2, 7, 31, 10):  # sets 5, 2, 7, 7, 2
        cache.fill(block * LINE_BYTES, np.zeros(LINE_BYTES, dtype=np.uint8))
    restored = listened()
    restored.restore(cache.snapshot())
    restored.fill(5 * LINE_BYTES, np.ones(LINE_BYTES, dtype=np.uint8))
    restored.events.clear()
    restored.invalidate_all()
    assert restored.events == [("L1D", 2 * set_idx + way, "inv")
                               for set_idx in (2, 5, 7) for way in (0, 1)]
    assert set(restored._pending) == {2, 7}
    snap = restored.snapshot()
    assert not snap["lines"][:, 1:].any()
    assert snap["data"].shape == (0, LINE_BYTES)
