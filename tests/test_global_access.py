"""A global access through the shape memos is the per-lane access.

``GlobalMemory.shape`` resolves a warp access's bounds, alignment and
coalescing once per exact operands (line size, offset, base register
lanes, mask) and once per (mask, line size, first address modulo the
line, lane offsets), and ``SIMTCore._exec_global`` moves whole lines as
one copy.  Here hypothesis generates masks and lane-address patterns --
contiguous, strided, duplicate words, reversed, scattered over several
lines, with a misaligned lane, in the null page below ``BASE_ADDRESS``
and past ``mapped_end()`` -- and runs LDG / STG / TLD / ATOM through
``_exec_global`` on a small GPU, beside a reference that walks the
lanes one by one on a twin GPU.  Loaded words, L1/L2 lines with their
counters, DRAM bytes, bank and channel contention, the latency and the
raised ``MemoryViolation`` (address and reason) must agree.  Each
pattern runs on a cold memo, at a shifted start (another line offset,
or off the heap: a hit that must fault) and again on the warm memo,
between two clean accesses; the memos never hold a faulting shape.
Below, the exact key one part at a time: a repeat hits, each operand
is in it, a stored access on a smaller heap faults as on empty memos,
an ``RZ`` base, lanes that do not execute, and its bound.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.isa.assembler import assemble
from repro.sim.core import IssuePlan
from repro.sim.errors import MemoryViolation
from repro.sim.gpu import GPU
from repro.sim import memory as memory_module
from repro.sim.memory import _ACCESSES, _SHAPES, BASE_ADDRESS, GlobalMemory
from repro.sim.warp import Warp
from tests.conftest import generated, tiny_config

MEM = 1 << 20  # tiny_config's DRAM, all of it mapped once anything is
IMAGE = (np.arange(MEM // 4, dtype=np.uint32)
         * np.uint32(2654435761)).view(np.uint8)
ADDR, DST, SRC = 1, 2, 3

OPS = {op: IssuePlan(assemble(f"{text}\nEXIT")[0]) for op, text in {
    "LDG": "LDG R2, [R1]", "LDG+": "LDG R2, [R1+0x40]",
    "STG": "STG [R1], R3", "STG+": "STG [R1+0x40], R3",
    "TLD": "TLD R2, [R1]", "ATOM": "ATOM.ADD R2, [R1], R3"}.items()}

FULL = (1 << 32) - 1
CLEAN = (FULL, [4 * lane for lane in range(32)], BASE_ADDRESS + 256)


class Twin:
    """A small GPU and one warp on its first core."""

    def __init__(self, l2_service_all: bool):
        self.gpu = GPU(tiny_config(l2_service_all=l2_service_all))
        self.gpu.memory.malloc(4096)
        self.gpu.memory.write_bytes(0, IMAGE)
        self.core = self.gpu.cores[0]
        self.warp = Warp(0, 32, 8, 0, cta=None, age=0)
        self.warp.regs[DST] = 0xDEADBEEF

    def aim(self, offsets, start: int, step: int) -> None:
        regs = self.warp.regs
        regs[ADDR, 0] = [(start + off) & 0xFFFFFFFF for off in offsets]
        regs[SRC, 0] = [0xA0000000 + 64 * step + lane for lane in range(32)]
        self.gpu.cycle = 5 * step

    def state(self):
        gpu = self.gpu
        caches = [gpu.l2, *self.core.l1s.values()]
        return (self.warp.regs.tobytes(), bytes(gpu.memory.data),
                gpu._l2_bank_busy, gpu._dram_busy,
                [(cache.name, vars(cache.stats), cache._tick,
                  sorted((index, [(line.valid, line.dirty, line.tag,
                                   line.last_use, line.data.tobytes())
                                  for line in ways])
                         for index, ways in cache._sets.items()))
                 for cache in caches])


def reference(twin: Twin, plan: IssuePlan, mask: np.ndarray) -> int:
    """The access lane by lane: the first misaligned lane faults, else
    the first unmapped one; then each line touched, ascending, moves
    its lanes' words (a store's highest lane wins a word)."""
    gpu, core, regs = twin.gpu, twin.core, twin.warp.regs
    line_bytes = gpu.l2.line_bytes
    lanes = [lane for lane in range(32) if mask[lane]]
    addr = {lane: int(regs[ADDR, 0, lane]) + plan.offset for lane in lanes}
    for lane in lanes:
        if addr[lane] % 4:
            raise MemoryViolation("global", addr[lane], "misaligned access")
    for lane in lanes:
        if not BASE_ADDRESS <= addr[lane] <= gpu.memory.mapped_end() - 4:
            raise MemoryViolation("global", addr[lane])
    if plan.is_atomic:
        worst = 0
        for lane in lanes:
            old, latency = gpu.l2_rmw(addr[lane], plan.modifiers[0],
                                      int(regs[SRC, 0, lane]))
            worst = max(worst, latency)
            regs[DST, :, lane] = old
            for l1 in (core.l1d, core.l1t):
                l1.invalidate(addr[lane] - addr[lane] % line_bytes)
        return worst
    by_line = {}
    for lane in lanes:
        by_line.setdefault(addr[lane] - addr[lane] % line_bytes,
                           []).append(lane)
    l1 = core.l1t if plan.via_texture else core.l1d
    use_l2 = gpu.config.l2_service_all or plan.via_texture
    worst = 0
    for base in sorted(by_line):
        if plan.is_load:
            latency, words = gpu.read_line_via(l1, base, use_l2)
            for lane in by_line[base]:
                regs[DST, :, lane] = words[(addr[lane] - base) // 4]
        else:
            stored = {(addr[lane] - base) // 4: regs[SRC, 0, lane]
                      for lane in by_line[base]}
            write = gpu.l2_write_words if use_l2 else gpu.dram_write_words
            latency = write(base, np.array(list(stored)),
                            np.array(list(stored.values()), dtype=np.uint32))
            for cache in (l1, core.l1t):
                cache.invalidate(base)
        worst = max(worst, latency)
    return worst + (len(by_line) - 1) * gpu.config.segment_overhead


def outcome(run):
    try:
        return run()
    except MemoryViolation as exc:
        return ("violation", exc.space, exc.address, exc.reason)


def memo_is_clean() -> bool:
    """No stored shape is misaligned, and no stored access is also
    below the heap (the faults their keys alone decide)."""
    for line_bytes, first, mask, rel in _SHAPES:
        executing = np.frombuffer(rel, np.int64)[np.frombuffer(mask, bool)]
        if ((first + executing) % 4).any():
            return False
    for line_bytes, offset, base, mask in _ACCESSES:
        lanes = np.frombuffer(base, np.uint32) if base else np.zeros(32)
        addrs = (lanes.astype(np.int64) + offset)[np.frombuffer(mask, bool)]
        if (addrs % 4).any() or addrs.min() < BASE_ADDRESS:
            return False
    return True


def stored() -> tuple:
    return len(_SHAPES), len(_ACCESSES)


def clear() -> None:
    _SHAPES.clear()
    _ACCESSES.clear()


def lane_offsets(kind: str, k: int, scattered) -> list:
    if kind == "contiguous":
        return [4 * lane for lane in range(32)]
    if kind == "strided":
        return [4 * k * lane for lane in range(32)]
    if kind == "duplicate":
        return [4 * (lane // k) for lane in range(32)]
    if kind == "reversed":
        return [4 * (31 - lane) for lane in range(32)]
    return [4 * word for word in scattered]


patterns = st.tuples(
    st.sampled_from(["contiguous", "strided", "duplicate", "reversed",
                     "scattered"]),
    st.integers(1, 40),
    st.lists(st.integers(0, 95), min_size=32, max_size=32),
    st.integers(0, 31), st.sampled_from([0, 0, 0, 1, 2, 3]),
).map(lambda t: [off + (t[4] if lane == t[3] else 0)
                 for lane, off in enumerate(lane_offsets(*t[:3]))])
masks = st.sampled_from([FULL, 0xFFFF, 0xAAAAAAAA, 1 << 31, 1 << 7]) \
    | st.integers(1, FULL)
starts = st.one_of(
    st.integers(BASE_ADDRESS // 4, 3000).map(lambda word: 4 * word),
    st.integers(0, 1100).map(lambda word: 4 * word),   # the null page
    st.integers(0, 400).map(lambda word: MEM - 4 * word),  # the heap's end
    st.integers(0, MEM + 1024))
shifts = st.sampled_from([4, 64, 124, 128, 4096, -4096, MEM, -MEM]) \
    | st.integers(-8192, 8192)


@given(op=st.sampled_from(sorted(OPS)), mask_bits=masks, offsets=patterns,
       start=starts, shift=shifts, l2_service_all=st.booleans())
@generated(60)
# one line at one offset, two at the next: the key's line offset
@example(op="LDG", mask_bits=FULL, offsets=CLEAN[1], start=0x2000, shift=4,
         l2_service_all=True)
@example(op="STG", mask_bits=FULL, offsets=CLEAN[1], start=0x2040, shift=64,
         l2_service_all=False)
# a stored shape met again off the heap, past its end and below it
@example(op="LDG", mask_bits=0xFFFF, offsets=CLEAN[1], start=0x1800,
         shift=MEM, l2_service_all=True)
@example(op="TLD", mask_bits=FULL, offsets=[0] * 32, start=0x1000,
         shift=-4096, l2_service_all=True)
# a misaligned lane, a duplicate-word store, a multi-line atomic
@example(op="STG+", mask_bits=FULL, offsets=[4 * lane + (lane == 9)
                                             for lane in range(32)],
         start=0x3000, shift=0, l2_service_all=True)
@example(op="STG", mask_bits=FULL, offsets=[4 * (lane // 4)
                                            for lane in range(32)],
         start=0x3000, shift=128, l2_service_all=False)
@example(op="ATOM", mask_bits=0xAAAAAAAA, offsets=[200 * lane
                                                   for lane in range(32)],
         start=0x1100, shift=4, l2_service_all=True)
def test_global_access_is_the_per_lane_access(op, mask_bits, offsets, start,
                                              shift, l2_service_all):
    plan = OPS[op]
    mask = np.array([mask_bits >> lane & 1 for lane in range(32)], dtype=bool)
    full = np.ones(32, dtype=bool)
    steps = [(OPS["LDG"], full, CLEAN[1], CLEAN[2]),
             (plan, mask, offsets, start),          # a cold memo
             (plan, mask, offsets, start + shift),  # same offsets elsewhere
             (plan, mask, offsets, start),          # a warm memo
             (OPS["STG"], full, CLEAN[1], CLEAN[2])]
    real, ref = Twin(l2_service_all), Twin(l2_service_all)
    clear()
    for step, (plan, mask, offsets, start) in enumerate(steps):
        for twin in (real, ref):
            twin.aim(offsets, start, step)
        before = stored()
        got = outcome(lambda: real.core._exec_global(plan, real.warp, mask))
        want = outcome(lambda: reference(ref, plan, mask))
        assert got == want, (step, start)
        assert real.state() == ref.state(), (step, start)
        if isinstance(got, tuple):
            assert stored() == before, "a faulting shape was stored"
        assert memo_is_clean()


LANES = np.arange(32)
ALL = np.ones(32, dtype=bool)


def heap(nbytes: int) -> GlobalMemory:
    """An RTX 2060-sized DRAM with ``nbytes`` allocated (mapped to the
    next 2 MiB)."""
    memory = GlobalMemory(8 << 20)
    memory.malloc(nbytes)
    return memory


def words(start: int) -> np.ndarray:
    """Base register lanes at consecutive words from ``start``."""
    return (start + 4 * LANES).astype(np.uint32)


def answer(memory, base, offset, mask, line_bytes):
    """``shape``'s outcome in plain values (slices as lane lists)."""
    def plain(part):
        return LANES[part].tolist() if isinstance(part, slice) \
            else part.tolist()

    def run():
        first, (lanes, segments, low, high) = memory.shape(
            base, offset, mask, line_bytes)
        return (first, lanes.tolist(), low, high,
                [(line, plain(seg), plain(offs))
                 for line, seg, offs in segments])
    return outcome(run)


def test_an_exact_repeat_hits():
    memory = heap(4096)
    clear()
    first, shape = memory.shape(words(BASE_ADDRESS), 0x40, ALL, 128)
    _SHAPES.clear()  # only the exact memo is left to answer
    assert memory.shape(words(BASE_ADDRESS), 0x40, ALL, 128) == (first, shape)
    assert memory.shape(words(BASE_ADDRESS), 0x40, ALL, 128)[1] is shape
    assert stored() == (0, 1), "the repeat went past the exact memo"


@pytest.mark.parametrize("changed", ["offset", "mask", "line", "base"])
def test_each_operand_is_in_the_exact_key(changed):
    """Two accesses that differ in one operand: the second, met on a
    memo that holds the first, answers as on empty memos."""
    memory = heap(4096)
    one = dict(base=words(BASE_ADDRESS), offset=0, mask=ALL, line_bytes=128)
    two = dict(one, **{
        "offset": dict(offset=0x40),
        "mask": dict(mask=LANES >= 16),
        "line": dict(line_bytes=64),
        "base": dict(base=words(BASE_ADDRESS + 0x80))}[changed])
    clear()
    want = answer(memory, **two)
    clear()
    assert answer(memory, **one) != want
    assert answer(memory, **two) == want


def test_a_stored_access_faults_on_a_smaller_heap():
    """The same operands on a GPU whose heap is mapped to 2 MiB, not 4:
    the stored entry must fault, where and why empty memos do."""
    big, small = heap(3 << 20), heap(4096)
    base = words(3 << 20)
    clear()
    want = answer(small, base, 0, ALL, 128)
    assert want == ("violation", "global", 3 << 20, "out of bounds")
    assert stored() == (0, 0)
    assert answer(big, base, 0, ALL, 128)[0] == 3 << 20
    assert stored() == (1, 1)
    assert answer(small, base, 0, ALL, 128) == want
    assert stored() == (1, 1)


def test_an_rz_base():
    """``[RZ+offset]``: keyed without base lanes, answered as a base
    register of zeros is; off the heap it faults."""
    memory = heap(4096)
    mask = LANES % 3 == 0
    clear()
    rz = answer(memory, None, 0x1100, mask, 128)
    assert (128, 0x1100, b"", mask.tobytes()) in _ACCESSES
    assert rz == answer(memory, np.zeros(32, np.uint32), 0x1100, mask, 128)
    assert rz[4] == [(0, LANES[mask].tolist(), [0] * 11)]
    assert answer(memory, None, 4 << 20, mask, 128) == (
        "violation", "global", 4 << 20, "out of bounds")


def test_lanes_that_do_not_execute_may_differ():
    """The same executing lanes under other base values on the lanes
    that do not execute (here off the heap): another exact key, the
    same relative one, the same answer."""
    memory = heap(4096)
    mask = LANES < 16
    other = words(BASE_ADDRESS)
    other[16:] = 0xFFFFFFF0
    clear()
    want = answer(memory, words(BASE_ADDRESS), 0, mask, 128)
    assert answer(memory, other, 0, mask, 128) == want
    assert want[0] == BASE_ADDRESS and stored() == (1, 2)


def test_the_exact_memo_is_bounded(monkeypatch):
    """40 distinct operand sets under a cap of 8: the exact memo empties
    when full, stays under the cap, and every answer is right."""
    monkeypatch.setattr(memory_module, "SHAPE_CAP", 8)
    memory = heap(4096)
    clear()
    for step in range(40):
        base = words(BASE_ADDRESS + 4 * step)
        got = answer(memory, base, 0, ALL, 128)
        assert got[0] == BASE_ADDRESS + 4 * step // 128 * 128
        assert got[1] == LANES.tolist() and got[3] - got[2] == 124
        assert 0 < len(_ACCESSES) <= 8 and len(_SHAPES) <= 8
