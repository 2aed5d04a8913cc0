"""Global (GDDR) memory, the allocator, and the constant bank.

Global memory is a flat byte-addressable space backed by a numpy
array, managed by a cudaMalloc-style bump allocator with 256-byte
alignment.  Word accesses are bounds-checked against live allocations
(an access outside every allocation, or a misaligned one, raises
:class:`~repro.sim.errors.MemoryViolation` -- the main source of the
paper's *Crash* outcomes when a fault corrupts an address register).
Cache-line fills deliberately bypass the bounds check, as real DRAM
bursts do.

Snapshots, digests and restores cost what changed, not what exists:
the image is tracked in :data:`SNAP_PAGE`-byte pages.  Every writer
marks the pages it touches dirty; :meth:`GlobalMemory.page_table`
rehashes only those and keeps ``page -> blake2b`` for the non-zero
pages.  ``data`` is a read-only view, so a write that bypasses the
tracking raises instead of leaving a stale table behind -- a stale
digest would be a false "Masked" by convergence.
"""

from __future__ import annotations

import hashlib
import mmap
from typing import Callable, Dict, List, Set, Tuple

import numpy as np

from repro.sim.errors import MemoryViolation

#: Lowest valid device address; accesses below catch null-pointer bugs.
BASE_ADDRESS = 0x1000

#: cudaMalloc-style allocation alignment.
ALLOC_ALIGN = 256

#: Device MMU page size.  Access faults are *page*-granular, as on
#: real GPUs (CUDA maps the heap with large pages): a fault-corrupted
#: pointer that stays inside a mapped page silently reads garbage or
#: scribbles (-> SDC material), only accesses beyond the mapped heap
#: raise the "illegal address" error that the classifier turns into a
#: Crash.  This is what keeps crashes rare relative to SDCs in the
#: paper's Fig. 1.
PAGE_SIZE = 2 * 1024 * 1024

#: Granule of dirty tracking, page hashes and snapshot storage (not
#: the MMU's :data:`PAGE_SIZE`); part of the snapshot format.
SNAP_PAGE = 4096
_SNAP_SHIFT = 12


def page_digest(page) -> bytes:
    """The content address of one :data:`SNAP_PAGE`-byte page."""
    return hashlib.blake2b(page, digest_size=16).digest()


_ZERO_DIGEST = page_digest(bytes(SNAP_PAGE))

#: :meth:`GlobalMemory.shape`'s two memos, one per process, as
#: :meth:`repro.sim.cta.CTA.smem_pattern`'s: pure functions of their
#: keys, whose values nobody can write to.  ``_SHAPES`` is keyed by
#: the addresses relative to the first lane (a process's first golden
#: run), ``_ACCESSES`` by the exact operands (every run after it); each
#: is emptied when it reaches :data:`SHAPE_CAP` entries, and a faulting
#: shape is never stored.
_SHAPES: Dict[tuple, tuple] = {}
_ACCESSES: Dict[tuple, tuple] = {}
SHAPE_CAP = 4096
_WARP_WORDS = np.arange(32)  # a warp's lanes, one word each


def _span(index: int) -> slice:
    """The byte range of page ``index``."""
    return slice(index << _SNAP_SHIFT, (index + 1) << _SNAP_SHIFT)


class GlobalMemory:
    """The simulated off-chip GDDR DRAM with a bump allocator."""

    def __init__(self, size_bytes: int):
        if size_bytes % SNAP_PAGE:
            raise ValueError(
                f"DRAM size must be a multiple of {SNAP_PAGE} bytes")
        self.size = size_bytes
        # zero pages from the OS on first touch: no clearing pass;
        # private, so a fork copies the image on write, as before
        self._data = np.frombuffer(mmap.mmap(
            -1, size_bytes, flags=mmap.MAP_PRIVATE), dtype=np.uint8)
        #: The image, read-only: write through the methods below.
        self.data = self._data.view()
        self.data.flags.writeable = False
        self._next = BASE_ADDRESS
        self._allocations: List[Tuple[int, int]] = []
        #: Pages written since their hash was last taken.
        self._dirty: Set[int] = set()
        #: Hash of every clean non-zero page (zero pages are absent).
        self._pages: Dict[int, bytes] = {}
        #: Pages hashed so far (observability; never snapshotted).
        self.pages_hashed = 0

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` of device memory; returns the device pointer."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        start = self._next
        end = start + nbytes
        if end > self.size:
            raise MemoryError(
                f"device out of memory: {nbytes} bytes requested, "
                f"{self.size - self._next} free")
        self._allocations.append((start, end))
        self._next = (end + ALLOC_ALIGN - 1) // ALLOC_ALIGN * ALLOC_ALIGN
        return start

    def mapped_end(self) -> int:
        """One past the last mapped heap address (page granular)."""
        if not self._allocations:
            return BASE_ADDRESS
        heap_end = self._allocations[-1][1]
        pages = (heap_end + PAGE_SIZE - 1) // PAGE_SIZE
        return min(pages * PAGE_SIZE, self.size)

    def check_access(self, addr: int, size: int = 4) -> None:
        """Validate one word access; raises :class:`MemoryViolation`.

        The access must be naturally aligned and land in a mapped heap
        page (see :data:`PAGE_SIZE`): the null page below
        :data:`BASE_ADDRESS` and anything past the mapped heap fault.
        """
        if addr % size:
            raise MemoryViolation("global", addr, "misaligned access")
        if addr < BASE_ADDRESS or addr + size > self.mapped_end():
            raise MemoryViolation("global", addr)

    def check_many(self, addrs: np.ndarray, size: int = 4) -> Tuple[int, int]:
        """Vectorised :meth:`check_access` over a warp's (one or more)
        lane addresses, ``size`` a power of two; returns the lowest
        and the highest of them.  Three reductions decide "aligned and
        mapped"; the lanes are walked only to name the first offender."""
        low, high = int(addrs.min()), int(addrs.max())
        if (low >= BASE_ADDRESS and high + size <= self.mapped_end()
                and not int(np.bitwise_or.reduce(addrs)) & (size - 1)):
            return low, high
        # the first misaligned lane raises, else the first unmapped one
        for addr in sorted(addrs.tolist(), key=lambda addr: addr % size == 0):
            self.check_access(addr, size)

    def shape(self, base, offset: int, mask: np.ndarray,
              line_bytes: int) -> Tuple[int, tuple]:
        """Check and coalesce the word access ``[base + offset]`` of the
        ``mask`` lanes (``base``: column 0's uint32 base register lanes,
        ``None`` for ``RZ``): raise what :meth:`check_many` raises, or
        return the first lane's line base and ``(lanes, segments, low,
        high)``: the lanes; per line touched, ascending, its base
        relative to that one, its lanes and their word offsets (slices
        for a whole line in lane order); the address range relative to
        the first lane.  Memoised on the exact operands, then on the
        addresses relative to the first lane (line size, first address
        modulo it, mask, offsets from it); alignment and the lowest
        address are the key's, so a hit compares only the highest with
        the mapped heap, and a faulting shape is never stored
        (``docs/architecture.md``, *Cycle loop*)."""
        exact = (line_bytes, offset,
                 b"" if base is None else base.tobytes(), mask.tobytes())
        hit = _ACCESSES.get(exact)
        if hit is not None and hit[2] <= self.mapped_end():
            return hit[0], hit[1]
        addrs = (np.full(32, offset, dtype=np.int64) if base is None
                 else base.astype(np.int64) + offset)
        at = int(addrs[mask.argmax()])
        first = at - at % line_bytes
        rel = (addrs - at) * mask  # lanes that do not execute add nothing
        key = (line_bytes, at - first, mask.tobytes(), rel.tobytes())
        shape = _SHAPES.get(key)
        if (shape is None or at + shape[2] < BASE_ADDRESS
                or at + shape[3] + 4 > self.mapped_end()):
            lanes = np.nonzero(mask)[0]
            lane_addrs = addrs[lanes]
            low, high = self.check_many(lane_addrs)
            line = low - low % line_bytes
            groups = [(line, lanes, lane_addrs)]
            if high - line >= line_bytes:  # more than one line
                bases = lane_addrs - lane_addrs % line_bytes
                groups = [(line, lanes[seg], lane_addrs[seg])
                          for line in np.unique(bases).tolist()
                          for seg in (bases == line,)]
            segments = []
            for line, seg_lanes, seg_addrs in groups:
                words = (seg_addrs - line) >> 2
                seg_lanes.setflags(write=False)
                words.setflags(write=False)
                if np.array_equal(words, _WARP_WORDS):  # every lane, in order
                    seg_lanes, words = slice(None), slice(0, len(_WARP_WORDS))
                segments.append((line - first, seg_lanes, words))
            lanes.setflags(write=False)
            shape = (lanes, tuple(segments), low - at, high - at)
            if len(_SHAPES) >= SHAPE_CAP:
                _SHAPES.clear()
            _SHAPES[key] = shape
        if len(_ACCESSES) >= SHAPE_CAP:
            _ACCESSES.clear()
        _ACCESSES[exact] = (first, shape, at + shape[3] + 4)
        return first, shape

    def read_word(self, addr: int) -> int:
        """Bounds-checked aligned 32-bit read (raw DRAM, no caches)."""
        self.check_access(addr)
        return int(self._data[addr:addr + 4].view("<u4")[0])

    def write_word(self, addr: int, value: int) -> None:
        """Bounds-checked aligned 32-bit write (raw DRAM, no caches)."""
        self.check_access(addr)
        self._data[addr:addr + 4].view("<u4")[0] = value & 0xFFFFFFFF
        self._dirty.add(addr >> _SNAP_SHIFT)

    def read_line(self, addr: int, nbytes: int) -> np.ndarray:
        """Unchecked line-granularity read for cache fills.

        Regions outside the DRAM read as zeros (the burst still
        "succeeds", as on hardware).
        """
        out = np.zeros(nbytes, dtype=np.uint8)
        if addr >= self.size or addr < 0:
            return out
        end = min(addr + nbytes, self.size)
        out[: end - addr] = self._data[addr:end]
        return out

    def write_line(self, addr: int, data: np.ndarray) -> None:
        """Unchecked line-granularity write for cache writebacks.

        Writebacks aimed outside the DRAM (possible when a fault flips
        tag bits) are silently dropped, losing the data -- the same
        net effect as the hardware scribbling on an unmapped region.
        """
        if addr < 0 or addr >= self.size:
            return
        self.write_bytes(addr, data[: min(len(data), self.size - addr)])

    def write_bytes(self, addr: int, data: np.ndarray) -> None:
        """Unchecked write of ``len(data)`` bytes, all inside the DRAM
        (host copies; the tracked form of ``data[addr:...] = data``)."""
        end = addr + len(data)
        self._data[addr:end] = data
        self._dirty.update(range(addr >> _SNAP_SHIFT,
                                 (end + SNAP_PAGE - 1) >> _SNAP_SHIFT))

    # -- checkpointing -----------------------------------------------------

    def page(self, index: int) -> np.ndarray:
        """Read-only view of one :data:`SNAP_PAGE`-byte page."""
        return self.data[_span(index)]

    def page_table(self) -> Dict[int, bytes]:
        """``page index -> content hash`` of every non-zero page; only
        pages written since the last call are rehashed.  The live
        table: copy before keeping."""
        pages = self._pages
        for index in self._dirty:
            digest = page_digest(self.page(index))
            if digest == _ZERO_DIGEST:
                pages.pop(index, None)
            else:
                pages[index] = digest
        self.pages_hashed += len(self._dirty)
        self._dirty.clear()
        return pages

    def snapshot(self) -> dict:
        """Capture the page table (no page bytes) and allocator state."""
        return {"pages": dict(self.page_table()), "next": self._next,
                "allocations": [tuple(a) for a in self._allocations]}

    def restore(self, snap: dict,
                fetch_page: Callable[[bytes], bytes]) -> None:
        """Rebuild DRAM and allocator from a :meth:`snapshot` dict.

        Only pages whose hash differs from the live table are written;
        ``fetch_page(digest)`` supplies their bytes (all fetched before
        the first write, so a failing fetch leaves the memory as it
        was).
        """
        live = self.page_table()
        wanted = snap["pages"]
        fetched = {index: fetch_page(digest)
                   for index, digest in wanted.items()
                   if live.get(index) != digest}
        for index in live.keys() - wanted.keys():
            self._data[_span(index)] = 0
        for index, page in fetched.items():
            self._data[_span(index)] = np.frombuffer(page, dtype=np.uint8)
        self._pages = dict(wanted)
        self._next = snap["next"]
        self._allocations = [tuple(a) for a in snap["allocations"]]


class ConstantBank:
    """The constant memory bank; kernel parameters live at offset 0.

    Mirrors the ``c[0x0][...]`` parameter space of real SASS.  The bank
    is written by the kernel-launch machinery and read by ``LDC``.
    """

    SIZE = 64 * 1024

    def __init__(self):
        self.data = np.zeros(self.SIZE, dtype=np.uint8)

    def load_params(self, words: List[int]) -> None:
        """Install kernel parameters as consecutive 32-bit words."""
        self.data[:] = 0
        for i, word in enumerate(words):
            self.data[4 * i:4 * i + 4].view("<u4")[0] = word & 0xFFFFFFFF

    def read_word(self, offset: int) -> int:
        """Aligned 32-bit read; out-of-bank offsets raise a violation."""
        if offset % 4:
            raise MemoryViolation("constant", offset, "misaligned access")
        if not 0 <= offset <= self.SIZE - 4:
            raise MemoryViolation("constant", offset)
        return int(self.data[offset:offset + 4].view("<u4")[0])

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture bank contents."""
        return {"data": self.data.copy()}

    def restore(self, snap: dict) -> None:
        """Rebuild bank contents from a :meth:`snapshot` dict."""
        self.data[:] = snap["data"]
