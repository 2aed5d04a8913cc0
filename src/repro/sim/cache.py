"""Set-associative cache model with tag *and* data storage.

Unlike GPGPU-Sim -- whose caches hold only tags, which forced the
gpuFI-4 authors into a deferred "hook" injection mechanism (paper
section IV.A) -- our caches store the line data directly.  A fault
injected into a line therefore propagates exactly as on hardware: read
hits observe it, write hits overwrite it, clean evictions drop it and
dirty writebacks push it down the hierarchy.

The injection address space of one cache follows the paper's abstract
line layout (section IV.C.2): every line contributes ``tag_bits`` (57)
of tag/state followed by ``line_bytes*8`` data bits, lines numbered
0..num_lines-1 in set-major order.  For the L2, this is also how the
banked structure is flattened: "the first N lines of the cache belong
to the first bank with zero identification and so on".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.config import CacheGeometry


class CacheLine:
    """One cache line: valid/dirty state, tag and a private data copy.

    ``armed`` optionally carries deferred fault-injection bit offsets
    (the paper's "hook" mechanism, see :meth:`Cache.arm_hook`):
    they are applied on the next read hit and dropped on write hits,
    refills and invalidations.
    """

    __slots__ = ("valid", "dirty", "tag", "data", "last_use", "armed",
                 "meta")

    def __init__(self, line_bytes: int):
        self.valid = False
        self.dirty = False
        self.tag = 0
        self.data = np.zeros(line_bytes, dtype=np.uint8)
        self.last_use = 0
        self.armed = None
        #: Derived-from-data cache (e.g. decoded instructions);
        #: dropped whenever the line's bits change.
        self.meta = None

    def invalidate(self) -> None:
        self.valid = False
        self.dirty = False
        self.armed = None
        self.meta = None


@dataclass
class CacheStats:
    """Hit/miss/traffic counters of one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0


class Cache:
    """A single set-associative, LRU, data-holding cache.

    The class provides mechanism only (lookup/fill/invalidate/flip);
    write policy decisions (write-back vs write-evict vs no-allocate)
    are made by the memory hierarchy in :mod:`repro.sim.gpu`.
    """

    def __init__(self, name: str, geometry: CacheGeometry, tag_bits: int = 57):
        self.name = name
        self.geometry = geometry
        #: Geometry constants every probe needs, resolved once
        #: (``num_sets`` is a computed property of the geometry).
        self.line_bytes = geometry.line_bytes
        self.num_sets = geometry.num_sets
        self.assoc = geometry.assoc
        self.tag_bits = tag_bits
        self.stats = CacheStats()
        #: Who hears what becomes of a line, each as ``hear(name, flat
        #: line index, kind)``: ``rh`` read hit, ``wh`` write hit,
        #: ``fill``, ``inv`` invalidate, ``wb`` writeback, ``peek``
        #: host observation (set by :meth:`repro.sim.gpu.GPU.listen`).
        self.on_cache = ()
        self._tick = 0
        # sets materialise lazily on first touch: an untouched 3 MB L2
        # costs nothing, and fault flips into untouched lines hit
        # invalid lines (architecturally masked) exactly as they should
        self._sets: Dict[int, List[CacheLine]] = {}

    def _ways(self, set_idx: int,
              create: bool = False) -> Optional[List[CacheLine]]:
        ways = self._sets.get(set_idx)
        if ways is None and create:
            ways = [CacheLine(self.line_bytes) for _ in range(self.assoc)]
            self._sets[set_idx] = ways
        return ways

    def _tell(self, flat: int, *kinds: str) -> None:
        """Report the events of line ``flat``, in order."""
        for kind in kinds:
            for hear in self.on_cache:
                hear(self.name, flat, kind)

    # -- addressing -----------------------------------------------------

    def line_base(self, addr: int) -> int:
        """Base address of the line containing ``addr``."""
        return addr - addr % self.line_bytes

    def _locate(self, addr: int) -> Tuple[int, int]:
        """Return (set index, tag) for an address."""
        block = addr // self.line_bytes
        return block % self.num_sets, block // self.num_sets

    def _line_addr(self, set_idx: int, tag: int) -> int:
        """Inverse of :meth:`_locate`: reconstruct the line base address."""
        return (tag * self.num_sets + set_idx) * self.line_bytes

    # -- core operations ---------------------------------------------------

    def lookup(self, addr: int, touch: bool = True,
               for_write: bool = False) -> Optional[CacheLine]:
        """Probe for the line containing ``addr``; count a hit or miss.

        Read hits trigger any armed deferred injection (hook mode);
        write hits disarm it, matching the paper's hook state machine.
        """
        tag, set_idx = divmod(addr // self.line_bytes, self.num_sets)
        self.stats.accesses += 1
        ways = self._sets.get(set_idx)
        if ways is not None:
            for line in ways:
                if line.valid and line.tag == tag:
                    self.stats.hits += 1
                    if touch:
                        self._tick += 1
                        line.last_use = self._tick
                    if line.armed is not None:
                        if not for_write:
                            self._apply_bits(line, line.armed)
                        line.armed = None
                    if self.on_cache:
                        self._tell(set_idx * self.assoc + ways.index(line),
                                   "wh" if for_write else "rh")
                    return line
        self.stats.misses += 1
        return None

    def peek(self, addr: int, observed: bool = False) -> Optional[CacheLine]:
        """Probe without touching LRU state or counting statistics;
        ``observed``: the prober sees the line's bits (a host copy), a
        ``peek`` event."""
        set_idx, tag = self._locate(addr)
        ways = self._sets.get(set_idx)
        if ways is None:
            return None
        for line in ways:
            if line.valid and line.tag == tag:
                if observed and self.on_cache:
                    self._tell(set_idx * self.assoc + ways.index(line), "peek")
                return line
        return None

    def fill(self, addr: int, data: np.ndarray
             ) -> Tuple[CacheLine, Optional[Tuple[int, np.ndarray]]]:
        """Install a line for ``addr`` with ``data``.

        Returns the line now holding ``data`` and ``(victim_base_address,
        victim_data)`` when a dirty victim must be written back to the
        next level, else ``None``.
        """
        set_idx, tag = self._locate(addr)
        ways = self._ways(set_idx, create=True)
        # refilling an already-resident tag reuses its line (never
        # create duplicate tags within a set)
        victim = next((ln for ln in ways if ln.valid and ln.tag == tag),
                      None)
        if victim is None:
            victim = min(ways, key=lambda ln: ln.last_use)
        writeback = None
        if victim.valid:
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
                writeback = (self._line_addr(set_idx, victim.tag),
                             victim.data.copy())
        if self.on_cache:
            self._tell(set_idx * self.assoc + ways.index(victim),
                       *(("fill",) if writeback is None else ("wb", "fill")))
        victim.valid = True
        victim.dirty = False
        victim.armed = None
        victim.meta = None
        victim.tag = tag
        victim.data[:] = data
        self._tick += 1
        victim.last_use = self._tick
        return victim, writeback

    def invalidate(self, addr: int) -> Optional[Tuple[int, np.ndarray]]:
        """Invalidate the line containing ``addr`` if present.

        Returns writeback data when the line was dirty.
        """
        line = self.peek(addr)
        if line is None:
            return None
        set_idx, _ = self._locate(addr)
        writeback = None
        if line.dirty:
            self.stats.writebacks += 1
            writeback = (self._line_addr(set_idx, line.tag), line.data.copy())
        if self.on_cache:
            self._tell(set_idx * self.assoc + self._sets[set_idx].index(line),
                       *(("inv",) if writeback is None else ("wb", "inv")))
        line.invalidate()
        return writeback

    def invalidate_all(self) -> None:
        """Drop every line without writeback (kernel-boundary L1 reset)."""
        for set_idx, ways in self._sets.items():
            for way, line in enumerate(ways):
                if line.valid:
                    self._tell(set_idx * self.assoc + way, "inv")
                line.invalidate()

    # -- word helpers ------------------------------------------------------

    def read_word(self, line: CacheLine, addr: int) -> int:
        """Read the aligned 32-bit word at ``addr`` from a resident line."""
        off = addr % self.line_bytes
        return int(line.data[off:off + 4].view("<u4")[0])

    def write_word(self, line: CacheLine, addr: int, value: int,
                   dirty: bool = True) -> None:
        """Write the aligned 32-bit word at ``addr`` into a resident line."""
        off = addr % self.line_bytes
        line.data[off:off + 4].view("<u4")[0] = value & 0xFFFFFFFF
        line.meta = None
        if dirty:
            line.dirty = True

    # -- fault injection -----------------------------------------------------

    @property
    def bits_per_line(self) -> int:
        """Injectable bits per line: abstract tag field + data bits."""
        return self.tag_bits + self.line_bytes * 8

    def line_by_index(self, line_index: int) -> CacheLine:
        """Line in flat set-major numbering (set*assoc + way)."""
        set_idx, way = divmod(line_index, self.assoc)
        return self._ways(set_idx, create=True)[way]

    def _apply_bits(self, line: CacheLine, bit_offsets,
                    op: str = "xor") -> None:
        """Corrupt a set of per-line bit offsets in tag/data.

        ``op`` is the fault-model bit operation: ``"xor"`` flips (the
        transient default), ``"set"``/``"clear"`` force the bits high/
        low (stuck-at re-assertion).
        """
        line.meta = None  # derived caches are stale once bits change
        for bit_offset in bit_offsets:
            if bit_offset < self.tag_bits:
                bit = 1 << bit_offset
                if op == "set":
                    line.tag |= bit
                elif op == "clear":
                    line.tag &= ~bit
                else:
                    line.tag ^= bit
            else:
                data_bit = bit_offset - self.tag_bits
                byte = data_bit // 8
                bit = np.uint8(1 << (data_bit % 8))
                if op == "set":
                    line.data[byte] |= bit
                elif op == "clear":
                    line.data[byte] &= np.uint8(~bit)
                else:
                    line.data[byte] ^= bit

    def _peek_bits(self, line: CacheLine, bit_offsets) -> int:
        """Pack the current values of the given line bit offsets."""
        out = 0
        for pos, bit_offset in enumerate(bit_offsets):
            if bit_offset < self.tag_bits:
                value = (line.tag >> bit_offset) & 1
            else:
                data_bit = bit_offset - self.tag_bits
                value = (int(line.data[data_bit // 8])
                         >> (data_bit % 8)) & 1
            out |= value << pos
        return out

    def arm_hook(self, line_index: int, bit_offsets) -> Dict[str, object]:
        """Arm a deferred injection on a line (paper hook semantics,
        section IV.B.4; ``benchmarks/bench_ablation_hooks.py`` checks
        that it agrees statistically with direct flips).

        Valid lines get the flips applied at their next *read* hit;
        the hook is dropped on write hits, refills and invalidations.
        Invalid lines take no hook at all (the paper deactivates the
        hook when "the cache line is going to be replaced"): their log
        record says ``valid: False``, an architecturally masked
        injection.
        """
        line = self.line_by_index(line_index)
        record = {
            "cache": self.name,
            "line": line_index,
            "bits": list(bit_offsets),
            "valid": line.valid,
            "mode": "hook",
        }
        if line.valid:
            line.armed = list(bit_offsets)
        return record

    def flip_bit(self, line_index: int, bit_offset: int,
                 op: str = "xor") -> Dict[str, object]:
        """Corrupt one bit of the injection address space of this cache.

        ``bit_offset`` is within one line: bits ``[0, tag_bits)`` hit
        the tag field, the rest hit the data.  ``op`` is the fault
        model's bit operation (``"xor"`` flips -- the default --,
        ``"set"``/``"clear"`` force).  Returns a log record describing
        where the corruption landed and whether the line was valid
        (hits into invalid lines are architecturally masked: the next
        fill rewrites both tag and data).
        """
        if not 0 <= line_index < self.geometry.num_lines:
            raise ValueError(f"line index {line_index} out of range")
        if not 0 <= bit_offset < self.bits_per_line:
            raise ValueError(f"bit offset {bit_offset} out of range")
        line = self.line_by_index(line_index)
        record = {
            "cache": self.name,
            "line": line_index,
            "bit": bit_offset,
            "valid": line.valid,
            "field": "tag" if bit_offset < self.tag_bits else "data",
        }
        if op != "xor":
            record["op"] = op
        self._apply_bits(line, (bit_offset,), op=op)
        return record

    def assert_bits(self, line_index: int, bit_offsets, op: str) -> bool:
        """Re-assert stuck-at bits on a line; returns True on change.

        Used by persistent fault models every cycle: checks the
        current bit values first so an already-stuck line is left
        untouched (no ``meta`` invalidation, no spurious change
        report).
        """
        bit_offsets = list(bit_offsets)
        line = self.line_by_index(line_index)
        current = self._peek_bits(line, bit_offsets)
        want = (1 << len(bit_offsets)) - 1 if op == "set" else 0
        if current == want:
            return False
        self._apply_bits(line, bit_offsets, op=op)
        return True

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Capture tag+data state: three arrays to copy, pickle and
        digest instead of a dict per line, and none for a cache no
        access has touched yet.

        ``lines`` has one ``(last_use, valid, dirty, tag)`` row per
        line of every materialised set, sets ascending; an invalid
        line contributes only its LRU timestamp (its tag and data are
        never read, but ``last_use`` takes part in victim selection),
        a valid one also its row of ``data``, and ``armed`` maps that
        row to the line's deferred bits.  ``meta`` is derived from
        data and rebuilt lazily after restore.
        """
        stats = self.stats
        snap = {"tick": self._tick,
                "stats": (stats.accesses, stats.hits, stats.misses,
                          stats.evictions, stats.writebacks)}
        if self._sets:
            sets = sorted(self._sets)
            lines = [line for set_idx in sets for line in self._sets[set_idx]]
            live = [line for line in lines if line.valid]
            snap.update(
                sets=np.array(sets, dtype=np.int64),
                lines=np.array([(line.last_use, 1, line.dirty, line.tag)
                                if line.valid else (line.last_use, 0, 0, 0)
                                for line in lines], dtype=np.int64),
                data=np.frombuffer(b"".join(line.data for line in live),
                                   dtype=np.uint8).reshape(-1, self.line_bytes),
                armed={row: list(line.armed) for row, line in enumerate(live)
                       if line.armed is not None})
        return snap

    def restore(self, snap: Dict[str, object]) -> None:
        """Rebuild cache contents from a :meth:`snapshot` dict.

        Arrays are copied so a shared (cached) snapshot stays pristine
        across repeated restores.
        """
        self._tick = snap["tick"]
        self.stats = CacheStats(*snap["stats"])
        self._sets = {}
        if "sets" not in snap:
            return
        lines, row = [], 0
        for last_use, valid, dirty, tag in snap["lines"].tolist():
            line = CacheLine(self.line_bytes)
            line.last_use = last_use
            if valid:
                line.valid, line.dirty, line.tag = True, bool(dirty), tag
                line.data[:] = snap["data"][row]
                armed = snap["armed"].get(row)
                line.armed = list(armed) if armed is not None else None
                row += 1
            lines.append(line)
        for at, set_idx in enumerate(snap["sets"].tolist()):
            self._sets[set_idx] = lines[at * self.assoc:(at + 1) * self.assoc]
