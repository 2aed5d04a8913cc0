"""Injection target structures (the paper's Table IV).

Each :class:`Structure` is one hardware component gpuFI-4 can flip
bits in.  ``chip_bits`` returns the whole-chip injectable size used as
the AVF weight of eq. (2) -- for caches this includes the abstract
57-bit tag field per line, which is exactly how Table I's sizes are
derived.  Local memory resides off-chip (in device memory), so it is
injectable but carries no chip AVF weight, matching the paper's AVF
accounting over on-chip storage.
"""

from __future__ import annotations

import enum

from repro.sim.config import GPUConfig


class Structure(enum.Enum):
    """A fault-injection target hardware structure.

    Every member declares its facts once, after its name: the ``kind``
    of :class:`~repro.faults.sites.Site` a mask on it resolves to,
    whether it contributes to chip AVF (``on_chip``, eq. 2), the
    ``cache`` attribute a cache structure names -- the same name on a
    :class:`~repro.sim.config.GPUConfig` (its geometry), on a SIMT core
    and, for the L2, on the GPU --, and for the others the width of an
    entry in bits and the entries a warp has of it in hardware.

    ``L1C_CACHE`` goes beyond the paper: gpuFI-4 defers constant-cache
    injection to future work (section IV.C.1); our substrate models
    the constant cache, so it is injectable here -- but it is kept out
    of :data:`CHIP_STRUCTURES` so the AVF accounting matches the
    paper's exactly.
    """

    def __new__(cls, value, kind, on_chip=False, cache=None, width=32,
                per_warp=0):
        member = object.__new__(cls)
        member._value_ = value
        member.kind, member.on_chip, member.cache = kind, on_chip, cache
        member.width, member.per_warp = width, per_warp
        return member

    REGISTER_FILE = "register_file", "register", True
    #: Off-chip (device memory): injectable, no chip AVF weight.
    LOCAL_MEM = "local_mem", "local"
    SHARED_MEM = "shared_mem", "shared", True
    L1D_CACHE = "l1d_cache", "cache", True, "l1d"
    L1T_CACHE = "l1t_cache", "cache", True, "l1t"
    L1C_CACHE = "l1c_cache", "cache", False, "l1c"
    L1I_CACHE = "l1i_cache", "cache", False, "l1i"
    L2_CACHE = "l2_cache", "cache", True, "l2"
    #: SIMT reconvergence stack (control unit, extension): per-warp
    #: IPDOM stack entries of 32 active-mask bits + 16-bit pc + 16-bit
    #: reconvergence pc; hardware allocates a fixed number of slots
    #: bounding branch-nesting depth.
    SIMT_STACK = "simt_stack", "control", False, None, 64, 16
    #: Scoreboard (control unit, extension): one 32-bit ready-cycle
    #: counter per trackable destination register (the ISA's
    #: architectural register budget), steering hazard stalls.
    SCOREBOARD = "scoreboard", "control", False, None, 32, 64

    @property
    def is_cache(self) -> bool:
        """Whether this structure is one of the tag+data caches."""
        return self.cache is not None

    @property
    def is_control(self) -> bool:
        """Whether this structure is SIMT control-unit state (not a
        storage array the paper injects)."""
        return self.kind == "control"


#: The structures that enter the chip-level AVF sum, in a fixed order.
CHIP_STRUCTURES = tuple(s for s in Structure if s.on_chip)

#: The control-unit structures (extension; the ``control`` fault
#: model's default target set).  Kept out of :data:`CHIP_STRUCTURES`
#: so the paper's storage-only AVF accounting is unchanged.
CONTROL_STRUCTURES = tuple(s for s in Structure if s.is_control)


def _geometry(config: GPUConfig, structure: Structure):
    geometry = getattr(config, structure.cache)
    if geometry is None:
        raise ValueError(f"{config.name} has no L1 data cache")
    return geometry


def entry_bits(config: GPUConfig, structure: Structure) -> int:
    """Bit width of one entry of a structure on one card (a cache
    line counts its abstract tag field)."""
    if structure.is_cache:
        return _geometry(config, structure).line_bytes * 8 + config.tag_bits
    return structure.width


def entry_count(config: GPUConfig, structure: Structure,
                regs_per_thread: int, smem_bytes: int,
                local_bytes: int) -> int:
    """Number of entries of a structure (per thread/CTA/core scope)."""
    if structure.is_cache:
        return _geometry(config, structure).num_lines
    if structure is Structure.SIMT_STACK:
        return structure.per_warp
    # the scoreboard tracks the kernel's allocated registers
    words = {"shared": smem_bytes // 4, "local": local_bytes // 4}
    return max(words.get(structure.kind, regs_per_thread), 1)


def chip_bits(structure: Structure, config: GPUConfig) -> int:
    """Whole-chip injectable size of a structure in bits (Table I).

    Returns 0 for structures the card does not have (the GTX Titan has
    no L1 data cache for globals) and for off-chip local memory.  The
    beyond-the-paper targets (L1C, L1I, the control units) have a size
    but no AVF weight: they are not in :data:`CHIP_STRUCTURES`.
    """
    if structure.is_cache:
        geometry = getattr(config, structure.cache)
        if geometry is None:
            return 0
        bits = geometry.injectable_bits(config.tag_bits)
        return bits if structure is Structure.L2_CACHE \
            else config.num_sms * bits
    per_sm = {Structure.REGISTER_FILE: config.register_file_bits_per_sm,
              Structure.SHARED_MEM: config.shared_mem_bits_per_sm,
              Structure.LOCAL_MEM: 0}.get(structure)
    if per_sm is None:
        per_sm = (config.max_warps_per_sm * structure.per_warp
                  * structure.width)
    return config.num_sms * per_sm


def supported_structures(config: GPUConfig) -> tuple:
    """The chip structures a card actually has (drops absent L1D)."""
    return tuple(s for s in CHIP_STRUCTURES if chip_bits(s, config) > 0)
