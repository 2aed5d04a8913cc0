"""Configuration records for the simulated GPU.

:class:`GPUConfig` carries everything the paper's Table V lists for a
card (SM count, occupancy limits, register file and shared memory
sizes, cache geometries) plus the timing-model latencies and the
technology information (raw FIT per bit) used for Figure 7.

Cache sizes follow the paper's abstract line layout: each line is
modelled as ``tag_bits`` (57) of tag/state followed by the data bits,
which is exactly how the chip-level sizes of Table I are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache.

    Attributes:
        size_bytes: total data capacity in bytes.
        line_bytes: line (block) size in bytes.
        assoc: number of ways per set.
    """

    size_bytes: int
    line_bytes: int = 128
    assoc: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*assoc={self.line_bytes * self.assoc}")

    @property
    def num_lines(self) -> int:
        """Total number of lines."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_lines // self.assoc

    def injectable_bits(self, tag_bits: int) -> int:
        """Size in bits of the injection target (data + per-line tag bits)."""
        return self.num_lines * (self.line_bytes * 8 + tag_bits)


@dataclass(frozen=True)
class GPUConfig:
    """Full parameter set of one simulated GPU card.

    The structural fields reproduce the paper's Table V; the latency
    fields parameterise the timing model; ``raw_fit_per_bit`` carries
    the technology failure-rate used in the FIT analysis (Fig. 7).
    """

    name: str
    architecture: str
    num_sms: int
    max_threads_per_sm: int
    max_ctas_per_sm: int
    registers_per_sm: int = 65536
    shared_mem_per_sm: int = 64 * 1024
    warp_size: int = 32
    num_schedulers_per_sm: int = 4

    #: Per-SM L1 data cache, or ``None`` when the card does not cache
    #: global data in L1 (GTX Titan / Kepler default behaviour).
    l1d: Optional[CacheGeometry] = None
    #: Per-SM L1 texture cache (read-only data path).
    l1t: CacheGeometry = CacheGeometry(128 * 1024)
    #: Shared L2 cache (whole chip), split internally into banks.
    l2: CacheGeometry = CacheGeometry(3 * 1024 * 1024, assoc=8)
    l2_banks: int = 12

    #: L1 instruction cache size.  The paper reports it in Table I and
    #: defers its injection to future work; this reproduction
    #: implements that extension behind ``model_icache``: when enabled,
    #: warps fetch decoded instructions from a per-SM instruction
    #: cache holding the kernel's 16-byte encoded words
    #: (:mod:`repro.isa.encoding`), making ``Structure.L1I_CACHE``
    #: injectable -- flipped bits re-decode into different or illegal
    #: instructions.  Off by default to keep the timing model
    #: identical to the paper's setup (which does not model it).
    l1i_size_per_sm: int = 128 * 1024
    l1i_assoc: int = 4
    model_icache: bool = False
    #: Fetch-miss penalty from program memory (instruction data does
    #: not travel through the L2, matching the paper's L2 exclusions).
    ifetch_miss_latency: int = 50
    #: L1 constant cache size.  The paper reports it in Table I but
    #: defers its injection to future work (section IV.C.1); this
    #: reproduction implements that extension -- the constant cache is
    #: modelled (64-byte lines, servicing LDC parameter/constant reads)
    #: and injectable via ``Structure.L1C_CACHE``.
    l1c_size_per_sm: int = 64 * 1024
    l1c_line_bytes: int = 64
    l1c_assoc: int = 4

    #: Abstract tag/state field per cache line (paper section IV.C.2).
    tag_bits: int = 57

    #: Whether the L2 services non-texture traffic too.  The paper
    #: configures GPGPU-Sim so that "L2 cache is configured to service
    #: all memory requests" (section II.B); False restricts the L2 to
    #: texture traffic, the other GPGPU-Sim mode (ablation bench).
    l2_service_all: bool = True

    # -- timing-model latencies (cycles) --------------------------------
    alu_latency: int = 4
    sfu_latency: int = 16
    smem_latency: int = 24
    const_latency: int = 8
    l1_hit_latency: int = 28
    l2_hit_latency: int = 90
    dram_latency: int = 200
    #: Extra cycles charged per additional coalesced segment.
    segment_overhead: int = 4
    #: L2 bank service time: back-to-back accesses to the same bank
    #: serialise at this rate (bank-conflict contention).
    l2_bank_service: int = 4
    #: DRAM channel count and per-access service time: accesses that
    #: reach DRAM (L2 misses, or everything in L2-bypass mode)
    #: serialise per address-interleaved channel.
    dram_channels: int = 8
    dram_service: int = 16

    # -- technology -------------------------------------------------------
    technology_nm: int = 12
    raw_fit_per_bit: float = 1.8e-6

    #: Size of the simulated GDDR global memory.
    global_mem_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_threads_per_sm % self.warp_size:
            raise ValueError("max_threads_per_sm must be a warp multiple")
        if self.l2.num_lines % self.l2_banks:
            raise ValueError("L2 lines must divide evenly across banks")

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps per SM."""
        return self.max_threads_per_sm // self.warp_size

    @property
    def register_file_bits_per_sm(self) -> int:
        """Register-file size of one SM in bits (32-bit registers)."""
        return self.registers_per_sm * 32

    @property
    def shared_mem_bits_per_sm(self) -> int:
        """Shared-memory size of one SM in bits."""
        return self.shared_mem_per_sm * 8

    @property
    def l1c(self) -> CacheGeometry:
        """Geometry of the per-SM L1 constant cache (extension)."""
        return CacheGeometry(self.l1c_size_per_sm,
                             line_bytes=self.l1c_line_bytes,
                             assoc=self.l1c_assoc)

    @property
    def l1i(self) -> CacheGeometry:
        """Geometry of the per-SM L1 instruction cache (extension)."""
        return CacheGeometry(self.l1i_size_per_sm, line_bytes=128,
                             assoc=self.l1i_assoc)
