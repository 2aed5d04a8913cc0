"""Kernel and kernel-launch records (the device-side code objects)."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.isa.assembler import assemble, max_register_index
from repro.isa.instruction import Instruction


def _as_dim(value: Union[int, Sequence[int]]) -> Tuple[int, int]:
    """Normalise a launch dimension to ``(x, y)``."""
    if isinstance(value, int):
        return (value, 1)
    dims = tuple(int(v) for v in value)
    if len(dims) == 1:
        return (dims[0], 1)
    if len(dims) == 2:
        return dims  # type: ignore[return-value]
    raise ValueError("only 1D/2D grids and blocks are supported")


def sreg_lanes(values) -> np.ndarray:
    """One special register: 32 read-only uint32 lanes (handlers only
    read them, so warps, CTAs and restores may share the array)."""
    lanes = np.empty(32, dtype=np.uint32)
    lanes[:] = values
    lanes.setflags(write=False)
    return lanes


class Kernel:
    """A device kernel written in the SASS-like ISA.

    Attributes:
        name: kernel name (used for per-kernel AVF accounting).
        source: assembly text.
        num_params: number of 32-bit parameters expected at launch.
        smem_bytes: static shared memory per CTA.
        local_bytes: local memory per thread.
    """

    def __init__(self, name: str, source: str, num_params: int = 0,
                 smem_bytes: int = 0, local_bytes: int = 0):
        self.name = name
        self.source = source
        self.num_params = num_params
        self.smem_bytes = smem_bytes
        self.local_bytes = local_bytes
        self._instructions: Optional[List[Instruction]] = None
        self._num_regs: Optional[int] = None
        self._binary: Optional[bytes] = None

    @property
    def instructions(self) -> List[Instruction]:
        """The assembled instruction list (assembled once, cached)."""
        if self._instructions is None:
            self._instructions = assemble(self.source)
        return self._instructions

    @property
    def num_regs(self) -> int:
        """Registers per thread = highest register index used + 1."""
        if self._num_regs is None:
            self._num_regs = max_register_index(self.instructions) + 1
        return self._num_regs

    @property
    def binary(self) -> bytes:
        """The encoded kernel image (16 bytes per instruction).

        Used by the instruction-cache extension; see
        :mod:`repro.isa.encoding`.
        """
        if self._binary is None:
            from repro.isa.encoding import encode_kernel

            self._binary = encode_kernel(self.instructions)
        return self._binary

    def __repr__(self) -> str:
        return f"Kernel({self.name!r}, {len(self.instructions)} instructions)"


@dataclass
class KernelLaunch:
    """One kernel invocation: geometry plus actual parameters."""

    kernel: Kernel
    grid: Tuple[int, int]
    block: Tuple[int, int]
    params: Tuple[int, ...]

    @classmethod
    def create(cls, kernel: Kernel,
               grid: Union[int, Sequence[int]],
               block: Union[int, Sequence[int]],
               params: Sequence[Union[int, float]] = ()) -> "KernelLaunch":
        """Validate and normalise a launch request.

        Float parameters are converted to their fp32 bit patterns, as
        the parameter constant bank stores raw 32-bit words.
        """
        import struct

        grid_dim = _as_dim(grid)
        block_dim = _as_dim(block)
        if min(*grid_dim, *block_dim) < 1:
            raise ValueError("grid/block dimensions must be >= 1")
        words = []
        for p in params:
            if isinstance(p, float):
                words.append(struct.unpack("<I", struct.pack("<f", p))[0])
            elif isinstance(p, (int,)):
                words.append(int(p) & 0xFFFFFFFF)
            else:
                raise TypeError(f"unsupported parameter type {type(p)!r}")
        if len(words) != kernel.num_params:
            raise ValueError(
                f"kernel {kernel.name} expects {kernel.num_params} "
                f"parameters, got {len(words)}")
        return cls(kernel=kernel, grid=grid_dim, block=block_dim,
                   params=tuple(words))

    @property
    def threads_per_cta(self) -> int:
        """Threads in one CTA."""
        return self.block[0] * self.block[1]

    @property
    def num_ctas(self) -> int:
        """CTAs in the grid."""
        return self.grid[0] * self.grid[1]

    @property
    def warps_per_cta(self) -> int:
        """Warps per CTA (threads rounded up to the warp size of 32)."""
        return (self.threads_per_cta + 31) // 32

    @functools.cached_property
    def warp_sregs(self) -> List[Dict[str, np.ndarray]]:
        """Per warp index, the special-register lanes that are the
        same in every CTA of this launch (all but ``SR_CTAID_X/Y``).
        Built once, read-only, shared by every warp at that index."""
        bx, by = self.block
        lanes = sreg_lanes
        launch_wide = {
            "SR_TID_Z": lanes(0), "SR_CTAID_Z": lanes(0),
            "SR_NTID_X": lanes(bx), "SR_NTID_Y": lanes(by),
            "SR_NTID_Z": lanes(1),
            "SR_NCTAID_X": lanes(self.grid[0]),
            "SR_NCTAID_Y": lanes(self.grid[1]), "SR_NCTAID_Z": lanes(1),
            "SR_LANEID": lanes(np.arange(32)),
        }
        per_warp = []
        for wid in range(self.warps_per_cta):
            linear = wid * 32 + np.arange(32, dtype=np.int64)
            per_warp.append(dict(launch_wide,
                                 SR_TID_X=lanes(linear % bx),
                                 SR_TID_Y=lanes(linear // bx),
                                 SR_WARPID=lanes(wid)))
        return per_warp
