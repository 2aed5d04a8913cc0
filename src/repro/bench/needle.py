"""NW -- Needleman-Wunsch sequence alignment (Rodinia ``needle``).

The score matrix is processed in 16x16 tiles along anti-diagonals by
two static kernels (upper-left sweep, lower-right sweep), as in
Rodinia.  A block of 16 threads stages the tile borders and the
reference matrix (read through the texture path, like Rodinia's
texture-bound reference) in shared memory, walks the 31 in-tile
anti-diagonals with barriers, and writes the finished tile back.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.bench import common
from repro.bench.base import Benchmark
from repro.sim.device import Device
from repro.sim.kernel import Kernel

_TILE = 16
_SP = _TILE + 1  # score tile pitch (17)
_REF_BASE = 1184  # byte offset of the staged reference tile in smem
_SMEM = _REF_BASE + _TILE * _TILE * 4
#: :meth:`NeedlemanWunsch._golden`'s results, by input.
_REFERENCES: Dict[tuple, np.ndarray] = {}

_BODY = """
    LDC R4, c[0x0]             ; score matrix ((n+1)^2, int32)
    LDC R5, c[0x4]             ; reference matrix (n^2, int32)
    LDC R6, c[0x8]             ; n
    LDC R7, c[0xc]             ; diagonal index i
    LDC R8, c[0x10]            ; penalty (positive)
    LDC R9, c[0x14]            ; nb = n / TILE
{mapping}
    IADD R12, R6, 1            ; pitch = n + 1
    SHL R13, R11, 4            ; row0 = by * 16
    SHL R14, R10, 4            ; col0 = bx * 16
    MOV R30, 17                ; score tile pitch

    ; ---- stage the reference tile via the texture path ----
    MOV R15, 0
ld_ref:
    IADD R16, R13, R15
    IMAD R17, R16, R6, R14
    IADD R17, R17, R2
    SHL R17, R17, 2
    IADD R17, R17, R5
    TLD R18, [R17]
    SHL R19, R15, 4
    IADD R19, R19, R2
    SHL R19, R19, 2
    STS [R19+{ref_base}], R18
    IADD R15, R15, 1
    ISETP.LT.AND P0, PT, R15, 16, PT
@P0 BRA ld_ref

    ; ---- stage the tile borders of the score matrix ----
    IMAD R15, R13, R12, R14
    IADD R15, R15, R2
    IADD R15, R15, 1
    SHL R15, R15, 2
    IADD R15, R15, R4
    LDG R16, [R15]             ; score[row0][col0+tx+1]
    IADD R17, R2, 1
    SHL R17, R17, 2
    STS [R17], R16             ; S[0][tx+1]
    IADD R15, R13, R2
    IADD R15, R15, 1
    IMAD R15, R15, R12, R14
    SHL R15, R15, 2
    IADD R15, R15, R4
    LDG R16, [R15]             ; score[row0+tx+1][col0]
    IADD R18, R2, 1
    IMAD R18, R18, R30, RZ
    SHL R18, R18, 2
    STS [R18], R16             ; S[tx+1][0]
    ISETP.NE.AND P0, PT, R2, RZ, PT
@P0 BRA after_corner
    IMAD R15, R13, R12, R14
    SHL R15, R15, 2
    IADD R15, R15, R4
    LDG R16, [R15]
    STS [RZ], R16              ; S[0][0]
after_corner:
    BAR.SYNC

    ; ---- 31 in-tile anti-diagonals ----
    MOV R20, 0                 ; step
step_loop:
    ISUB R21, R20, R2          ; row = step - tx
    ISETP.LT.AND P0, PT, R21, RZ, PT
@P0 BRA skip_cell
    ISETP.GE.AND P1, PT, R21, 16, PT
@P1 BRA skip_cell
    IMAD R22, R21, R30, R2
    SHL R23, R22, 2            ; &S[row][tx]
    LDS R24, [R23]             ; diagonal neighbour
    LDS R25, [R23+4]           ; up neighbour
    LDS R26, [R23+68]          ; left neighbour
    SHL R27, R21, 4
    IADD R27, R27, R2
    SHL R27, R27, 2
    LDS R28, [R27+{ref_base}]  ; reference value
    IADD R24, R24, R28
    ISUB R25, R25, R8
    ISUB R26, R26, R8
    IMNMX.MAX R24, R24, R25
    IMNMX.MAX R24, R24, R26
    STS [R23+72], R24          ; S[row+1][tx+1]
skip_cell:
    BAR.SYNC
    IADD R20, R20, 1
    ISETP.LT.AND P2, PT, R20, 31, PT
@P2 BRA step_loop

    ; ---- write the finished tile back ----
    MOV R20, 0
wb_loop:
    IADD R32, R13, R20
    IADD R32, R32, 1           ; row0 + k + 1
    IMAD R33, R32, R12, R14
    IADD R33, R33, R2
    IADD R33, R33, 1
    SHL R33, R33, 2
    IADD R33, R33, R4
    IADD R34, R20, 1
    IMAD R34, R34, R30, R2
    IADD R34, R34, 1
    SHL R34, R34, 2
    LDS R35, [R34]
    STG [R33], R35
    IADD R20, R20, 1
    ISETP.LT.AND P3, PT, R20, 16, PT
@P3 BRA wb_loop
    EXIT
"""

_MAP_K1 = """
    S2R R0, SR_CTAID_X
    S2R R2, SR_TID_X
    MOV R10, R0                ; bx = ctaid
    ISUB R11, R7, 1
    ISUB R11, R11, R0          ; by = i - 1 - ctaid
"""

_MAP_K2 = """
    S2R R0, SR_CTAID_X
    S2R R2, SR_TID_X
    ISUB R10, R9, R7
    IADD R10, R10, R0          ; bx = ctaid + nb - i
    ISUB R11, R9, 1
    ISUB R11, R11, R0          ; by = nb - 1 - ctaid
"""

_NEEDLE_1 = Kernel(
    "needle_cuda_shared_1",
    _BODY.format(mapping=_MAP_K1, ref_base=_REF_BASE),
    num_params=6, smem_bytes=_SMEM)

_NEEDLE_2 = Kernel(
    "needle_cuda_shared_2",
    _BODY.format(mapping=_MAP_K2, ref_base=_REF_BASE),
    num_params=6, smem_bytes=_SMEM)


class NeedlemanWunsch(Benchmark):
    """Tiled anti-diagonal DP for global sequence alignment."""

    name = "needle"
    abbrev = "NW"

    def __init__(self, size: int = 32, penalty: int = 10, seed: int = 108):
        if size % _TILE:
            raise ValueError(f"size must be a multiple of {_TILE}")
        self.size = size
        self.penalty = penalty
        self.seed = seed

    def kernels(self) -> Sequence[Kernel]:
        return [_NEEDLE_1, _NEEDLE_2]

    def build(self, dev: Device) -> Dict:
        gen = common.rng(self.seed)
        n = self.size
        ref = gen.integers(-10, 11, (n, n), dtype=np.int32)
        score = np.zeros((n + 1, n + 1), dtype=np.int32)
        score[0, :] = -self.penalty * np.arange(n + 1)
        score[:, 0] = -self.penalty * np.arange(n + 1)
        return {
            "ref": ref,
            "init": score.copy(),
            "p_score": dev.to_device(score),
            "p_ref": dev.to_device(ref),
        }

    def execute(self, dev: Device, state: Dict) -> None:
        n = self.size
        nb = n // _TILE
        for i in range(1, nb + 1):
            params = [state["p_score"], state["p_ref"], n, i,
                      self.penalty, nb]
            dev.launch(_NEEDLE_1, grid=i, block=_TILE, params=params)
        for i in range(nb - 1, 0, -1):
            params = [state["p_score"], state["p_ref"], n, i,
                      self.penalty, nb]
            dev.launch(_NEEDLE_2, grid=i, block=_TILE, params=params)

    def _golden(self, ref: np.ndarray, score: np.ndarray) -> np.ndarray:
        """The host reference, an O(n^2) Python DP: computed once per
        process and input, and kept read-only."""
        key = (self.penalty, ref.tobytes(), score.tobytes())
        if key not in _REFERENCES:
            out = score.astype(np.int64)
            for i in range(1, self.size + 1):
                for j in range(1, self.size + 1):
                    out[i, j] = max(out[i - 1, j - 1] + ref[i - 1, j - 1],
                                    out[i - 1, j] - self.penalty,
                                    out[i, j - 1] - self.penalty)
            _REFERENCES[key] = out.astype(np.int32)
            _REFERENCES[key].setflags(write=False)
        return _REFERENCES[key]

    def check(self, dev: Device, state: Dict) -> bool:
        n = self.size
        out = dev.read_array(state["p_score"], (n + 1, n + 1), np.int32)
        return common.exact(out, self._golden(state["ref"], state["init"]))
