"""The fault masks generator (module 1 of gpuFI-4).

A :class:`FaultMask` fully determines one transient fault: the target
structure, the global application cycle at which it strikes, the entry
within the structure, and which bit(s) of that entry flip.  Spatial
choices that depend on *run-time liveness* (which active thread, warp,
CTA or SIMT core is hit) are made at injection time from the mask's
``seed``, so a mask is deterministic and a campaign is exactly
repeatable.

Multi-bit faults follow the paper's taxonomy: bits land in the same
entry (the common MBU model, used for the triple-bit experiments of
Figs. 5/6), in adjacent positions, or anywhere in the structure.
"""

from __future__ import annotations

import enum
import functools
import zlib
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.targets import Structure, entry_bits, entry_count
from repro.sim.config import GPUConfig


# numpy's SeedSequence hashing (NEP 19: stable across numpy versions),
# reimplemented so that a plan seeds thousands of streams at once
_POOL = 4
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int):
    """The ``(xor, multiplier)`` constant of each of ``count``
    successive hashes: they depend on the call's position only."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


def _hashmix(values, xor, mul):
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def seed_words(rows, n_words: int) -> np.ndarray:
    """``SeedSequence(...).generate_state(n_words)`` of every row of
    ``rows``, the ``uint32`` entropy words numpy assembles (entropy
    zero-padded to four words when a spawn key follows, then the spawn
    key), as ``(len(rows), n_words)`` ``uint32``."""
    rows = np.asarray(rows, dtype=np.uint32)
    if rows.shape[1] < _POOL:
        rows = np.pad(rows, ((0, 0), (0, _POOL - rows.shape[1])))
    xor, mul = _hash_constants(0x43B0D7E5, 0x931E8875,
                               _POOL * rows.shape[1])
    pool = _hashmix(rows[:, :_POOL], xor[:_POOL], mul[:_POOL])
    for src in range(_POOL):
        # one pool word, hashed once per other pool word
        k, dst = _POOL + 3 * src, _OTHERS[src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(
            pool[:, src, None], xor[k:k + 3], mul[k:k + 3]))
    for src in range(_POOL, rows.shape[1]):
        # one later entropy word, hashed once per pool word
        k = _POOL * src
        pool = _mix(pool, _hashmix(rows[:, src, None], xor[k:k + _POOL],
                                   mul[k:k + _POOL]))
    xor, mul = _hash_constants(0x8B51F9DD, 0x58F38DED, n_words)
    return _hashmix(pool[:, np.arange(n_words) % _POOL], xor, mul)


@functools.lru_cache(maxsize=1024)
def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def derive_run_seeds(campaign_seed: int,
                     coords: Sequence[Tuple[str, Structure, int]],
                     fault_model: str = "transient") -> List[int]:
    """The seed of every ``(kernel, structure, run_index)`` of
    ``coords``: the independent random seed of one injection run.

    The seed is keyed on ``(campaign seed, kernel, structure,
    run_index)`` through :class:`numpy.random.SeedSequence` spawn keys,
    so every run's fault mask is a pure function of its coordinates:
    independent of execution order, worker count and Python hash
    randomisation (the string keys go through CRC-32, never through
    ``hash()``).  Campaigns aggregate byte-identically whether runs
    execute serially or on a process pool.

    A non-default ``fault_model`` extends the spawn key, so campaigns
    of different models draw independent masks; the default
    ``"transient"`` key is unchanged and stays byte-compatible with
    pre-``fault_model`` logs.

    Each seed is a 128-bit integer suitable for
    ``numpy.random.default_rng``; all of them are hashed in one
    :func:`seed_words` call.
    """
    # the seed's words, zero-padded to the pool as a spawn key asks
    entropy = np.frombuffer(campaign_seed.to_bytes(max(
        campaign_seed.bit_length() + 31, 32 * _POOL) // 32 * 4, "little"),
        "<u4").tolist()
    model = [] if fault_model == "transient" else [_crc(fault_model)]
    rows = np.array([[*entropy, _crc(kernel), _crc(structure.value),
                      run_index, *model]
                     for kernel, structure, run_index in coords],
                    dtype=np.uint32).reshape(len(coords),
                                             len(entropy) + 3 + len(model))
    data = seed_words(rows, 4).astype("<u4").tobytes()
    return [int.from_bytes(data[i:i + 16], "little")
            for i in range(0, len(data), 16)]


def derive_run_seed(campaign_seed: int, kernel: str, structure: Structure,
                    run_index: int,
                    fault_model: str = "transient") -> int:
    """The seed of one run: :func:`derive_run_seeds` of one
    coordinate."""
    return derive_run_seeds(campaign_seed, [(kernel, structure, run_index)],
                            fault_model)[0]


def stream_states(seeds: Sequence[int]) -> List[dict]:
    """The PCG64 state ``numpy.random.default_rng(seed)`` starts from,
    for every seed (each below 2**128), as the dict its
    ``bit_generator.state`` takes: assigning it to any PCG64-backed
    :class:`numpy.random.Generator` draws exactly that stream."""
    data = b"".join(seed.to_bytes(16, "little") for seed in seeds)
    words = seed_words(np.frombuffer(data, "<u4").reshape(-1, _POOL), 8)
    states = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(
            words, "<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # pcg64_set_seed: state 0, step, add the seed, step
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def seeded_streams(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the stream
    ``numpy.random.default_rng(seed)`` draws for each of ``seeds``
    (seeded in one :func:`stream_states` call): each yield is valid
    until the next."""
    rng = np.random.Generator(np.random.PCG64())
    for state in stream_states(seeds):
        rng.bit_generator.state = state
        yield rng


def mask_population(config: GPUConfig, structure: Structure,
                    regs_per_thread: int, smem_bytes: int,
                    local_bytes: int,
                    windows: Sequence[Tuple[int, int]]) -> int:
    """The (bit x cycle) fault-space size a campaign samples from.

    This is exactly the population :meth:`MaskGenerator.generate`
    draws from for one (kernel, structure): every bit of every entry
    crossed with every cycle of the kernel's execution windows -- the
    ``N`` of the Leveugle sampling formula
    (:mod:`repro.analysis.statistics`).
    """
    cycles = sum(end - start for start, end in windows)
    return (entry_count(config, structure, regs_per_thread, smem_bytes,
                        local_bytes)
            * entry_bits(config, structure) * max(cycles, 1))


class MultiBitMode(enum.Enum):
    """Placement policy for the bits of a multi-bit fault."""

    #: Random distinct bits of one entry (register / word / cache line).
    SAME_ENTRY = "same_entry"
    #: Physically adjacent bits of one entry (classic MBU model).
    ADJACENT = "adjacent"


class FaultMask:
    """One fully specified fault.

    A frozen, ``__slots__``-backed value object (hand-written rather
    than a dataclass: ``slots=True`` needs Python 3.10 and campaigns
    construct millions of these).

    Attributes:
        structure: target hardware structure.
        cycle: global application cycle at which the fault strikes.
        entry_index: register index (register file), 32-bit word index
            (shared/local memory), flat line index (caches), stack
            slot (SIMT stack) or scoreboard entry (scoreboard).
        bit_offsets: bit positions within the entry that flip.
        warp_level: register-file/local-memory faults only -- apply the
            same flips to every thread of one warp instead of a single
            thread (Table IV's warp mode).
        n_blocks: shared memory only -- how many active CTAs receive
            the same flips.
        n_cores: L1 caches only -- how many SIMT cores receive the
            same flips.
        seed: seed for the run-time spatial draw (thread/warp/CTA/core).
        fault_model: name of the registered
            :class:`~repro.faults.models.FaultModel` giving the fault
            its semantics (default ``"transient"``, the paper's flip).
        extra: unrecognised keys carried through
            :meth:`from_dict`/:meth:`to_dict` -- newer-version logs
            round-trip through ``--resume``/``merge_logs`` unharmed.
    """

    __slots__ = ("structure", "cycle", "entry_index", "bit_offsets",
                 "warp_level", "n_blocks", "n_cores", "seed",
                 "fault_model", "extra")

    def __init__(self, structure: Structure, cycle: int, entry_index: int,
                 bit_offsets: Tuple[int, ...], warp_level: bool = False,
                 n_blocks: int = 1, n_cores: int = 1, seed: int = 0,
                 fault_model: str = "transient", extra: Optional[dict] = None):
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "entry_index", entry_index)
        object.__setattr__(self, "bit_offsets", bit_offsets)
        object.__setattr__(self, "warp_level", warp_level)
        object.__setattr__(self, "n_blocks", n_blocks)
        object.__setattr__(self, "n_cores", n_cores)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "fault_model", fault_model)
        object.__setattr__(self, "extra", dict(extra) if extra else {})

    def __setattr__(self, name, value):
        raise AttributeError(f"FaultMask is immutable (tried to set "
                             f"{name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"FaultMask is immutable (tried to delete "
                             f"{name!r})")

    def __reduce__(self):
        # the slots cannot be set one by one on unpickling: rebuild
        return FaultMask, self._astuple() + (self.extra,)

    def _astuple(self) -> tuple:
        return (self.structure, self.cycle, self.entry_index,
                self.bit_offsets, self.warp_level, self.n_blocks,
                self.n_cores, self.seed, self.fault_model)

    def __eq__(self, other) -> bool:
        if other.__class__ is not FaultMask:
            return NotImplemented
        return (self._astuple() == other._astuple()
                and self.extra == other.extra)

    def __hash__(self) -> int:
        # ``extra`` may hold unhashable JSON values; the identifying
        # fields alone are a sound hash key
        return hash(self._astuple())

    def __repr__(self) -> str:
        return ("FaultMask(structure={!r}, cycle={!r}, entry_index={!r}, "
                "bit_offsets={!r}, warp_level={!r}, n_blocks={!r}, "
                "n_cores={!r}, seed={!r}, "
                "fault_model={!r})".format(*self._astuple()))

    #: Keys :meth:`from_dict` recognises; anything else lands in
    #: ``extra`` and survives the round trip.
    _KNOWN_KEYS = frozenset((
        "structure", "cycle", "entry_index", "bit_offsets", "warp_level",
        "n_blocks", "n_cores", "seed", "fault_model"))

    def to_dict(self) -> dict:
        """JSON-serialisable form for campaign logs.

        The ``fault_model`` key is emitted only for non-default models,
        keeping transient-campaign records byte-identical to logs
        written before the fault-model dimension existed.  Unknown keys
        captured by :meth:`from_dict` are re-emitted unchanged.
        """
        out = {
            "structure": self.structure.value,
            "cycle": self.cycle,
            "entry_index": self.entry_index,
            "bit_offsets": list(self.bit_offsets),
            "warp_level": self.warp_level,
            "n_blocks": self.n_blocks,
            "n_cores": self.n_cores,
            "seed": self.seed,
        }
        if self.fault_model != "transient":
            out["fault_model"] = self.fault_model
        for key, value in self.extra.items():
            out.setdefault(key, value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultMask":
        """Inverse of :meth:`to_dict`.

        Keys this version does not know (from a newer log format) are
        kept in :attr:`extra` instead of raising, so ``--resume`` and
        ``merge_logs`` work across versions.
        """
        return cls(
            structure=Structure(data["structure"]),
            cycle=int(data["cycle"]),
            entry_index=int(data["entry_index"]),
            bit_offsets=tuple(int(b) for b in data["bit_offsets"]),
            warp_level=bool(data.get("warp_level", False)),
            n_blocks=int(data.get("n_blocks", 1)),
            n_cores=int(data.get("n_cores", 1)),
            seed=int(data.get("seed", 0)),
            fault_model=str(data.get("fault_model", "transient")),
            extra={k: v for k, v in data.items()
                   if k not in cls._KNOWN_KEYS},
        )


class MaskGenerator:
    """Generates random fault masks for one (kernel, structure) campaign.

    Args:
        config: the target card.
        windows: ``(start, end)`` global-cycle intervals of every
            invocation of the target kernel (faults land uniformly in
            their union, implementing the paper's "all invocations
            together" cycle file).
        regs_per_thread: registers allocated per thread of the kernel.
        smem_bytes: shared memory per CTA of the kernel.
        local_bytes: local memory per thread of the kernel.
        rng: the campaign-level random source.
    """

    def __init__(self, config: GPUConfig, windows: Sequence[Tuple[int, int]],
                 regs_per_thread: int, smem_bytes: int, local_bytes: int,
                 rng: np.random.Generator):
        if not windows:
            raise ValueError("at least one execution window is required")
        self.config = config
        self.windows = list(windows)
        self.regs_per_thread = max(regs_per_thread, 1)
        self.smem_bytes = smem_bytes
        self.local_bytes = local_bytes
        self.rng = rng
        self._lengths = [end - start for start, end in self.windows]
        if min(self._lengths) <= 0:
            raise ValueError("execution windows must be non-empty")

    def random_cycle(self) -> int:
        """Uniform cycle over the union of the execution windows."""
        total = sum(self._lengths)
        offset = int(self.rng.integers(0, total))
        for (start, _end), length in zip(self.windows, self._lengths):
            if offset < length:
                return start + offset
            offset -= length
        raise AssertionError("unreachable")

    def _bit_offsets(self, structure: Structure, n_bits: int,
                     mode: MultiBitMode) -> Tuple[int, ...]:
        width = entry_bits(self.config, structure)
        n_bits = min(n_bits, width)
        # choice(width, size=1, replace=False) is this one bounded draw
        if mode is MultiBitMode.ADJACENT or n_bits == 1:
            base = int(self.rng.integers(0, width - n_bits + 1))
            return tuple(range(base, base + n_bits))
        picks = self.rng.choice(width, size=n_bits, replace=False)
        return tuple(sorted(int(b) for b in picks))

    def generate(self, structure: Structure, n_bits: int = 1,
                 mode: MultiBitMode = MultiBitMode.SAME_ENTRY,
                 warp_level: bool = False, n_blocks: int = 1,
                 n_cores: int = 1, cycle: Optional[int] = None,
                 fault_model: str = "transient") -> FaultMask:
        """Draw one random fault mask.

        ``fault_model`` names the registered semantics the mask carries
        (see :mod:`repro.faults.models`); it consumes no randomness, so
        the spatial draws of a transient campaign are unchanged.
        """
        return FaultMask(
            structure=structure,
            cycle=self.random_cycle() if cycle is None else cycle,
            entry_index=int(self.rng.integers(0, entry_count(
                self.config, structure, self.regs_per_thread,
                self.smem_bytes, self.local_bytes))),
            bit_offsets=self._bit_offsets(structure, n_bits, mode),
            warp_level=warp_level,
            n_blocks=n_blocks,
            n_cores=n_cores,
            seed=int(self.rng.integers(0, 2**31 - 1)),
            fault_model=fault_model,
        )

    def generate_simultaneous(self, structures: Sequence[Structure],
                              n_bits: int = 1,
                              mode: MultiBitMode = MultiBitMode.SAME_ENTRY,
                              **kwargs) -> Tuple[FaultMask, ...]:
        """Draw faults striking several structures at the same cycle.

        Implements the paper's mode (iii)/(iv): "different hardware
        structures simultaneously" and combinations thereof -- one
        mask per structure, all sharing a single fault cycle.
        """
        cycle = self.random_cycle()
        return tuple(self.generate(structure, n_bits=n_bits, mode=mode,
                                   cycle=cycle, **kwargs)
                     for structure in structures)
