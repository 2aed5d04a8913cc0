"""Golden-run checkpointing and fast-forward restore.

All state of an injected run before its injection cycle is -- by
construction -- the golden run's.  This module captures snapshots of
the simulator during the golden profiling run (cf. gem5-checkpoint
restore in CHAOS) and lets each fault run restore the nearest one at
or before its injection cycle, simulating only the suffix.  Three
guarantees make that run bit-identical to one from scratch:

1. **Complete state capture.**  A snapshot is every part of
   :meth:`repro.sim.gpu.GPU.parts`, the one enumeration of mutable
   simulator state (derived state -- decoded instructions, scheduler
   buckets, sregs -- is recomputed deterministically).
2. **Host-read replay.**  Host code may read device memory between
   launches and branch on it (the BFS frontier flag).  The golden run
   records every DtoH copy; a fast-forwarded run is served the
   recorded bytes up to the restore point, and any divergence raises
   :class:`CheckpointMismatch`: the caller runs from scratch.
3. **Content-addressed invalidation.**  A set's key
   (:func:`campaign_fingerprint`) covers configuration and code, so a
   stale set is never restored -- and a set found under its key is
   trusted: a campaign plans from its ``golden.bin`` and
   ``liveness.bin`` without simulating the golden run again
   (``verify_restore`` re-simulates and compares).  What no key can
   reach any more goes at the next capture into its directory
   (:meth:`CheckpointRecorder.finalize`).

On disk (all but ``meta.json`` and the pool pickled + zlib-compressed)::

    <checkpoint-dir>/<key>/meta.json       # manifest, written last
    <checkpoint-dir>/<key>/golden.bin      # launch stats + host reads
    <checkpoint-dir>/<key>/liveness.bin    # liveness trace (traced runs)
    <checkpoint-dir>/<key>/ckpt_<L>_<C>.bin  # snapshot at launch L, cycle C
    <checkpoint-dir>/<key>/parts.bin       # per snapshot, its part digests
    <checkpoint-dir>/<key>/pages.bin       # the page pool, raw 4 KiB pages

A capture fills a private ``<key>.<random>`` sibling and renames it to
``<key>`` when complete, so concurrent captures of one key cannot
interleave and a reader sees a whole set or none.

**The state digest is a tree** (format 4): one :func:`part_digest` per
named part, kept per snapshot in ``parts.bin``, under a ``state_hash``
over the ordered ``(name, part digest)`` pairs (:func:`tree_digest`).
Two states are equal iff their part lists are, so a comparison with
golden state (:class:`repro.faults.early_stop.ConvergenceMonitor`) may
stop at the first part that differs, and ask the likeliest first.

**DRAM is content-addressed, not copied** (format 3).  Global memory
keeps a hash per non-zero 4 KiB page, rehashing only pages written
since (:mod:`repro.sim.memory`).  A snapshot stores that page table,
the recorder appends a page's bytes to ``pages.bin`` the first time
its hash is seen, and a restore writes only the pages whose hash
differs from the live memory's: capture, digest and restore cost what
the application changed, not the 8 MB that exist.  Why a pool rather
than a chain of deltas: every ``ckpt_*.bin`` stays self-contained
given the pool -- no chain to walk, no periodic full base to tune.

**Two kinds of snapshot.**  Runs restore from the latest snapshot of
either kind but compare their state with *witnesses* only (a
``state_hash`` and a row in ``parts.bin``), never with *restore
points* (:data:`RESTORE_STRIDE`): dense restores cost no run a check,
and ``terminated_at`` depends on the witnesses alone.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import importlib
import json
import os
import pickle
import shutil
import threading
import time
import uuid
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.sim.liveness import LivenessTrace
from repro.sim.memory import SNAP_PAGE, page_digest

#: Bump whenever the snapshot layout or any simulated semantics
#: change: it participates in the checkpoint key, so old on-disk sets
#: become unreachable instead of silently wrong.  4: a snapshot is the
#: flat ``{part name: piece}`` of :meth:`GPU.snapshot`, caches as row
#: arrays, ``state_hash`` the tree's root (module docstring).
SNAPSHOT_FORMAT = 4

#: Smallest auto-mode witness stride (cycles).
_MIN_AUTO_STRIDE = 64

#: Auto placement adds a restore point at the first loop iteration
#: this many cycles after the launch's previous snapshot.  On
#: ``paper_ladder`` (8 passes): golden prefix re-simulated 190 371 ->
#: 45 065 cycles, cycles simulated 635 534 -> 490 228 (-23 %); 512 and
#: 256 simulate 4 % / 6 % less again, 256 for +22 % cold set-up.
RESTORE_STRIDE = 1024

#: The content-addressed page pool of one set: raw pages, back to back.
POOL_FILE = "pages.bin"

#: Per snapshot file of one set, its ``{part name: part digest}``.
PARTS_FILE = "parts.bin"

#: The golden manifest of one set: launch stats + recorded host reads.
GOLDEN_FILE = "golden.bin"

#: The golden liveness trace of one set (present when a traced golden
#: run captured the set, or was run on it since).
LIVENESS_FILE = "liveness.bin"

#: How much of a set's key (its directory name) is its identity.
IDENTITY_CHARS = 8

#: The code every benchmark's golden run executes; with the
#: benchmark's own module, the source part of the checkpoint key.
_GOLDEN_RUN_CODE = ("repro.sim", "repro.isa", "repro.bench.base",
                    "repro.bench.common")


class CheckpointError(Exception):
    """Base class for checkpoint failures.

    Deliberately *not* a :class:`~repro.sim.errors.SimulationError`:
    a checkpoint problem must propagate out of
    :func:`~repro.faults.runner.run_application` (triggering the
    from-scratch fallback) instead of being classified as a crash.
    """


class CheckpointMismatch(CheckpointError):
    """The replayed host code diverged from the recorded golden run."""


class RestoreParityError(CheckpointError):
    """``verify_restore`` found a fast-forwarded run differing from
    its from-scratch twin -- a checkpointing bug, never ignorable."""


def _dumps(obj) -> bytes:
    return zlib.compress(pickle.dumps(obj, protocol=4), 1)


def _loads(blob: bytes):
    return pickle.loads(zlib.decompress(blob))


#: Decoded bytes the file cache may keep resident: every snapshot of
#: the sets a worker serves, bounded for one that serves hundreds.
_BLOB_CACHE_BYTES = 64 << 20
_blobs: Dict[tuple, tuple] = {}  # key -> (object, bytes), oldest first
_blobs_lock = threading.Lock()


def _load_blob(path_str: str, size: int, mtime_ns: int):
    """Load one file of a set -- its JSON manifest, or a compressed
    pickle -- cached per (path, stat).

    The stat fields key the cache so a recaptured set is never served
    stale; restore() always copies arrays out of the returned object,
    so sharing it across runs in one worker process is safe.
    """
    key = (path_str, size, mtime_ns)
    with _blobs_lock:
        hit = _blobs.pop(key, None)
        if hit is not None:
            _blobs[key] = hit  # the most recently used goes last
            return hit[0]
    raw = Path(path_str).read_bytes()
    if path_str.endswith(".json"):
        loaded = json.loads(raw)
    else:
        raw = zlib.decompress(raw)
        loaded = pickle.loads(raw)
    with _blobs_lock:
        _blobs[key] = (loaded, len(raw))
        resident = sum(nbytes for _, nbytes in _blobs.values())
        while resident > _BLOB_CACHE_BYTES and len(_blobs) > 1:
            resident -= _blobs.pop(next(iter(_blobs)))[1]
    return loaded


def _load_file(path: Path, cached: bool = True):
    """One pickled file of a set; ``cached=False`` reads it past the
    snapshot cache (what is read once per campaign neither stays
    resident nor evicts snapshots)."""
    try:
        if not cached:
            return _loads(path.read_bytes())
        st = os.stat(path)
        return _load_blob(str(path), st.st_size, st.st_mtime_ns)
    except (OSError, zlib.error, pickle.UnpicklingError, EOFError,
            ValueError) as exc:
        raise CheckpointError(f"unreadable {path.name}: {exc}") from exc


# -- canonical state digest ---------------------------------------------
#
# Pickle output is not stable (memoisation depends on object identity),
# so convergence hashing walks the snapshot structure itself.  Every
# value is type-tagged so e.g. ``0``, ``0.0``, ``False`` and ``b""``
# cannot collide across types, and closed by ``;``.  The byte stream is
# part of the checkpoint format: stored ``state_hash`` values must keep
# matching, so it never changes without a SNAPSHOT_FORMAT bump.
#
# A mixer appends its value's bytes to ``parts``; the hash is fed the
# joined buffer once (a GPU snapshot is ~9 000 small values; DRAM
# contributes its page table, never the image).

_DTYPE_TAGS: Dict[np.dtype, bytes] = {}


def _mix_array(parts, obj) -> None:
    tag = _DTYPE_TAGS.get(obj.dtype)
    if tag is None:
        tag = _DTYPE_TAGS[obj.dtype] = b"A" + str(obj.dtype).encode()
    parts.append(tag + repr(obj.shape).encode())
    parts.append(obj.tobytes())
    parts.append(b";")


def _mix_each(parts, items) -> None:
    append = parts.append
    for item in items:
        cls = type(item)
        # the two commonest kinds inline: the bytes of their _KINDS mixer
        if cls is int:
            append(b"I%d;" % item)
        elif cls is str:
            append(b"S" + item.encode("utf-8", "surrogatepass") + b";")
        else:
            (_MIXERS.get(cls) or _mixer_for(cls))(parts, item)
    append(b";")


def _mix_sequence(parts, obj) -> None:
    parts.append(b"L%d" % len(obj))
    _mix_each(parts, obj)


#: The keys of a dict keyed by plain strings, sorted by ``repr``, per
#: their insertion order (1 == 1.0 == True have three reprs).
_ORDERS: Dict[tuple, tuple] = {}


def _mix_dict(parts, obj) -> None:
    parts.append(b"D%d" % len(obj))
    keys = tuple(obj)
    order = _ORDERS.get(keys)
    if order is None:
        order = tuple(sorted(keys, key=repr))
        if all(type(key) is str for key in keys):
            _ORDERS[keys] = order
    _mix_each(parts, (item for key in order for item in (key, obj[key])))


def _mix_set(parts, obj) -> None:
    parts.append(b"E%d" % len(obj))
    _mix_each(parts, sorted(obj, key=repr))


def _mix_object(parts, obj) -> None:
    # plain state-holder objects (e.g. LaunchStats): type + fields
    parts.append(b"O" + type(obj).__name__.encode())
    _mix_dict(parts, vars(obj))
    parts.append(b";")


#: Types -> mixer, first match wins (bool before int: a bool is one).
_KINDS = (
    ((type(None),), lambda parts, obj: parts.append(b"N;")),
    ((bool, np.bool_),
     lambda parts, obj: parts.append(b"B1;" if obj else b"B0;")),
    ((int, np.integer), lambda parts, obj: parts.append(b"I%d;" % int(obj))),
    ((float, np.floating), lambda parts, obj: parts.append(
        b"F" + repr(float(obj)).encode() + b";")),
    ((str,), lambda parts, obj: parts.append(
        b"S" + obj.encode("utf-8", "surrogatepass") + b";")),
    ((bytes,), lambda parts, obj: parts.append(b"Y" + obj + b";")),
    ((np.ndarray,), _mix_array), ((list, tuple), _mix_sequence),
    ((dict,), _mix_dict), ((set, frozenset), _mix_set),
    ((object,), _mix_object))

#: Exact type -> mixer, filled by :func:`_mixer_for` as types are seen.
_MIXERS: Dict[type, object] = {}


def _mixer_for(cls):
    """Classify a type (numpy scalars and subclasses included), once."""
    mixer = _MIXERS[cls] = next(mixer for bases, mixer in _KINDS
                                if issubclass(cls, bases))
    return mixer


def state_digest(snap: dict) -> str:
    """Canonical digest of one :meth:`GPU.snapshot` dict, walked whole.

    Two runs whose snapshots digest equally hold identical
    architectural *and* timing state at that cycle, so their futures
    are identical -- the basis of convergence early-exit.  The
    reference :func:`tree_digest` is tested against (what format 3
    stored); nothing on a run's path calls it.
    """
    parts: List[bytes] = []
    _mix_dict(parts, snap)
    return hashlib.blake2b(b"".join(parts), digest_size=16).hexdigest()


def part_digest(piece: dict) -> bytes:
    """Digest of one captured part of :meth:`GPU.parts`: the canonical
    walk above, over that part alone."""
    parts: List[bytes] = []
    _mix_dict(parts, piece)
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


def tree_digest(digests: Dict[str, bytes]) -> str:
    """The root over ordered ``{part name: part digest}``: equal for
    two states iff they have the same parts with the same digests."""
    h = hashlib.blake2b(digest_size=16)
    for name, digest in digests.items():
        h.update(name.encode() + b"=" + digest)
    return h.hexdigest()


def _read_source(path: Path) -> bytes:
    """One source file (a seam: tests edit sources through it)."""
    return path.read_bytes()


@functools.lru_cache(maxsize=None)
def source_digest(name: str) -> bytes:
    """Hash of a module's source, or of every module directly inside
    a package; read once per process."""
    origin = Path(importlib.import_module(name).__file__)
    files = (sorted(origin.parent.glob("*.py"))
             if origin.name == "__init__.py" else [origin])
    h = hashlib.sha256()
    for path in files:
        h.update(f"{path.name}:".encode())
        h.update(_read_source(path))
    return h.digest()


def campaign_fingerprint(benchmark, card, scheduler_policy: str) -> str:
    """Content hash identifying one checkpointable configuration.

    ``benchmark`` is a constructed Benchmark instance.  The first
    :data:`IDENTITY_CHARS` characters say what the set is a set *of*:
    the benchmark (name and constructor state: input sizes, seeds), the
    card (``repr`` covers every timing/geometry knob of the frozen
    config dataclass) and the scheduler policy.  The rest is the "code
    hash": the snapshot format, the source of the simulator and of the
    benchmark's module (its host driver), its kernels' assembly
    sources.  Sets of one identity differ in the code they were
    captured from, and only the newest can be reached.
    """
    state = sorted((k, repr(v)) for k, v in vars(benchmark).items())
    identity = hashlib.sha256(
        f"card={card!r};sched={scheduler_policy};bench={benchmark.name};"
        f"{state!r}".encode()).hexdigest()[:IDENTITY_CHARS]
    h = hashlib.sha256()
    h.update(f"format={SNAPSHOT_FORMAT};".encode())
    for name in _GOLDEN_RUN_CODE + (type(benchmark).__module__,):
        h.update(source_digest(name))
    for kernel in benchmark.kernels():
        h.update(f"kernel={kernel.name};".encode())
        h.update(kernel.source.encode())
        h.update(repr((kernel.num_params, kernel.smem_bytes,
                       kernel.local_bytes)).encode())
    return identity + h.hexdigest()[:20 - IDENTITY_CHARS]


def placement(interval: Optional[int]) -> str:
    """A capture's snapshot placement: a set is reused only under its
    own, whose witnesses decide ``terminated_at``."""
    return (f"every {interval}" if interval is not None
            else f"auto, restore points every {RESTORE_STRIDE}")


class CheckpointRecorder:
    """Captures snapshots during a golden run.

    Attach via ``RunOptions(checkpointer=...)``: the GPU cycle loop
    calls :meth:`on_cycle` once :meth:`due_cycle` is reached, and the
    device :meth:`record_host_read` on every DtoH copy.  Always
    captures a witness at the first iteration of each kernel launch,
    then every ``interval`` cycles, or when it is None geometrically
    spaced (O(launches + log(total cycles))) and with restore points
    between (:data:`RESTORE_STRIDE`).

    Files go to a private sibling of ``directory``;
    :meth:`finalize` renames it to ``directory``, replacing what was
    there -- and what it supersedes beside it.
    """

    def __init__(self, directory: Path, interval: Optional[int] = None):
        if interval is not None and interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.directory = Path(directory)
        self._staging_dir: Optional[Path] = None
        self.interval = interval
        self.checkpoints: List[Dict[str, int]] = []
        #: Per snapshot file, its ``{part name: part digest}``.
        self._parts: Dict[str, Dict[str, bytes]] = {}
        #: Hashes of the pages in ``pages.bin``, in file order (a dict
        #: for its ordered keys).
        self._pooled: Dict[bytes, None] = {}
        self._host_reads: List[dict] = []
        self._seen_launches: set = set()
        self._next_witness, self._next_restore = 0, float("inf")

    def _staging(self) -> Path:
        """The private capture directory, made on first use."""
        if self._staging_dir is None:
            self._staging_dir = self.directory.with_name(
                f"{self.directory.name}.{uuid.uuid4().hex}")
            self._staging_dir.mkdir(parents=True)
        return self._staging_dir

    def due_cycle(self) -> int:
        """The cycle from which a witness or a restore point is due."""
        return min(self._next_witness, self._next_restore)

    def on_cycle(self, gpu, launch, queue) -> None:
        """Capture a witness or a restore point when one is due at
        this cycle (a witness when both are)."""
        launch_index = gpu.stats.current.launch_index
        witness = (launch_index not in self._seen_launches
                   or gpu.cycle >= self._next_witness)
        if not witness and gpu.cycle < self._next_restore:
            return
        self._seen_launches.add(launch_index)
        name = f"ckpt_{launch_index:03d}_{gpu.cycle:012d}.bin"
        snap = gpu.snapshot(launch, queue)
        self._pool_pages(gpu.memory, snap["memory"]["pages"])
        (self._staging() / name).write_bytes(_dumps(snap))
        entry = {"cycle": gpu.cycle, "launch_index": launch_index,
                 "file": name}
        if witness:
            digests = self._parts[name] = {
                part: part_digest(piece) for part, piece in snap.items()}
            entry["state_hash"] = tree_digest(digests)
            self._next_witness = gpu.cycle + (
                self.interval or max(_MIN_AUTO_STRIDE, gpu.cycle // 2))
        if self.interval is None:
            self._next_restore = gpu.cycle + RESTORE_STRIDE
        self.checkpoints.append(entry)

    def _pool_pages(self, memory, pages: Dict[int, bytes]) -> None:
        """Append every page whose content the pool has not seen."""
        fresh = {digest: index for index, digest in pages.items()
                 if digest not in self._pooled}
        if fresh:
            with open(self._staging() / POOL_FILE, "ab") as pool:
                for index in fresh.values():
                    pool.write(memory.page(index))
            self._pooled.update(dict.fromkeys(fresh))

    def record_host_read(self, tag: int, addr: int, nbytes: int,
                         data) -> None:
        """Record one DtoH copy (``tag`` = completed-launch count)."""
        self._host_reads.append({"tag": tag, "addr": addr,
                                 "nbytes": nbytes, "data": data.copy()})

    def finalize(self, launch_stats, golden_cycles: int,
                 liveness: Optional[LivenessTrace] = None) -> None:
        """Persist the golden manifest (and the run's liveness trace,
        when it recorded one) and publish the complete set."""
        staging = self._staging()
        golden = {"launch_stats": copy.deepcopy(list(launch_stats)),
                  "host_reads": self._host_reads,
                  "golden_cycles": golden_cycles}
        (staging / GOLDEN_FILE).write_bytes(_dumps(golden))
        (staging / PARTS_FILE).write_bytes(_dumps(self._parts))
        if liveness is not None:
            (staging / LIVENESS_FILE).write_bytes(_dumps(liveness))
        meta = {"format": SNAPSHOT_FORMAT,
                "identity": self.directory.name[:IDENTITY_CHARS],
                "placement": placement(self.interval),
                "golden_cycles": golden_cycles,
                "checkpoints": self.checkpoints,
                "pages": [digest.hex() for digest in self._pooled],
                "complete": True}
        # meta.json is written last: its presence marks a complete set
        (staging / "meta.json").write_text(
            json.dumps(meta, indent=1), encoding="utf-8")
        shutil.rmtree(self.directory, ignore_errors=True)  # a stale set
        try:
            os.rename(staging, self.directory)
        except OSError:
            # a concurrent capture of the same key published between
            # the two calls: its set is as complete as this one
            shutil.rmtree(staging, ignore_errors=True)
        self._supersede()

    def _supersede(self) -> None:
        """Remove the sets beside this one that nothing can reach any
        more: those of an older format, and those of this set's
        identity (:func:`campaign_fingerprint`) -- the same benchmark,
        card and scheduler, captured from since-edited sources.
        Captures in progress have a dot in their name: left alone."""
        mine = self.directory.name
        for meta_path in self.directory.parent.glob("*/meta.json"):
            name = meta_path.parent.name
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if name == mine or "." in name or not (
                    isinstance(meta, dict) and meta.keys() >= {
                        "format", "checkpoints", "pages"}):
                continue  # this set, a capture, not a checkpoint set
            if (meta["format"] < SNAPSHOT_FORMAT
                    or meta.get("identity") == mine[:IDENTITY_CHARS]):
                shutil.rmtree(meta_path.parent, ignore_errors=True)


class CheckpointSet:
    """A complete on-disk checkpoint set for one fingerprint key."""

    def __init__(self, directory: Path, meta: dict):
        self.directory = Path(directory)
        self.meta = meta
        self._slots = {bytes.fromhex(digest): slot
                       for slot, digest in enumerate(meta["pages"])}

    @property
    def golden_cycles(self) -> int:
        return self.meta["golden_cycles"]

    def golden(self) -> dict:
        """The golden manifest (launch stats + recorded host reads)."""
        golden = _load_file(self.directory / GOLDEN_FILE)
        if not (isinstance(golden, dict) and golden.keys() >= {
                "launch_stats", "host_reads", "golden_cycles"}):
            raise CheckpointError(f"{GOLDEN_FILE} holds no golden manifest")
        return golden

    def liveness(self) -> Optional[LivenessTrace]:
        """The golden liveness trace; ``None`` when the set has none
        (captured by an untraced golden run)."""
        path = self.directory / LIVENESS_FILE
        if not path.exists():
            return None
        trace = _load_file(path, cached=False)
        if not isinstance(trace, LivenessTrace):
            raise CheckpointError(f"{LIVENESS_FILE} holds no liveness trace")
        return trace

    def add_liveness(self, trace: LivenessTrace) -> None:
        """Keep the trace of a later traced golden run with the set
        (write-then-rename: a reader sees a whole file or none)."""
        path = self.directory / LIVENESS_FILE
        scratch = path.with_name(f"{path.name}.{uuid.uuid4().hex}")
        scratch.write_bytes(_dumps(trace))
        os.replace(scratch, path)

    def load_snapshot(self, name: str) -> dict:
        return _load_file(self.directory / name)

    def part_digests(self) -> Dict[str, Dict[str, bytes]]:
        """Per snapshot file, its ordered ``{part name: part digest}``."""
        return _load_file(self.directory / PARTS_FILE)

    def page(self, digest: bytes) -> bytes:
        """The pooled page with this content hash (verified)."""
        slot = self._slots.get(digest)
        if slot is None:
            raise CheckpointError(f"page {digest.hex()} is not in the pool")
        try:
            with open(self.directory / POOL_FILE, "rb") as pool:
                pool.seek(slot * SNAP_PAGE)
                page = pool.read(SNAP_PAGE)
        except OSError as exc:
            raise CheckpointError(f"unreadable page pool: {exc}") from exc
        if page_digest(page) != digest:
            raise CheckpointError(
                f"pool slot {slot} does not hold page {digest.hex()}")
        return page

    def restore_entry(self, target_cycle: int) -> Optional[dict]:
        """The snapshot a run injecting at ``target_cycle`` restores:
        the latest of either kind at or before it (one AT the cycle was
        taken before the injector fires); ``None`` when there is none."""
        return max((entry for entry in self.meta["checkpoints"]
                    if entry["cycle"] <= target_cycle),
                   key=lambda e: e["cycle"], default=None)

    def digests_after(self, cycle: int) -> List[dict]:
        """The witnesses whose state digest may tell that a fault
        injected at ``cycle`` is gone (or localize where it is not),
        each manifest entry with its ``parts`` (:meth:`part_digests`):
        only strictly later ones -- one AT the cycle is pre-injection."""
        parts = self.part_digests()
        return [dict(entry, parts=parts[entry["file"]])
                for entry in self.meta["checkpoints"]
                if entry["cycle"] > cycle and "state_hash" in entry]

    def fast_forward(self, target_cycle: int) -> Optional["FastForward"]:
        """Build a replayer restoring :meth:`restore_entry` of
        ``target_cycle`` (the run's injection cycle); ``None`` when
        there is no snapshot to restore."""
        entry = self.restore_entry(target_cycle)
        return FastForward(self, entry) if entry is not None else None


class FastForward:
    """Replays an application run up to a restored checkpoint.

    Attach via ``RunOptions(fast_forward=...)``.  The device routes
    every kernel launch and DtoH copy through this object until the
    restore point is reached (``done``); from then on the run proceeds
    live.  Any divergence from the recorded golden run raises
    :class:`CheckpointMismatch`.
    """

    def __init__(self, ckpt_set: CheckpointSet, entry: dict):
        self._set = ckpt_set
        #: The manifest entry of the snapshot to restore
        #: (:meth:`CheckpointSet.restore_entry`).
        self.entry = entry
        self.done = False
        #: Wall-clock seconds spent loading + applying the snapshot
        #: (observability: the "restore" share of a run's timings).
        self.restore_seconds = 0.0
        self.launch_index = entry["launch_index"]
        golden = ckpt_set.golden()
        self._launches = golden["launch_stats"]
        self._reads = [r for r in golden["host_reads"]
                       if r["tag"] <= self.launch_index]
        self._pos = 0

    def on_launch(self, gpu, request):
        """Skip, or restore-and-resume, one replayed kernel launch."""
        index = len(gpu.stats.launches)
        if index < self.launch_index:
            if index >= len(self._launches):
                raise CheckpointMismatch(
                    f"replay launched kernel #{index} past the end of "
                    "the golden run")
            expect = self._launches[index]
            if (expect.kernel_name != request.kernel.name
                    or expect.grid_ctas != request.num_ctas
                    or expect.threads_per_cta != request.threads_per_cta):
                raise CheckpointMismatch(
                    f"replay launch #{index} is {request.kernel.name} "
                    f"({request.num_ctas} CTAs), golden ran "
                    f"{expect.kernel_name} ({expect.grid_ctas} CTAs)")
            stats = copy.deepcopy(expect)
            gpu.stats.launches.append(stats)
            gpu.cycle = stats.end_cycle
            return stats
        if index > self.launch_index:
            raise CheckpointMismatch(
                f"replay reached launch #{index} without restoring "
                f"checkpoint at launch #{self.launch_index}")
        restore_started = time.perf_counter()
        snap = self._set.load_snapshot(self.entry["file"])
        desc = snap["rest"]["launch"]
        if (desc["kernel"] != request.kernel.name
                or tuple(desc["grid"]) != tuple(request.grid)
                or tuple(desc["block"]) != tuple(request.block)
                or tuple(desc["params"]) != tuple(request.params)):
            raise CheckpointMismatch(
                f"launch #{index} does not match the snapshot "
                f"descriptor ({desc['kernel']} vs {request.kernel.name})")
        if self._pos != len(self._reads):
            raise CheckpointMismatch(
                f"{len(self._reads) - self._pos} recorded host read(s) "
                "were never consumed before the restore point")
        queue = gpu.restore(snap, request, self._set.page)
        self.done = True
        self.restore_seconds = time.perf_counter() - restore_started
        return gpu.resume_launch(request, queue)

    def on_host_read(self, addr: int, nbytes: int, tag: int):
        """Serve one pre-restore DtoH copy from the recording."""
        if self._pos >= len(self._reads):
            raise CheckpointMismatch(
                f"unexpected host read at 0x{addr:x} before the "
                "restore point (golden run recorded none here)")
        rec = self._reads[self._pos]
        if rec["tag"] != tag or rec["addr"] != addr \
                or rec["nbytes"] != nbytes:
            raise CheckpointMismatch(
                f"host read 0x{addr:x}+{nbytes} (after {tag} launches) "
                f"diverged from recorded 0x{rec['addr']:x}"
                f"+{rec['nbytes']} (after {rec['tag']})")
        self._pos += 1
        return rec["data"].copy()


def host_read_matches(reads, pos: int, tag: int, addr: int, nbytes: int,
                      data) -> bool:
    """Whether DtoH copy number ``pos`` of the golden recording
    ``reads`` is this one: made after as many launches, of the same
    range, returning the same bytes.  A copy past the end of the
    recording matches nothing."""
    if pos >= len(reads):
        return False
    rec = reads[pos]
    return (rec["tag"] == tag and rec["addr"] == addr
            and rec["nbytes"] == nbytes
            and np.array_equal(rec["data"], data))


class CheckpointStore:
    """Directory of checkpoint sets, one subdirectory per key."""

    def __init__(self, root):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / key

    def open(self, key: str) -> Optional[CheckpointSet]:
        """Open a *complete* set for ``key``; None when absent/torn.
        (The manifest is parsed once per capture: see
        :func:`_load_blob`.)"""
        try:
            meta = _load_file(self.path(key) / "meta.json")
        except CheckpointError:
            return None
        if meta.get("format") != SNAPSHOT_FORMAT \
                or not meta.get("complete"):
            return None
        return CheckpointSet(self.path(key), meta)
