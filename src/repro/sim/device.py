"""The host-side device API (the CUDA runtime of the simulator).

A :class:`Device` is what benchmark "host code" talks to: allocate
device memory, copy numpy arrays to/from it, and launch kernels.
Launches are synchronous (the simulator runs the kernel to completion)
and cycle counts accumulate across launches, giving the global
application cycle that fault-injection campaigns index into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.sim.cards import get_card
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU
from repro.sim.kernel import Kernel, KernelLaunch
from repro.sim.stats import LaunchStats

_SCHEDULER_POLICIES = ("gto", "lrr")


@dataclass(frozen=True)
class RunOptions:
    """Execution options of one device run, fixed at construction.

    Replaces the mutate-after-construction ``set_*`` calls: a device
    (and :func:`repro.faults.runner.run_application`) accepts one
    immutable options value, so a run is fully described by
    ``(benchmark, card, options)`` -- a requirement for dispatching
    runs to worker processes.

    Attributes:
        scheduler_policy: warp scheduler ("gto" or "lrr").
        cycle_budget: watchdog budget in global cycles (``None``
            disables the watchdog).
        injector: optional :class:`repro.faults.injector.Injector`.
        checkpointer: optional
            :class:`repro.sim.checkpoint.CheckpointRecorder` capturing
            golden-run snapshots.
        fast_forward: optional
            :class:`repro.sim.checkpoint.FastForward` replaying the
            run prefix from a recorded checkpoint set.
        liveness: optional :class:`repro.sim.liveness.LivenessTrace`
            listening to a golden run from its start.
        convergence: optional
            :class:`repro.faults.early_stop.ConvergenceMonitor`
            terminating an injected run once its state re-converges
            with the golden run.
        pack: optional :class:`repro.sim.batch.LockstepPack` riding
            the run; it widens the runs axis to its members and takes
            the ``convergence`` role, injecting for them (leave
            ``injector`` and ``convergence`` unset).
    """

    scheduler_policy: str = "gto"
    cycle_budget: Optional[int] = None
    injector: Optional[object] = None
    checkpointer: Optional[object] = None
    fast_forward: Optional[object] = None
    liveness: Optional[object] = None
    convergence: Optional[object] = None
    pack: Optional[object] = None

    def __post_init__(self):
        if self.scheduler_policy not in _SCHEDULER_POLICIES:
            raise ValueError("scheduler policy must be 'gto' or 'lrr'")
        if self.checkpointer is not None and self.fast_forward is not None:
            raise ValueError(
                "checkpointer (capture) and fast_forward (restore) are "
                "mutually exclusive")


class Device:
    """One simulated GPU device with a CUDA-like host API."""

    def __init__(self, config: Union[GPUConfig, str],
                 options: Optional[RunOptions] = None):
        if isinstance(config, str):
            config = get_card(config)
        self.config = config
        self.gpu = GPU(config)
        self.options = options or RunOptions()
        self._apply_options(self.options)

    def _apply_options(self, options: RunOptions) -> None:
        self.gpu.cycle_budget = options.cycle_budget
        self.gpu.injector = options.injector
        self.gpu.checkpointer = options.checkpointer
        self.gpu.convergence = options.convergence
        self._fast_forward = options.fast_forward
        if options.liveness is not None:
            self.gpu.listen(options.liveness)
        if options.pack is not None:
            options.pack.attach(self.gpu)
        if options.scheduler_policy != "gto":
            for core in self.gpu.cores:
                core.scheduler_policy = options.scheduler_policy

    # -- memory management ------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """Allocate device memory; returns the device pointer."""
        return self.gpu.memory.malloc(nbytes)

    def to_device(self, array: np.ndarray) -> int:
        """Allocate + copy: the common cudaMalloc/cudaMemcpy pair."""
        ptr = self.malloc(array.nbytes)
        self.memcpy_htod(ptr, array)
        return ptr

    def memcpy_htod(self, ptr: int, array: np.ndarray) -> None:
        """Copy a numpy array to device memory."""
        raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        self.gpu.host_write(ptr, raw)

    def memcpy_dtoh(self, ptr: int, nbytes: int,
                    dtype=np.uint8) -> np.ndarray:
        """Copy device memory back to the host as a numpy array.

        During a golden capture the copy is recorded; during a
        fast-forwarded replay, copies before the restore point are
        served from the recording (host control flow replays exactly).
        """
        tag = len(self.gpu.stats.launches)
        ff = self._fast_forward
        if ff is not None and not ff.done:
            raw = ff.on_host_read(ptr, nbytes, tag)
        else:
            raw = self.gpu.host_read(ptr, nbytes)
            if self.gpu.checkpointer is not None:
                self.gpu.checkpointer.record_host_read(tag, ptr, nbytes,
                                                       raw)
        if self.gpu.convergence is not None:
            # also the served bytes, which ARE the recorded ones: the
            # monitor's sequential position stays aligned
            self.gpu.convergence.on_host_read(tag, ptr, nbytes, raw)
        return raw.view(dtype)

    def read_array(self, ptr: int, shape, dtype) -> np.ndarray:
        """Typed DtoH copy: read ``shape`` elements of ``dtype``."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape))
        return self.memcpy_dtoh(ptr, count * dtype.itemsize,
                                dtype=dtype).reshape(shape)

    # -- kernel launch ------------------------------------------------------

    def launch(self, kernel: Kernel,
               grid: Union[int, Sequence[int]],
               block: Union[int, Sequence[int]],
               params: Sequence[Union[int, float]] = ()) -> LaunchStats:
        """Launch a kernel and run it to completion.

        While a fast-forward replay is attached and the restore point
        has not been reached, launches before it are skipped (their
        golden stats are credited) and the launch *at* the restore
        point resumes simulation from the restored snapshot.
        """
        request = KernelLaunch.create(kernel, grid, block, params)
        ff = self._fast_forward
        if ff is not None and not ff.done:
            return ff.on_launch(self.gpu, request)
        return self.gpu.run_launch(request)

    # -- introspection --------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Global application cycle (cumulative across launches)."""
        return self.gpu.cycle

    @property
    def launches(self) -> List[LaunchStats]:
        """Stats of every completed launch."""
        return self.gpu.stats.launches
