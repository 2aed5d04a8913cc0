"""Single-application execution under (optional) fault injection.

One "run" is a full application execution: build inputs on a fresh
device, launch every kernel, verify the output against the golden
reference, and print the paper's PASSED/FAILED message contract.
Abnormal termination is captured, never propagated: the result record
carries everything the classifier needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.faults.early_stop import EarlyConvergence
from repro.sim.device import Device, RunOptions
from repro.sim.errors import SimTimeout, SimulationError


@dataclass
class RunResult:
    """Outcome record of one application execution."""

    status: str  #: "completed" | "crash" | "timeout"
    passed: Optional[bool]  #: output check result (None if not reached)
    message: str  #: the application's stdout contract line
    cycles: int  #: total simulated cycles (all launches)
    error: str = ""  #: exception text for crash/timeout
    injection_log: List[dict] = field(default_factory=list)
    device: Optional[Device] = None  #: kept only when ``keep_device``
    #: Cycle at which a convergence monitor proved the run re-joined
    #: the golden execution (None when the run was simulated in full).
    terminated_at: Optional[int] = None
    #: Cycle a checkpoint fast-forward restored at (None when the run
    #: was simulated from cycle 0) -- observability provenance only,
    #: never part of the logged record.
    restored_at: Optional[int] = None
    #: Cycle-loop iterations executed / cycles covered by skips
    #: (sampled from the GPU's observability counters).
    loop_iterations: int = 0
    idle_cycles_skipped: int = 0
    #: Finalized fault-propagation record (site fates, consumer chain,
    #: divergence window) when a tracer rode along, else None.
    propagation: Optional[dict] = None

    @classmethod
    def golden_suffix(cls, golden_cycles: int,
                      terminated_at: Optional[int] = None,
                      **observed) -> "RunResult":
        """The result of a run proven to have re-joined the golden
        execution at cycle ``terminated_at`` (``None``: it was
        simulated to the end): what is left of it *is* the golden run,
        so it passes after ``golden_cycles`` cycles.  ``observed`` is
        what was seen of it (injection log, provenance counters)."""
        return cls(status="completed", passed=True, message="Test PASSED",
                   cycles=golden_cycles, terminated_at=terminated_at,
                   **observed)


def run_application(benchmark, card, keep_device: bool = False,
                    options: Optional[RunOptions] = None) -> RunResult:
    """Execute one benchmark application on a fresh device.

    Args:
        benchmark: a :class:`repro.bench.base.Benchmark` instance.
        card: card name or :class:`~repro.sim.config.GPUConfig`.
        keep_device: retain the device on the result (profiling runs
            need its per-launch statistics).
        options: the run's :class:`~repro.sim.device.RunOptions`
            (injector, watchdog budget, scheduler, ...); defaults to a
            fault-free GTO run without a budget.
    """
    if options is None:
        options = RunOptions()
    injector = options.injector
    tracer = getattr(injector, "tracer", None)
    dev = Device(card, options)

    status, passed, error = "completed", None, ""
    converged = None
    try:
        state = benchmark.build(dev)
        benchmark.execute(dev, state)
        passed = bool(benchmark.check(dev, state))
    except EarlyConvergence as exc:
        # success path, not an abort: every rider of the simulation
        # matched golden state
        converged = exc
    except SimTimeout as exc:  # includes DeadlockError
        status, error = "timeout", str(exc)
    except (SimulationError, MemoryError, OverflowError) as exc:
        status, error = "crash", str(exc)
    finally:
        if not keep_device:
            dev.gpu.release()

    ff = options.fast_forward
    observed = dict(
        injection_log=list(injector.log) if injector is not None else [],
        device=dev if keep_device else None,
        restored_at=(ff.entry["cycle"]
                     if ff is not None and ff.done else None),
        loop_iterations=dev.gpu.loop_iterations,
        idle_cycles_skipped=dev.gpu.idle_cycles_skipped,
        propagation=(tracer.finalize() if tracer is not None else None))
    if converged is not None:
        return RunResult.golden_suffix(converged.golden_cycles,
                                       converged.cycle, **observed)
    if status == "completed":
        message = "Test PASSED" if passed else "Test FAILED"
    else:
        message = f"Test ABORTED ({status})"
    return RunResult(status=status, passed=passed, message=message,
                     cycles=dev.cycle, error=error, **observed)
