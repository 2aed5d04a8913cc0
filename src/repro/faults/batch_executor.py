"""Batched dispatch: group eligible runs into lockstep packs.

The executor's unit of work grows from one spec to one *pack* of specs
(see :mod:`repro.sim.batch`): runs of the same campaign that target
the same kernel and structure and would fast-forward to the same
golden snapshot restore that snapshot **once** and ride one simulation
together, each fault applied to its own column of the stacked
architectural state.

Correctness never depends on the batching:

- a member whose fault is about to influence shared state peels off
  and is simply re-run through :func:`~repro.faults.executor
  .execute_run` -- records are pure functions of their specs, so the
  solo record is the record;
- any unexpected condition inside a pack (a non-golden host read, a
  checkpoint problem, an abnormal pack result) aborts the whole pack
  and every unresolved member falls back to the solo path;
- ineligible specs (cache/control structures, persistent fault
  models, pre-screened or synthesized runs, verify/propagation
  modes) are never packed at all.

Hence records are byte-identical (canonical form) between
``batch=1`` and any batch size, at any jobs count.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.executor import (RunSpec, _finish_record, _resolved_card,
                                   _worker_id, base_record, execute_run,
                                   open_fresh_checkpoint_set,
                                   regenerate_mask)
from repro.faults.models import get_model
from repro.faults.runner import RunResult, run_application
from repro.faults.targets import Structure
from repro.sim.batch import (LockstepPack, PackAbort, PackDrained,
                             PackMember)
from repro.sim.device import RunOptions

#: Structures whose per-run state is stacked along the runs axis.
#: Cache and control-unit targets live in *shared* state and stay on
#: the solo path.
BATCHABLE_STRUCTURES = frozenset({
    Structure.REGISTER_FILE, Structure.SHARED_MEM, Structure.LOCAL_MEM})


def batch_eligible(spec: RunSpec) -> bool:
    """Whether a spec may ride in a lockstep pack.

    Mirrors the gates the :class:`~repro.faults.early_stop.Prescreener`
    applies: persistent models re-assert every cycle (columns diverge
    immediately and convergence can never pin the future), and the
    observational modes (propagation tracing, restore verification)
    are defined against solo execution.
    """
    if spec.structure not in BATCHABLE_STRUCTURES:
        return False
    if spec.synthesized or spec.prescreened:
        return False
    if spec.verify_restore or spec.propagation or spec.cache_hook_mode:
        return False
    if get_model(spec.fault_model).persistent:
        return False
    return True


def _restore_point(spec: RunSpec,
                   mask_cycle: int) -> Optional[Tuple[int, int]]:
    """``(launch_index, cycle)`` of the golden snapshot a fast-forward
    to ``mask_cycle`` would restore, or ``None`` (from scratch)."""
    ckpt_set = open_fresh_checkpoint_set(spec)
    if ckpt_set is None:
        return None
    candidates = [entry for entry in ckpt_set.meta["checkpoints"]
                  if entry["cycle"] <= mask_cycle]
    if not candidates:
        return None
    entry = max(candidates, key=lambda e: e["cycle"])
    return (entry["launch_index"], entry["cycle"])


def group_packs(pending: Sequence[RunSpec], batch: int) -> List[tuple]:
    """Partition pending specs into dispatch units.

    Returns ``("solo", spec)`` and ``("pack", (spec, ...))`` units in
    first-appearance order.  Eligible specs group by
    ``(kernel, structure, nearest golden snapshot)`` -- the paper-side
    planner axes plus the restore point, so one checkpoint restore
    serves the whole pack -- and are chunked to at most ``batch``
    members.  Groups of one dispatch solo (a pack needs company).
    """
    units: List[tuple] = []
    groups: Dict[tuple, List[RunSpec]] = {}
    order: List[tuple] = []
    for spec in pending:
        if not batch_eligible(spec):
            units.append(("solo", spec))
            continue
        mask = regenerate_mask(spec)
        key = (spec.kernel, spec.structure,
               _restore_point(spec, mask.cycle))
        if key not in groups:
            groups[key] = []
            order.append(key)
            units.append(None)  # placeholder at first appearance
        groups[key].append(spec)

    expanded: List[tuple] = []
    for unit in units:
        if unit is not None:
            expanded.append(unit)
            continue
        key = order.pop(0)
        members = groups[key]
        for start in range(0, len(members), batch):
            chunk = members[start:start + batch]
            if len(chunk) == 1:
                expanded.append(("solo", chunk[0]))
            else:
                expanded.append(("pack", tuple(chunk)))
    return expanded


def execute_pack(specs: Sequence[RunSpec]) -> Tuple[List[dict], dict]:
    """Execute one pack; returns ``(records in spec order, stats)``.

    Any exception inside the batched run -- :class:`PackAbort`, a
    checkpoint problem, a simulator error the solo path would have
    classified -- drops every unresolved member to
    :func:`~repro.faults.executor.execute_run`; records are pure, so
    the result is identical either way.
    """
    specs = list(specs)
    try:
        return _run_pack(specs)
    except Exception:
        records = [execute_run(spec) for spec in specs]
        return records, {
            "packs": 1, "members": len(specs), "converged": 0,
            "completed_in_pack": 0, "peeled": 0,
            "solo_fallback": len(specs), "peel_cycles": [],
            "lockstep_cycles": 0, "member_cycles": 0,
        }


def _pack_timings(spec: RunSpec, started: float, pack_size: int,
                  start_cycle: int, sim_end: int, loop_iterations: int,
                  idle_cycles_skipped: int) -> dict:
    """Per-member ``timings`` sidecar fields for a batched run.

    Volatile by contract (canonicalization drops them); the share of
    the pack's wall clock is attributed evenly, while the pack GPU's
    loop counters -- one cycle loop served every member -- go to one
    member whole so that campaign sums count them once.
    """
    return {
        "restore_s": 0.0,
        "simulate_s": round((time.perf_counter() - started)
                            / max(pack_size, 1), 6),
        "classify_s": 0.0,
        "total_s": round((time.perf_counter() - started)
                         / max(pack_size, 1), 6),
        "cycles_simulated": max(sim_end - start_cycle, 0),
        "skipped_fast_forward": start_cycle,
        "skipped_convergence": max(spec.golden_cycles - sim_end, 0),
        "skipped_prescreen": 0,
        "skipped_synthesized": 0,
        "fast_forwarded": start_cycle > 0,
        "loop_iterations": loop_iterations,
        "idle_cycles_skipped": idle_cycles_skipped,
        "batched": True,
        "pack_size": pack_size,
    }


def _run_pack(specs: List[RunSpec]) -> Tuple[List[dict], dict]:
    started = time.perf_counter()
    spec0 = specs[0]
    card = _resolved_card(spec0)
    masks = [regenerate_mask(spec) for spec in specs]

    ckpt_set = open_fresh_checkpoint_set(spec0)

    host_reads = None
    entries_all: List[dict] = []
    if ckpt_set is not None:
        host_reads = ckpt_set.golden()["host_reads"]
        entries_all = [entry for entry in ckpt_set.meta["checkpoints"]
                       if entry.get("state_hash")]

    members = []
    for col, (spec, mask) in enumerate(zip(specs, masks), start=1):
        entries = []
        if spec.early_stop in ("converge", "full"):
            # checkpoints AT the injection cycle carry pre-injection
            # state: only strictly later digests witness convergence
            entries = [entry for entry in entries_all
                       if entry["cycle"] > mask.cycle]
        members.append(PackMember(spec, mask, col, entries))
    pack = LockstepPack(members, golden_host_reads=host_reads)

    from repro.bench import make_benchmark

    def simulate(fast_forward=None):
        pack.reset()
        options = RunOptions(scheduler_policy=spec0.scheduler_policy,
                             cycle_budget=spec0.cycle_budget,
                             fast_forward=fast_forward, pack=pack)
        return run_application(make_benchmark(spec0.benchmark), card,
                               options=options)

    def attempt(fast_forward=None):
        try:
            return simulate(fast_forward), False
        except PackDrained:
            # every member resolved before the application finished
            return None, True

    result, drained = None, False
    start_cycle = 0
    if ckpt_set is not None:
        from repro.sim.checkpoint import CheckpointError

        fast_forward = ckpt_set.fast_forward(min(m.cycle for m in masks))
        if fast_forward.active:
            try:
                result, drained = attempt(fast_forward)
                start_cycle = fast_forward.restore_cycle or 0
            except CheckpointError:
                result, drained, start_cycle = None, False, 0
    if result is None and not drained:
        result, drained = attempt()

    unresolved = [m for m in members if m.resolution is None]
    if unresolved:
        # members completing inside the pack require a clean golden
        # ride; anything else is outside the invariants -> solo path
        if (result is None or result.status != "completed"
                or not result.passed
                or result.cycles != spec0.golden_cycles):
            raise PackAbort("pack run did not complete the golden ride")

    # read from the pack's GPU, not the result: a drained pack has none
    loop_counters = (pack.gpu.loop_iterations,
                     pack.gpu.idle_cycles_skipped)
    records: Dict[tuple, dict] = {}
    peeled = converged = completed = 0
    lockstep_cycles = 0
    member_cycles = 0
    for member in members:
        spec = member.spec
        span = max(spec.golden_cycles - start_cycle, 0)
        member_cycles += span
        resolution = member.resolution
        if resolution is not None and resolution[0] == "peeled":
            peeled += 1
            lockstep_cycles += max(resolution[1] - start_cycle, 0)
            records[spec.key] = execute_run(spec)
            continue
        if resolution is not None and resolution[0] == "converged":
            converged += 1
            sim_end = resolution[1]
            lockstep_cycles += max(sim_end - start_cycle, 0)
            run_result = RunResult(
                status="completed", passed=True, message="Test PASSED",
                cycles=spec.golden_cycles,
                injection_log=list(member.injector.log),
                terminated_at=sim_end)
        else:
            completed += 1
            sim_end = result.cycles
            lockstep_cycles += span
            run_result = RunResult(
                status="completed", passed=True, message="Test PASSED",
                cycles=result.cycles,
                injection_log=list(member.injector.log))
        final = _finish_record(base_record(spec), run_result, spec,
                               member.mask)
        if spec.telemetry:
            final["timings"] = _pack_timings(spec, started, len(specs),
                                             start_cycle, sim_end,
                                             *loop_counters)
            loop_counters = (0, 0)
            final["worker"] = _worker_id()
        records[spec.key] = final

    stats = {
        "packs": 1,
        "members": len(specs),
        "converged": converged,
        "completed_in_pack": completed,
        "peeled": peeled,
        "solo_fallback": 0,
        "peel_cycles": [cycle for _, cycle, _ in pack.peels],
        "lockstep_cycles": lockstep_cycles,
        "member_cycles": member_cycles,
    }
    return [records[spec.key] for spec in specs], stats
