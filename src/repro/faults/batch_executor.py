"""Batched dispatch: group eligible runs into lockstep packs.

The executor's unit of work grows from one spec to one *pack* of specs
(see :mod:`repro.sim.batch`): runs of the same campaign that target
the same kernel and structure and would fast-forward to the same
golden snapshot restore that snapshot **once** and ride one simulation
together, each fault applied to its own column of the stacked
architectural state.

Correctness never depends on the batching:

- a member whose fault is about to influence shared state peels off
  and is simulated again alone, by the stages
  :func:`~repro.faults.executor.execute_run` is made of -- records
  are pure functions of their specs, so the solo record is the record;
- any unexpected condition inside a pack (a non-golden host read, a
  checkpoint problem, an abnormal pack result) aborts the whole pack
  and every member falls back to the solo path;
- ineligible specs (cache/control structures, persistent fault
  models, pre-screened or synthesized runs, verify/propagation
  modes) are never packed at all: they dispatch solo.

Hence records are byte-identical (canonical form) between
``batch=1`` and any batch size, at any jobs count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.faults.executor import (ResolvedRun, RunSpec, Stopwatch,
                                   annotate, classify, finish_solo,
                                   may_converge, simulate,
                                   zero_pack_stats)
from repro.faults.runner import RunResult
from repro.faults.targets import Structure
from repro.sim.batch import LockstepPack, PackAbort, PackMember

#: Structures whose per-run state is stacked along the runs axis.
#: Cache and control-unit targets live in *shared* state and stay on
#: the solo path.
BATCHABLE_STRUCTURES = frozenset({
    Structure.REGISTER_FILE, Structure.SHARED_MEM, Structure.LOCAL_MEM})


def batch_eligible(spec: RunSpec) -> bool:
    """Whether a spec may ride in a lockstep pack.

    Not what needs no simulation, not the observational modes
    (propagation tracing, restore verification), which are defined
    against solo execution, and not a run whose column could never
    agree with the golden one for long
    (:func:`~repro.faults.executor.may_converge`).
    """
    if spec.structure not in BATCHABLE_STRUCTURES:
        return False
    if spec.synthesized or spec.prescreened:
        return False
    if spec.verify_restore or spec.propagation:
        return False
    return may_converge(spec)


def group_packs(pending: Sequence[RunSpec], batch: int) -> List[tuple]:
    """Partition pending specs into dispatch units.

    Returns ``("solo", spec)`` and ``("pack", (spec, ...))`` units in
    first-appearance order.  Eligible specs group by
    ``(kernel, structure, nearest golden snapshot)`` -- the paper-side
    planner axes plus the restore point, so one checkpoint restore
    serves the whole pack -- and are chunked to at most ``batch``
    members.  Groups of one dispatch solo (a pack needs company).
    """
    units: list = []  # solo units, and each group where it first appears
    groups: Dict[tuple, List[RunSpec]] = {}
    for spec in pending:
        if not batch_eligible(spec):
            units.append(("solo", spec))
            continue
        run = ResolvedRun(spec)
        snapshot = (run.checkpoints.restore_entry(run.mask.cycle)
                    if run.checkpoints is not None else None)
        key = (spec.kernel, spec.structure,
               snapshot and (snapshot["launch_index"], snapshot["cycle"]))
        if key not in groups:
            groups[key] = []
            units.append(groups[key])
        groups[key].append(spec)

    expanded: List[tuple] = []
    for unit in units:
        if isinstance(unit, tuple):
            expanded.append(unit)
            continue
        for start in range(0, len(unit), batch):
            chunk = unit[start:start + batch]
            if len(chunk) == 1:
                expanded.append(("solo", chunk[0]))
            else:
                expanded.append(("pack", tuple(chunk)))
    return expanded


def _ride(runs: List[ResolvedRun], watch: Stopwatch):
    """The restore -> simulate stages of a pack: its runs as the
    columns of one simulation, restored once at the snapshot that
    serves the earliest injection.  Returns the pack (its members
    resolved, or left to inherit the result) and the result."""
    first = runs[0]
    host_reads = (first.checkpoints.golden()["host_reads"]
                  if first.checkpoints is not None else None)
    pack = LockstepPack(
        [PackMember(run.mask, col, run.witnesses)
         for col, run in enumerate(runs, start=1)],
        first.spec.golden_cycles, golden_host_reads=host_reads)

    def riders():
        pack.reset()  # fresh per attempt, like a solo run's riders
        return {"pack": pack}

    result = simulate(first, riders, min(run.mask.cycle for run in runs),
                      watch)
    if (any(member.resolution is None for member in pack.members)
            and not (result.status == "completed" and result.passed
                     and result.cycles == first.spec.golden_cycles)):
        # members completing inside the pack require a clean golden
        # ride; anything else is outside the invariants -> solo path
        raise PackAbort("pack run did not complete the golden ride")
    return pack, result


def execute_pack(specs: Sequence[RunSpec]) -> Tuple[List[dict], dict]:
    """Execute one pack; returns ``(records in spec order, stats)``:
    resolve -> restore -> simulate -> classify -> annotate over N
    columns.  A member that peeled goes on from its resolved run
    through :func:`~repro.faults.executor.finish_solo`, and so does
    every member when anything goes wrong inside the batched run
    (:class:`PackAbort`, a simulator error the solo path would have
    classified).

    Under telemetry each member's ``timings`` hold an equal share of
    what the pack spent on all of them (resolving, the one restore,
    the lockstep simulation) plus what was spent on it alone; the pack
    GPU's loop counters -- one cycle loop served every member -- go to
    the first member resolved in the pack, whole, so that campaign
    sums count them once.
    """
    watch = Stopwatch()
    runs = [ResolvedRun(spec) for spec in specs]
    stats = zero_pack_stats()
    stats["packs"], stats["members"] = 1, len(runs)
    try:
        pack, result = _ride(runs, watch)
    except Exception:
        pack = None
    else:
        stats["peel_cycles"] = [cycle for _, cycle, _ in pack.peels]
        start_cycle = result.restored_at or 0
        counters = {"loop_iterations": result.loop_iterations,
                    "idle_cycles_skipped": result.idle_cycles_skipped}
    shared_s = watch.total_s()
    records = []
    for index, run in enumerate(runs):
        spec = run.spec
        own = Stopwatch(shared_s / len(runs), watch.restore_s / len(runs),
                        watch.simulate_s / len(runs))
        if pack is None:
            stats["solo_fallback"] += 1
            records.append(finish_solo(run, own))
            continue
        member = pack.members[index]
        # "converged" or "peeled" at a cycle; else it rode to the end
        kind, cycle = member.resolution or ("completed_in_pack", None)
        stats[kind] += 1
        stats["member_cycles"] += max(spec.golden_cycles - start_cycle, 0)
        stats["lockstep_cycles"] += max(
            (spec.golden_cycles if cycle is None else cycle) - start_cycle, 0)
        if kind == "peeled":
            records.append(finish_solo(run, own))
            continue
        inherited = RunResult.golden_suffix(
            spec.golden_cycles, cycle,
            injection_log=list(member.injector.log),
            restored_at=result.restored_at, **counters)
        counters = {}
        records.append(annotate(classify(run, inherited, own), spec, own,
                                inherited, pack_size=len(runs)))
    return records, stats
