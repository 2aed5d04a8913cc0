"""Per-layer metrics of one traced pass, measured from outside.

Three sources, none of them inside ``src/``: the harness spans around
``Campaign.plan/execute/aggregate`` and the dispatcher client calls;
what the program already reports about itself under ``metrics=True``
(record ``timings``, ``Campaign.last_metrics``, the ``/metrics``
scrape); and probes -- timed calls into one layer's public functions on
the traced pass's own specs and records.  Layers a workload bypasses
report 0, which is what the bypass predictions in README.md check.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence

from repro.dist.protocol import (canonical_log_text, spec_from_wire,
                                 spec_to_wire)
from repro.faults.batch_executor import execute_pack, group_packs
from repro.faults.campaign import profile_application
from repro.faults.early_stop import Prescreener
from repro.faults.executor import CampaignExecutor, regenerate_mask
from repro.faults.parser import load_records
from repro.obs import MetricsCollector, events_path_for
from repro.sim.cards import get_card
from repro.sim.checkpoint import CheckpointStore
from repro.sim.liveness import LivenessTrace

from workloads import CARD, Round, parse_scrape, process_peak_rss_mb

#: cProfile ``tottime`` is folded by source file into these shares.
PROFILE_FILES = {
    "repro/sim/core.py": "sim.core", "repro/sim/warp.py": "sim.warp",
    "repro/sim/exec_unit.py": "sim.exec_unit",
    "repro/sim/cache.py": "sim.cache", "repro/sim/memory.py": "sim.memory",
    "repro/sim/gpu.py": "sim.gpu", "repro/sim/batch.py": "sim.batch",
    "repro/faults/injector.py": "injector",
}

EFFECTS = ("Masked", "SDC", "Crash", "Timeout", "Performance")


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def profile_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """``tottime`` by source file as shares of the profiled total.

    cProfile charges every Python call but nothing inside native code,
    so call-heavy files are inflated: the shares rank hot spots and are
    never a speed claim.
    """
    totals = dict.fromkeys(
        list(PROFILE_FILES.values()) + ["numpy", "other"], 0.0)
    for (filename, _, function), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        name = next((layer for suffix, layer in PROFILE_FILES.items()
                     if filename.endswith(suffix)), None)
        if name is None:
            # "~" is cProfile's file name for C functions, whose module
            # is then part of the function name
            numpy = "/numpy/" in filename or (filename == "~"
                                              and "numpy" in function)
            name = "numpy" if numpy else "other"
        totals[name] += tottime
    total = sum(totals.values())
    return {f"{name}.self_share": _ratio(value, total)
            for name, value in totals.items()}


def layer_metrics(workload, tracer, traced: Round,
                  timed_walls: Sequence[float]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json for one workload."""
    size = workload.size
    specs = [spec for plan in traced.specs for spec in plan]
    records = [record for recs in traced.records for record in recs]
    timings = [record.get("timings") or {} for record in records]
    instant = [t for r, t in zip(records, timings)
               if r.get("synthesized") or r.get("prescreened")]
    simulated = [t for r, t in zip(records, timings)
                 if not (r.get("synthesized") or r.get("prescreened"))]
    golden_total = sum(r.get("golden_cycles", 0) for r in records)
    m: Dict[str, float] = {}

    def total(key: str) -> float:
        return sum(t.get(key, 0) for t in timings)

    # -- bench, campaign: golden-run probes per app --------------------
    profiler = cProfile.Profile()
    golden_s = liveness_s = 0.0
    golden_cycles = golden_instr = 0
    prescreeners = {}
    for app in workload.apps:
        seconds, (profile, golden) = _timed(profile_application, app, CARD)
        golden_s += seconds
        golden_cycles += golden.cycles
        golden_instr += sum(k.instructions
                            for k in profile.kernels.values())
        if size["early_stop"] == "full":
            trace = LivenessTrace()
            seconds, _ = _timed(lambda: profile_application(
                app, CARD, liveness=trace))
            liveness_s += seconds
            prescreeners[app] = Prescreener(trace, get_card(CARD))
        profiler.runcall(profile_application, app, CARD)
    m["campaign.plan_s"] = tracer.total("campaign.plan")
    m["campaign.golden_s"] = golden_s
    m["campaign.liveness_extra_s"] = (liveness_s - golden_s
                                      if prescreeners else 0.0)
    m["campaign.specs"] = len(specs)
    m["campaign.aggregate_ms"] = tracer.total("campaign.aggregate") * 1e3

    # -- mask, prescreen -------------------------------------------------
    real = [spec for spec in specs if not spec.synthesized]
    seconds, masks = _timed(lambda: [regenerate_mask(s) for s in real])
    m["mask.regenerate_us"] = _ratio(seconds, len(real)) * 1e6
    screened = [(prescreeners[spec.benchmark], mask, spec)
                for spec, mask in zip(real, masks)
                if spec.benchmark in prescreeners]
    seconds, _ = _timed(lambda: [
        p.evaluate(mask, s.regs_per_thread, s.smem_bytes, s.local_bytes)
        for p, mask, s in screened])
    m["prescreen.evaluate_us"] = _ratio(seconds, len(screened)) * 1e6
    m["prescreen.dead_share"] = _ratio(
        sum(1 for s in specs if s.prescreened), len(specs))
    m["prescreen.synthesized_share"] = _ratio(
        sum(1 for s in specs if s.synthesized), len(specs))

    # -- checkpoint ------------------------------------------------------
    plan_spans = [s["end"] - s["start"] for s in tracer.spans
                  if s["name"] == "campaign.plan"]
    restored = [t for t in simulated
                if t.get("fast_forwarded") and not t.get("batched")]
    m["checkpoint.capture_s"] = m["checkpoint.disk_mb"] = 0.0
    m["checkpoint.open_ms"] = 0.0
    if workload.checkpoint_dir is not None:
        m["checkpoint.capture_s"] = sum(
            max(workload.warm_plan_s[app] - plan_s, 0.0)
            for app, plan_s in zip(workload.apps, plan_spans))
        m["checkpoint.disk_mb"] = _tree_bytes(workload.checkpoint_dir) / 1e6
        store = CheckpointStore(workload.checkpoint_dir)
        keys = [p.name for p in workload.checkpoint_dir.iterdir()]
        seconds, _ = _timed(lambda: [store.open(key) for key in keys])
        m["checkpoint.open_ms"] = _ratio(seconds, len(keys)) * 1e3
    m["checkpoint.restore_ms_p50"] = _median(
        [t["restore_s"] for t in restored]) * 1e3
    m["checkpoint.hit_share"] = _ratio(
        sum(1 for t in simulated if t.get("fast_forwarded")),
        len(simulated))
    m["checkpoint.cycles_skipped_share"] = _ratio(
        total("skipped_fast_forward"), golden_total)

    # -- executor ----------------------------------------------------------
    m["executor.execute_s"] = tracer.total("executor.execute")
    m["executor.sim_runs"] = len(simulated)
    m["executor.run_ms_p50"] = _median(
        [t.get("total_s", 0.0) for t in simulated]) * 1e3
    m["executor.instant_us"] = _ratio(
        sum(t.get("total_s", 0.0) for t in instant), len(instant)) * 1e6
    # a pack member's total_s is its share of the pack's wall-clock so
    # far, which counts a peeled sibling's solo re-run twice: clamp
    m["executor.self_s"] = (
        max(m["executor.execute_s"] - total("total_s"), 0.0)
        if not workload.fleet else 0.0)
    m["executor.serial_us_per_record"] = m["pool.us_per_record"] = 0.0
    if workload.fleet:
        # the fleet's plan without the fleet: in-process, then a pool
        for jobs, name in ((1, "executor.serial_us_per_record"),
                           (2, "pool.us_per_record")):
            executor = CampaignExecutor(
                jobs=jobs, log_path=workload.workdir / f"pool{jobs}.jsonl")
            seconds, _ = _timed(executor.execute, specs)
            m[name] = _ratio(seconds, len(specs)) * 1e6

    # -- sim ---------------------------------------------------------------
    m["sim.simulate_s"] = total("simulate_s")
    m["sim.cycles_simulated"] = total("cycles_simulated")
    m["sim.host_us_per_cycle"] = _ratio(
        m["sim.simulate_s"], m["sim.cycles_simulated"]) * 1e6
    m["sim.loop_iterations"] = total("loop_iterations")
    m["sim.idle_cycles_skipped"] = total("idle_cycles_skipped")
    m["sim.golden_cycles"] = golden_cycles
    m["sim.golden_instr"] = golden_instr
    m["sim.golden_kinstr_per_s"] = _ratio(golden_instr, golden_s) / 1e3

    # -- batch: every pack of the pass once more, timed one by one ---------
    stats = {"packs": 0, "members": 0, "peeled": 0,
             "lockstep_cycles": 0, "member_cycles": 0}
    pack_s: List[float] = []
    if size["batch"] > 1:
        for plan in traced.specs:
            packs = [unit for kind, unit in group_packs(plan, size["batch"])
                     if kind == "pack"]
            for index, pack in enumerate(packs):
                if index == 0:  # one profiled pack per app
                    profiler.runcall(execute_pack, pack)
                seconds, (_, pack_stats) = _timed(execute_pack, pack)
                pack_s.append(seconds)
                for key in stats:
                    stats[key] += pack_stats[key]
    m["batch.packs"] = stats["packs"]
    m["batch.members"] = stats["members"]
    m["batch.peeled"] = stats["peeled"]
    m["batch.lockstep_share"] = _ratio(stats["lockstep_cycles"],
                                       stats["member_cycles"])
    m["batch.pack_ms_p50"] = _median(pack_s) * 1e3
    m.update(profile_shares(profiler))

    # -- early_stop, classify ------------------------------------------------
    m["early_stop.converged"] = sum(
        1 for r in records if r.get("terminated_at") is not None)
    m["early_stop.cycles_skipped_share"] = _ratio(
        total("skipped_convergence"), golden_total)
    m["classify.s"] = total("classify_s")
    for effect in EFFECTS:
        m[f"classify.{effect.lower()}"] = sum(
            1 for r in records if r.get("effect") == effect)

    # -- log, obs, analysis ----------------------------------------------------
    if workload.fleet:
        logs = [workload.dispatcher.log_dir / f"{traced.campaign_id}.jsonl"]
    else:
        logs = [config.log_path for config in traced.configs]
    m["log.mb"] = sum(p.stat().st_size for p in logs) / 1e6
    seconds, _ = _timed(lambda: [load_records(p) for p in logs])
    m["log.load_ms"] = seconds * 1e3
    seconds, _ = _timed(lambda: [canonical_log_text(r)
                                 for r in traced.records])
    m["log.canonicalize_ms"] = seconds * 1e3
    m["obs.events_mb"] = sum(
        events_path_for(p).stat().st_size for p in logs
        if events_path_for(p).exists()) / 1e6

    def sidecar():
        collector = MetricsCollector(jobs=1)
        for record in records:
            collector.record(record)
        collector.write(collector.finalize(records),
                        workload.workdir / "probe.jsonl")
    m["obs.sidecar_ms"] = _timed(sidecar)[0] * 1e3
    m["analysis.avf_fit_ms"] = tracer.total("analysis.avf_fit") * 1e3
    m["analysis.wavf_mean"] = (statistics.fmean(traced.wavf)
                               if traced.wavf else 0.0)

    # -- dist --------------------------------------------------------------------
    for name in ("submit_s", "drain_s", "ms_per_record", "records_fetch_ms",
                 "wire_us_per_spec", "shards", "leases_granted",
                 "leases_expired", "record_batches", "events",
                 "metrics_scrape_ms", "events_page_ms", "worker_rss_mb"):
        m[f"dist.{name}"] = 0.0
    m["dist.round_growth_ratio"] = 1.0
    if workload.fleet:
        client, cid = workload.client, traced.campaign_id
        m["dist.submit_s"] = tracer.total("dist.submit")
        m["dist.drain_s"] = tracer.total("dist.drain")
        m["dist.ms_per_record"] = _ratio(traced.wall_s, len(records)) * 1e3
        m["dist.records_fetch_ms"] = tracer.total("dist.records_fetch") * 1e3
        seconds, _ = _timed(lambda: [
            spec_from_wire(json.loads(json.dumps(spec_to_wire(s))))
            for s in specs])
        m["dist.wire_us_per_spec"] = _ratio(seconds, len(specs)) * 1e6
        status = client.status(cid)
        m["dist.shards"] = status["shards"]["total"]
        m["dist.leases_expired"] = status["shards"]["lease_expired"]
        m["dist.events"] = status["events"]
        seconds, text = _timed(client.metrics_text)
        m["dist.metrics_scrape_ms"] = seconds * 1e3
        before, after = traced.scrape_before, parse_scrape(text)
        m["dist.leases_granted"] = (after["gpufi_leases_granted_total"]
                                    - before["gpufi_leases_granted_total"])
        m["dist.record_batches"] = (after["gpufi_record_batches_total"]
                                    - before["gpufi_record_batches_total"])
        m["dist.events_page_ms"] = _timed(client.events, cid)[0] * 1e3
        m["dist.round_growth_ratio"] = _ratio(timed_walls[-1],
                                              timed_walls[0])
        m["dist.worker_rss_mb"] = max(
            process_peak_rss_mb(proc.pid) for proc in workload.workers)

    # -- harness ---------------------------------------------------------------
    root = tracer.spans[traced.root_span]
    self_times = tracer.self_times(traced.root_span)
    m["harness.unattributed_share"] = _ratio(
        self_times.get("harness", 0.0), root["end"] - root["start"])
    # the traced pass repeats the first timed pass (same seeds)
    m["trace.overhead_share"] = _ratio(traced.wall_s - timed_walls[0],
                                       timed_walls[0])
    return m

