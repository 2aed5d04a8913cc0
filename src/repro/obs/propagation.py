"""Per-run fault-propagation tracing.

The campaign log records *what* each injected run ended as (Masked,
SDC, Crash, ...); this module records *why*.  A
:class:`PropagationTracer` rides along one injected simulation and
answers three questions:

1. **Site fate** -- what happened to each corrupted site (register,
   shared/local word, cache line) after the flip: was it read before
   anything else (``consumed``), fully rewritten first
   (``overwritten``), dropped by a refill/invalidation (``evicted``),
   or never observably touched again (``never_touched``)?
2. **Consumer chain** -- the first N instructions that read a
   corrupted value or a value derived from one, tracked at
   warp/register granularity (an instruction reading a tainted
   register taints its destination registers).
3. **Divergence localization** -- the first golden checkpoint window
   ``[cycle_a, cycle_b]`` in which the run's state stopped matching
   the golden stream, and the part of the GPU's state
   (:meth:`repro.sim.gpu.GPU.parts`) found differing there and at the
   last check, reusing the part digests the checkpoint set already
   carries (no extra golden simulation).

Tracing is strictly observational: the tracer is a listener
(:meth:`repro.sim.gpu.GPU.listen`) -- it is told what the run does and
asked nothing.  Enforced by ``tests/test_listeners.py``
(a run's cycles, state digests and records are the same whoever
listens), ``tests/test_propagation.py::TestCampaignParity``
(classification is bit-identical with tracing on or off) and
``benchmarks/bench_propagation_overhead.py`` (the overhead ceiling).
Pre-screened runs never simulate; their propagation record is derived
from the golden :class:`~repro.sim.liveness.LivenessTrace`
verdict instead (``source: "prescreen"``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Fate labels, in the order reports render them.
FATES = ("consumed", "overwritten", "evicted", "never_touched")

#: Effects counted as failures for time-to-failure statistics.
FAILURE_EFFECTS = ("SDC", "Crash", "Timeout")

#: Schema marker carried by every propagation record.
PROPAGATION_SCHEMA = 1


class PropagationTracer:
    """Observes one injected run and resolves the fate of every site.

    The injector it is handed to reports the sites a mask lands on
    (:meth:`watch`); from the first one the tracer listens to the run
    (:meth:`repro.sim.gpu.GPU.listen`) -- nothing before a fault can be
    its effect -- and hears the reads, overwrites and evictions of the
    watched cells: registers in :meth:`on_issue`, local and shared
    words in :meth:`on_words`, cache lines in :meth:`on_cache`.
    """

    def __init__(self, injection_cycle: int, max_consumers: int = 8,
                 max_events: int = 8):
        self.gpu = None  # the GPU listened to, from the first watch
        self.injection_cycle = int(injection_cycle)
        self.max_consumers = max_consumers
        self.max_events = max_events
        self.sites: List[dict] = []
        self.consumers: List[dict] = []
        self._consumers_dropped = 0
        #: The watched cells, keyed as :attr:`repro.faults.sites.Site
        #: .cell`: ``(kind, owner)`` -> {index -> site record}.
        self._watched: Dict[tuple, Dict[int, dict]] = {}
        # derived-value taint: (core, warp_age) -> set of register indices
        self._taint: Dict[Tuple[int, int], set] = {}
        self._pending_load_cycle: Optional[int] = None
        # divergence localization
        self.digest_checks = 0
        self._last_match = int(injection_cycle)
        self._first_mismatch: Optional[int] = None
        #: The part found differing at the first / the latest mismatch.
        self._differs_in: List[str] = []
        self._converged_at: Optional[int] = None
        self.host_read_diverged = False

    # -- site registration (called by the injector) ----------------------

    def watch(self, site, persistent: bool = False, gpu=None) -> None:
        """A fault landed on ``site`` (a resolved
        :class:`repro.faults.sites.Site`) of ``gpu``: list it and,
        where a later access can decide its fate, index it for the
        events.

        Control-unit state steers the issue logic directly, so such a
        site is consumed at the injection itself rather than watched
        for a later read.  Transient flips into invalid cache lines
        are architecturally masked -- the next fill rewrites tag and
        data -- so they close immediately as ``never_touched``; a
        persistent fault on an invalid line is still live (the next
        fill lands in the stuck cells and is re-corrupted) and is
        watched like a valid line.
        """
        if self.gpu is None and gpu is not None:
            gpu.listen(self)
        kind, owner, index = site.cell
        cached = kind == "cache"
        watched = self._watched.setdefault((kind, owner), {})
        if cached and index in watched:
            return  # multi-bit faults share one site
        rec = site.record(persistent=persistent)
        rec["_open"] = not cached or bool(site.valid or persistent)
        self.sites.append(rec)
        if kind == "control":
            now = self.gpu.cycle if self.gpu is not None else None
            self._consume(rec, now, None, self._current_kernel())
        elif rec["_open"]:
            # the lanes whose copy of the cell is corrupted; a shared
            # word is its CTA's, whichever lane touches it
            rec["_lanes"] = None if kind == "shared" else set(site.lanes)
            watched[index] = rec

    # -- what the run reports ---------------------------------------------

    def on_issue(self, core_id: int, warp, plan, exec_mask, now: int
                 ) -> None:
        """One issued instruction: resolve register reads/overwrites
        and propagate taint through the consumer chain."""
        owner = (core_id, warp.age)
        watch = self._watched.get(("register", owner), {})
        taint = self._taint.get(owner)
        if not watch and taint is None:
            return
        src_regs, dst_regs = plan.src_regs, plan.dst_regs
        lanes = set(np.nonzero(exec_mask)[0].tolist()) if watch else ()
        consumed = False
        for reg in src_regs:
            consumed |= self._touch(watch, reg, lanes, True, warp, plan, now)
        tainted = taint is not None and any(r in taint for r in src_regs)
        if consumed or tainted:
            self._add_consumer(now, core_id, warp, plan.inst)
            if dst_regs:
                self._taint.setdefault(owner, set()).update(dst_regs)
        elif taint is not None and dst_regs:
            # a clean full-coverage write launders the register
            live = warp.live_lanes()
            if len(live) and exec_mask[live].all():
                for dst in dst_regs:
                    taint.discard(dst)
        for dst in dst_regs:
            self._touch(watch, dst, lanes, False, warp, plan, now)

    def on_words(self, space: str, core_id: int, owner_age: int, words,
                 lanes, is_load: bool, warp, plan, now: int) -> None:
        """One shared- or local-memory instruction's words, one per
        executing lane -- or, with no words, the end of a global load
        or atomic: if a watched cache line was consumed this cycle,
        this instruction is the consumer."""
        hit = False
        if space == "global":
            if self._pending_load_cycle == now:
                self._pending_load_cycle, hit = None, True
        elif (space, (core_id, owner_age)) in self._watched:
            watch = self._watched[space, (core_id, owner_age)]
            for lane, word in zip(lanes.tolist(), words):
                hit |= self._touch(watch, word, {lane}, is_load, warp,
                                   plan, now)
        if hit:
            # the load brought a corrupted value into its destination
            # registers: it is a consumer, they are tainted
            self._add_consumer(now, core_id, warp, plan.inst)
            if plan.dst_regs:
                self._taint.setdefault(
                    (core_id, warp.age), set()).update(plan.dst_regs)

    def _touch(self, watch: dict, index: int, lanes, is_load: bool, warp,
               plan, now: int) -> bool:
        """``lanes`` read or write cell ``index`` of a watched owner;
        returns whether that read a corrupted copy.  A read of one
        consumes the site; a write takes the writing lanes' copies out
        of it, the last one overwriting it."""
        site = watch.get(index)
        if site is None:
            return False
        mine = site["_lanes"]
        if is_load:
            if mine is not None and mine.isdisjoint(lanes):
                return False
            self._consume(site, now, int(plan.inst.pc),
                          warp.cta.launch.kernel.name)
            self._event(site, "read", now)
            return True
        self._event(site, "write", now)
        if site["_open"] and not site.get("persistent"):
            if mine:
                mine.difference_update(lanes)
            if not mine:
                self._close(site, "overwritten", now)
        return False

    def on_cache(self, name: str, line_index: int, kind: str) -> None:
        """One cache-line event on a (possibly watched) line.

        Flip-mode fates follow the data: a read hit, writeback or host
        peek consumes the corrupted bits, a write hit overwrites them,
        a refill or invalidation drops them.  Hook mode follows the
        paper's state machine: the hook fires on the read hit
        (``consumed``) and is dropped on write hits (``overwritten``)
        and refills/invalidations (``evicted``).
        """
        site = self._watched.get(("cache", name), {}).get(line_index)
        if site is None:
            return
        now = self.gpu.cycle if self.gpu is not None else None
        self._event(site, kind, now)
        if not site["_open"]:
            return
        hook = site["mode"] == "hook"
        if kind == "rh":
            self._consume(site, now, None, self._current_kernel())
            if not hook:
                self._pending_load_cycle = now
        elif kind == "wh":
            self._close(site, "overwritten", now)
        elif kind in ("fill", "inv"):
            self._close(site, "evicted", now)
        elif kind in ("wb", "peek") and not hook:
            # the corrupted bits escaped downstream (L2/DRAM) or were
            # observed by the host -- that is a consumption
            self._consume(site, now, None, self._current_kernel())

    # -- divergence localization -----------------------------------------
    # Told by the run's golden witness, whose ``observer`` the tracer
    # is (:class:`repro.faults.early_stop.ConvergenceMonitor`).

    def on_digest_check(self, cycle: int, matched: bool,
                        differs_in: Optional[str] = None) -> None:
        """One golden-digest comparison result (observer callback);
        ``differs_in`` names the part a mismatch was found in."""
        self.digest_checks += 1
        if matched:
            if self._first_mismatch is None:
                self._last_match = int(cycle)
            if self._converged_at is None:
                self._converged_at = int(cycle)
            return
        if self._first_mismatch is None:
            self._first_mismatch = int(cycle)
        self._differs_in = [*self._differs_in[:1], differs_in]

    def on_host_divergence(self) -> None:
        """The host-read transcript diverged from the golden one."""
        self.host_read_diverged = True

    # -- internals --------------------------------------------------------

    def _current_kernel(self) -> Optional[str]:
        if self.gpu is None:
            return None
        current = getattr(self.gpu.stats, "current", None)
        return current.kernel_name if current is not None else None

    def _event(self, site: dict, kind: str, cycle) -> None:
        events = site["events"]
        if len(events) < self.max_events:
            events.append([kind, None if cycle is None else int(cycle)])
        else:
            site["events_truncated"] = True

    def _consume(self, site: dict, cycle, pc, kernel) -> None:
        if not site["_open"]:
            return
        if site.get("persistent"):
            # a stuck cell is consumed on EVERY read; keep the first
            # consumption's coordinates, count the rest, stay open
            site["reads"] += 1
            if site["fate"] == "consumed":
                return
        site.update(fate="consumed", pc=pc, kernel=kernel,
                    fate_cycle=None if cycle is None else int(cycle),
                    _open=bool(site.get("persistent")))

    def _close(self, site: dict, fate: str, cycle) -> None:
        # overwrites/evictions do not end a persistent fault: the
        # injector re-asserts the stuck bits next cycle
        if site["_open"] and not site.get("persistent"):
            site.update(fate=fate, _open=False,
                        fate_cycle=None if cycle is None else int(cycle))

    def _add_consumer(self, now: int, core_id: int, warp, inst) -> None:
        if len(self.consumers) >= self.max_consumers:
            self._consumers_dropped += 1
            return
        self.consumers.append({
            "cycle": int(now),
            "core": int(core_id),
            "warp_age": int(warp.age),
            "pc": int(inst.pc),
            "kernel": warp.cta.launch.kernel.name,
            "inst": str(inst),
        })

    # -- record building ---------------------------------------------------

    def finalize(self) -> dict:
        """The JSON-serialisable propagation record of this run."""
        sites = [{k: v for k, v in site.items() if not k.startswith("_")}
                 for site in self.sites]
        window = None
        if self._first_mismatch is not None:
            window = [self._last_match, self._first_mismatch]
        record = _record(
            "trace", self.injection_cycle, sites,
            consumers=list(self.consumers),
            consumers_dropped=self._consumers_dropped,
            diverged_window=window, converged_at=self._converged_at,
            digest_checks=self.digest_checks,
            host_read_diverged=self.host_read_diverged)
        if window:
            # only beside a window: a record without one keeps the
            # bytes it had before parts were named
            record["differs_in"] = {"first": self._differs_in[0],
                                    "last": self._differs_in[-1]}
        return record


def _record(source: str, injection_cycle: Optional[int] = None,
            sites: Optional[List[dict]] = None, **observed) -> dict:
    """A propagation record: of a run that never simulates, unless
    ``observed`` says what a tracer saw."""
    return {"schema": PROPAGATION_SCHEMA, "source": source,
            "injection_cycle": injection_cycle, "sites": sites or [],
            "consumers": [], "consumers_dropped": 0,
            "diverged_window": None, "converged_at": None,
            "digest_checks": 0, "host_read_diverged": False, **observed}


def synthesized_propagation() -> dict:
    """Propagation record for a synthesized (no-target) run."""
    return _record("synthesized")


def prescreen_propagation(site_json: str) -> dict:
    """Propagation record for a pre-screened run.

    ``site_json`` is the plan-time payload of
    :meth:`repro.faults.campaign.Campaign.plan`: the injection cycle
    and, shaped by :meth:`repro.faults.sites.Site.record` like traced
    sites, every site the mask resolves to with the fate the golden
    :class:`LivenessTrace` proves for it.
    """
    payload = json.loads(site_json) if site_json else {}
    return _record("prescreen", payload.get("cycle"), payload.get("sites"))


# -- metrics sidecar section ----------------------------------------------

def summarize_propagation(records: List[dict]) -> Optional[dict]:
    """The deterministic ``propagation`` sidecar section.

    A pure function of the run records -- byte-identical across
    ``--jobs`` counts -- or ``None`` when no record carries
    propagation data.
    """
    from repro.obs.metrics import _percentile

    traced = [r for r in records if isinstance(r.get("propagation"), dict)]
    if not traced:
        return None

    def cycle_stats(values):
        values = sorted(values)
        if not values:
            return {"count": 0}
        return {
            "count": len(values),
            "mean": round(sum(values) / len(values), 2),
            "p50": _percentile(values, 0.50),
            "p95": _percentile(values, 0.95),
            "max": values[-1],
        }

    fates: Dict[str, Dict[str, int]] = {}
    ttr: List[int] = []
    ttf: List[int] = []
    sdc_consumed = sdc_untouched = sdc_total = 0
    sources: Dict[str, int] = {}
    for rec in traced:
        prop = rec["propagation"]
        sources[prop.get("source", "trace")] = \
            sources.get(prop.get("source", "trace"), 0) + 1
        structure = rec.get("structure", "?")
        per = fates.setdefault(structure, {})
        sites = prop.get("sites") or []
        if not sites:
            per["never_touched"] = per.get("never_touched", 0) + 1
        for s in sites:
            per[s["fate"]] = per.get(s["fate"], 0) + 1
        inj = prop.get("injection_cycle")
        if inj is not None:
            for s in sites:
                if s["fate"] == "consumed" and s["fate_cycle"] is not None:
                    ttr.append(int(s["fate_cycle"]) - int(inj))
            window = prop.get("diverged_window")
            if window and rec.get("effect") in FAILURE_EFFECTS:
                ttf.append(int(window[1]) - int(inj))
        if rec.get("effect") == "SDC":
            sdc_total += 1
            if any(s["fate"] == "consumed" for s in sites):
                sdc_consumed += 1
            elif all(s["fate"] == "never_touched" for s in sites) \
                    or not sites:
                sdc_untouched += 1
    ordered_fates = {
        structure: {fate: per[fate] for fate in FATES if fate in per}
        for structure, per in sorted(fates.items())}
    section = {
        "runs": len(traced),
        "sources": {k: sources[k] for k in sorted(sources)},
        "fates": ordered_fates,
        "time_to_first_read_cycles": cycle_stats(ttr),
        "time_to_failure_cycles": cycle_stats(ttf),
    }
    if sdc_total:
        section["sdc"] = {
            "total": sdc_total,
            "site_consumed": sdc_consumed,
            "site_never_touched": sdc_untouched,
            "consumed_fraction": round(sdc_consumed / sdc_total, 4),
        }
    return section


# -- explain-run -----------------------------------------------------------

def _fmt_site(site: dict) -> List[str]:
    kind = site.get("kind", "?")
    if kind in ("register", "local"):
        lanes = ",".join(str(x) for x in site.get("lanes", []))
        what = (f"register R{site['register']}" if kind == "register"
                else f"local word {site['word']}")
        head = (f"{what} @ core {site['core']} "
                f"warp {site['warp_age']} (lanes {lanes or '-'})")
    elif kind == "shared":
        cta = ",".join(str(x) for x in site.get("cta", []))
        head = (f"shared word {site['word']} @ core {site['core']} "
                f"cta ({cta})")
    elif kind == "cache":
        head = (f"{site['cache']} line {site['line']} "
                f"({site.get('mode', 'flip')} mode"
                + ("" if site.get("valid", True) else ", invalid line")
                + ")")
    elif kind == "control":
        unit = site.get("unit", "?")
        what = {"simt_stack": "SIMT stack slot ",
                "scoreboard": "scoreboard entry R"}.get(unit,
                                                        f"{unit} entry ")
        head = (f"{what}{site['index']} @ core "
                f"{site['core']} warp {site['warp_age']}")
    else:
        head = kind
    fate = site.get("fate", "never_touched")
    where = []
    if site.get("fate_cycle") is not None:
        where.append(f"cycle {site['fate_cycle']}")
    if fate == "consumed" and site.get("pc") is not None:
        where.append(f"pc {site['pc']}")
    if fate == "consumed" and site.get("kernel"):
        where.append(f"kernel {site['kernel']}")
    at = ", ".join(where)
    if not site.get("persistent"):
        tail = fate + (f" at {at}" if at else "")
    elif fate == "consumed":
        head = "stuck " + head
        tail = (f"consumed on every read ({site.get('reads', 0)} read(s) "
                "over the run; overwrites re-corrupted)"
                + (f"; first at {at}" if at else ""))
    else:
        head = "stuck " + head
        tail = "never read -- stuck bits held to the end of the run"
    return _site_lines(site, head, tail)


def _site_lines(site: dict, head: str, tail: str) -> List[str]:
    lines = [f"  - {head} -> {tail}"]
    events = site.get("events") or []
    if events:
        rendered = " ".join(
            f"{kind}@{cycle if cycle is not None else '?'}"
            for kind, cycle in events)
        if site.get("events_truncated"):
            rendered += " ..."
        lines.append(f"      events: {rendered}")
    return lines


def explain_record(record: dict) -> str:
    """Human-readable causal narrative of one campaign run record."""
    key = (f"{record.get('kernel', '?')}/{record.get('structure', '?')}"
           f"/{record.get('run', '?')}")
    effect = record.get("effect", "?")
    lines = [f"run {key}: {effect}"]

    mask = record.get("mask") or {}
    if mask:
        bits = mask.get("bit_offsets") or []
        lines.append(
            f"injection: cycle {mask.get('cycle')} into "
            f"{mask.get('structure', record.get('structure'))} "
            f"({len(bits)} bit(s), seed {mask.get('seed')})")
    model = (record.get("fault_model") or mask.get("fault_model")
             or "transient")
    if model != "transient":
        lines.append(
            f"fault model: {model} -- the fault persists; the stuck "
            "bits are re-asserted every cycle, so overwrites and "
            "refills are re-corrupted"
            if model.startswith("stuck_at")
            else f"fault model: {model}")
    injections = record.get("injections") or []
    for inj in injections:
        if inj.get("target") == "none" or inj.get("applied") is False:
            lines.append(
                "  not applied: no live target at the injection cycle "
                f"({inj.get('reason', 'unknown reason')})")
        elif inj.get("reasserted") is not None:
            lines.append(
                f"  re-asserted {inj['reasserted']} time(s) after the "
                "initial application (persistent fault)")

    prop = record.get("propagation")
    if not isinstance(prop, dict):
        lines.append("no propagation data recorded -- re-run the "
                     "campaign with --propagation")
        lines.append(_outcome_line(record))
        return "\n".join(lines)

    source = prop.get("source", "trace")
    if source == "prescreen":
        lines.append("pre-screened: fate proven by the golden liveness "
                     "trace, run never simulated "
                     f"({record.get('prescreen_reason', '')})".rstrip())
    elif source == "synthesized":
        lines.append("synthesized: the kernel allocates none of the "
                     "target structure; the fault lands in unallocated "
                     "space and is Masked by construction")

    sites = prop.get("sites") or []
    if sites:
        lines.append("sites:")
        for site in sites:
            lines.extend(_fmt_site(site))
    elif source == "trace":
        lines.append("sites: none (injection hit no live target)")

    consumers = prop.get("consumers") or []
    if consumers:
        dropped = prop.get("consumers_dropped", 0)
        lines.append(f"consumer chain (first {len(consumers)}"
                     + (f", {dropped} more dropped" if dropped else "")
                     + "):")
        for c in consumers:
            lines.append(
                f"  cycle {c['cycle']} core {c['core']} "
                f"warp {c['warp_age']} pc {c['pc']}: {c['inst']}")
    elif source == "trace" and sites:
        lines.append("consumer chain: empty (no instruction read a "
                     "corrupted or derived value)")

    window = prop.get("diverged_window")
    checks = prop.get("digest_checks", 0)
    if window:
        where = prop.get("differs_in") or {}
        lines.append(
            f"divergence: state diverged in window "
            f"[{window[0]}, {window[1]}]"
            + (f", first in {where['first']}" if where.get("first") else "")
            + (f"; still differing in {where['last']} at the last check"
               if where.get("last") and prop.get("converged_at") is None
               else "") + f" ({checks} checks)")
    elif prop.get("converged_at") is not None:
        lines.append(
            f"divergence: none -- state re-converged with the golden "
            f"run at cycle {prop['converged_at']} ({checks} checks)")
    elif checks:
        lines.append(f"divergence: not localized ({checks} digest "
                     "checks, none mismatched before the run ended)")
    if prop.get("host_read_diverged"):
        lines.append("host-read transcript diverged from the golden run")

    lines.append(_outcome_line(record))
    return "\n".join(lines)


def _outcome_line(record: dict) -> str:
    effect = record.get("effect", "?")
    if record.get("synthesized") or record.get("prescreened"):
        return f"outcome: {effect} (run never simulated)"
    status = record.get("status", "?")
    cycles = record.get("cycles")
    golden = record.get("golden_cycles")
    bits = [f"outcome: {effect} (status {status}"]
    if cycles is not None and golden is not None:
        bits.append(f", {cycles} cycles vs {golden} golden")
    if record.get("terminated_at") is not None:
        bits.append(f", terminated early at {record['terminated_at']}")
    if record.get("message"):
        bits.append(f") -- {record['message']}")
        return "".join(bits)
    return "".join(bits) + ")"
