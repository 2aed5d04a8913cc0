"""The state digest tree forgets no field and changes no verdict.

A golden checkpoint's ``state_hash`` is the root over one digest per
named part of the GPU's state (:meth:`repro.sim.gpu.GPU.parts`,
:func:`repro.sim.checkpoint.part_digest` / ``tree_digest``), and an
injected run's convergence check stops at the first part that differs
(:meth:`repro.faults.early_stop.ConvergenceMonitor.first_difference`).
Two things could go wrong and are checked here from the test side,
against the walker format 3 used over the whole snapshot
(:func:`repro.sim.checkpoint.state_digest`, kept as the reference):

- a leaf of the snapshot that no part digest covers (``TestEveryLeaf``:
  every leaf of every part is changed in turn);
- a short-cut that decides a check differently from the full
  comparison (``TestSameVerdicts``: an auditing monitor computes both
  at every check of real campaigns).

Tier-1 samples leaves and runs few injections per structure; ``pytest
--hypothesis-profile nightly`` (CI's ``fuzz`` job) changes every leaf
and runs more.  A disagreement leaves the snapshot in
``state-tree-failure/`` for the job to keep.
"""

import copy
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.bench import BENCHMARK_CLASSES, make_benchmark
from repro.faults import executor
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.early_stop import ConvergenceMonitor
from repro.faults.runner import run_application
from repro.faults.targets import Structure
from repro.sim.checkpoint import (CheckpointStore, part_digest, state_digest,
                                  tree_digest)
from repro.sim.device import RunOptions
from tests.conftest import format3
from tests.test_golden_timing import control_config

NIGHTLY = settings.default is settings.get_profile("nightly")
APPS = [cls.name for cls in BENCHMARK_CLASSES]
FAILURES = Path("state-tree-failure")


def keep(name: str, value) -> Path:
    FAILURES.mkdir(exist_ok=True)
    path = FAILURES / name
    path.write_bytes(pickle.dumps(value))
    return path


# -- (i) every leaf is under some part digest ----------------------------------


class Snapshots:
    """Checkpointer stand-in: ``gpu.snapshot()`` at a geometric stride."""

    def __init__(self):
        self.snaps, self._next = [], 0

    def on_cycle(self, gpu, launch, queue):
        if gpu.cycle >= self._next:
            self._next = gpu.cycle + max(64, gpu.cycle // 2)
            self.snaps.append(gpu.snapshot(launch, queue))

    def record_host_read(self, *args):
        pass


def leaves(value, path=()):
    """The path of every leaf under ``value``: scalars, array elements,
    set members and -- they are state too -- dict keys."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (("key", key),)
            yield from leaves(item, path + (("item", key),))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from leaves(item, path + (("item", index),))
    elif isinstance(value, (set, frozenset)):
        for member in value:
            yield path + (("member", member),)
    elif isinstance(value, np.ndarray):
        for index in range(value.size):
            yield path + (("element", index),)
    elif hasattr(value, "__dict__"):  # a LaunchStats: its fields
        for name, item in vars(value).items():
            yield from leaves(item, path + (("item", name),))
    else:
        yield path


def other(value):
    """A value of the same type that differs."""
    if value is None:
        return 0
    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, (int, np.integer)):
        return value ^ 1
    if isinstance(value, (float, np.floating)):
        return value + 1.0
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, bytes):
        return bytes([value[0] ^ 1]) + value[1:] if value else b"\0"
    raise TypeError(f"no other value for {value!r}")


def changed(value, path):
    """``value`` with the leaf at ``path`` changed, rebuilt along the
    path only (the original is not touched)."""
    if not path:
        return other(value)
    (step, where), rest = path[0], path[1:]
    if step == "key":
        fresh = other(where)
        while fresh in value:
            fresh = fresh + 2 if isinstance(fresh, int) else other(fresh)
        return {(fresh if key == where else key): item
                for key, item in value.items()}
    if step == "member":
        return type(value)((value - {where}) | {other(where)})
    if step == "element":
        out = value.copy()
        out.flat[where] = other(out.flat[where])
        return out
    if hasattr(value, "__dict__"):
        out = copy.copy(value)
        setattr(out, where, changed(getattr(value, where), rest))
        return out
    if isinstance(value, dict):
        return {**value, where: changed(value[where], rest)}
    items = list(value)
    items[where] = changed(items[where], rest)
    return type(value)(items)


@pytest.fixture(scope="module", params=APPS)
def snapshots(request):
    """(app, three of its golden snapshots: first, middle, last)."""
    probe = Snapshots()
    result = run_application(make_benchmark(request.param), "RTX2060",
                             options=RunOptions(checkpointer=probe))
    assert result.passed and len(probe.snaps) >= 3
    snaps = probe.snaps
    return request.param, [snaps[0], snaps[len(snaps) // 2], snaps[-1]]


class TestEveryLeaf:
    def test_a_changed_leaf_changes_its_part_and_the_root(self, snapshots):
        app, snaps = snapshots
        rng = random.Random(app)
        for at, snap in enumerate(snaps):
            digests = {name: part_digest(piece)
                       for name, piece in snap.items()}
            root = tree_digest(digests)
            sites = [(name, path) for name, piece in snap.items()
                     for path in leaves(piece)]
            assert len(sites) > 2000
            # also against the reference walker, on a few: one walk of
            # the whole snapshot per leaf is what this PR stopped doing
            reference = {id(site) for site in rng.sample(sites, 8)}
            if not NIGHTLY:
                sites = rng.sample(sites, 200) + [
                    site for site in sites if id(site) in reference]
            legacy = state_digest(snap)
            for site in sites:
                name, path = site
                piece = changed(snap[name], path)
                digest = part_digest(piece)
                if (digest == digests[name]
                        or tree_digest({**digests, name: digest}) == root):
                    kept = keep(f"leaf-{app}-{at}.pkl", (snap, name, path))
                    pytest.fail(f"{app}: no digest covers {name} {path} "
                                f"(snapshot kept in {kept})")
                if id(site) in reference:
                    assert state_digest({**snap, name: piece}) != legacy

    def test_roots_agree_with_the_reference_walker(self, snapshots):
        """Equal roots iff equal reference digests: over a snapshot,
        its pickled copy, the same state with one part's dict built in
        another order, and the other snapshots of the run."""
        _, snaps = snapshots

        def root(snap):
            return tree_digest({name: part_digest(piece)
                                for name, piece in snap.items()})

        first = snaps[0]
        reordered = dict(first, rest=dict(reversed(first["rest"].items())))
        same = [first, pickle.loads(pickle.dumps(first)), reordered]
        assert len({root(snap) for snap in same}) == 1
        assert len({state_digest(format3(snap)) for snap in same}) == 1
        assert len({root(snap) for snap in snaps}) == len(snaps)
        assert len({state_digest(format3(snap)) for snap in snaps}) == len(
            snaps)

    def test_part_order_and_names_are_in_the_root(self):
        digests = {"rest": b"a" * 16, "l2": b"b" * 16}
        assert tree_digest(digests) != tree_digest(
            dict(reversed(digests.items())))
        assert tree_digest(digests) != tree_digest(
            {"rest": b"a" * 16, "l3": b"b" * 16})


# -- (ii) the short-cut decides every check like the full comparison ---------------


class AuditingMonitor(ConvergenceMonitor):
    """At every check, also the verdict of format 3: the reference
    digest of the whole snapshot against that of the golden snapshot
    file.  Installed in place of the executor's monitor."""

    checks = matches = 0
    ckpt_set = None  # set by the test: where golden snapshots are read
    _reference = {}

    def first_difference(self, parts, golden):
        cls = AuditingMonitor
        parts = list(parts)
        differs = super().first_difference(parts, golden)
        (entry,) = [e for e in self._entries if e["parts"] is golden]
        key = (str(cls.ckpt_set.directory), entry["file"])
        if key not in cls._reference:
            cls._reference[key] = state_digest(format3(
                cls.ckpt_set.load_snapshot(entry["file"])))
        live = {name: capture() for name, capture in parts}
        matched = state_digest(format3(live)) == cls._reference[key]
        cls.checks += 1
        cls.matches += matched
        if matched != (differs is None):
            kept = keep(f"verdict-{entry['file']}.pkl", live)
            pytest.fail(f"cycle {entry['cycle']}: part by part says "
                        f"{differs or 'equal'}, the whole snapshot says "
                        f"{'equal' if matched else 'different'} "
                        f"(snapshot kept in {kept})")
        if differs is not None:
            # and the named part does differ
            captures = dict(parts)
            assert (differs not in captures or differs not in golden
                    or part_digest(captures[differs]()) != golden[differs])
        return differs


@pytest.fixture
def audited(monkeypatch):
    monkeypatch.setattr(executor, "ConvergenceMonitor", AuditingMonitor)
    AuditingMonitor.checks = AuditingMonitor.matches = 0
    return AuditingMonitor


def run_audited(config: CampaignConfig) -> list:
    campaign = Campaign(config)
    specs = campaign.plan()
    store = CheckpointStore(config.checkpoint_dir)
    AuditingMonitor.ckpt_set = store.open(specs[0].checkpoint_key)
    return campaign.execute(specs)


class TestSameVerdicts:
    STRUCTURES = (Structure.REGISTER_FILE, Structure.SHARED_MEM,
                  Structure.L1D_CACHE, Structure.L2_CACHE)

    @pytest.mark.parametrize("app", APPS)
    def test_twelve_workloads(self, audited, tmp_path, app):
        records = run_audited(CampaignConfig(
            benchmark=app, card="RTX2060", structures=self.STRUCTURES,
            runs_per_structure=40 if NIGHTLY else 8, seed=23,
            checkpoint_dir=tmp_path, early_stop="full"))
        terminated = sum("terminated_at" in r for r in records)
        assert audited.matches == terminated

    def test_control_unit_model(self, audited, tmp_path):
        records = run_audited(control_config(tmp_path))
        assert audited.checks > audited.matches > 0
        assert audited.matches == sum("terminated_at" in r for r in records)

    def test_observer_hears_the_same_under_every_mode(self, audited,
                                                      tmp_path):
        """``differs_in`` is a function of the run, not of whether the
        run may stop early."""
        by_mode = {}
        for mode in ("off", "converge", "full"):
            records = run_audited(CampaignConfig(
                benchmark="pathfinder", card="RTX2060",
                structures=(Structure.REGISTER_FILE, Structure.SHARED_MEM),
                runs_per_structure=6, seed=5, checkpoint_dir=tmp_path,
                early_stop=mode, propagation=True))
            by_mode[mode] = {
                (r["structure"], r["run"]): (
                    r["propagation"]["diverged_window"],
                    r["propagation"].get("differs_in"),
                    r["propagation"]["digest_checks"])
                for r in records if r["propagation"]["source"] == "trace"}
        assert audited.checks
        for key, seen in by_mode["full"].items():
            assert by_mode["off"][key] == by_mode["converge"][key] == seen
        named = [d for _, d, _ in by_mode["off"].values() if d]
        assert named and all(d["first"] and d["last"] for d in named)
        assert all(r["propagation"].get("differs_in") is None
                   for r in records if r.get("prescreened"))


# -- (iii) the corners of the short-cut --------------------------------------------


def enumeration(**pieces):
    """(parts, golden) of a made-up state."""
    return ([(name, lambda piece=piece: piece)
             for name, piece in pieces.items()],
            {name: part_digest(piece) for name, piece in pieces.items()})


class Heard:
    def __init__(self):
        self.checks, self.host_diverged = [], False

    def on_digest_check(self, cycle, matched, differs_in=None):
        self.checks.append((cycle, matched, differs_in))

    def on_host_divergence(self):
        self.host_diverged = True


class TestFirstDifference:
    STATE = dict(rest={"cycle": 9}, l2={"tick": 3},
                 **{"c0.cta0": {"smem": 1}, "c0.cta0.w0": {"regs": 2}})

    def monitor(self, suspect=None):
        monitor = ConvergenceMonitor([], [], golden_cycles=100)
        monitor._suspect = suspect
        return monitor

    def test_equal_states_take_every_part(self):
        parts, golden = enumeration(**self.STATE)
        asked = []
        parts = [(name, lambda name=name, capture=capture:
                  asked.append(name) or capture()) for name, capture in parts]
        assert self.monitor("l2").first_difference(parts, golden) is None
        assert sorted(asked) == sorted(self.STATE)

    def test_a_differing_suspect_ends_the_check(self):
        parts, _ = enumeration(**self.STATE)
        _, golden = enumeration(**{**self.STATE, "l2": {"tick": 4},
                                   "rest": {"cycle": 8}})
        asked = []
        parts = [(name, lambda name=name, capture=capture:
                  asked.append(name) or capture()) for name, capture in parts]
        assert self.monitor("l2").first_difference(parts, golden) == "l2"
        assert asked == ["l2"]
        # without a suspect: the first in enumeration order
        assert self.monitor().first_difference(parts, golden) == "rest"

    def test_a_matching_suspect_is_not_a_verdict(self):
        parts, _ = enumeration(**self.STATE)
        _, golden = enumeration(**{**self.STATE, "c0.cta0": {"smem": 7}})
        assert self.monitor("l2").first_difference(
            parts, golden) == "c0.cta0"

    def test_a_suspect_this_run_retired_is_a_mismatch(self):
        """Golden still holds the CTA the fault landed in; this run
        retired it early: a difference, not a lookup error."""
        _, golden = enumeration(**self.STATE)
        state = {k: v for k, v in self.STATE.items() if "cta0" not in k}
        parts, _ = enumeration(**state)
        assert self.monitor("c0.cta0.w0").first_difference(
            parts, golden) == "c0.cta0.w0"

    def test_a_suspect_nobody_holds_any_more_decides_nothing(self):
        parts, golden = enumeration(**self.STATE)
        assert self.monitor("c3.cta1.w2").first_difference(
            parts, golden) is None

    @pytest.mark.parametrize("extra_in", ["run", "golden"])
    def test_part_lists_must_be_equal(self, extra_in):
        """An extra or a missing CTA is a difference even when every
        part both sides hold digests equally."""
        more = {**self.STATE, "c0.cta1": {"smem": 1}}
        parts, _ = enumeration(**(more if extra_in == "run" else self.STATE))
        _, golden = enumeration(**(self.STATE if extra_in == "run" else more))
        for suspect in (None, "l2", "c0.cta1"):
            assert self.monitor(suspect).first_difference(
                parts, golden) == "c0.cta1"

    def test_same_parts_in_another_order_differ(self):
        parts, golden = enumeration(**self.STATE)
        assert self.monitor().first_difference(
            list(reversed(parts)), golden) is not None

    def test_host_divergence_before_the_first_check_silences_it(self):
        heard = Heard()
        entry = {"cycle": 50, "launch_index": 0, "parts": {}}
        reads = [{"tag": 0, "addr": 0, "nbytes": 4,
                  "data": np.zeros(4, dtype=np.uint8)}]
        monitor = ConvergenceMonitor([entry], reads, golden_cycles=100,
                                     observer=heard)
        monitor.on_host_read(0, 0, 4, np.ones(4, dtype=np.uint8))
        assert monitor.diverged and heard.host_diverged
        assert monitor.due_cycle() is None
        monitor.on_cycle(None, None, None)  # inert: asks the GPU nothing
        assert heard.checks == []


class TestSuspectIsSeededFromTheSite:
    def test_part_holding(self):
        from repro.faults.sites import Site

        held = {}

        class Probe(Snapshots):
            def on_cycle(self, gpu, launch, queue):
                if gpu.cycle >= 300 and not held:
                    names = [name for name, _ in gpu.parts(launch, queue)]
                    core = next(c for c in gpu.cores if c.ctas)
                    warp = core.ctas[-1].warps[-1]
                    held.update(
                        names=names,
                        warp=gpu.part_holding(Site(
                            "register", 3, core=core.core_id, age=warp.age)),
                        cta=gpu.part_holding(Site(
                            "shared", 3, core=core.core_id,
                            age=core.ctas[-1].warps[0].age)),
                        l1=gpu.part_holding(Site(
                            "cache", 3, core=2, cache="L1D.2")),
                        l2=gpu.part_holding(Site("cache", 3, cache="L2")),
                        gone=gpu.part_holding(Site(
                            "register", 3, core=core.core_id, age=10 ** 6)),
                        expect=f"c{core.core_id}.cta{len(core.ctas) - 1}")

        run_application(make_benchmark("pathfinder"), "RTX2060",
                        options=RunOptions(checkpointer=Probe()))
        expect = held["expect"]
        last_warp = max(n for n in held["names"]
                        if n.startswith(expect + ".w"))
        assert held["warp"] == last_warp
        assert held["cta"] == expect
        assert held["l1"] == "c2.l1d" and held["l2"] == "l2"
        assert {held["warp"], held["cta"], "c2.l1d", "l2"} <= set(
            held["names"])
        assert held["gone"] is None
