"""The parity matrix: one plan gives canonically byte-identical records
however it runs.  A row names *what* (benchmark, structures, fault model,
runs and seed flags), *where* on the ladder (flags; ``{name}`` is a path
of ``Session.paths``), *how* it runs (a ``Session`` method), the row whose
canonical log it ``equals``, rows to run first (``after``; ``Checks.sites``
reads the first) and ``checks`` (``Checks`` methods).  ``pytest -m parity
-k smoke|fleet|restore`` runs them, tier-1 checks the table."""

import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Tuple

import pytest

from tests.parity.runner import BENCHMARKS, Checks, Session, cli


@dataclass(frozen=True)
class Row:
    id: str
    what: str
    where: str = ""
    how: Callable = Session.jobs1
    equals: Optional[str] = None
    after: Tuple[str, ...] = ()
    checks: Tuple[Callable, ...] = ()

    def refs(self) -> Tuple[str, ...]:
        return ((self.equals,) if self.equals else ()) + self.after


VA = "--benchmark vectoradd --structures register_file"
VA8, VA85 = f"{VA} --runs 8", f"{VA},shared_mem --runs 8 --seed 5"
STUCK = f"{VA85} --fault-model stuck_at_1"
SITES = "--structures shared_mem,l1d_cache,l2_cache --runs 8"
SAID = "--runs 6 --seed 9 --early-stop converge"
FLEET = "--benchmark vectoradd --runs 12 --seed 5"
INSTANT = f"{FLEET} --structures shared_mem,l1t_cache"
RESTARTED = "--benchmark pathfinder --runs 24 --seed 6"
CARD = "--card RTX2060 --early-stop "
restore = ("--benchmark {} --structures register_file,shared_mem,l2_cache "
           "--runs 4 --seed {}").format


ROWS = [
    # a pre-screened record says what the trace says: with flips, the
    # deferred cache hooks, two CTAs / cores per mask
    Row("smoke-observed", VA8, "--metrics --propagation", Session.jobs2),
    Row("smoke-traced", VA8, "--metrics --propagation --early-stop off",
        Session.jobs2, after=("smoke-observed",), checks=(Checks.sites,)),
    *(Row(f"smoke-{name}-{stop}", f"{app} {SITES}",
          f"{variant} --propagation --early-stop {stop}", Session.jobs2,
          after=(f"smoke-{name}-full",) if stop == "off" else (),
          checks=(Checks.sites,) if stop == "off" else ())
      for name, app, variant in (
          ("hook", "--benchmark pathfinder", "--fault-model cache_hook"),
          ("blocks2", "", "--config {blocks2}"))
      for stop in ("full", "off")),
    Row("smoke-solo", VA85, "--early-stop off", Session.jobs2),
    Row("smoke-batched", VA85, "--early-stop off --batch-size 8",
        equals="smoke-solo"),
    Row("smoke-adaptive-off", VA85, "--early-stop off --adaptive off",
        Session.jobs2, equals="smoke-solo", checks=(Checks.no_plan,)),
    # a persistent model's runs cannot pack: --batch-size 8 runs them solo
    Row("smoke-stuck-b1", STUCK, "--batch-size 1"),
    Row("smoke-stuck-b8", STUCK, "--batch-size 8", equals="smoke-stuck-b1"),
    Row("smoke-adaptive", f"{VA} --runs 200 --seed 3",
        "--adaptive --error-target 0.1 --metrics",
        checks=(partial(Checks.report, text="adaptive strata"),
                Checks.adaptive)),
    Row("smoke-control", f"{VA},simt_stack --fault-model stuck_at_1 --runs 6",
        how=Session.jobs2, checks=(
            partial(Checks.report, text="fault model: stuck_at_1"),)),
    # one campaign said three ways: flags, a file, a wrong file corrected
    Row("smoke-said-flags", f"{VA},shared_mem --card RTX2060 {SAID}"),
    Row("smoke-said-file", "", "--config {right}", equals="smoke-said-flags"),
    Row("smoke-said-both", SAID, "--config {wrong}",
        equals="smoke-said-flags", checks=(Checks.wrong_log_unwritten,)),

    Row("fleet-local", FLEET, CARD + "off", Session.jobs2),
    Row("fleet-submitted", FLEET, CARD + "off --metrics", Session.fleet,
        equals="fleet-local",
        checks=(Checks.metrics_lint, Checks.events, Checks.fleet_sidecar,
                Checks.wire)),
    Row("fleet-remote", FLEET, CARD + "off --metrics", Session.remote,
        equals="fleet-submitted", checks=(Checks.remote_journal,)),
    Row("fleet-instant-local", INSTANT, CARD + "full", Session.jobs2),
    Row("fleet-instant", INSTANT, CARD + "full", Session.fleet,
        equals="fleet-instant-local", checks=(Checks.no_lease_granted,)),
    Row("fleet-restarted-local", RESTARTED, CARD + "off", Session.jobs2),
    Row("fleet-restarted", RESTARTED, CARD + "off", Session.restarted_fleet,
        equals="fleet-restarted-local", checks=(Checks.resumed,)),
    # a finished campaign, served from its files by a restarted `serve`
    Row("fleet-finished-restart", INSTANT, CARD + "full",
        Session.finished_fleet, equals="fleet-instant-local",
        checks=(Checks.events,)),

    # every fast-forwarded run re-run from scratch; a warm directory
    # plans from its set and logs what a cold one logs
    *(Row(f"restore-verify-{app}", restore(app, 23),
          "--early-stop full --verify-restore --checkpoint-dir {ckpt}")
      for app in BENCHMARKS),
    *(Row(f"restore-{place}-{app}", restore(app, 24),
          f"--early-stop full --metrics --checkpoint-dir {{{place}}}",
          equals=f"restore-cold-{app}" if place == "ckpt" else None,
          after=(f"restore-verify-{app}",) if place == "ckpt" else (),
          checks=(partial(Checks.golden, source=source),))
      for app in BENCHMARKS
      for place, source in (("ckpt", "loaded"), ("cold", "simulated"))),
    # a set is reused only under its placement
    Row("restore-interval", restore("pathfinder", 24),
        "--early-stop full --checkpoint-interval 500 --checkpoint-dir {ckpt}",
        after=("restore-ckpt-pathfinder",)),
    Row("restore-replaced", restore("pathfinder", 24),
        "--early-stop full --metrics --checkpoint-dir {ckpt}",
        equals="restore-cold-pathfinder", after=("restore-interval",),
        checks=(partial(Checks.golden, source="simulated"),)),
    Row("restore-verify-warm", restore("pathfinder", 25),
        "--early-stop full --verify-restore --checkpoint-dir {ckpt}",
        after=("restore-replaced", *(f"restore-{p}-{app}" for app in
                                     BENCHMARKS for p in ("ckpt", "cold"))),
        checks=(Checks.one_set_per_identity,)),
]

BY_ID = {row.id: row for row in ROWS}


@pytest.fixture(scope="session")
def session(tmp_path_factory):
    session = Session(tmp_path_factory.mktemp("parity"), BY_ID)
    yield session
    session.close()


@pytest.mark.parity
@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row, session):
    result = session.run(row.id)
    if row.equals:
        assert cli("canonicalize", result["log"]) == cli(
            "canonicalize", session.run(row.equals)["log"])
    for check in row.checks:
        check(Checks(session, row, result))


def test_the_table_is_whole():
    """Unique ids, references to other rows (hows and checks are named at
    import), one CI slice (``-k`` word) per row; a slice may run in more
    than one CI job."""
    assert len(BY_ID) == len(ROWS)
    repo = Path(__file__).parents[2]
    slices = set(re.findall(r"pytest -m parity -k (\S+)",
                            (repo / ".github/workflows/ci.yml").read_text()))
    assert slices and all(re.fullmatch(r"\w+", word) for word in slices)
    for row in ROWS:
        assert all(ref in BY_ID and ref != row.id for ref in row.refs()), row
        assert sum(word in row.id for word in slices) == 1, row.id
