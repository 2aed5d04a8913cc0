"""The campaign ledger under generated deliveries.

Dedup, resume and journal semantics live in one class
(:class:`repro.faults.ledger.CampaignLedger`), so they are defended
here by generated inputs rather than by the handful of hand-picked
fleets of ``tests/test_dist.py``: batches in any order, delivered
twice, with and without worker-stamped events, across a kill that
tears any number of bytes off the log and the journal.

Budgets: small and deterministic in tier-1; ``--hypothesis-profile
nightly`` runs the large one (``tests/conftest.py``).
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.dist.protocol import canonical_log_text
from repro.faults.executor import RunSpec
from repro.faults.ledger import CampaignLedger, record_key
from repro.faults.parser import load_records, scan_completed_records
from repro.faults.targets import Structure
from repro.obs.events import Tally, events_path_for, read_events, run_event
from tests.conftest import generated

PLAN = [RunSpec(benchmark="vectoradd", card="RTX2060", kernel="k",
                structure=Structure.REGISTER_FILE, run_index=i, seed=i,
                windows=((0, 100),), regs_per_thread=8, smem_bytes=0,
                local_bytes=0, golden_cycles=100, cycle_budget=200)
        for i in range(24)]
RECORDS = [{"benchmark": spec.benchmark, "card": spec.card,
            "kernel": spec.kernel, "structure": spec.structure.value,
            "run": spec.run_index,
            "effect": ("Masked", "SDC", "Crash")[spec.run_index % 3],
            "golden_cycles": 100, "synthesized": False}
           for spec in PLAN]
ALIEN = {**RECORDS[0], "kernel": "not-of-this-plan"}


def tear(path: Path, count: int) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:max(len(data) - count, 0)])


@st.composite
def deliveries(draw):
    """Batches of a shuffled plan, some sent twice, some records with
    an event their worker stamped; where the campaign is killed, how
    much of either file the kill tears off, and where an alien record
    is tried."""
    order = draw(st.permutations(range(len(RECORDS))))
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1), max_size=8)))
    batches = [list(order[start:end])
               for start, end in zip([0] + cuts, cuts + [len(order)])]
    for batch in list(batches):
        if draw(st.booleans()):  # ...again, somewhere later
            batches.insert(draw(st.integers(batches.index(batch) + 1,
                                            len(batches))), batch)
    stamped = draw(st.sets(st.sampled_from(order)))
    return (batches, stamped, draw(st.integers(0, len(batches))),
            draw(st.integers(0, 400)), draw(st.integers(0, 400)),
            draw(st.integers(0, len(batches))))


@generated(tier1_examples=60)
@given(deliveries())
def test_generated_deliveries(case):
    batches, stamped, killed_at, log_torn, journal_torn, alien_at = case
    with tempfile.TemporaryDirectory() as scratch:
        log = Path(scratch) / "c.jsonl"
        journal = events_path_for(log)
        ticks = iter(range(10**6))
        ledger = CampaignLedger(PLAN, log, sidecar=True,
                                clock=lambda: float(next(ticks)))
        held = set()  # the keys a correct ledger holds right now

        def deliver(batch):
            events = [{"ts": 0.5, **run_event(RECORDS[i], "lease", "stamper")}
                      for i in batch if i in stamped]
            fresh = ledger.absorb([RECORDS[i] for i in batch],
                                  events=events, worker="w")
            ledger.flush()
            # fresh: each key the first time this history delivers it
            expected = [RECORDS[i] for i in dict.fromkeys(batch)
                        if record_key(RECORDS[i]) not in held]
            assert fresh == expected
            held.update(map(record_key, fresh))

        for index, batch in enumerate(batches + [None]):
            if index == alien_at:
                before = (log.read_bytes(), journal.read_bytes(),
                          dict(ledger.records))
                with pytest.raises(ValueError, match="not part of"):
                    ledger.absorb([RECORDS[index % 24], ALIEN], worker="w")
                ledger.flush()
                assert before == (log.read_bytes(), journal.read_bytes(),
                                  ledger.records)
            if index == killed_at:
                ledger.close(False)
                tear(log, log_torn)
                tear(journal, journal_torn)
                ledger = CampaignLedger(PLAN, log, resume=True, sidecar=True,
                                        clock=lambda: float(next(ticks)))
                held = set(ledger.records)
                assert held == (set(scan_completed_records(log))
                                if log.read_bytes() else set())
            if batch is not None:
                deliver(batch)
        deliver(range(len(RECORDS)))  # whatever the kill lost
        assert ledger.complete
        doc = ledger.close(True)

        text = log.read_text()
        assert text.count("gpufi_log") == 1 and text.startswith(
            '{"gpufi_log"')
        assert canonical_log_text(load_records(log)) \
            == canonical_log_text(RECORDS)
        runs = [record_key(event) for event in read_events(journal)
                if event["event"] == "run"]
        assert sorted(runs) == sorted(map(record_key, RECORDS))
        # the journal is on file, and only there
        assert ledger.journal == []
        assert ledger.tally.events == len(read_events(journal))
        # the one fold of the campaign's events is that of its journal
        assert vars(ledger.tally) == vars(Tally().apply_all(
            read_events(journal)))
        assert sum(doc["effects"].values()) == len(RECORDS)
        assert doc == json.loads(Path(str(log) + ".metrics.json").read_text())
