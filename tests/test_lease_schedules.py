"""Shard states under generated lease schedules.

A dispatcher keeps a campaign's ledger, its shards and the live leases
on them, and reads a shard's state off those: **complete** when the
ledger holds every run of it, **leased** when it is not and a live
lease is on it, **pending** otherwise
(:class:`repro.dist.server.CampaignJob`).  Defended here, after CHAOS's
seeded and reproducible fault schedules, by generated histories of two
campaigns: leases, heartbeats, the clock passing a lease's deadline,
partial and ``done`` sends from live and from expired leases, and one
dispatcher restart.  After every step

- ``pending + leased + complete == total``, each count a recount from
  the ledger's records and the live-lease table;
- a grant is the campaign's lowest pending shard, and carries exactly
  the runs that shard lacks (never none);
- ``gpufi_shards{state=...}`` of ``/metrics`` is the sum of the
  campaigns' ``/api/status``;

and the drained campaigns' canonical records are their plans'.

Budgets: small and deterministic in tier-1; ``--hypothesis-profile
nightly`` runs the large one (``tests/conftest.py``).
"""

import re
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from repro.dist.protocol import canonical_log_text, spec_from_wire
from repro.dist.server import Dispatcher
from repro.faults.campaign import CampaignConfig
from repro.faults.config_file import dump_config
from repro.faults.ledger import record_key
from repro.faults.targets import Structure
from tests.conftest import generated

#: Two campaigns of 3 shards each, the last one short in the second;
#: every run simulates (a dispatcher leases no instant one).
CONFIGS = [dump_config(CampaignConfig(
    benchmark="vectoradd", card="RTX2060",
    structures=(Structure.REGISTER_FILE,), runs_per_structure=runs,
    seed=seed, early_stop="off")) for runs, seed in ((6, 3), (5, 4))]
SHARD_SIZE = 2
TIMEOUT = 10.0
WORKERS = ("w1", "w2")
STATES = ("pending", "leased", "complete")


def record_of(spec):
    return {"kernel": spec.kernel, "structure": spec.structure.value,
            "run": spec.run_index, "effect": "Masked"}


class Clock:
    now = 0.0

    def __call__(self):
        return self.now


@st.composite
def schedules(draw):
    """What the fleet does, one step at a time: a lease request, a
    heartbeat or a send on a lease granted earlier (the ``n``-th,
    live or not), the clock moving on; and after which step the
    dispatcher restarts."""
    step = st.one_of(
        st.tuples(st.just("lease"), st.sampled_from(WORKERS)),
        st.tuples(st.just("heartbeat"), st.integers(0, 15)),
        st.tuples(st.just("advance"), st.sampled_from((1.0, 4.0, 11.0))),
        st.tuples(st.just("send"), st.integers(0, 15), st.integers(0, 2),
                  st.booleans()))
    steps = draw(st.lists(step, min_size=1, max_size=24))
    return steps, draw(st.integers(1, len(steps)))


def shard_samples(text):
    return {state: int(float(count)) for state, count in re.findall(
        r'^gpufi_shards\{state="(\w+)"\} (\S+)$', text, re.M)}


def check(dispatcher, clock, plans):
    """Every campaign's shard counts against a recount from its
    records (``plans``: its shards), and the ``/metrics`` gauge against
    their sum."""
    summed = dict.fromkeys(STATES, 0)
    for cid, job in dispatcher._jobs.items():
        shards = dispatcher.status(cid)["shards"]  # reaps, like /metrics
        assert sum(shards[state] for state in STATES) == shards["total"] \
            == len(plans[cid])
        assert all(lease.deadline >= clock.now
                   for lease in job.leases.values())
        leased = {lease.shard_index for lease in job.leases.values()}
        held = set(map(record_key, dispatcher.records(cid)["records"]))
        recount = dict.fromkeys(STATES, 0)
        for index, shard in enumerate(plans[cid]):
            recount["complete" if all(spec.key in held for spec in shard)
                    else "leased" if index in leased else "pending"] += 1
        assert {state: shards[state] for state in STATES} == recount
        for state in STATES:
            summed[state] += recount[state]
    assert shard_samples(dispatcher.metrics_text()) == summed


def check_grant(dispatcher, lease):
    """A grant is its campaign's lowest pending shard, with exactly the
    runs that shard lacks."""
    job = dispatcher._jobs[lease["campaign"]]
    shard = lease["shard"]
    missing = [spec.key for spec in job.shards[shard]
               if spec.key not in job.ledger.records]
    assert missing, "a lease for a shard with nothing missing"
    assert [spec_from_wire(wire).key for wire in lease["specs"]] == missing
    others = {held.shard_index for held in job.leases.values()
              if held.lease_id != lease["lease"]}
    for index in range(shard):
        assert index in others or all(
            spec.key in job.ledger.records for spec in job.shards[index])


@generated(tier1_examples=400)
@given(schedules())
def test_generated_lease_schedules(case):
    steps, restart_after = case
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        clock = Clock()

        def start():
            return Dispatcher(log_dir=root, shard_size=SHARD_SIZE,
                              clock=clock, lease_timeout=TIMEOUT)

        dispatcher = start()
        cids = [dispatcher.submit(text)["campaign"] for text in CONFIGS]
        plans = {cid: dispatcher._jobs[cid].shards for cid in cids}
        granted, sent = [], {}  # every lease granted; how many runs sent
        for index, step in enumerate(steps):
            kind = step[0]
            if kind == "lease":
                lease = dispatcher.lease(step[1])
                if not lease.get("idle"):
                    check_grant(dispatcher, lease)
                    granted.append(lease)
            elif kind == "advance":
                clock.now += step[1]
            elif granted and kind == "heartbeat":
                dispatcher.heartbeat(granted[step[1] % len(granted)]["lease"])
            elif granted:  # a send, partial or done, live or late
                _, which, count, done = step
                which %= len(granted)
                lease = granted[which]
                start_at = sent.get(which, 0)
                batch = lease["specs"][start_at:start_at + count]
                sent[which] = start_at + len(batch)
                dispatcher.collect(
                    lease["campaign"], lease["lease"], lease["fingerprint"],
                    [record_of(spec_from_wire(wire)) for wire in batch],
                    done=done, worker="w1")
            if index + 1 == restart_after:
                dispatcher = start()  # the leases granted are gone with it
            check(dispatcher, clock, plans)

        # drained: every lease still out expires, one worker finishes
        clock.now += TIMEOUT + 1
        while not (lease := dispatcher.lease("w3")).get("idle"):
            check_grant(dispatcher, lease)
            dispatcher.collect(
                lease["campaign"], lease["lease"], lease["fingerprint"],
                [record_of(spec_from_wire(wire)) for wire in lease["specs"]],
                done=True, worker="w3")
            check(dispatcher, clock, plans)
        for cid in cids:
            status = dispatcher.status(cid)
            assert status["state"] == "complete"
            shards = status["shards"]
            assert {state: shards[state] for state in STATES} == {
                "pending": 0, "leased": 0, "complete": shards["total"]}
            assert canonical_log_text(dispatcher.records(cid)["records"]) \
                == canonical_log_text([record_of(spec) for shard in plans[cid]
                                       for spec in shard])
            last = dispatcher.events(cid)["events"][-1]
            assert last["event"] == "campaign_end" and last["complete"]
