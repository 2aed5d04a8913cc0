"""Cross-commit fixture for injection logs and traced fault sites.

``data/golden_sites.jsonl`` holds the canonical records of a matrix of
small campaigns run with ``early_stop="off"`` and ``propagation=True``
-- every run simulates and is traced -- covering every site kind
(register, local, shared, cache, control) and every spatial mask
parameter (``warp_level``, ``n_blocks``, ``n_cores``, multi-bit,
the ``cache_hook`` and a persistent fault model).  It was generated by
the injector of the commit *before* target resolution moved into
:func:`repro.faults.sites.resolve`, so it pins the injection-log
shapes and the traced propagation records byte for byte.

Each case is one line ``{"case": name}`` followed by its canonical
records.  Regenerate (only from a commit whose injector is trusted)::

    PYTHONPATH=src python tests/test_golden_sites.py
"""

import json
from pathlib import Path

import pytest

from repro.dist.protocol import canonical_log_text
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.targets import Structure

FIXTURE = Path(__file__).parent / "data" / "golden_sites.jsonl"

S = Structure
PATHFINDER = tuple(s for s in S if s is not S.LOCAL_MEM)
CACHES = tuple(s for s in S if s.is_cache)
L1_CACHES = tuple(s for s in CACHES if s is not S.L2_CACHE)
SCALARPROD = (S.LOCAL_MEM, S.SHARED_MEM)

#: name -> (benchmark, structures, runs per structure, campaign seed,
#: option overrides).  The seeds were picked so that the cache cases
#: hit valid lines (a uniformly drawn line of these small workloads is
#: almost always invalid, which exercises nothing of the watch
#: automaton).
CASES = {
    "pathfinder": ("pathfinder", PATHFINDER, 3, 203, {}),
    "scalarprod": ("scalarprod", SCALARPROD, 3, 7, {}),
    "pathfinder-warp": ("pathfinder", (S.REGISTER_FILE,), 3, 7,
                        {"warp_level": True}),
    "scalarprod-warp": ("scalarprod", (S.LOCAL_MEM,), 3, 7,
                        {"warp_level": True}),
    "pathfinder-blocks2": ("pathfinder", (S.SHARED_MEM,), 3, 7,
                           {"n_blocks": 2}),
    "scalarprod-blocks2": ("scalarprod", (S.SHARED_MEM,), 3, 7,
                           {"n_blocks": 2}),
    "pathfinder-cores2": ("pathfinder", L1_CACHES, 8, 123, {"n_cores": 2}),
    "pathfinder-bits3": ("pathfinder", PATHFINDER, 3, 2309,
                         {"bits_per_fault": 3}),
    "scalarprod-bits3": ("scalarprod", SCALARPROD, 3, 7,
                         {"bits_per_fault": 3}),
    "pathfinder-hook": ("pathfinder", CACHES, 8, 59,
                        {"fault_model": "cache_hook"}),
    "pathfinder-stuck1": ("pathfinder", PATHFINDER, 3, 2992,
                          {"fault_model": "stuck_at_1"}),
    "scalarprod-stuck1": ("scalarprod", SCALARPROD, 3, 7,
                          {"fault_model": "stuck_at_1"}),
}


def case_config(name: str) -> CampaignConfig:
    benchmark, structures, runs, seed, overrides = CASES[name]
    return CampaignConfig(benchmark=benchmark, card="RTX2060",
                          structures=structures, runs_per_structure=runs,
                          seed=seed, early_stop="off", propagation=True,
                          **overrides)


def without_model(record: dict, model: str) -> dict:
    """``record`` less its own and every mask's ``fault_model`` key,
    each of which must name ``model``: the fixture was written when
    hooks were a campaign switch, and its records name no model."""
    assert record.pop("fault_model") == model
    for mask in [record["mask"], *(injection["mask"] for injection
                                   in record["injections"])]:
        assert mask.pop("fault_model") == model
    return record


def case_text(name: str) -> str:
    config = case_config(name)
    campaign = Campaign(config)
    records = campaign.execute(campaign.plan())
    if config.fault_model == "cache_hook":
        records = [without_model(record, "cache_hook") for record in records]
    return canonical_log_text(records)


def load_fixture() -> dict:
    """case name -> canonical text of its records."""
    cases, name = {}, None
    for line in FIXTURE.read_text(encoding="utf-8").splitlines(True):
        head = json.loads(line)
        if set(head) == {"case"}:
            name = head["case"]
            cases[name] = ""
        else:
            cases[name] += line
    return cases


class TestGoldenSites:
    def test_fixture_covers_every_case(self):
        assert list(load_fixture()) == list(CASES)

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_parent_generated_log(self, name):
        assert case_text(name) == load_fixture()[name]

    def test_fixture_exercises_every_site_kind(self):
        records = [json.loads(line)
                   for text in load_fixture().values()
                   for line in text.splitlines()]
        assert all(r["propagation"]["source"] == "trace" for r in records)
        sites = [s for r in records for s in r["propagation"]["sites"]]
        assert {s["kind"] for s in sites} == {
            "register", "local", "shared", "cache", "control"}
        assert {s["unit"] for s in sites if s["kind"] == "control"} == {
            "simt_stack", "scoreboard"}
        caches = [s for s in sites if s["kind"] == "cache"]
        assert {s["mode"] for s in caches} == {"flip", "hook"}
        assert {s["valid"] for s in caches} == {True, False}
        for mode in ("flip", "hook"):
            assert any(s["valid"] and s["fate"] != "never_touched"
                       for s in caches if s["mode"] == mode), mode
        assert any(s.get("persistent") and s["kind"] == "cache"
                   and s["valid"] for s in sites)
        assert any(len(s["lanes"]) > 1 for s in sites
                   if s["kind"] in ("register", "local"))
        targets = {i["target"] for r in records for i in r["injections"]}
        assert targets >= {"thread", "warp", "cta", "l1", "l2"}
        assert any(len(i["blocks"]) == 2 for r in records
                   for i in r["injections"] if i["target"] == "cta")
        assert any(len({f["cache"] for f in i["flips"]}) == 2
                   for r in records for i in r["injections"]
                   if i["target"] == "l1")
        assert any(i.get("reasserted") for r in records
                   for i in r["injections"])


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as out:
        for case in CASES:
            out.write(json.dumps({"case": case}) + "\n" + case_text(case))
    print(f"wrote {FIXTURE}")
