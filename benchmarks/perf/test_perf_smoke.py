"""Self-test of the benchmark harness at ``--scale smoke`` (< 60 s).

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/perf/test_perf_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results():
    """One smoke run of every workload; the result files it wrote."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--seconds", "0"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    docs = {name: json.loads(
        (HERE / "out" / f"BENCH_{name}.json").read_text())
        for name in WORKLOADS}
    return done.stdout, docs


def test_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in
                         SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_every_metric_is_printed_and_recorded(results):
    stdout, docs = results
    for name in WORKLOADS:
        assert f"== {name} " in stdout
        for metric in SPEC["end_to_end"]:
            assert docs[name]["end_to_end"][metric["name"]] > 0
        for metric in SPEC["per_layer"]:
            assert metric["name"] in docs[name]["per_layer"], metric["name"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"^{re.escape(metric['name'])} +\S+ "
                         rf"{re.escape(metric['unit'])}$", stdout,
                         re.MULTILINE), metric["name"]


def test_result_line_carries_exactly_the_declared_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "fleet_instant", "--scale", "smoke", "--seconds", "0",
             "--seed", "7", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in SPEC[key]]


def test_no_failed_operations(results):
    for doc in results[1].values():
        assert doc["failed_ops_share"] == 0 and not doc["errors"]


def test_shares_lie_in_unit_interval(results):
    for name, doc in results[1].items():
        for metric in SPEC["per_layer"]:
            # the tracing overhead is a relative difference, not a part
            if (metric["unit"] == "share"
                    and metric["name"] != "trace.overhead_share"):
                value = doc["per_layer"][metric["name"]]
                assert 0.0 <= value <= 1.0, (name, metric["name"], value)


def test_layer_self_times_close(results):
    """Layer self times sum to the traced pass, and the harness's own
    share of it stays under 5 %."""
    for name, doc in results[1].items():
        root = doc["spans"][0]
        assert root["name"] == "harness.pass"
        total = sum(doc["layer_self_s"].values())
        assert total == pytest.approx(root["end"] - root["start"], rel=0.05)
        assert doc["per_layer"]["harness.unattributed_share"] <= 0.05, name


def test_bypassed_layers_report_zero(results):
    docs = results[1]
    fleet, solo, pack = (docs["fleet_instant"]["per_layer"],
                         docs["sim_solo"]["per_layer"],
                         docs["sim_pack"]["per_layer"])
    assert fleet["sim.cycles_simulated"] == 0 and fleet["batch.packs"] == 0
    assert solo["checkpoint.hit_share"] == 0 and solo["batch.packs"] == 0
    assert solo["dist.shards"] == 0 and pack["dist.shards"] == 0
    assert fleet["dist.shards"] > 0
