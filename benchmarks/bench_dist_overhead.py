"""Distribution overhead: a 2-worker fleet vs ``--jobs 2`` local.

The distributed fabric (``gpufi serve`` + workers) must pay only a
bounded coordination tax -- HTTP round-trips, leasing, heartbeats,
merging -- over the in-process worker pool it replaces.  This bench
runs the same campaign both ways and asserts two things:

- the fleet's merged records are **canonically byte-identical** to the
  local run's (one record per run key, volatile keys stripped, sorted
  -- see :func:`repro.dist.protocol.canonical_log_text`), which
  subsumes classification parity;
- fleet wall-clock (submit to completion, golden profiling included on
  both sides) is at most ``GPUFI_DIST_MAX_OVERHEAD`` (default 50%)
  slower than local, best-of-``N`` rounds.  The ceiling is deliberately
  loose: at bench scale each run simulates for milliseconds, so the
  fixed HTTP/lease cost is proportionally large.  What a record costs
  the dispatcher is measured by the repo benchmark's ``fleet_instant``
  workload (``benchmarks/perf``, ``docs/performance.md``).

Workers run as subprocesses (``python -m repro.dist.worker``), so the
comparison against the multiprocessing pool is honest -- both sides
get two OS processes.

Run standalone for the acceptance measurement::

    PYTHONPATH=src python benchmarks/bench_dist_overhead.py --runs 12

``GPUFI_DIST_RUNS`` scales the campaign, ``GPUFI_DIST_ROUNDS`` the
best-of rounds, ``GPUFI_DIST_MAX_OVERHEAD`` overrides the ceiling (CI
uses a relaxed one for noisy shared runners).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _harness import emit
from repro.dist.client import DispatcherClient
from repro.dist.protocol import canonical_log_text
from repro.dist.server import Dispatcher, DispatcherServer
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.targets import Structure

RUNS = int(os.environ.get("GPUFI_DIST_RUNS", "48"))
ROUNDS = int(os.environ.get("GPUFI_DIST_ROUNDS", "3"))

#: acceptance ceiling: the fleet may cost at most this fraction over
#: the local pool at bench scale
MAX_OVERHEAD = float(os.environ.get("GPUFI_DIST_MAX_OVERHEAD", "0.5"))

WORKERS = 2
STRUCTURES = (Structure.REGISTER_FILE, Structure.L2_CACHE)


def _config(runs: int, seed: int, **extra) -> CampaignConfig:
    return CampaignConfig(
        benchmark="vectoradd", card="RTX2060", structures=STRUCTURES,
        runs_per_structure=runs, seed=seed, **extra)


def _spawn_workers(url: str, n: int):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return [subprocess.Popen(
        [sys.executable, "-m", "repro.dist.worker", "--connect", url,
         "--name", f"bench-w{i}", "--poll", "0.05"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for i in range(n)]


def measure(runs: int, rounds: int):
    """Best-of-``rounds`` wall-clock, local pool vs 2-worker fleet."""
    root = Path(tempfile.mkdtemp(prefix="gpufi_dist_bench_"))
    t_local, t_fleet = float("inf"), float("inf")
    identical = True
    dispatcher = Dispatcher(log_dir=root / "server")
    server = DispatcherServer(dispatcher, port=0).start()
    workers = _spawn_workers(server.url, WORKERS)
    client = DispatcherClient(server.url)
    try:
        for round_index in range(rounds):
            # a fresh seed per round: same-fingerprint resubmissions
            # would be deduplicated (and complete instantly)
            seed = 1000 + round_index

            start = time.perf_counter()
            local = Campaign(_config(runs, seed)).run(jobs=WORKERS)
            t_local = min(t_local, time.perf_counter() - start)

            start = time.perf_counter()
            cid = client.submit(_config(runs, seed))["campaign"]
            # poll fast: at bench scale the default 0.5s completion-
            # detection granularity would drown the quantity measured
            client.wait(cid, timeout=600, poll=0.02)
            t_fleet = min(t_fleet, time.perf_counter() - start)

            fleet_records = client.records(cid)
            identical = identical and (
                canonical_log_text(fleet_records)
                == canonical_log_text(local.records))
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.wait(timeout=10)
        server.shutdown()
        shutil.rmtree(root, ignore_errors=True)
    return t_local, t_fleet, identical


def report(runs: int, rounds: int):
    t_local, t_fleet, identical = measure(runs, rounds)
    overhead = (t_fleet - t_local) / t_local if t_local else 0.0
    text = "\n".join([
        f"distribution overhead: {runs} runs/structure x "
        f"{len(STRUCTURES)} structures, best of {rounds} rounds",
        f"local --jobs {WORKERS}:   {t_local:6.2f}s  "
        f"(multiprocessing pool)",
        f"{WORKERS}-worker fleet:  {t_fleet:6.2f}s  "
        f"(gpufi serve + {WORKERS} worker subprocesses over HTTP)",
        f"overhead: {overhead * 100:+.2f}%  "
        f"(ceiling {MAX_OVERHEAD * 100:.0f}%)",
        f"canonical logs byte-identical: {identical}",
    ])
    return overhead, identical, text


def test_dist_overhead(benchmark):
    def once():
        return report(RUNS, ROUNDS)

    overhead, identical, text = benchmark.pedantic(
        once, rounds=1, iterations=1)
    emit("dist_overhead", text)
    assert identical, "fleet and local records diverged"
    assert overhead <= MAX_OVERHEAD, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    args = parser.parse_args(argv)

    overhead, identical, text = report(args.runs, args.rounds)
    print(text)
    emit("dist_overhead", text)
    if not identical:
        print("FAIL: fleet and local records diverged", file=sys.stderr)
        return 1
    if overhead > MAX_OVERHEAD:
        print(f"FAIL: overhead {overhead * 100:.2f}% exceeds ceiling "
              f"{MAX_OVERHEAD * 100:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
