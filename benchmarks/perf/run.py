#!/usr/bin/env python3
"""The repo benchmark: campaign wall-clock end to end, and layer by layer.

    python3 benchmarks/perf/run.py                      # all four workloads
    python3 benchmarks/perf/run.py --workload sim_solo  # one of them
    python3 benchmarks/perf/run.py --aa                 # the set twice: noise
    python3 benchmarks/perf/run.py --scale smoke        # < 60 s self-check

One workload runs per interpreter.  With ``--workload`` this process is
that interpreter; without it, each workload gets a fresh subprocess, one
after the other.  A run has four phases -- set-up (timed, several
times), timed passes without tracing for ``--seconds``, verification,
and with ``--trace 1`` one more traced pass for the per-layer numbers --
then prints every metric it measured by name with its unit, writes
``out/BENCH_<workload>.json`` and ends with the one-line JSON result the
driver reads.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Result-file schema version; bump on breaking layout changes.
SCHEMA = 1
#: Set-up is repeated and its median reported, so one slow start does
#: not read as a set-up regression.
SETUP_REPEATS = 3
#: Fewest timed passes of a run, whatever ``--seconds`` says.
MIN_ROUNDS = {"full": 3, "smoke": 1}
#: A workload subprocess that has not ended by then is killed.
WORKLOAD_TIMEOUT = 600.0


def load_spec() -> dict:
    """BENCHMARK.json: the one list of workload and metric names."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def provenance() -> dict:
    """Which code, interpreter and machine produced a result file."""
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def fresh_import_s() -> float:
    """What a fresh interpreter takes to start and import the program.

    Every ``gpufi`` command pays it, so it is part of set-up; it is
    timed in a subprocess once per set-up, not on this process's own
    import, which happens once and reads a cold page cache on the
    first run in a checkout.
    """
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
            f"{str(HERE)!r}]; import workloads")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   timeout=WORKLOAD_TIMEOUT)
    return time.perf_counter() - started


def print_metrics(title: str, values: dict, units: dict) -> None:
    print(f"-- {title}")
    for name, value in values.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")


# -- one workload, in this interpreter ------------------------------------


def run_one(args, spec: dict) -> int:
    import_started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401  (so the next line times repro alone)
        bench_started = time.perf_counter()
        import repro.bench  # assembles the kernels of all twelve apps
        bench_import_s = time.perf_counter() - bench_started
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_started
    workloads.pin()

    workdir = OUT_DIR / f"work_{args.workload}_{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = workloads.make_workload(args.workload, args.scale,
                                       args.seed, workdir)
    tally = workloads.Tally()
    doc = {"schema": SCHEMA, "workload": args.workload,
           "scale": args.scale, "seed": args.seed, "seconds": args.seconds,
           "size": {key: ([v.value for v in value] if key == "structures"
                          else value)
                    for key, value in workload.size.items()},
           "provenance": provenance(),
           "load_before": os.getloadavg()[0]}
    try:
        # phase 1: set-up, several times over; the last one is kept
        setup_samples = []
        setup_refs = [workloads.reference_task()]
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.discard_setup()
            started = time.perf_counter()
            workload.setup()
            setup_samples.append(time.perf_counter() - started
                                 + fresh_import_s())
            setup_refs.append(workloads.reference_task())

        # phase 2: timed passes, no tracer, metrics=False
        rounds = []
        phase_started = time.perf_counter()
        while True:
            # dead simulator state of the previous pass is collected
            # outside the timer, so peak RSS is one pass's, not a sum
            gc.collect()
            load = os.getloadavg()[0]
            last = workload.run_round(len(rounds), tally)
            rounds.append({"wall_s": last.wall_s, "cpu_s": last.cpu_s,
                           "units_s": last.units_s, "ref_s": last.ref_s,
                           "records": last.produced,
                           "load": load,
                           "noisy": load > (os.cpu_count() or 1)})
            walls = [r["wall_s"] for r in rounds]
            if len(rounds) == MIN_ROUNDS[args.scale]:
                # sampled after a fixed amount of work, not after
                # however many passes this machine fits in --seconds
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - phase_started
            if (len(rounds) >= MIN_ROUNDS[args.scale]
                    and elapsed + statistics.median(walls) > args.seconds):
                break

        # phase 3: verification of the last pass, untimed
        workload.verify(last, tally)

        estimate = workload.estimate
        raw = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": estimate(walls),
            "runs_per_s": 1.0 / estimate(
                [r["wall_s"] / max(r["records"], 1) for r in rounds]),
            "cpu_ms_per_run": estimate(
                [r["cpu_s"] * 1e3 / max(r["records"], 1) for r in rounds]),
            "peak_rss_mb": peak_rss_mb,
        }
        # times as they would read had the host run at its nominal
        # speed throughout; see workloads.host_speed and README "Noise"
        speed = {"setup": workloads.host_speed(setup_refs),
                 "timed": workloads.host_speed(
                     [ref for r in rounds for ref in r["ref_s"]], estimate)}
        e2e = {
            "setup_s": raw["setup_s"] / speed["setup"],
            "wall_s": raw["wall_s"] / speed["timed"],
            "runs_per_s": raw["runs_per_s"] * speed["timed"],
            "cpu_ms_per_run": raw["cpu_ms_per_run"] / speed["timed"],
            "peak_rss_mb": peak_rss_mb,
        }
        doc.update({"import_s": import_s, "setup_samples_s": setup_samples,
                    "setup_ref_s": setup_refs, "rounds": rounds,
                    "host_speed": speed, "end_to_end_raw": raw,
                    "end_to_end": e2e})

        # phase 4: one traced pass with metrics=True, for the layers
        per_layer = None
        if args.trace:
            import layers
            from spans import Tracer

            tracer = Tracer()
            traced = workload.run_round(0, tally, tracer)
            per_layer = layers.layer_metrics(workload, tracer, traced, walls)
            per_layer["bench.build_ms"] = bench_import_s * 1e3
            per_layer["host.speed_factor"] = speed["timed"]
            base = tracer.spans[0]["start"]
            doc.update({
                "per_layer": per_layer,
                "layer_self_s": tracer.self_times(traced.root_span),
                "traced_wall_s": traced.wall_s,
                "spans": [dict(s, start=s["start"] - base,
                               end=s["end"] - base)
                          for s in tracer.spans]})
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    doc.update({"attempted": tally.attempted, "failed": tally.failed,
                "failed_ops_share": tally.failed / max(tally.attempted, 1),
                "errors": tally.errors,
                "teardown_stderr": workload.teardown_stderr,
                "load_after": os.getloadavg()[0]})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{args.workload}.json").write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {args.workload} (scale {args.scale}, seed {args.seed}, "
          f"{len(rounds)} timed passes of {rounds[0]['records']} records)")
    print_metrics("end to end, corrected for host speed", e2e, units)
    print_metrics(f"as measured (host at {speed['timed']:.2f}x its nominal "
                  f"time per unit of work)", raw, units)
    print(f"{'failed_ops_share':<36} {doc['failed_ops_share']:>16.6g} "
          f"share ({tally.failed} of {tally.attempted} runs)")
    if per_layer is not None:
        print_metrics("per layer (one traced pass)", per_layer, units)
    for message in tally.errors:
        print(f"FAILED: {message}", file=sys.stderr)

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in chosen}}))
    return 0 if tally.failed == 0 else 1


# -- every workload, each in a fresh interpreter ----------------------------


def run_set(args, spec: dict) -> dict:
    """Run each workload in its own subprocess; returns their results."""
    results = {}
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--scale", args.scale, "--trace", "1"]
        try:
            code = subprocess.run(command,
                                  timeout=WORKLOAD_TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            code = -1
        path = OUT_DIR / f"BENCH_{name}.json"
        if code not in (0, 1) or not path.exists():
            results[name] = None
            print(f"FAILED: workload {name} ended with code {code}",
                  file=sys.stderr)
            continue
        results[name] = json.loads(path.read_text(encoding="utf-8"))
    return results


#: Per-layer values that are counts of simulated behaviour: two runs of
#: the same code on the same seed must agree on them exactly.
EXACT = ("classify.masked", "classify.sdc", "classify.crash",
         "classify.timeout", "classify.performance", "sim.golden_cycles",
         "sim.golden_instr", "sim.cycles_simulated", "campaign.specs",
         "prescreen.dead_share", "batch.packs", "batch.members",
         "batch.peeled", "dist.shards")


def run_all(args, spec: dict) -> int:
    sets = [run_set(args, spec)]
    if args.aa:
        sets.append(run_set(args, spec))
    ok = all(doc is not None and doc["failed"] == 0
             for results in sets for doc in results.values())
    summary = {"schema": SCHEMA, "scale": args.scale, "seed": args.seed,
               "provenance": provenance(),
               "workloads": {
                   name: doc and {"end_to_end": doc["end_to_end"],
                                  "failed_ops_share": doc["failed_ops_share"]}
                   for name, doc in sets[0].items()}}

    print("\n== summary: end-to-end metrics by workload")
    for metric in spec["end_to_end"]:
        for name, doc in sets[0].items():
            if doc is not None:
                print(f"{metric['name']:<16} {name:<14} "
                      f"{doc['end_to_end'][metric['name']]:>14.6g} "
                      f"{metric['unit']}")

    if args.aa:
        print("\n== A/A: the same code twice")
        print(f"{'metric':<16} {'workload':<14} {'first':>12} {'second':>12} "
              f"{'diff':>8} {'bound':>6}")
        rows, mismatches = [], []
        for metric in spec["end_to_end"]:
            for name in sets[0]:
                first, second = sets[0][name], sets[1][name]
                if first is None or second is None:
                    continue
                a = first["end_to_end"][metric["name"]]
                b = second["end_to_end"][metric["name"]]
                diff = abs(b - a) / a
                rows.append({"metric": metric["name"], "workload": name,
                             "first": a, "second": b, "diff": diff,
                             "bound": metric["bound"]})
                print(f"{metric['name']:<16} {name:<14} {a:>12.5g} "
                      f"{b:>12.5g} {diff:>8.1%} {metric['bound']:>6.0%}"
                      + ("  OVER" if diff > metric["bound"] else ""))
        for name in sets[0]:
            first, second = sets[0][name], sets[1][name]
            if first is None or second is None:
                continue
            for key in EXACT:
                if first["per_layer"][key] != second["per_layer"][key]:
                    mismatches.append(f"{name}: {key} "
                                      f"{first['per_layer'][key]} != "
                                      f"{second['per_layer'][key]}")
        for line in mismatches:
            print(f"FAILED: exact count differs: {line}", file=sys.stderr)
        ok = ok and not mismatches
        summary["aa"] = {"rows": rows, "exact_mismatches": mismatches}

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_e2e.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="derives every campaign seed")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long the timed passes measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass and report the "
                             "per-layer metrics in the result line")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--aa", action="store_true",
                        help="run every workload twice and compare")
    args = parser.parse_args(argv)
    if args.workload and not args.aa:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
