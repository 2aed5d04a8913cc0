"""The ``gpufi`` command-line front-end.

Plays the role of the paper's bash script: profile an application,
run an injection campaign, and post-process logged results::

    gpufi list
    gpufi profile --benchmark vectoradd --card RTX2060
    gpufi campaign --benchmark vectoradd --card RTX2060 \\
                   --structures register_file --runs 100 --log out.jsonl
    gpufi campaign --config gpufi.config
    gpufi report out.jsonl

and to run a distributed campaign fleet (see docs/distributed.md)::

    gpufi serve --port 8937 --log-dir runs/       # dispatcher
    gpufi worker --connect http://host:8937       # on each machine
    gpufi submit --connect http://host:8937 --benchmark vectoradd
    gpufi status --connect http://host:8937 c1 --wait
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import sys
from typing import List, Optional

from repro.analysis import avf as avf_mod
from repro.analysis import fit as fit_mod
from repro.analysis.report import render_table
from repro.bench import benchmark_names
from repro.faults.campaign import (Campaign, CampaignConfig, PlanError,
                                   profile_application)
from repro.faults.classify import FaultEffect
from repro.faults.config_file import load_config
from repro.faults.options import add_option_flags, options_from_args
from repro.faults.parser import count_unapplied, load_records, split_by_model
from repro.plan.estimator import UNIFORM_STRATUM, fold
from repro.sim.cards import CARDS

#: The card of every command that is not told one.
DEFAULT_CARD = "RTX2060"


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the injection runs "
                        "(results are identical for any count)")


def _add_resume_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--resume", action="store_true",
                   help="skip runs already recorded in --log "
                        "(resume an interrupted campaign)")
    p.add_argument("--markdown",
                   help="write a full Markdown report here")


def _build_parser(invoked: Optional[str] = None) -> argparse.ArgumentParser:
    """The command line.  The fleet worker declares its own arguments
    (:mod:`repro.dist.worker`, which pulls in the HTTP fabric): they
    are asked for only when it is the subcommand ``invoked``."""
    parser = argparse.ArgumentParser(
        prog="gpufi",
        description="gpuFI-4 reproduction: microarchitecture-level GPU "
                    "fault injection")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        """A subcommand whose parsed arguments go to ``handler``."""
        subparser = sub.add_parser(name, help=help)
        subparser.set_defaults(handler=handler)
        return subparser

    command("list", _cmd_list, "list benchmarks and cards")

    profile = command("profile", _cmd_profile,
                      "fault-free profile of an application")
    profile.add_argument("--benchmark", required=True)
    profile.add_argument("--card", default=DEFAULT_CARD)

    run = command(
        "run", _cmd_run,
        "one fault-free application run (quick check / profiling "
        "anchor; campaigns use 'campaign')")
    run.add_argument("--benchmark", required=True)
    run.add_argument("--card", default=DEFAULT_CARD)
    run.add_argument("--scheduler", default="gto",
                     choices=["gto", "lrr"])
    run.add_argument("--log",
                     help="anchor path for sidecars (default: "
                          "<benchmark>.run)")
    run.add_argument("--profile", action="store_true",
                     help="dump a cProfile sidecar "
                          "(<log>.profile.0.pstats); inspect with "
                          "'gpufi report-profile'")

    campaign = command("campaign", _cmd_campaign,
                       "run an injection campaign")
    campaign.add_argument("--config", help="gpgpusim.config-style file")
    # every campaign option, and this command's three arguments that
    # are not options of the campaign where --help has always had them
    add_option_flags(campaign, after={"verify_restore": _add_jobs_flag,
                                      "profile": _add_resume_flags})

    serve = command(
        "serve", _cmd_serve,
        "run the campaign dispatcher (distributed execution): "
        "accepts submitted campaigns, shards their plans and "
        "hands shards to gpufi workers over HTTP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; use "
                            "0.0.0.0 for a LAN fleet)")
    serve.add_argument("--port", type=int, default=8937,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--log-dir", default="dist-campaigns",
                       help="directory for per-campaign logs, metrics "
                            "sidecars and persisted submissions "
                            "(restart resume)")
    serve.add_argument("--shard-size", type=int, default=None,
                       help="runs per lease (default 8)")
    serve.add_argument("--lease-timeout", type=float, default=None,
                       help="seconds before a silent worker loses its "
                            "lease and the shard is re-queued "
                            "(default 60)")

    worker = command(
        "worker", _cmd_worker,
        "run a fleet worker: lease campaign shards from a "
        "dispatcher, execute them and stream records back")
    if invoked == "worker":
        from repro.dist.worker import add_worker_arguments

        add_worker_arguments(worker)

    submit = command(
        "submit", _cmd_submit,
        "submit a campaign to a dispatcher and print its id "
        "(does not wait; see 'gpufi status --wait')")
    submit.add_argument("--connect", required=True, metavar="URL",
                        help="dispatcher URL, e.g. http://host:8937")
    submit.add_argument("--config", help="gpgpusim.config-style file")
    # not the execution group: the dispatcher owns logs, checkpoints
    # and workers
    add_option_flags(submit, execution=False)

    status = command("status", _cmd_status,
                     "show dispatcher / campaign progress")
    status.add_argument("--connect", required=True, metavar="URL",
                        help="dispatcher URL, e.g. http://host:8937")
    status.add_argument("campaign", nargs="?",
                        help="campaign id (default: list all)")
    status.add_argument("--wait", action="store_true",
                        help="poll until the campaign completes")
    status.add_argument("--follow", action="store_true",
                        help="stream the campaign's live event feed "
                             "(one line per event) until it completes")
    status.add_argument("--timeout", type=float,
                        help="give up --wait/--follow after this many "
                             "seconds")

    top = command(
        "top", _cmd_top,
        "live terminal dashboard of a running campaign -- "
        "throughput, ETA, per-structure effects, worker table -- "
        "from a dispatcher (--connect) or a local run's "
        "<log>.events.jsonl (--log)")
    top.add_argument("--connect", metavar="URL",
                     help="dispatcher URL, e.g. http://host:8937")
    top.add_argument("campaign", nargs="?",
                     help="campaign id (fleet mode; default: first "
                          "running campaign)")
    top.add_argument("--log", metavar="PATH",
                     help="local campaign log whose event stream to "
                          "tail instead of a dispatcher")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh interval in seconds (default 1)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (scripts/CI)")
    top.add_argument("--timeout", type=float,
                     help="give up after this many seconds")

    canonicalize = command(
        "canonicalize", _cmd_canonicalize,
        "print a campaign log in its canonical byte form (one "
        "record per run key, volatile keys stripped, sorted) -- "
        "two logs cover the same plan iff their canonical forms "
        "are byte-identical")
    canonicalize.add_argument("log", help="campaign JSONL log")
    canonicalize.add_argument("-o", "--output",
                              help="write here instead of stdout")

    report = command("report", _cmd_report,
                     "aggregate campaign JSONL logs (batches are merged)")
    report.add_argument("log", nargs="+",
                        help="JSONL file(s) written by 'campaign'")
    report.add_argument("--force", action="store_true",
                        help="merge logs even when their campaign "
                             "fingerprints disagree (default: refuse "
                             "to mix campaigns)")

    report_metrics = command(
        "report-metrics", _cmd_report_metrics,
        "summarize <log>.metrics.json sidecars (wall-clock, "
        "throughput, checkpoint hit rate, early-stop savings) "
        "without re-running any simulation")
    report_metrics.add_argument(
        "log", nargs="+",
        help="campaign log (or sidecar) path(s) from a --metrics run")

    report_profile = command(
        "report-profile", _cmd_report_profile,
        "print the top cumulative hot spots from --profile "
        "pstats sidecars (per worker, merged)")
    report_profile.add_argument(
        "path", nargs="+",
        help="a .pstats sidecar, or the campaign log whose "
             "<log>.profile.*.pstats sidecars to merge")
    report_profile.add_argument(
        "--limit", type=int, default=20,
        help="entries to print (default 20)")

    explain = command(
        "explain-run", _cmd_explain_run,
        "narrate one run's fault propagation (site fates, "
        "consumer chain, divergence window) from a --propagation "
        "campaign log, without re-running any simulation")
    explain.add_argument("log", help="campaign JSONL log")
    explain.add_argument(
        "run_key", metavar="run-key",
        help="run coordinates as kernel/structure/run, e.g. "
             "vecadd_kernel/register_file/7")
    return parser


def _cmd_list(args) -> int:
    print("benchmarks:", ", ".join(benchmark_names()))
    print("cards:     ", ", ".join(sorted(CARDS)))
    return 0


def _cmd_profile(args) -> int:
    profile, golden = profile_application(args.benchmark, args.card)
    rows = []
    for name, kp in sorted(profile.kernels.items()):
        rows.append((name, kp.invocations, kp.total_cycles,
                     f"{kp.occupancy:.3f}", kp.regs_per_thread,
                     kp.smem_bytes, f"{kp.mean_threads_per_sm:.1f}",
                     f"{kp.mean_ctas_per_sm:.2f}"))
    print(f"{args.benchmark} on {profile.card}: "
          f"{profile.total_cycles} cycles, app occupancy "
          f"{profile.app_occupancy():.3f}")
    print(render_table(
        ("kernel", "invocations", "cycles", "occupancy", "regs/thread",
         "smem/CTA", "threads/SM", "CTAs/SM"), rows))
    return 0


def _config_from_args(args, execution: bool = True) -> CampaignConfig:
    """The config a ``campaign`` / ``submit`` command line describes:
    the ``--config`` file's values, overridden by every option flag
    the user typed."""
    try:
        typed = options_from_args(args, execution)
        if "backend_url" in typed:
            typed.setdefault("backend", "remote")  # --connect implies it
        if args.config:
            return dataclasses.replace(load_config(args.config), **typed)
        if "benchmark" not in typed:
            raise SystemExit("either --config or --benchmark is required")
        typed.setdefault("card", DEFAULT_CARD)
        return CampaignConfig(**typed)
    except ValueError as exc:
        # e.g. an unknown --fault-model / -gpufi_fault_model: surface
        # the registry listing instead of a traceback
        raise SystemExit(f"error: {exc}")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def _cmd_campaign(args) -> int:
    config = _config_from_args(args)
    if args.resume and config.log_path is None:
        raise SystemExit("--resume needs --log (the file to resume from)")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if config.backend == "remote" and not config.backend_url:
        raise SystemExit("--backend remote needs --connect URL "
                         "(the gpufi serve dispatcher)")
    campaign = Campaign(config, progress=lambda msg: print(f"  .. {msg}"))
    # SIGTERM unwinds like SIGINT: pool and ledger close on the way out
    # (``campaign_end {"complete": false}``, no torn line), --resume
    # picks up there
    signal.signal(signal.SIGTERM, _terminated)
    result = campaign.run(jobs=args.jobs, resume=args.resume)
    print(result.summary())
    # achieved (not planned) margins: each group's estimate against
    # its true finite (bits x cycles) population
    print("per-structure margin of error (99% confidence, "
          "from completed runs):")
    for (kernel, structure), est in result.estimates.items():
        print(f"  {kernel}/{structure}: n={est.executed()} "
              f"p_hat={est.failure_ratio():.3f} "
              f"+/-{est.combined_margin() * 100:.1f}% "
              f"(population {est.population})")
    if campaign.last_plan is not None:
        print(campaign.last_plan.summary())  # the per-stratum detail
    wavf = avf_mod.weighted_avf(result)
    print(f"wAVF = {wavf:.5f}   FIT = {fit_mod.chip_fit(result):.1f}")
    if config.log_path:
        print(f"log written to {config.log_path}")
        if campaign.last_metrics is not None:  # its ledger wrote one
            from repro.obs import metrics_path_for

            print(f"metrics written to {metrics_path_for(config.log_path)}")
    if args.markdown:
        from pathlib import Path

        from repro.analysis.markdown import render_markdown

        Path(args.markdown).write_text(render_markdown(result),
                                       encoding="utf-8")
        print(f"markdown report written to {args.markdown}")
    return 0


def _cmd_run(args) -> int:
    from repro.bench import make_benchmark
    from repro.faults.runner import run_application
    from repro.sim.device import RunOptions

    anchor = args.log or f"{args.benchmark}.run"
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        result = run_application(
            make_benchmark(args.benchmark), args.card,
            options=RunOptions(scheduler_policy=args.scheduler))
    finally:
        if profiler is not None:
            from repro.faults.executor import profile_path_for

            profiler.disable()
            out = profile_path_for(anchor, 0)
            profiler.dump_stats(out)
            print(f"profile written to {out} "
                  "(inspect with 'gpufi report-profile')")
    print(f"{args.benchmark} on {args.card}: {result.message} "
          f"({result.cycles} cycles, status {result.status})")
    return 0 if result.status == "completed" and result.passed else 1


def _cmd_report_profile(args) -> int:
    import glob
    import pstats

    paths: List[str] = []
    for path in args.path:
        if path.endswith(".pstats"):
            paths.append(path)
        else:
            paths.extend(sorted(glob.glob(path + ".profile.*.pstats")))
    if not paths:
        print("error: no .pstats sidecars found (run with --profile "
              "first)", file=sys.stderr)
        return 1
    stats = pstats.Stats(paths[0], stream=sys.stdout)
    for extra in paths[1:]:
        stats.add(extra)
    print(f"merged {len(paths)} profile(s): "
          + ", ".join(paths))
    stats.sort_stats("cumulative").print_stats(args.limit)
    return 0


def _cmd_report(args) -> int:
    from repro.faults.parser import combine_records

    try:
        # accept anything the resume path can restart from: a torn
        # final line (campaign killed mid-write) is dropped, not fatal.
        # Logs carrying a campaign fingerprint must agree (--force
        # overrides); same-campaign shards are deduplicated by run key.
        records = combine_records(args.log, tolerate_torn_tail=True,
                                  force=args.force)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    headers = ["kernel", "structure", "runs", "FR"]
    headers.extend(e.value for e in FaultEffect)
    by_model = split_by_model(records)
    # a pure-transient log renders exactly as before the fault-model
    # dimension existed; anything else gets a per-model breakdown
    label_models = list(by_model) != ["transient"]
    for i, (model, of_model) in enumerate(by_model.items()):
        if label_models:
            print(("\n" if i else "") + f"fault model: {model}")
        estimates = fold(of_model, _planned(args.log))
        print(render_table(headers, [
            [kernel, structure, est.executed(), f"{est.failure_ratio():.3f}",
             *(est.effect_counts().get(e, 0) for e in FaultEffect)]
            for (kernel, structure), est
            in sorted(estimates.items(), key=lambda kv: kv[0][0])]))
        _report_strata(estimates)
    unapplied = count_unapplied(records)
    if unapplied:
        print(f"unapplied injections: {unapplied} run(s) resolved to no "
              "live target (counted as Masked above)")
    return 0


def _planned(log_paths) -> dict:
    """The groups of the logs' ``<log>.plan.json`` sidecars, with the
    stratum weights their plan fixed and no run folded in."""
    import json

    from repro.plan import StratifiedEstimate, StratumStats, plan_path_for

    estimates = {}
    for log in log_paths:
        try:
            doc = json.loads(plan_path_for(log).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        for group in doc.get("groups", ()):
            est = StratifiedEstimate(group["kernel"], group["structure"],
                                     group["population"],
                                     confidence=doc["confidence"])
            for key, info in group["strata"].items():
                est.strata[key] = StratumStats(
                    key, candidates=info["candidates"],
                    extra_candidates=info["extra_candidates"])
            estimates[(est.kernel, est.structure)] = est
    return estimates


def _report_strata(estimates) -> None:
    """Per-stratum breakdown of an adaptive campaign's log, rendered
    only when its records name strata.  Without the ``<log>.plan.json``
    sidecar a stratum is weighted by its share of the runs."""
    from repro.plan.driver import strata_table

    if any(list(est.strata) != [UNIFORM_STRATUM]
           for est in estimates.values()):
        print("\nadaptive strata (importance-weighted):")
        print(strata_table(estimates))


def _cmd_report_metrics(args) -> int:
    from repro.analysis.metrics import summarize_metrics

    status = 0
    for i, path in enumerate(args.log):
        if i:
            print()
        if len(args.log) > 1:
            print(f"== {path}")
        try:
            print(summarize_metrics(path))
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    return status


def _cmd_explain_run(args) -> int:
    from repro.obs.propagation import explain_record

    parts = args.run_key.split("/")
    if len(parts) != 3 or not parts[2].isdigit():
        print("error: run-key must be kernel/structure/run "
              "(e.g. vecadd_kernel/register_file/7)", file=sys.stderr)
        return 2
    kernel, structure, run = parts[0], parts[1], int(parts[2])
    records = load_records(args.log, tolerate_torn_tail=True)
    for record in records:
        if (record.get("kernel") == kernel
                and record.get("structure") == structure
                and record.get("run") == run):
            print(explain_record(record))
            return 0
    print(f"error: no record {args.run_key} in {args.log} "
          f"({len(records)} records scanned)", file=sys.stderr)
    return 1


def _cmd_serve(args) -> int:
    import logging

    from repro.dist.server import Dispatcher, DispatcherServer

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(message)s")
    kwargs = {}
    if args.shard_size is not None:
        kwargs["shard_size"] = args.shard_size
    if args.lease_timeout is not None:
        kwargs["lease_timeout"] = args.lease_timeout
    from pathlib import Path

    dispatcher = Dispatcher(log_dir=Path(args.log_dir), **kwargs)
    server = DispatcherServer(dispatcher, host=args.host, port=args.port)
    print(f"gpufi dispatcher listening on {server.url} "
          f"(campaign artifacts in {args.log_dir})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_worker(args) -> int:
    from repro.dist.worker import run_worker

    return run_worker(args)


def _cmd_submit(args) -> int:
    from repro.dist.client import DispatchError, DispatcherClient

    config = _config_from_args(args, execution=False)
    if config.adaptive != "off":
        raise SystemExit(
            "error: --adaptive drives execution in rounds and is not "
            "supported by the distributed fleet; run it locally with "
            "'gpufi campaign --adaptive'")
    client = DispatcherClient(args.connect)
    try:
        reply = client.submit(config)
    except DispatchError as exc:
        raise SystemExit(f"error: {exc}")
    # progress to stderr; stdout carries exactly the campaign id so
    # scripts can do  cid=$(gpufi submit ...)
    print(f"campaign {reply['campaign']} "
          + ("already submitted (joined)" if reply.get("reused")
             else "submitted")
          + f": {reply['total']} runs", file=sys.stderr)
    print(reply["campaign"])
    return 0


def _cmd_status(args) -> int:
    from repro.dist.client import DispatchError, DispatcherClient

    client = DispatcherClient(args.connect)
    try:
        if args.follow:
            if args.campaign is None:
                raise SystemExit("--follow needs a campaign id")
            return _follow_events(client, args.campaign, args.timeout)
        if args.campaign is None:
            if args.wait:
                raise SystemExit("--wait needs a campaign id")
            overview = client.status()
            rows = [(c["id"], c["benchmark"], c["card"], c["state"],
                     f"{c['done']}/{c['total']}",
                     c["shards"]["pending"], c["shards"]["leased"])
                    for c in overview["campaigns"]]
            print(render_table(("id", "benchmark", "card", "state",
                                "runs", "pending", "leased"), rows))
            workers = overview.get("workers", {})
            print(f"workers: {', '.join(sorted(workers)) or '(none)'}")
            return 0
        if args.wait:
            status = client.wait(
                args.campaign, timeout=args.timeout,
                progress=lambda msg: print(f"  .. {msg}",
                                           file=sys.stderr))
        else:
            status = client.status(args.campaign)
    except (DispatchError, TimeoutError) as exc:
        raise SystemExit(f"error: {exc}")
    effects = ", ".join(f"{k}={v}" for k, v in status["effects"].items())
    print(f"campaign {status['id']}: {status['state']} "
          f"({status['done']}/{status['total']} runs)")
    print(f"  benchmark: {status['benchmark']} on {status['card']}")
    print(f"  effects:   {effects or '(none yet)'}")
    print(f"  shards:    {status['shards']['complete']}/"
          f"{status['shards']['total']} complete, "
          f"{status['shards']['pending']} pending, "
          f"{status['shards']['leased']} leased")
    print(f"  log:       {status['log']}")
    return 0 if status["state"] == "complete" else 1


def _follow_events(client, campaign_id: str,
                   timeout: Optional[float]) -> int:
    """``gpufi status --follow``: one line per streamed event."""
    from repro.dist.client import DispatchError
    from repro.obs.live import format_event

    try:
        for event in client.follow(campaign_id, timeout=timeout):
            print(format_event(event), flush=True)
    except (DispatchError, TimeoutError) as exc:
        raise SystemExit(f"error: {exc}")
    except KeyboardInterrupt:
        return 130
    return 0


def _pick_campaign(client) -> Optional[str]:
    """Default `gpufi top` target: first running, else last campaign."""
    overview = client.status()
    campaigns = overview.get("campaigns", [])
    for status in campaigns:
        if status.get("state") != "complete":
            return status["id"]
    return campaigns[-1]["id"] if campaigns else None


def _cmd_top(args) -> int:
    import time as _time

    from repro.obs.events import Tally
    from repro.obs.live import EventFileTailer, render_top

    if bool(args.connect) == bool(args.log):
        raise SystemExit(
            "error: pass exactly one of --connect URL (fleet) or "
            "--log PATH (local run)")
    deadline = (_time.monotonic() + args.timeout
                if args.timeout is not None else None)
    tally = Tally()

    def frame(text: str) -> None:
        if not args.once and sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
        print(text, flush=True)

    if args.log:
        from repro.obs.events import events_path_for

        path = events_path_for(args.log)
        tailer = EventFileTailer(path)
        while True:
            tally.apply_all(tailer.poll())
            frame(render_top(tally, now=_time.time()))
            if args.once or tally.ended:
                return 0
            if deadline is not None and _time.monotonic() > deadline:
                raise SystemExit(f"error: campaign incomplete after "
                                 f"{args.timeout:g}s")
            _time.sleep(args.interval)

    from repro.dist.client import DispatchError, DispatcherClient

    client = DispatcherClient(args.connect)
    try:
        campaign = args.campaign or _pick_campaign(client)
        if campaign is None:
            print("no campaigns submitted yet")
            return 0
        cursor = 0
        while True:
            page = client.events(campaign, cursor=cursor)
            tally.apply_all(page["events"])
            cursor = page["next"]
            if cursor < page["total"]:
                continue  # drain the backlog before rendering
            status = client.status(campaign)
            frame(render_top(tally, status=status, now=_time.time()))
            if args.once or (page["complete"] and tally.ended):
                return 0
            if deadline is not None and _time.monotonic() > deadline:
                raise SystemExit(f"error: campaign {campaign} "
                                 f"incomplete after {args.timeout:g}s")
            _time.sleep(args.interval)
    except DispatchError as exc:
        raise SystemExit(f"error: {exc}")
    except KeyboardInterrupt:
        return 130


def _cmd_canonicalize(args) -> int:
    from repro.dist.protocol import canonical_log_text

    text = canonical_log_text(load_records(args.log,
                                           tolerate_torn_tail=True))
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        return args.handler(args)
    except PlanError as exc:  # e.g. --kernels or --invocation it lacks
        raise SystemExit(f"error: {exc}")
    except BrokenPipeError:
        # stdout went away mid-write (`gpufi status --follow | head`):
        # a normal way to stop a stream, not an error.  Detach stdout
        # so interpreter shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
