"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main workflows:

* ``report``   — regenerate every paper table/figure.
* ``release``  — write the pseudo-anonymised dataset (Appendix C).
* ``casestudy``— run the §6 active malware investigation.
* ``mine``     — cluster the dataset back into campaigns.
* ``figures``  — export plot-ready CSVs for the figures.
* ``stats``    — run the pipeline and print its telemetry (spans,
  per-service request/retry/backoff counters, run counters). With
  ``--epochs``/``--epoch-hours`` the run is an in-memory incremental
  ingestion and the summary gains the per-epoch Stream table.
* ``watch``    — continuous incremental ingestion: run N epochs over a
  durable stream directory (``repro.stream``), printing the per-epoch
  table and a final stream fingerprint.
* ``ingest``   — run one (or more) follow-on epochs against an existing
  stream directory.
* ``serve``    — drive the overload-safe report-intake service
  (``repro.serve``) under a deterministic simulated load: bounded
  queue, per-reporter rate limits, load shedding, degraded modes, and
  (with ``--serve-dir``) a durable exactly-once session.
* ``investigate`` — run a declarative playbook over every URL-bearing
  record as an investigation fleet (``repro.investigate``): funnel
  navigation through the simulated web hosts, per-campaign evidence
  packages, and (with ``--invest-dir``) a durable charged phase.
* ``resume DIR`` — finish a killed durable run of any kind
  (``--checkpoint-dir``, ``--stream-dir``, ``--serve-dir`` or
  ``--invest-dir``): the directory's manifest names the kind and the
  command line to replay (:mod:`repro.durable`).

Every command accepts ``--trace-out PATH`` to dump the run's full trace
and metrics as JSON (``--trace-format chrome`` writes Chrome
trace-event JSON instead, openable in Perfetto), and emits stage-level
progress lines on stderr (suppress with ``--quiet``) so long runs are
not mute. Pass ``--checkpoint-dir DIR`` to journal the run for crash
recovery (and ``--crash-at SERVICE:INDEX`` to inject a hard crash for
testing it). ``--workers N`` is the one execution knob: one worker runs
everything serially, more than one runs the pure enrichment precompute
in a pool of N worker processes — output is byte-identical either way.

The performance observatory rides on two more flags: ``--profile``
adds function-level profiling (cProfile + tracemalloc, observation
only — profiled runs are byte-identical to unprofiled ones) and
``--history-dir DIR`` appends a summarized record of every run to
``DIR/RUNS.jsonl``; ``repro stats --history --history-dir DIR`` then
renders the run-over-run trend tables, and ``scripts/perf_gate.py``
gates CI on them.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .analysis.campaign_mining import (
    campaign_summary_table,
    mine_campaigns,
)
from .analysis.figures import export_all_figures
from .analysis.malware import build_table19, family_distribution_table
from .analysis.report import generate_paper_report
from .checkpoint import CheckpointSession, resume_pipeline
from .core.active import run_case_study
from .core.anonymize import build_release, save_release
from .core.pipeline import PipelineRun, run_pipeline
from .durable import claim, policy_from_manifest, read_manifest, writable
from .errors import CheckpointError, ConfigurationError, SimulatedCrash
from .exec import ExecutionPolicy
from .faults import FAULT_PROFILES, CrashPoint, build_fault_plan
from .investigate import (
    PLAYBOOKS,
    fleet_fingerprint,
    run_investigation,
    write_packages,
)
from .obs import (
    FunctionProfiler,
    RunHistory,
    Telemetry,
    build_run_record,
    render_history,
    stderr_sink,
)
from .serve import (
    LOAD_PROFILES,
    IntakeService,
    LoadSpec,
    ServeConfig,
    serve_fingerprint,
)
from .stream import StreamSession
from .world.adversarial import HOSTILE_PROFILES
from .world.scenario import ScenarioConfig, build_world


def _parse_crash_at(spec: str) -> Tuple[str, int]:
    service, sep, index = spec.partition(":")
    if not sep or not service or not index:
        raise ConfigurationError(
            f"--crash-at wants SERVICE:CALL_INDEX (e.g. whois:5), "
            f"got {spec!r}"
        )
    try:
        at_call = int(index)
    except ValueError:
        raise ConfigurationError(
            f"--crash-at call index must be an integer, got {index!r}"
        )
    if at_call < 0:
        raise ConfigurationError(
            f"--crash-at call index must be >= 0, got {at_call}"
        )
    return service, at_call


#: Namespace entries a resume never replays: injected kills (a resumed
#: run does not crash again) and the output knobs `repro resume` takes.
_UNRECORDED = {"crash_at", "crash_epoch", "kill_at", "trace_out",
               "trace_format", "command"}

#: The attribute naming each command's durable directory; every other
#: command journals to ``--checkpoint-dir``.
_DIR_FLAGS = {"watch": "stream_dir", "ingest": "stream_dir",
              "serve": "serve_dir", "investigate": "invest_dir",
              "resume": "dir"}


def _durable_dir(args: argparse.Namespace) -> Optional[Path]:
    return getattr(args, _DIR_FLAGS.get(args.command, "checkpoint_dir"),
                   None)


def _resume_dir(args: argparse.Namespace) -> Optional[Path]:
    """The directory `repro resume` is finishing, or None for a fresh run."""
    return getattr(args, "_resume_dir", None)


def _recorded_argv(args: argparse.Namespace) -> List[str]:
    """The argv a durable manifest records; `repro resume` replays it
    to rebuild this exact command."""
    parser = build_parser()
    return (_option_argv(parser, args) + [args.command]
            + _option_argv(parser.commands[args.command], args))


def _option_argv(parser: argparse.ArgumentParser,
                 args: argparse.Namespace) -> List[str]:
    argv: List[str] = []
    for action in parser._actions:
        value = getattr(args, action.dest, None)
        if (action.dest in _UNRECORDED or action.default is argparse.SUPPRESS
                or value is None or value is False):
            continue
        if not action.option_strings:
            argv.append(str(value))
        elif value is True:
            argv.append(action.option_strings[0])
        else:
            argv += [action.option_strings[0], str(value)]
    return argv


def _execution_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """The run's execution policy; ``--workers`` alone picks the pool
    (serial for one worker, process above)."""
    return ExecutionPolicy(workers=args.workers, cache=not args.no_cache)


def _build_run(args: argparse.Namespace) -> PipelineRun:
    progress = None if args.quiet else stderr_sink
    resume_dir = _resume_dir(args)

    def _execute() -> PipelineRun:
        if resume_dir is not None:
            return resume_pipeline(
                resume_dir,
                telemetry_factory=lambda world: Telemetry.create(
                    clock=world.clock, progress=progress),
            )
        world = build_world(ScenarioConfig(seed=args.seed,
                                           n_campaigns=args.campaigns,
                                           hostile=args.hostile))
        telemetry = Telemetry.create(clock=world.clock, progress=progress)
        fault_plan = build_fault_plan(args.faults, seed=args.seed)
        if args.crash_at is not None:
            service, at_call = _parse_crash_at(args.crash_at)
            fault_plan = fault_plan.extended(CrashPoint(service, at_call))
        execution = _execution_policy(args)
        checkpoint = None
        if args.checkpoint_dir is not None:
            checkpoint = CheckpointSession.record(
                args.checkpoint_dir, argv=_recorded_argv(args))
        return run_pipeline(world, telemetry=telemetry,
                            fault_plan=fault_plan,
                            execution=execution, checkpoint=checkpoint)

    if not getattr(args, "profile", False):
        return _execute()
    profiler = FunctionProfiler()
    with profiler:
        run = _execute()
    run.telemetry.capture_function_profile(profiler.snapshot())
    return run


def _profiled_session_run(args: argparse.Namespace,
                          session: StreamSession,
                          action) -> None:
    """Run one stream action, function-profiled when ``--profile``."""
    if not getattr(args, "profile", False):
        action()
        return
    profiler = FunctionProfiler()
    with profiler:
        action()
    session.telemetry.capture_function_profile(profiler.snapshot())


def _run_config(args: argparse.Namespace) -> dict:
    """The run-shaping knobs whose digest decides comparability."""
    config = {
        "seed": args.seed,
        "campaigns": args.campaigns,
        "faults": args.faults,
        "workers": args.workers,
        "cache": not args.no_cache,
        "pool": _execution_policy(args).pool,
    }
    if args.hostile != "none":
        config["hostile"] = args.hostile
    epochs = getattr(args, "epochs", None)
    if epochs is not None:
        config["epochs"] = epochs
    epoch_hours = getattr(args, "epoch_hours", None)
    if epoch_hours is not None:
        config["epoch_hours"] = epoch_hours
    if getattr(args, "playbook", None) is not None:
        config["playbook"] = args.playbook
        if getattr(args, "sample", None) is not None:
            config["sample"] = args.sample
    if getattr(args, "load_profile", None) is not None:
        config["load_profile"] = args.load_profile
        config["requests"] = args.requests
        config["reporters"] = args.reporters
        config["queue_capacity"] = args.queue_capacity
        config["batch_size"] = args.batch_size
        config["drain_interval"] = args.drain_interval
    return config


def _append_history(args: argparse.Namespace, *, telemetry,
                    counts: dict) -> None:
    """Record the finished run in ``--history-dir``/RUNS.jsonl."""
    history_dir = getattr(args, "history_dir", None)
    if history_dir is None:
        return
    record = build_run_record(command=args.command,
                              config=_run_config(args),
                              telemetry=telemetry, counts=counts)
    stored = RunHistory(history_dir).append(record)
    if not getattr(args, "quiet", False):
        print(f"history: recorded run {stored['sequence']} in "
              f"{Path(history_dir) / 'RUNS.jsonl'}", file=sys.stderr)


def _dump_trace(args: argparse.Namespace, telemetry) -> int:
    """Write the trace when ``--trace-out`` was given (JSON or Chrome).

    Returns the command exit code: 0 normally, 1 when the dump path is
    unwritable (the run itself already succeeded, so fail cleanly)."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        return 0
    trace_format = getattr(args, "trace_format", "json")
    try:
        if trace_format == "chrome":
            telemetry.write_chrome_trace(trace_out)
        else:
            telemetry.write_json(trace_out)
    except OSError as exc:
        print(f"repro: error: cannot write trace to {trace_out}: {exc}",
              file=sys.stderr)
        return 1
    print(f"wrote {trace_format} trace to {trace_out}", file=sys.stderr)
    return 0


def _run_counts(run: PipelineRun) -> dict:
    counts = {
        "posts_seen": run.collection.posts_seen,
        "reports": len(run.collection.reports),
        "records": len(run.dataset),
        "gaps": len(run.enriched.gaps),
        "limitations": len(run.collection.limitations),
    }
    if run.curation_stats.quarantined:
        counts["quarantined"] = run.curation_stats.quarantined
    return counts


def _write_trace(args: argparse.Namespace, run: PipelineRun) -> int:
    """Finish a batch command: history record, then the trace dump."""
    _append_history(args, telemetry=run.telemetry, counts=_run_counts(run))
    return _dump_trace(args, run.telemetry)


def _cmd_report(args: argparse.Namespace) -> int:
    run = _build_run(args)
    report = generate_paper_report(run)
    print(report.render())
    return _write_trace(args, run)


def _cmd_release(args: argparse.Namespace) -> int:
    run = _build_run(args)
    rows = build_release(run.enriched)
    written = save_release(rows, args.output)
    print(f"wrote {written} pseudo-anonymised rows to {args.output}")
    return _write_trace(args, run)


def _cmd_casestudy(args: argparse.Namespace) -> int:
    run = _build_run(args)
    study = run_case_study(run.world, run.dataset,
                           sample_posts=args.sample)
    print(build_table19(study).to_text())
    print()
    print(family_distribution_table(study).to_text())
    return _write_trace(args, run)


def _cmd_mine(args: argparse.Namespace) -> int:
    run = _build_run(args)
    mined = mine_campaigns(run.annotated_dataset,
                           threshold=args.threshold)
    print(campaign_summary_table(mined, top=args.top).to_text())
    return _write_trace(args, run)


def _cmd_figures(args: argparse.Namespace) -> int:
    run = _build_run(args)
    written = export_all_figures(run.enriched, run.collection.reports,
                                 args.output)
    for name, rows in sorted(written.items()):
        print(f"{name}.csv: {rows} rows")
    return _write_trace(args, run)


def _cmd_stats(args: argparse.Namespace) -> int:
    if getattr(args, "history", False):
        records = RunHistory(args.history_dir).load()
        if not records:
            print(f"no run history in "
                  f"{Path(args.history_dir) / 'RUNS.jsonl'}")
            return 0
        print(render_history(records))
        return 0
    if (getattr(args, "epochs", None) is not None
            or getattr(args, "epoch_hours", None) is not None):
        session = _build_stream_session(args, stream_dir=None)
        _profiled_session_run(args, session, session.run)
        run = session.as_pipeline_run()
        epochs = f" epochs={session.state.committed_epochs}"
    else:
        run = _build_run(args)
        epochs = ""
    dataset = run.dataset
    hostile = (f" hostile={args.hostile}" if args.hostile != "none" else "")
    quarantined = (f" quarantined={run.curation_stats.quarantined}"
                   if run.curation_stats.quarantined else "")
    print(f"seed={args.seed} campaigns={args.campaigns} "
          f"faults={args.faults} "
          f"workers={args.workers} "
          f"pool={_execution_policy(args).pool} "
          f"cache={'off' if args.no_cache else 'on'}"
          f"{hostile}{epochs} "
          f"reports={len(run.collection.reports)} records={len(dataset)} "
          f"limitations={len(run.collection.limitations)} "
          f"gaps={len(run.enriched.gaps)}{quarantined}")
    print()
    print(run.telemetry.summary())
    gapped = run.enriched.gaps_by_service()
    if gapped:
        print()
        print("Enrichment gaps:")
        for service in sorted(gapped):
            kinds: dict = {}
            for gap in gapped[service]:
                kinds[gap.kind] = kinds.get(gap.kind, 0) + 1
            detail = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            print(f"  {service}: {len(gapped[service])} ({detail})")
    return _write_trace(args, run)


def _telemetry_factory(args: argparse.Namespace):
    progress = None if args.quiet else stderr_sink
    return lambda world: Telemetry.create(clock=world.clock,
                                          progress=progress)


def _build_stream_session(args: argparse.Namespace,
                          stream_dir: Optional[Path]) -> StreamSession:
    crash = (_parse_crash_at(args.crash_at)
             if getattr(args, "crash_at", None) is not None else None)
    epochs = getattr(args, "epochs", None)
    epoch_hours = getattr(args, "epoch_hours", None)
    if epochs is None and epoch_hours is None:
        epochs = 4
    return StreamSession.create(
        ScenarioConfig(seed=args.seed, n_campaigns=args.campaigns,
                       hostile=args.hostile),
        epochs=epochs,
        epoch_hours=epoch_hours,
        fault_plan=build_fault_plan(args.faults, seed=args.seed),
        execution=_execution_policy(args),
        telemetry_factory=_telemetry_factory(args),
        stream_dir=stream_dir,
        crash_at=crash,
        crash_epoch=getattr(args, "crash_epoch", None),
        argv=_recorded_argv(args),
    )


def _print_stream(args: argparse.Namespace,
                  session: StreamSession) -> int:
    state = session.state
    scenario = session.world.config
    quarantined = (f" quarantined={state.curation_stats.quarantined}"
                   if state.curation_stats.quarantined else "")
    print(f"seed={scenario.seed} campaigns={scenario.n_campaigns} "
          f"faults={session.fault_profile} "
          f"workers={session.policy.workers} "
          f"pool={session.policy.pool} "
          f"cache={'on' if session.policy.cache else 'off'} "
          f"epochs={state.committed_epochs}/{session.scheduler.target} "
          f"reports={len(state.collection.reports)} "
          f"records={len(state.dataset)} "
          f"limitations={len(state.collection.limitations)} "
          f"gaps={len(state.gaps)}{quarantined}")
    print()
    print(session.telemetry.summary())
    print()
    print(f"stream fingerprint={state.fingerprint()}")
    counts = {
        "posts_seen": getattr(state.collection, "posts_seen", 0),
        "reports": len(state.collection.reports),
        "records": len(state.dataset),
        "gaps": len(state.gaps),
        "limitations": len(state.collection.limitations),
    }
    if state.curation_stats.quarantined:
        counts["quarantined"] = state.curation_stats.quarantined
    _append_history(args, telemetry=session.telemetry, counts=counts)
    return _dump_trace(args, session.telemetry)


def _cmd_watch(args: argparse.Namespace) -> int:
    if _resume_dir(args) is not None:
        session = StreamSession.load(
            _resume_dir(args), telemetry_factory=_telemetry_factory(args))
    else:
        session = _build_stream_session(args, stream_dir=args.stream_dir)
    _profiled_session_run(args, session, session.run)
    return _print_stream(args, session)


def _cmd_ingest(args: argparse.Namespace) -> int:
    session = StreamSession.load(
        args.stream_dir, telemetry_factory=_telemetry_factory(args))
    _profiled_session_run(args, session,
                          lambda: session.ingest(args.epochs))
    return _print_stream(args, session)


def _build_serve(args: argparse.Namespace) -> IntakeService:
    if _resume_dir(args) is not None:
        return IntakeService.load(
            _resume_dir(args), telemetry_factory=_telemetry_factory(args))
    return IntakeService.create(
        ScenarioConfig(seed=args.seed, n_campaigns=args.campaigns,
                       hostile=args.hostile),
        load=LoadSpec(profile=args.load_profile, requests=args.requests,
                      reporters=args.reporters, seed=args.seed),
        config=ServeConfig(queue_capacity=args.queue_capacity,
                           batch_size=args.batch_size,
                           drain_interval=args.drain_interval,
                           commit_every=args.commit_every),
        fault_plan=build_fault_plan(args.faults, seed=args.seed),
        execution=_execution_policy(args),
        telemetry_factory=_telemetry_factory(args),
        serve_dir=args.serve_dir,
        kill_at=args.kill_at,
        argv=_recorded_argv(args),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    service = _build_serve(args)
    service.run()
    stats = service.stats()
    load = stats["load"]
    queue = stats["queue"]
    latency = stats["latency"]
    quarantined = (f" quarantined={stats['quarantined']}"
                   if stats.get("quarantined") else "")
    print(f"seed={service.world.config.seed} "
          f"campaigns={service.world.config.n_campaigns} "
          f"faults={service.fault_profile} "
          f"workers={service.policy.workers} "
          f"pool={service.policy.pool} "
          f"profile={load['profile']} "
          f"submitted={stats['submitted']} accepted={stats['accepted']} "
          f"shed={stats['shed']} processed={stats['processed']} "
          f"timed_out={stats['timed_out']} records={stats['records']}"
          f"{quarantined} "
          f"mode={stats['mode']}")
    print()
    print(service.telemetry.summary())
    print()
    print(f"queue depth max={queue['max_depth']}/{queue['capacity']} "
          f"p50={queue.get('p50')} p99={queue.get('p99')}")
    p50 = latency.get("p50")
    p99 = latency.get("p99")
    print(f"intake latency sim-seconds "
          f"p50={p50 if p50 is None else round(p50, 3)} "
          f"p99={p99 if p99 is None else round(p99, 3)}")
    digest = hashlib.sha256(
        serve_fingerprint(service).encode("utf-8")).hexdigest()
    print(f"serve fingerprint={digest}")
    counts = {
        "submitted": stats["submitted"],
        "accepted": stats["accepted"],
        "shed": stats["shed"],
        "processed": stats["processed"],
        "timed_out": stats["timed_out"],
        "records": stats["records"],
        "gaps": stats["gaps"],
    }
    if stats.get("quarantined"):
        counts["quarantined"] = stats["quarantined"]
    _append_history(args, telemetry=service.telemetry, counts=counts)
    return _dump_trace(args, service.telemetry)


def _cmd_investigate(args: argparse.Namespace) -> int:
    progress = None if args.quiet else stderr_sink
    telemetry = Telemetry.create(progress=progress)
    policy = _execution_policy(args)
    outcome = run_investigation(
        ScenarioConfig(seed=args.seed, n_campaigns=args.campaigns,
                       hostile=args.hostile),
        playbook=args.playbook,
        sample=args.sample,
        workers=policy.workers,
        pool_kind=policy.pool,
        fault_profile=args.faults,
        fault_seed=args.seed,
        invest_dir=_resume_dir(args) or args.invest_dir,
        resume=_resume_dir(args) is not None,
        kill_at=args.kill_at,
        commit_every=args.commit_every,
        telemetry=telemetry,
        argv=_recorded_argv(args),
    )
    report = outcome.report
    world = outcome.world
    fault_profile = (outcome.session.fault_profile
                     if outcome.session is not None else args.faults)
    print(f"seed={world.config.seed} campaigns={world.config.n_campaigns} "
          f"faults={fault_profile} "
          f"workers={policy.workers} "
          f"pool={policy.pool} "
          f"playbook={report.playbook} "
          f"investigated={report.investigated} "
          f"packages={len(report.packages)} "
          f"payloads={len(report.payloads)} "
          f"scans={len(report.verdicts)} scan_gaps={report.scan_gaps}")
    print()
    print(telemetry.summary())
    evidence_dir = getattr(args, "evidence_dir", None)
    if evidence_dir is not None:
        manifest_path = write_packages(evidence_dir, report.packages)
        print()
        print(f"wrote {len(report.packages)} evidence package(s) to "
              f"{evidence_dir} (manifest: {manifest_path})")
    digest = hashlib.sha256(
        fleet_fingerprint(report, world).encode("utf-8")).hexdigest()
    print()
    print(f"investigate fingerprint={digest}")
    counts = {
        "investigated": report.investigated,
        "evidence_packages": len(report.packages),
        "payloads": len(report.payloads),
        "scans": len(report.verdicts),
        "scan_gaps": report.scan_gaps,
        "androzoo_hits": report.androzoo_hits,
    }
    _append_history(args, telemetry=telemetry, counts=counts)
    return _dump_trace(args, telemetry)


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    """Run-shaping flags accepted after the subcommand too (``repro stats
    --seed 7``); SUPPRESS keeps root-level values when absent."""
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="world seed")
    sub.add_argument("--campaigns", type=int, default=argparse.SUPPRESS,
                     help="number of simulated campaigns")
    sub.add_argument("--trace-out", type=Path, default=argparse.SUPPRESS,
                     help="write the run's trace + metrics JSON here")
    sub.add_argument("--quiet", action="store_true",
                     default=argparse.SUPPRESS,
                     help="suppress stage progress lines on stderr")
    sub.add_argument("--faults", choices=FAULT_PROFILES,
                     default=argparse.SUPPRESS,
                     help="chaos profile to inject during the run")
    sub.add_argument("--hostile", choices=HOSTILE_PROFILES,
                     default=argparse.SUPPRESS,
                     help="adversarial reporter profile for the world")
    sub.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                     help="worker processes for the enrichment "
                          "precompute (1 = serial)")
    sub.add_argument("--no-cache", action="store_true",
                     default=argparse.SUPPRESS,
                     help="disable the per-(service, subject) "
                          "enrichment cache")
    sub.add_argument("--checkpoint-dir", type=Path,
                     default=argparse.SUPPRESS,
                     help="journal the run here for crash recovery")
    sub.add_argument("--crash-at", metavar="SERVICE:CALL_INDEX",
                     default=argparse.SUPPRESS,
                     help="inject a hard crash at the Nth call to a "
                          "service (testing aid for checkpointing)")
    sub.add_argument("--trace-format", choices=("json", "chrome"),
                     default=argparse.SUPPRESS,
                     help="format for --trace-out (chrome = Chrome "
                          "trace-event JSON, openable in Perfetto)")
    sub.add_argument("--profile", action="store_true",
                     default=argparse.SUPPRESS,
                     help="add function-level profiling (cProfile + "
                          "tracemalloc); observation only, results are "
                          "byte-identical")
    sub.add_argument("--history-dir", type=Path,
                     default=argparse.SUPPRESS,
                     help="append a summarized run record to "
                          "DIR/RUNS.jsonl for trend tracking")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fishing-for-Smishing reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=7726,
                        help="world seed (default 7726)")
    parser.add_argument("--campaigns", type=int, default=120,
                        help="number of simulated campaigns (default 120)")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write the run's trace + metrics JSON here")
    parser.add_argument("--quiet", action="store_true", default=False,
                        help="suppress stage progress lines on stderr")
    parser.add_argument("--faults", choices=FAULT_PROFILES, default="none",
                        help="chaos profile to inject during the run "
                             "(default: none)")
    parser.add_argument("--hostile", choices=HOSTILE_PROFILES,
                        default="none",
                        help="adversarial reporter profile: mutate a "
                             "seeded fraction of reports into hostile "
                             "shapes (noisy) plus coordinated floods and "
                             "poison clusters (poison); clean results "
                             "are provably unaffected (default: none)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the enrichment "
                             "precompute (default 1 runs serially; more "
                             "runs a process pool; any count is "
                             "byte-identical to serial)")
    parser.add_argument("--no-cache", action="store_true", default=False,
                        help="disable the per-(service, subject) "
                             "enrichment cache (on by default; caching "
                             "never changes results)")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="journal the run here for crash recovery "
                             "(resume with `repro resume DIR`)")
    parser.add_argument("--crash-at", metavar="SERVICE:CALL_INDEX",
                        default=None,
                        help="inject a hard crash at the Nth call to a "
                             "service (testing aid for checkpointing)")
    parser.add_argument("--trace-format", choices=("json", "chrome"),
                        default="json",
                        help="format for --trace-out (default json; "
                             "chrome = Chrome trace-event JSON, openable "
                             "in Perfetto / chrome://tracing)")
    parser.add_argument("--profile", action="store_true", default=False,
                        help="add function-level profiling (cProfile + "
                             "tracemalloc) to the telemetry; observation "
                             "only — profiled runs are byte-identical")
    parser.add_argument("--history-dir", type=Path, default=None,
                        help="append a summarized record of the run to "
                             "DIR/RUNS.jsonl (view trends with "
                             "`repro stats --history`)")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for _recorded_argv

    report = sub.add_parser("report", help="regenerate all tables/figures")
    report.set_defaults(func=_cmd_report)
    _add_run_options(report)

    release = sub.add_parser("release", help="write the anonymised dataset")
    release.add_argument("output", type=Path, nargs="?",
                         default=Path("smishing_release.jsonl"))
    release.set_defaults(func=_cmd_release)
    _add_run_options(release)

    casestudy = sub.add_parser("casestudy",
                               help="run the §6 malware case study")
    casestudy.add_argument("--sample", type=int, default=200)
    casestudy.set_defaults(func=_cmd_casestudy)
    _add_run_options(casestudy)

    mine = sub.add_parser("mine", help="cluster records into campaigns")
    mine.add_argument("--threshold", type=float, default=0.7)
    mine.add_argument("--top", type=int, default=10)
    mine.set_defaults(func=_cmd_mine)
    _add_run_options(mine)

    figures = sub.add_parser("figures", help="export figure CSVs")
    figures.add_argument("output", type=Path, nargs="?",
                         default=Path("figures"))
    figures.set_defaults(func=_cmd_figures)
    _add_run_options(figures)

    stats = sub.add_parser(
        "stats", help="run the pipeline and print its telemetry"
    )
    stats.add_argument("--epochs", type=int, default=None,
                       help="run an in-memory incremental ingestion over "
                            "this many epochs instead of one batch run")
    stats.add_argument("--epoch-hours", type=float, default=None,
                       help="epoch window width in hours (with --epochs)")
    stats.add_argument("--history", action="store_true", default=False,
                       help="render the run-history trend tables from "
                            "--history-dir instead of running the pipeline")
    stats.set_defaults(func=_cmd_stats)
    _add_run_options(stats)

    watch = sub.add_parser(
        "watch", help="continuous incremental ingestion over epochs"
    )
    watch.add_argument("--epochs", type=int, default=None,
                       help="how many epochs to run (default 4, or the "
                            "full plan when --epoch-hours is given)")
    watch.add_argument("--epoch-hours", type=float, default=None,
                       help="epoch window width in hours (default: divide "
                            "the global window into --epochs equal slices)")
    watch.add_argument("--stream-dir", type=Path, default=None,
                       help="persist watermarks, dedup ledger, and merged "
                            "state here (resumable with `repro resume DIR`)")
    watch.add_argument("--crash-epoch", type=int, default=None,
                       help="which epoch --crash-at applies to (default 0)")
    watch.set_defaults(func=_cmd_watch)
    _add_run_options(watch)

    ingest = sub.add_parser(
        "ingest", help="run follow-on epochs against a stream directory"
    )
    ingest.add_argument("--stream-dir", type=Path, required=True,
                        help="an existing stream directory (`repro watch "
                             "--stream-dir`)")
    ingest.add_argument("--epochs", type=int, default=1,
                        help="how many additional epochs to ingest "
                             "(default 1)")
    ingest.add_argument("--trace-out", type=Path, default=argparse.SUPPRESS,
                        help="write the run's trace + metrics JSON here")
    ingest.add_argument("--trace-format", choices=("json", "chrome"),
                        default=argparse.SUPPRESS,
                        help="format for --trace-out")
    ingest.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress stage progress lines on stderr")
    ingest.add_argument("--profile", action="store_true",
                        default=argparse.SUPPRESS,
                        help="add function-level profiling to the epochs")
    ingest.add_argument("--history-dir", type=Path,
                        default=argparse.SUPPRESS,
                        help="append a summarized run record to "
                             "DIR/RUNS.jsonl")
    ingest.set_defaults(func=_cmd_ingest)

    serve = sub.add_parser(
        "serve",
        help="drive the overload-safe intake service under simulated load",
    )
    serve.add_argument("--load-profile", choices=LOAD_PROFILES,
                       default="burst",
                       help="arrival pattern for the simulated reporters "
                            "(default burst)")
    serve.add_argument("--requests", type=int, default=2000,
                       help="how many report submissions to simulate "
                            "(default 2000)")
    serve.add_argument("--reporters", type=int, default=500,
                       help="distinct reporter population, Pareto-skewed "
                            "(default 500)")
    serve.add_argument("--queue-capacity", type=int, default=512,
                       help="bounded ingest queue capacity (default 512)")
    serve.add_argument("--batch-size", type=int, default=32,
                       help="reports drained per processing batch "
                            "(default 32)")
    serve.add_argument("--drain-interval", type=float, default=20.0,
                       help="sim-seconds between batch drains (default 20)")
    serve.add_argument("--commit-every", type=int, default=500,
                       help="arrivals between durable commits with "
                            "--serve-dir (default 500)")
    serve.add_argument("--serve-dir", type=Path, default=None,
                       help="persist the session here (resumable with "
                            "`repro resume DIR`)")
    serve.add_argument("--kill-at", type=int, default=None,
                       help="inject a hard crash before this arrival index "
                            "(testing aid for the resume protocol)")
    serve.set_defaults(func=_cmd_serve)
    _add_run_options(serve)

    investigate = sub.add_parser(
        "investigate",
        help="run a playbook-driven investigation fleet over the dataset",
    )
    investigate.add_argument("--playbook", choices=sorted(PLAYBOOKS),
                             default="full-funnel",
                             help="which playbook the fleet interprets "
                                  "(default full-funnel; case-study is "
                                  "the §6 protocol)")
    investigate.add_argument("--sample", type=int, default=None,
                             help="investigate only the first N "
                                  "URL-bearing records (default: all)")
    investigate.add_argument("--invest-dir", type=Path, default=None,
                             help="persist the charged phase here "
                                  "(resumable with `repro resume DIR`)")
    investigate.add_argument("--kill-at", type=int, default=None,
                             help="inject a hard crash before this scan "
                                  "index (testing aid for the resume "
                                  "protocol)")
    investigate.add_argument("--commit-every", type=int, default=1,
                             help="scans between durable commits with "
                                  "--invest-dir (default 1)")
    investigate.add_argument("--evidence-dir", type=Path, default=None,
                             help="write per-campaign evidence packages "
                                  "(content-hashed JSON) here")
    investigate.set_defaults(func=_cmd_investigate)
    _add_run_options(investigate)

    resume = sub.add_parser(
        "resume", help="finish a killed batch, watch, serve or "
                       "investigate run from its durable directory"
    )
    resume.add_argument("dir", type=Path, nargs="?", default=None,
                        metavar="DIR",
                        help="the --checkpoint-dir, --stream-dir, "
                             "--serve-dir or --invest-dir of the run")
    resume.add_argument("--trace-out", type=Path, default=argparse.SUPPRESS,
                        help="write the resumed run's trace JSON here")
    resume.add_argument("--trace-format", choices=("json", "chrome"),
                        default=argparse.SUPPRESS,
                        help="format for --trace-out")
    resume.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress stage progress lines on stderr")
    resume.add_argument("--profile", action="store_true",
                        default=argparse.SUPPRESS,
                        help="add function-level profiling to the "
                             "resumed run")
    resume.add_argument("--history-dir", type=Path,
                        default=argparse.SUPPRESS,
                        help="append a summarized run record to "
                             "DIR/RUNS.jsonl")
    resume.set_defaults(func=_cmd_resume)
    return parser


def _validate_args(args: argparse.Namespace) -> None:
    """Fail fast on bad run-shaping inputs, before any work starts."""
    if getattr(args, "workers", 1) < 1:
        raise ConfigurationError(
            f"--workers must be >= 1, got {args.workers}"
        )
    if getattr(args, "crash_at", None) is not None:
        _parse_crash_at(args.crash_at)
    if getattr(args, "epochs", None) is not None and args.epochs < 1:
        raise ConfigurationError(f"--epochs must be >= 1, got {args.epochs}")
    if (getattr(args, "trace_format", "json") == "chrome"
            and getattr(args, "trace_out", None) is None):
        raise ConfigurationError(
            "--trace-format chrome needs --trace-out PATH to write to"
        )
    history_dir = getattr(args, "history_dir", None)
    if getattr(args, "history", False) and history_dir is None:
        raise ConfigurationError(
            "stats --history wants --history-dir DIR to read from"
        )
    if history_dir is not None:
        if history_dir.exists() and not history_dir.is_dir():
            raise ConfigurationError(
                f"--history-dir {history_dir} exists and is not a directory"
            )
        if not getattr(args, "history", False) and not writable(history_dir):
            raise ConfigurationError(
                f"--history-dir {history_dir} is not writable"
            )
    if args.command == "investigate":
        if getattr(args, "sample", None) is not None and args.sample < 1:
            raise ConfigurationError(
                f"investigate --sample must be >= 1, got {args.sample}"
            )
        if args.commit_every < 1:
            raise ConfigurationError(
                f"investigate --commit-every must be >= 1, "
                f"got {args.commit_every}"
            )
        evidence_dir = args.evidence_dir
        if evidence_dir is not None and not writable(evidence_dir):
            raise ConfigurationError(
                f"--evidence-dir {evidence_dir} is not writable"
            )
    if (args.command in ("watch", "ingest")
            and getattr(args, "checkpoint_dir", None) is not None):
        raise ConfigurationError(
            f"`repro {args.command}` journals per-epoch under its "
            f"--stream-dir; --checkpoint-dir does not apply"
        )
    directory = _durable_dir(args)
    if getattr(args, "kill_at", None) is not None and directory is None:
        flag = "--" + _DIR_FLAGS[args.command].replace("_", "-")
        raise ConfigurationError(
            f"{args.command} --kill-at wants {flag} DIR (a kill without a "
            f"durable session loses the run)"
        )
    if directory is not None and args.command not in ("ingest", "resume"):
        claim(directory, create=False)


def _cmd_resume(args: argparse.Namespace) -> int:
    """Finish the killed run in ``DIR``: its manifest names the kind and
    the argv to replay; the kind's command then reopens the directory."""
    if args.dir is None:
        raise ConfigurationError(
            "resume wants the DIR of a killed durable run")
    manifest = read_manifest(args.dir)
    if not manifest["argv"]:
        raise ConfigurationError(
            f"the {manifest['kind']} run at {args.dir} was not started "
            f"from the CLI; resume it through the library"
        )
    new_args = build_parser().parse_args(manifest["argv"])
    new_args._resume_dir = args.dir
    for flag in ("quiet", "profile"):
        if getattr(args, flag, False):
            setattr(new_args, flag, True)
    for option in ("trace_out", "history_dir"):
        if getattr(args, option, None) is not None:
            setattr(new_args, option, getattr(args, option))
    if getattr(args, "trace_format", "json") != "json":
        new_args.trace_format = args.trace_format
    if not new_args.quiet:
        print(f"resuming {manifest['kind']} run from {args.dir} "
              f"({policy_from_manifest(manifest).describe()})",
              file=sys.stderr)
    return new_args.func(new_args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        return args.func(args)
    except (ConfigurationError, CheckpointError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except SimulatedCrash as exc:
        print(f"repro: crashed: {exc}", file=sys.stderr)
        directory = _durable_dir(args)
        if directory is not None and args.command != "resume":
            print(f"repro: resume with: repro resume {directory}",
                  file=sys.stderr)
        return 75


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
