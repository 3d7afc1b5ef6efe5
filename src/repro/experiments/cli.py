"""Command-line runner for the paper's experiments.

Regenerate any table or figure of the paper without pytest:

    python -m repro.experiments.cli list
    python -m repro.experiments.cli fig8
    python -m repro.experiments.cli table2 --scale full -o out/
    python -m repro.experiments.cli all

Run one fully instrumented session (the observability bus):

    python -m repro.experiments.cli trace --setting 2-2 --seed 7 \\
        --duration 60 --trace-out events.jsonl --timeseries curves.csv

Run a multi-session campaign (N concurrent sessions, one bottleneck):

    python -m repro.experiments.cli campaign --sessions 50 \\
        --churn 0.5 --queue-discipline red --duration 60

Campaign QoE health (rollups, flight recorder, exporters):

    python -m repro.experiments.cli campaign --sessions 50 \\
        --churn 0.5 --record-trigger stall:1.0 --record-out dumps/ \\
        --prometheus-out health.prom --dashboard-out health.html

Builder targets run under a campaign telemetry session
(:mod:`repro.telemetry`): a summary table prints at the end of every
run (disable with --no-telemetry-summary), ``--telemetry-out``
streams the span/metric log as JSONL, and ``--trace-chrome`` writes a
Chrome ``trace_event`` file loadable in Perfetto:

    python -m repro.experiments.cli fig8 --workers 4 \\
        --telemetry-out telemetry.jsonl --trace-chrome trace.json

Scale profiles (also via $REPRO_SCALE): quick (default), full, paper.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro import telemetry
from repro.experiments import cache as result_cache
from repro.experiments import parallel
from repro.experiments.configs import ALL_SETTINGS
from repro.experiments.figures import BUILDERS
from repro.experiments.optional_deps import (EXIT_MISSING_DEPENDENCY,
                                             MissingDependencyError)
from repro.experiments.report import save_output
from repro.experiments.runner import scale_profile
from repro.model import meanfield
from repro.sim.queueing import QUEUE_DISCIPLINES


def _run_trace(args) -> int:
    """Run one instrumented session and report what the bus saw."""
    from repro.core.session import StreamingSession

    setting = dataclasses.replace(
        ALL_SETTINGS[args.setting],
        queue_discipline=args.queue_discipline)
    session = StreamingSession(
        mu=setting.mu, duration_s=args.duration,
        paths=setting.path_configs(), scheme=args.scheme,
        shared_bottleneck=setting.shared_bottleneck, seed=args.seed,
        queue_discipline=setting.queue_discipline)
    counters = session.attach_counters()
    jsonl = session.attach_jsonl(args.trace_out) \
        if args.trace_out else None
    sampler = session.attach_timeseries() if args.timeseries else None

    # Wall clock here times the *solver* for the operator; it never
    # feeds simulated time or results.
    started = time.time()  # repro-lint: disable=RL001 -- progress timer
    result = session.run()
    elapsed = time.time() - started  # repro-lint: disable=RL001 -- progress timer

    if jsonl is not None:
        jsonl.close()
        print(f"[wrote {jsonl.lines_written} events to "
              f"{args.trace_out}]")
    if sampler is not None:
        with open(args.timeseries, "w", encoding="utf-8") as handle:
            rows = sampler.to_csv(handle)
        print(f"[wrote {rows} samples to {args.timeseries}]")
    print(f"setting {setting.name} scheme={args.scheme} "
          f"queue={setting.queue_discipline} "
          f"seed={args.seed} duration={args.duration:g}s "
          f"({elapsed:.1f}s wall)")
    print(f"delivered {len(result.arrivals)} "
          f"of {result.total_packets} packets; "
          f"path shares {[round(s, 3) for s in result.path_shares]}")
    print("probe event counts:")
    print(counters.summary())
    return 0


def _run_meanfield(args) -> int:
    """Solve one mean-field campaign and report population metrics."""
    from repro.experiments.campaign import meanfield_spec_for_setting

    setting = dataclasses.replace(
        ALL_SETTINGS[args.setting],
        queue_discipline=args.queue_discipline,
        n_sessions=args.sessions, backend="meanfield")
    spec = meanfield_spec_for_setting(setting, args.duration)

    started = time.time()  # repro-lint: disable=RL001 -- progress timer
    solution = meanfield.solve_meanfield(spec)
    elapsed = time.time() - started  # repro-lint: disable=RL001 -- progress timer

    print(f"mean-field campaign setting {setting.name} scheme=dmp "
          f"queue={setting.queue_discipline} "
          f"sessions={args.sessions} duration={args.duration:g}s")
    print(f"solved in {elapsed:.2f}s wall (cost independent of N); "
          f"mean drop prob {solution.mean_drop_prob:.4f}, "
          f"mean queue {solution.mean_queue_pkts:.1f} pkts")
    print("late fraction (tau: population value — the limit "
          "distribution is degenerate):")
    for tau in (4.0, 6.0, 8.0, 10.0):
        print(f"  {tau:g}s: {solution.late_fraction(tau):.4f}")
    return 0


def _run_campaign(args) -> int:
    """Run one multi-session campaign and report population metrics."""
    import json as json_module

    from repro.core.campaign import MultiSessionCampaign
    from repro.obs import export as health_export
    from repro.obs.recorder import parse_trigger

    setting = dataclasses.replace(
        ALL_SETTINGS[args.setting],
        queue_discipline=args.queue_discipline)
    path = setting.path_configs()[0]
    campaign = MultiSessionCampaign(
        mu=setting.mu, duration_s=args.duration,
        n_sessions=args.sessions,
        bottleneck=path.bottleneck,
        paths_per_session=len(setting.configs),
        scheme=args.scheme,
        queue_discipline=setting.queue_discipline,
        seed=args.seed, churn_rate=args.churn,
        n_ftp=path.n_ftp, n_http=path.n_http,
        service_batch=args.service_batch)
    counters = campaign.attach_counters()
    jsonl = campaign.attach_jsonl(args.trace_out) \
        if args.trace_out else None
    # Recorder before aggregator: subscribe order is delivery order,
    # so the stall-causing arrival is already in the ring when the
    # aggregator's nested health.stall emission fires the trigger.
    recorder = campaign.attach_recorder(
        triggers=[parse_trigger(spec)
                  for spec in args.record_trigger]) \
        if args.record_trigger else None
    want_health = bool(args.health_out or args.prometheus_out
                       or args.dashboard_out or recorder is not None)
    aggregator = campaign.attach_health(tau=args.health_tau) \
        if want_health else None

    started = time.time()  # repro-lint: disable=RL001 -- progress timer
    result = campaign.run()
    elapsed = time.time() - started  # repro-lint: disable=RL001 -- progress timer

    if jsonl is not None:
        jsonl.close()
        print(f"[wrote {jsonl.lines_written} events to "
              f"{args.trace_out}]")
    rollup = aggregator.rollup() if aggregator is not None else None
    if rollup is not None and args.health_out:
        health_export.write_text(
            args.health_out,
            json_module.dumps(rollup, indent=1) + "\n")
        print(f"[wrote health rollup to {args.health_out}]")
    if rollup is not None and args.prometheus_out:
        health_export.write_text(
            args.prometheus_out,
            health_export.prometheus_exposition(rollup))
        print(f"[wrote Prometheus exposition to "
              f"{args.prometheus_out}]")
    if rollup is not None and args.dashboard_out:
        health_export.write_text(
            args.dashboard_out,
            health_export.html_dashboard(
                rollup, title=f"Campaign {args.setting} "
                              f"({args.sessions} sessions)"))
        print(f"[wrote dashboard to {args.dashboard_out}]")
    if recorder is not None:
        print("flight recorder:")
        print(recorder.summary())
        if recorder.frozen:
            paths = recorder.dump(args.record_out)
            print(f"[wrote {len(paths)} trigger window(s) to "
                  f"{args.record_out}/]")
    arrival = (f"churn rate {args.churn:g}/s" if args.churn > 0
               else "staggered starts")
    rate = result.events_processed / elapsed if elapsed > 0 \
        else float("inf")
    print(f"campaign setting {setting.name} scheme={args.scheme} "
          f"queue={setting.queue_discipline} seed={args.seed} "
          f"sessions={args.sessions} ({arrival}) "
          f"duration={args.duration:g}s")
    print(f"{result.events_processed} events in {elapsed:.1f}s wall "
          f"({rate:,.0f} events/s)")
    received = sum(s.received for s in result.sessions)
    total = sum(s.total_packets for s in result.sessions)
    print(f"delivered {received} of {total} packets across "
          f"{result.n_sessions} sessions; bottleneck drop fraction "
          f"{result.bottleneck_drop_fraction:.4f}")
    print("late fraction across sessions (tau: mean/p50/p95/p99):")
    for tau in (4.0, 6.0, 8.0, 10.0):
        pop = result.population(tau)
        print(f"  {tau:g}s: {pop['mean']:.4f} / {pop['p50']:.4f} / "
              f"{pop['p95']:.4f} / {pop['p99']:.4f}")
    if rollup is not None:
        print(health_export.health_table(rollup, max_rows=10))
    print("probe event counts:")
    print(counters.summary())
    return 0


def _report_missing_dependency(exc: MissingDependencyError) -> int:
    """The shared error path for optional features: one message shape,
    one exit code, one install hint — regardless of which target hit
    the missing package."""
    print(f"error: {exc}", file=sys.stderr)
    print(exc.hint(), file=sys.stderr)
    return EXIT_MISSING_DEPENDENCY


def _run_verify(args, parser) -> int:
    """Certify a worst-case late-packet envelope and show the trace."""
    import math

    from repro.verify import (VerifySpec, PathBudget, compare_schemes,
                              format_trace, max_late_envelope,
                              max_starvation, resolve_engine,
                              write_trace_jsonl)

    if args.paths < 1:
        parser.error("--paths must be >= 1")
    if args.mu_round < 1:
        parser.error("--mu-round must be >= 1")
    if args.rounds <= args.tau:
        parser.error("--rounds must exceed --tau")
    rate = max(1, math.ceil(args.ratio * args.mu_round / args.paths))
    slack = args.slack if args.slack is not None else rate
    try:
        spec = VerifySpec(
            mu_r=args.mu_round, tau=args.tau, rounds=args.rounds,
            paths=tuple(
                PathBudget(rate=rate, slack=slack,
                           loss=args.loss_budget,
                           delay=args.path_delay,
                           buffer=args.path_buffer)
                for _ in range(args.paths)
            ),
            label="cli",
        )
    except ValueError as exc:
        parser.error(str(exc))
    cache = False if args.no_cache else (
        result_cache.ResultCache(args.cache_dir) if args.cache_dir
        else None)
    engine = resolve_engine(spec, args.engine)

    started = time.time()  # repro-lint: disable=RL001 -- progress timer
    print(f"verify[{engine}] K={args.paths} rate={rate}/round "
          f"(ratio {rate * args.paths / args.mu_round:g}) "
          f"slack={slack} loss={args.loss_budget} "
          f"mu_r={args.mu_round} tau={args.tau} T={args.rounds}")
    if args.query == "compare":
        cmp = compare_schemes(spec, engine=engine, cache=cache)
        elapsed = time.time() - started  # repro-lint: disable=RL001 -- progress timer
        for res in (cmp.dmp, cmp.static):
            print(f"  {res.scheme}: certified max late "
                  f"{res.max_late}/{res.total_packets} "
                  f"({res.late_fraction:.3f}); >= "
                  f"{res.unsat_threshold} is UNSAT")
        verdict = ("DMP strictly better"
                   if cmp.dmp_strictly_better else
                   "no strict DMP advantage on this instance")
        print(f"  advantage {cmp.advantage:+d} ({verdict}; "
              f"{elapsed:.1f}s wall)")
        witness = cmp.static.witness
    elif args.query == "starve":
        sres = max_starvation(spec, scheme=args.scheme,
                              engine=engine, cache=cache)
        elapsed = time.time() - started  # repro-lint: disable=RL001 -- progress timer
        print(f"  {args.scheme}: playout can starve for at most "
              f"{sres.max_rounds} consecutive round(s) "
              f"({elapsed:.1f}s wall)")
        witness = sres.witness
    else:
        res = max_late_envelope(spec, scheme=args.scheme,
                                engine=engine, cache=cache)
        elapsed = time.time() - started  # repro-lint: disable=RL001 -- progress timer
        print(f"  {args.scheme}: certified max late "
              f"{res.max_late}/{res.total_packets} "
              f"({res.late_fraction:.3f}); no trace reaches "
              f"{res.unsat_threshold} (UNSAT certificate; "
              f"{elapsed:.1f}s wall"
              + (", cached" if res.from_cache else "") + ")")
        witness = res.witness
    print("adversarial witness trace:")
    print(format_trace(witness))
    if args.cex_out:
        with open(args.cex_out, "w", encoding="utf-8") as handle:
            write_trace_jsonl(witness, handle)
        print(f"[wrote counterexample trace to {args.cex_out}]")
    return 0


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument(
        "target",
        choices=sorted(BUILDERS) + ["all", "list", "trace",
                                    "campaign", "verify"],
        help="which artefact to regenerate ('trace' runs one "
             "instrumented session, 'campaign' runs N concurrent "
             "sessions on one bottleneck, 'verify' certifies a "
             "worst-case late-packet envelope)")
    parser.add_argument(
        "--scale", choices=["quick", "full", "paper"], default=None,
        help="scale profile (default: $REPRO_SCALE or quick)")
    parser.add_argument(
        "-o", "--output-dir", default=None,
        help="also save the artefact(s) under this directory")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan replications/model solves out over N processes "
             "(default: $REPRO_WORKERS or serial)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="re-simulate everything, bypassing the result cache")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)")
    parser.add_argument(
        "--telemetry-out", default=None, metavar="FILE",
        help="stream campaign telemetry (spans + metrics) to FILE "
             "as JSON lines")
    parser.add_argument(
        "--trace-chrome", default=None, metavar="FILE",
        help="write the campaign span tree to FILE as Chrome "
             "trace_event JSON (open in Perfetto)")
    parser.add_argument(
        "--no-telemetry-summary", action="store_true",
        help="skip the end-of-campaign telemetry summary table")
    group = parser.add_argument_group("trace target")
    group.add_argument(
        "--setting", choices=sorted(ALL_SETTINGS), default="2-2",
        help="validation setting to run (default: 2-2)")
    group.add_argument(
        "--scheme", choices=["dmp", "static"], default="dmp",
        help="streaming scheme (default: dmp)")
    group.add_argument(
        "--queue-discipline", choices=list(QUEUE_DISCIPLINES),
        default="droptail",
        help="bottleneck queue discipline (default: droptail)")
    group.add_argument(
        "--seed", type=int, default=1,
        help="simulation seed (default: 1)")
    group.add_argument(
        "--duration", type=float, default=30.0, metavar="S",
        help="video duration in simulated seconds (default: 30)")
    group.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="stream every probe event to FILE as JSON lines")
    group.add_argument(
        "--timeseries", default=None, metavar="FILE",
        help="sample cwnd/queue/buffer curves to FILE as CSV")
    group = parser.add_argument_group("campaign target")
    group.add_argument(
        "--sessions", type=int, default=20, metavar="N",
        help="number of concurrent sessions (default: 20)")
    group.add_argument(
        "--churn", type=float, default=0.0, metavar="RATE",
        help="session arrival rate per second (0 = staggered "
             "starts; default: 0)")
    group.add_argument(
        "--service-batch", type=int, default=8, metavar="K",
        help="bottleneck link batch size (1 = exact per-packet "
             "service; default: 8)")
    group.add_argument(
        "--backend", choices=list(meanfield.BACKENDS),
        default="packet",
        help="campaign solver: the packet-level simulator or the "
             "deterministic mean-field population ODE (cost "
             "independent of --sessions; default: packet)")
    group.add_argument(
        "--health-tau", type=float, default=6.0, metavar="S",
        help="reference startup delay for the health rollup "
             "(default: 6)")
    group.add_argument(
        "--health-out", default=None, metavar="FILE",
        help="write the per-session QoE health rollup to FILE as "
             "JSON")
    group.add_argument(
        "--prometheus-out", default=None, metavar="FILE",
        help="write the health rollup to FILE in Prometheus text "
             "exposition format")
    group.add_argument(
        "--dashboard-out", default=None, metavar="FILE",
        help="write a self-contained static HTML dashboard to FILE "
             "(inline JSON, no server)")
    group.add_argument(
        "--record-trigger", action="append", default=[],
        metavar="SPEC",
        help="arm a flight-recorder trigger "
             "(kind[:threshold[:window_s]]; kinds: stall, "
             "drop_burst, sendbuf, death; repeatable)")
    group.add_argument(
        "--record-out", default="recorder", metavar="DIR",
        help="directory for triggered JSONL windows "
             "(default: recorder/)")
    group = parser.add_argument_group("verify target")
    group.add_argument(
        "--paths", type=int, default=2, metavar="K",
        help="number of paths (default: 2)")
    group.add_argument(
        "--ratio", type=float, default=1.6,
        help="aggregate provisioning ratio; per-path rate is "
             "ceil(ratio * mu_r / K) (default: 1.6)")
    group.add_argument(
        "--tau", type=int, default=2, metavar="R",
        help="startup delay in rounds (default: 2)")
    group.add_argument(
        "--rounds", type=int, default=12, metavar="T",
        help="horizon in rounds (default: 12)")
    group.add_argument(
        "--loss-budget", type=int, default=1, metavar="L",
        help="adversarial losses allowed per path over the horizon "
             "(default: 1)")
    group.add_argument(
        "--mu-round", type=int, default=4, metavar="N",
        help="packets generated per round (default: 4)")
    group.add_argument(
        "--slack", type=int, default=None, metavar="W",
        help="per-path service slack budget (default: one full "
             "round of outage, i.e. the path rate)")
    group.add_argument(
        "--path-delay", type=int, default=0, metavar="D",
        help="per-path delivery delay in rounds (default: 0)")
    group.add_argument(
        "--path-buffer", type=int, default=4, metavar="B",
        help="per-path send-buffer capacity in packets (default: 4)")
    group.add_argument(
        "--engine", choices=["auto", "z3", "exhaustive"],
        default="auto",
        help="verification engine (default: z3 when installed, "
             "else exhaustive search on small instances)")
    group.add_argument(
        "--query", choices=["envelope", "starve", "compare"],
        default="envelope",
        help="what to certify: the max-late envelope, the longest "
             "possible playout starvation, or a DMP-vs-static "
             "comparison (default: envelope)")
    group.add_argument(
        "--cex-out", default=None, metavar="FILE",
        help="write the adversarial witness trace to FILE as JSON "
             "lines")
    args = parser.parse_args(argv)

    try:
        return _dispatch(parser, args)
    except MissingDependencyError as exc:
        return _report_missing_dependency(exc)


def _dispatch(parser, args) -> int:
    """Route one parsed invocation (split from :func:`main` so every
    target shares the optional-dependency error path)."""
    if args.target == "list":
        for name in sorted(BUILDERS) + ["trace", "campaign",
                                        "verify"]:
            print(name)
        return 0

    if args.target == "trace":
        return _run_trace(args)

    if args.target == "verify":
        return _run_verify(args, parser)

    if args.target == "campaign":
        if args.sessions < 1:
            parser.error("--sessions must be >= 1")
        if args.churn < 0:
            parser.error("--churn must be >= 0")
        if args.service_batch < 1:
            parser.error("--service-batch must be >= 1")
        if args.health_tau < 0:
            parser.error("--health-tau must be >= 0")
        from repro.obs.recorder import parse_trigger
        for spec in args.record_trigger:
            try:
                parse_trigger(spec)
            except ValueError as exc:
                parser.error(f"--record-trigger: {exc}")
        if args.backend == "meanfield":
            if args.sessions < 2:
                parser.error("--backend meanfield needs --sessions "
                             ">= 2 (it is a population model)")
            if args.queue_discipline not in \
                    meanfield.MEANFIELD_DISCIPLINES:
                parser.error(
                    "--backend meanfield supports "
                    f"{list(meanfield.MEANFIELD_DISCIPLINES)}; got "
                    f"{args.queue_discipline!r}")
            if args.churn > 0:
                parser.error("--backend meanfield assumes "
                             "synchronized starts; --churn must be 0")
            if args.health_out or args.prometheus_out \
                    or args.dashboard_out or args.record_trigger:
                parser.error(
                    "--backend meanfield has no per-session probe "
                    "stream; health/recorder flags need the packet "
                    "backend")
            return _run_meanfield(args)
        return _run_campaign(args)

    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    prev_workers = parallel._default["max_workers"]
    prev_cache = dict(result_cache._default)
    parallel.configure(max_workers=args.workers)
    result_cache.configure(enabled=not args.no_cache,
                           directory=args.cache_dir)

    profile = scale_profile(args.scale)
    targets = sorted(BUILDERS) if args.target == "all" \
        else [args.target]
    try:
        tel = telemetry.start()
        try:
            writer = telemetry.TelemetryJsonlWriter(
                tel, args.telemetry_out) if args.telemetry_out \
                else None
            try:
                with tel.span("campaign", label=args.target,
                              profile=profile.name):
                    for name in targets:
                        started = time.time()  # repro-lint: disable=RL001 -- progress timer
                        with tel.span("target", label=name):
                            text = BUILDERS[name](profile=profile)
                        print(text)
                        status = (f"[{name}: {time.time() - started:.1f}s at "  # repro-lint: disable=RL001 -- progress timer
                                  f"profile={profile.name}")
                        cache = result_cache.default_cache()
                        if cache is not None:
                            status += (f", cache: {cache.hits} hits / "
                                       f"{cache.misses} misses")
                        print(status + "]\n")
                        if args.output_dir:
                            path = save_output(f"{name}.txt", text,
                                               directory=args.output_dir)
                            print(f"[saved to {path}]\n")
            finally:
                # Closing the writer flushes metrics even when a
                # builder raised: aborted runs leave valid logs.
                if writer is not None:
                    writer.close()
                    print(f"[wrote telemetry to "
                          f"{args.telemetry_out}]")
        finally:
            telemetry.stop(tel)
        if args.trace_chrome:
            events = telemetry.export_chrome_trace(
                tel, args.trace_chrome)
            print(f"[wrote {events} trace events to "
                  f"{args.trace_chrome}]")
        if not args.no_telemetry_summary:
            print(telemetry.summary(tel))
    finally:
        parallel.configure(max_workers=prev_workers)
        result_cache._default.update(prev_cache)
        result_cache._default["instance"] = None
    return 0


if __name__ == "__main__":
    sys.exit(main())
