"""Command-line entry point: ``dcat-experiment`` / ``python -m repro.harness``.

Usage::

    dcat-experiment list
    dcat-experiment run fig17 [--seed 1234]
    dcat-experiment run fig10 fig11 --jobs 2
    dcat-experiment run all --jobs 4
    dcat-experiment run fig10 --trace fig10.jsonl
    dcat-experiment scenario my_tenants.json [--vm redis]
    dcat-experiment churn my_churn.json [--metrics churn.prom]
    dcat-experiment chaos examples/chaos.json [--trace chaos.jsonl] [--json]
    dcat-experiment run fig10 --metrics out.prom
    dcat-experiment run fig17 --fidelity mixed
    dcat-experiment bench [--quick] [--out BENCH_controller.json]
    dcat-experiment serve examples/service.json [--port 8787] [--metrics serve.prom]
    dcat-experiment loadtest examples/service.json [--quick] [--out BENCH_service.json]
    dcat-experiment tournament [--quick] [--out tournament.json] [--json]
    dcat-experiment churn my_churn.json --policy lfoc_clustering

``--metrics PATH`` writes a telemetry snapshot of the run — per-stage
timing histograms and controller/cloud gauges — as Prometheus text at
``PATH`` plus a JSON twin at ``PATH.json``, leaving the printed reports
untouched.  ``--fidelity analytical|exact|mixed`` selects the cache
substrate for run/scenario/churn/chaos (see
:mod:`repro.platform.substrate`).  ``--policy NAME`` picks the
allocation strategy (any name from
:func:`repro.core.policies.strategy_names`) for
run/scenario/churn/chaos/serve/loadtest, overriding scenario files.
``bench`` times the hot paths and writes the ``dcat-bench/v1`` payload
that seeds the repo's perf trajectory.  ``tournament`` races every
registered strategy across churn scenarios with faults on/off and
emits a schema-validated Pareto report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.engine.context import RunContext
from repro.engine.runner import run_experiments
from repro.harness.registry import EXPERIMENTS
from repro.harness.report import render_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcat-experiment",
        description="Reproduce dCat (EuroSys 2018) figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run = sub.add_parser("run", help="run one or more experiments (or 'all')")
    run.add_argument(
        "experiment_id", nargs="+", help="e.g. fig10, tab4, or 'all'"
    )
    run.add_argument("--seed", type=int, default=1234, help="simulation seed")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; results are identical for any value",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL event-bus trace (forces a serial run)",
    )
    run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write Prometheus text + JSON telemetry (forces a serial run)",
    )
    _add_fidelity_flag(run)
    _add_policy_flag(run)
    scenario = sub.add_parser(
        "scenario", help="run a JSON scenario file (see repro.harness.scenario_file)"
    )
    scenario.add_argument("path", help="path to the scenario JSON")
    scenario.add_argument(
        "--vm",
        action="append",
        default=None,
        help="VM(s) to print timelines for (default: all)",
    )
    _add_fidelity_flag(scenario)
    _add_policy_flag(scenario)
    churn = sub.add_parser(
        "churn",
        help="run a JSON churn scenario over a machine fleet (see repro.cloud.scenario)",
    )
    churn.add_argument("path", help="path to the churn-scenario JSON")
    churn.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write Prometheus text + JSON telemetry for the fleet run",
    )
    churn.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL event trace of the fleet run",
    )
    _add_fidelity_flag(churn)
    _add_policy_flag(churn)
    _add_fleet_jobs_flag(churn)
    chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection scenario and report guarantee retention "
        "(see repro.faults.chaos); exits 1 if any invariant broke",
    )
    chaos.add_argument("path", help="path to the chaos-scenario JSON")
    chaos.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL event trace including fault/invariant events",
    )
    chaos.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write Prometheus text + JSON telemetry for the chaos run",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of text",
    )
    _add_fidelity_flag(chaos)
    _add_policy_flag(chaos)
    bench = sub.add_parser(
        "bench",
        help="time the hot paths and write a dcat-bench/v1 JSON payload",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small batch sizes for smoke runs (same schema and benchmarks)",
    )
    bench.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_controller.json",
        help="where to write the payload (default: %(default)s)",
    )
    serve = sub.add_parser(
        "serve",
        help="run the asyncio controller daemon: tenant lifecycle over HTTP "
        "(see repro.service); stops gracefully on SIGTERM/SIGINT",
    )
    serve.add_argument("path", help="path to the service-config JSON")
    serve.add_argument(
        "--host", default="127.0.0.1", help="listen address (default: %(default)s)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="listen port; 0 picks an ephemeral one (default: %(default)s)",
    )
    serve.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write Prometheus text + JSON telemetry on shutdown",
    )
    serve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL event trace of everything the fleet did",
    )
    _add_fidelity_flag(serve)
    _add_policy_flag(serve)
    _add_fleet_jobs_flag(serve, default=None)
    loadtest = sub.add_parser(
        "loadtest",
        help="boot a daemon, drive open-loop Poisson tenant churn over HTTP, "
        "verify replay determinism + SLOs, and write BENCH_service.json; "
        "exits 1 if any assertion fails",
    )
    loadtest.add_argument("path", help="path to the service-config JSON")
    loadtest.add_argument(
        "--quick",
        action="store_true",
        help="5-second smoke run (same schema and assertions, no request floor)",
    )
    loadtest.add_argument(
        "--rps", type=float, default=None, help="admission arrival rate"
    )
    loadtest.add_argument(
        "--duration", type=float, default=None, help="arrival window seconds"
    )
    loadtest.add_argument("--seed", type=int, default=7, help="request-plan seed")
    loadtest.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_service.json",
        help="where to write the payload (default: %(default)s)",
    )
    _add_fidelity_flag(loadtest)
    _add_policy_flag(loadtest)
    tournament = sub.add_parser(
        "tournament",
        help="race every registered allocation strategy across churn "
        "scenarios with faults on/off; writes a dcat-tournament/v1 "
        "Pareto report",
    )
    tournament.add_argument(
        "--seed", type=int, default=1234, help="simulation seed"
    )
    tournament.add_argument(
        "--quick",
        action="store_true",
        help="3 policies and short scenarios for smoke runs (same schema)",
    )
    tournament.add_argument(
        "--out",
        metavar="PATH",
        default="tournament.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    tournament.add_argument(
        "--json",
        action="store_true",
        help="print the report payload as JSON instead of markdown",
    )
    _add_fleet_jobs_flag(tournament)
    return parser


def _add_fidelity_flag(parser: argparse.ArgumentParser) -> None:
    # --fidelity, --policy and --fleet-jobs are validated together by
    # RunContext.parse in main() (not with argparse choices=), so invalid
    # values follow the scenario error contract: stderr message + exit 2.
    parser.add_argument(
        "--fidelity",
        metavar="MODE",
        default=None,
        help="cache substrate: analytical (fast closed forms, the default), "
        "exact (tag-array measurement), or mixed (analytical plus exact "
        "spot checks that emit FidelityDivergence)",
    )


def _add_policy_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        metavar="NAME",
        default=None,
        help="allocation strategy (e.g. max_fairness, max_performance, "
        "lfoc_clustering, phase_hint, reserved_pooled); overrides the "
        "scenario file's policy",
    )


def _add_fleet_jobs_flag(
    parser: argparse.ArgumentParser, default: Optional[int] = 1
) -> None:
    # serve passes None: the config's service.fleet_jobs then applies.
    shown = "1 = serial in-process" if default else "service.fleet_jobs, else 1"
    parser.add_argument(
        "--fleet-jobs",
        metavar="N",
        type=int,
        default=default,
        help=f"shard the fleet across N worker processes (default: {shown}; "
        "results are byte-identical either way)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    fleet_jobs = getattr(args, "fleet_jobs", None)
    try:
        ctx = RunContext.parse(
            fidelity=getattr(args, "fidelity", None),
            policy=getattr(args, "policy", None),
            fleet_jobs=1 if fleet_jobs is None else fleet_jobs,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.command == "tournament":
        return _run_tournament(args, ctx)
    if args.command == "scenario":
        return _run_scenario(args, ctx)
    if args.command == "churn":
        return _run_churn(args, ctx)
    if args.command == "chaos":
        return _run_chaos(args, ctx)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "serve":
        return _run_serve(args, ctx)
    if args.command == "loadtest":
        return _run_loadtest(args, ctx)
    if args.command == "list":
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    requested = list(args.experiment_id)
    ids = list(EXPERIMENTS) if "all" in requested else requested
    jobs = args.jobs
    if (args.trace is not None or args.metrics is not None) and jobs > 1:
        which = "--trace" if args.trace is not None else "--metrics"
        print(f"{which} requires a serial run; ignoring --jobs", file=sys.stderr)
        jobs = 1
    try:
        results = run_experiments(
            ids,
            jobs=jobs,
            seed=args.seed,
            trace_path=args.trace,
            metrics_path=args.metrics,
            fidelity=ctx.fidelity,
            policy=ctx.policy,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write trace or metrics: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(render_experiment(result))
        print()
    return 0


def _run_scenario(args, ctx: RunContext) -> int:
    from repro.harness.scenario_file import ScenarioError, run_scenario_file

    try:
        result = run_scenario_file(
            args.path, fidelity=ctx.fidelity, policy=ctx.policy
        )
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    names = args.vm if args.vm else sorted(result.records)
    for name in names:
        timeline = result.timeline(name)
        if not timeline:
            print(f"(no records for {name!r})", file=sys.stderr)
            continue
        print(f"== {name} ==")
        print(f"{'t':>6} {'phase':<18} {'ways':>5} {'hit':>6} {'ipc':>7} state")
        for rec in timeline:
            state = rec.state.value if rec.state else "-"
            print(
                f"{rec.time_s:6.1f} {rec.phase_name or '-':<18} {rec.ways:5.1f} "
                f"{rec.llc_hit_rate:6.3f} {rec.ipc:7.3f} {state}"
            )
    return 0


def _run_chaos(args, ctx: RunContext) -> int:
    from repro.faults.chaos import run_chaos
    from repro.harness.scenario_file import ScenarioError

    try:
        report = run_chaos(
            args.path,
            trace=args.trace,
            metrics=args.metrics,
            fidelity=ctx.fidelity,
            policy=ctx.policy,
        )
    except ScenarioError as exc:
        print(f"chaos scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write trace or metrics: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.render())
    return 0 if report.passed else 1


def _run_bench(args) -> int:
    from repro.obs.bench import run_bench, write_bench

    payload = run_bench(quick=args.quick)
    try:
        write_bench(payload, args.out)
    except OSError as exc:
        print(f"cannot write bench payload: {exc}", file=sys.stderr)
        return 2
    for entry in payload["benchmarks"]:
        print(
            f"{entry['name']:<26} best {entry['best_s'] * 1e6:10.2f} us  "
            f"median {entry['median_s'] * 1e6:10.2f} us  "
            f"({entry['iterations']}x{entry['repeats']})"
        )
    print(f"wrote {args.out}")
    return 0


def _run_serve(args, ctx: RunContext) -> int:
    import asyncio

    from repro.harness.scenario_file import ScenarioError

    try:
        from repro.service.config import load_service_config
        from repro.service.daemon import ControllerDaemon

        config = load_service_config(
            args.path,
            fidelity=ctx.fidelity,
            policy=ctx.policy,
            fleet_jobs=args.fleet_jobs,
        )
        daemon = ControllerDaemon(
            config,
            host=args.host,
            port=args.port,
            trace_path=args.trace,
            metrics_path=args.metrics,
        )
    except ScenarioError as exc:
        print(f"service config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot open trace or metrics sink: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        await daemon.start()
        print(
            f"serving on http://{daemon.host}:{daemon.port} "
            f"(tick every {daemon.tick_interval_s:g}s; SIGTERM/SIGINT to stop)",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        import signal as _signal

        stop_event = asyncio.Event()
        installed = []
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
                installed.append(sig)
            except NotImplementedError:  # pragma: no cover - non-posix loops
                pass
        try:
            await stop_event.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(
        f"stopped at t={daemon.handle.fleet.now:g}s after {daemon.handle.ticks} "
        f"tick(s), {daemon.setup.violation_count()} invariant violation(s)"
    )
    return 0


def _run_loadtest(args, ctx: RunContext) -> int:
    from repro.harness.scenario_file import ScenarioError

    try:
        from repro.service.loadgen import run_loadtest

        payload, failures = run_loadtest(
            args.path,
            out=args.out,
            quick=args.quick,
            rps=args.rps,
            duration_s=args.duration,
            seed=args.seed,
            fidelity=ctx.fidelity,
            policy=ctx.policy,
        )
    except ScenarioError as exc:
        print(f"service config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write bench payload: {exc}", file=sys.stderr)
        return 2
    requests = payload["requests"]
    latency = payload["latency_s"]["admit"]
    print(
        f"requests {requests['total']} "
        f"(admitted {requests['admitted']}, rejected "
        f"{sum(requests['rejected'].values())}, detached {requests['detached']})"
    )
    print(
        f"admit latency p50 {latency['p50_s'] * 1e3:.2f} ms  "
        f"p90 {latency['p90_s'] * 1e3:.2f} ms  "
        f"p99 {latency['p99_s'] * 1e3:.2f} ms"
    )
    print(
        f"invariants {payload['invariants']['violations']} violation(s) over "
        f"{payload['invariants']['intervals_checked']} interval(s); replay "
        f"{'identical' if payload['determinism']['replay_identical'] else 'DIVERGED'}"
    )
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _run_tournament(args, ctx: RunContext) -> int:
    import json

    from repro.harness.experiments.tournament import (
        build_tournament_report,
        render_tournament_markdown,
        validate_tournament_report,
    )

    payload = build_tournament_report(
        seed=args.seed, quick=args.quick, fleet_jobs=ctx.fleet_jobs
    )
    validate_tournament_report(payload)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        print(f"cannot write tournament report: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_tournament_markdown(payload))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _run_churn(args, ctx: RunContext) -> int:
    from repro.harness.scenario_file import ScenarioError

    try:
        from repro.cloud.scenario import run_churn_scenario

        result = run_churn_scenario(
            args.path,
            metrics=args.metrics,
            trace=args.trace,
            fidelity=ctx.fidelity,
            policy=ctx.policy,
            fleet_jobs=ctx.fleet_jobs,
        )
    except ScenarioError as exc:
        print(f"churn scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write metrics: {exc}", file=sys.stderr)
        return 2
    print("== admissions ==")
    print(f"{'t':>6} {'tenant':<16} {'machine':<8} outcome")
    for rec in result.placements:
        print(
            f"{rec.time_s:6.1f} {rec.tenant_id:<16} {rec.machine or '-':<8} "
            f"{rec.reason}"
        )
    print()
    print("== per-tenant SLO ==")
    print(
        f"{'tenant':<16} {'machine':<8} {'active':>6} {'viol':>5} "
        f"{'viol%':>7} {'norm_ipc':>8}"
    )
    for tid in sorted(result.tenants):
        stats = result.tenants[tid]
        print(
            f"{tid:<16} {stats.machine:<8} {stats.active_intervals:6d} "
            f"{stats.violation_intervals:5d} {stats.violation_fraction:7.3f} "
            f"{stats.mean_normalized_ipc:8.3f}"
        )
    print()
    print("== fleet ==")
    for key, value in result.summary.items():
        print(f"{key:<22} {value:.3f}")
    if result.faults:
        print()
        print("== injected faults ==")
        for machine_name in sorted(result.faults):
            kinds = " ".join(
                f"{k}={v}" for k, v in result.faults[machine_name].items()
            )
            print(f"{machine_name:<8} {kinds or '-'}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
