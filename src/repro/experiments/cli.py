"""Command-line entry point: ``mcr-dram``.

Examples::

    mcr-dram list
    mcr-dram run table3
    mcr-dram run fig11 --scale smoke
    mcr-dram run all --scale small --parallel 4
    mcr-dram run fig11 --no-cache
    mcr-dram report --scale small --parallel 8
    mcr-dram report --scale smoke --metrics
    mcr-dram trace comm2 --mode 4/4x/100%reg --requests 300
    mcr-dram trace libq --format jsonl --out libq.jsonl
    mcr-dram trace libq --since 5000 --until 9000 --perfetto libq.pftrace.json
    mcr-dram profile comm2 --mode 4/4x/100%reg --attribution
    mcr-dram profile comm2 --mode 4/4x/100%reg --save run_a.json
    mcr-dram diff run_a.json run_b.json
    mcr-dram serve --port 8763 --shards 4
    mcr-dram submit comm2 --mode 4/4x/100%reg --requests 2000
    mcr-dram metrics comm2 --mode 4/4x/100%reg
    mcr-dram metrics --scrape --port 8763
    mcr-dram cache stats
    mcr-dram cache evict --max-mb 64

Runs go through the execution harness (:mod:`repro.harness`): results
are cached on disk under ``.repro-cache/`` (override with
``--cache-dir``, disable with ``--no-cache``), and with ``--parallel N``
the planned simulation graph is pre-executed across N worker processes
before the drivers assemble their tables from the shared cache — output
is bit-identical to a serial run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.experiments.reporting import ExperimentResult
from repro.experiments.scale import get_scale


def _registry() -> dict[str, Callable[..., ExperimentResult]]:
    # Imported lazily so `mcr-dram list` stays fast.
    from repro.experiments import (
        capacity_sweep,
        combined_mode,
        fig08_wiring,
        fig10_table3,
        fig11_fig14_ratio,
        fig12_fig15_profile,
        fig13_fig16_modes,
        fig17_mechanisms,
        fig18_edp,
        headline,
        mapping_ablation,
        mechanism_comparison,
        scheduler_ablation,
        tldram_comparison,
        wiring_ablation,
    )

    return {
        "fig08": lambda scale=None: fig08_wiring.run(),
        "fig10": lambda scale=None: fig10_table3.run_fig10(),
        "table3": lambda scale=None: fig10_table3.run_table3(),
        "fig11": fig11_fig14_ratio.run_fig11,
        "fig12": fig12_fig15_profile.run_fig12,
        "fig13": fig13_fig16_modes.run_fig13,
        "fig14": fig11_fig14_ratio.run_fig14,
        "fig15": fig12_fig15_profile.run_fig15,
        "fig16": fig13_fig16_modes.run_fig16,
        "fig17": fig17_mechanisms.run_fig17,
        "fig18": fig18_edp.run_fig18,
        "headline": headline.run_headline,
        # Extensions beyond the paper's evaluation:
        "combined": combined_mode.run_combined,
        "wiring": wiring_ablation.run_wiring_ablation,
        "scheduler": scheduler_ablation.run_scheduler_ablation,
        "capacity": capacity_sweep.run_capacity_sweep,
        "tldram": tldram_comparison.run_tldram_comparison,
        "mapping": mapping_ablation.run_mapping_ablation,
        "mechanisms": mechanism_comparison.run_mechanism_comparison,
    }


def _add_harness_args(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the simulation graph (default: 1, serial)",
    )
    subparser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result cache location (default: .repro-cache)",
    )
    subparser.add_argument(
        "--no-cache",
        action="store_true",
        help="keep results in memory only; neither read nor write the disk cache",
    )


def _configure_session(args: argparse.Namespace):
    """Install a harness session reflecting the CLI flags; return it."""
    from repro.harness import DEFAULT_CACHE_DIR, HarnessConfig, configure
    from repro.harness.telemetry import stderr_progress

    cache_dir = None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)
    session = configure(HarnessConfig(parallel=args.parallel, cache_dir=cache_dir))
    if args.parallel > 1:
        session.telemetry.progress = stderr_progress
    return session


def _prewarm(session, names: list[str], scale) -> None:
    """Plan the experiments' job graph and execute it through the session.

    Worth the planning cost whenever the run is parallel or a disk cache
    is active (the planned graph dedupes shared baselines across every
    requested experiment before anything executes).
    """
    from repro.harness.planner import plan

    jobs = plan(names, scale)
    if jobs:
        session.prewarm(jobs)


def _run_trace(args: argparse.Namespace) -> int:
    """``mcr-dram trace``: one observed run, timeline or JSONL out."""
    import json

    from repro.obs import ObservabilityConfig, format_metrics, observe_run
    from repro.workloads import make_trace

    trace = make_trace(args.workload, n_requests=args.requests, seed=args.seed)
    result, hub = observe_run(
        [trace],
        args.mode,
        config=ObservabilityConfig.full(metrics=args.metrics),
    )
    tracer = hub.tracer
    windowed = args.since is not None or args.until is not None
    events = tracer.window(args.since, args.until) if windowed else tracer.events
    if args.perfetto:
        from repro.obs import write_perfetto

        count = write_perfetto(args.perfetto, hub)
        print(f"wrote {count} Perfetto events to {args.perfetto}", file=sys.stderr)
    if args.format == "jsonl":
        text = "\n".join(
            json.dumps(event.to_json(), separators=(",", ":")) for event in events
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + ("\n" if text else ""))
            print(f"wrote {len(events)} events to {args.out}", file=sys.stderr)
        else:
            print(text)
    else:
        text = tracer.timeline(limit=args.limit, events=events if windowed else None)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {len(events)} events to {args.out}", file=sys.stderr)
        else:
            print(text)
    print(
        f"[{trace.name} mode={result.mode_label} "
        f"{len(tracer)} commands in {result.execution_cycles} cycles]",
        file=sys.stderr,
    )
    if args.metrics:
        print(format_metrics(hub.metrics_snapshot()))
    if hub.violations:
        print(
            f"INVARIANT VIOLATIONS ({len(hub.violations)}):", file=sys.stderr
        )
        for violation in hub.violations[:10]:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """``mcr-dram profile``: latency breakdown + mechanism attribution."""
    from repro.obs import (
        ObservabilityConfig,
        attribute_mechanisms,
        format_attribution,
        format_profile,
        observe_run,
        write_perfetto,
        write_run_artifact,
    )
    from repro.workloads import make_trace

    trace = make_trace(args.workload, n_requests=args.requests, seed=args.seed)
    result, hub = observe_run(
        [trace],
        args.mode,
        config=ObservabilityConfig.full(),
    )
    print(
        f"[{trace.name} mode={result.mode_label} "
        f"{result.execution_cycles} cycles]",
        file=sys.stderr,
    )
    print(format_profile(hub.profile_snapshot()))
    attribution = None
    if args.attribution or args.save:
        attribution = attribute_mechanisms(hub)
    if args.attribution:
        print()
        print(format_attribution(attribution))
    if args.perfetto:
        count = write_perfetto(args.perfetto, hub)
        print(f"wrote {count} Perfetto events to {args.perfetto}", file=sys.stderr)
    if args.save:
        write_run_artifact(args.save, result, hub, attribution)
        print(f"wrote run artifact to {args.save}", file=sys.stderr)
    if hub.violations:
        print(f"INVARIANT VIOLATIONS ({len(hub.violations)})", file=sys.stderr)
        return 1
    if hub.profiler is not None and not hub.profiler.conserved:
        print("PROFILE CONSERVATION VIOLATED", file=sys.stderr)
        return 1
    return 0


def _run_diff(args: argparse.Namespace) -> int:
    """``mcr-dram diff``: compare two saved run artifacts."""
    from repro.obs import diff_files, format_diff

    diff = diff_files(args.run_a, args.run_b)
    print(format_diff(diff))
    return 0 if diff["identical"] else 1


def _run_serve(args: argparse.Namespace) -> int:
    """``mcr-dram serve``: run the simulation service until SIGINT/SIGTERM."""
    import asyncio

    from repro.harness import DEFAULT_CACHE_DIR
    from repro.service import ServiceConfig
    from repro.service.server import run_server

    cache_dir = None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        backend=args.backend,
        queue_limit=args.queue_limit,
        cache_dir=cache_dir,
        cache_max_bytes=(
            args.cache_max_mb * 1024 * 1024 if args.cache_max_mb else None
        ),
    )
    summary = asyncio.run(
        run_server(
            config,
            on_listen=lambda host, port: print(
                f"mcr-dram service listening on http://{host}:{port} "
                f"({config.shards} {config.backend} shards, "
                f"cache={cache_dir or 'memory-only'})",
                file=sys.stderr,
                flush=True,
            ),
        )
    )
    print(
        f"service drained: {summary['drained']} completed, "
        f"{summary['cancelled']} cancelled",
        file=sys.stderr,
    )
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    """``mcr-dram submit``: send one spec, follow its events, print result."""
    import json

    from repro.service.client import ServiceClient, ServiceError

    spec: dict = {
        "workload": args.workload,
        "mode": args.mode,
        "n_requests": args.requests,
        "seed": args.seed,
    }
    if args.allocation is not None:
        try:
            spec["allocation"] = float(args.allocation)
        except ValueError:
            spec["allocation"] = args.allocation  # e.g. "collision-free"
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        response = client.submit_with_backoff(spec)
        job_id = response["job_id"]
        print(
            f"job {job_id[:12]} {response['status']}"
            + (f" (cached: {response['cached']})" if response.get("cached") else ""),
            file=sys.stderr,
        )
        if response["status"] != "done":
            for event in client.events(job_id):
                print(f"  {event['event']}: {json.dumps(event)}", file=sys.stderr)
        result = client.result(job_id)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(
            f"cannot reach service at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        payload = result["result"]
        print(
            f"{args.workload} mode={payload['mode_label']}: "
            f"{payload['execution_cycles']} cycles, "
            f"avg read latency {payload['avg_read_latency_cycles']:.2f} cycles, "
            f"EDP {payload['edp']:.4g}"
        )
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    """``mcr-dram metrics``: one-shot Prometheus/OpenMetrics exposition.

    Without ``--scrape``, runs one workload with the observability hub's
    metrics registry attached and prints the OpenMetrics rendering. With ``--scrape``, fetches a running
    service's ``/metrics`` and relays it after validating it parses.
    """
    from repro.obs.prometheus import parse_exposition, render_openmetrics

    if args.scrape:
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(args.host, args.port, timeout=args.timeout)
        try:
            text, content_type = client.metrics_text()
        except (ServiceError, ConnectionError, OSError) as exc:
            print(
                f"cannot scrape service at {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 1
        parse_exposition(text)  # refuse to relay a malformed exposition
        print(f"[{content_type}]", file=sys.stderr)
        sys.stdout.write(text)
        return 0

    if not args.workload:
        print(
            "metrics: a workload is required unless --scrape is given",
            file=sys.stderr,
        )
        return 2
    from repro.core.api import SystemSpec
    from repro.core.mcr_mode import MCRMode
    from repro.harness.jobs import SimJob
    from repro.workloads import make_trace

    trace = make_trace(args.workload, n_requests=args.requests, seed=args.seed)
    job = SimJob.from_traces(
        [trace],
        MCRMode.parse(args.mode),
        SystemSpec(),
        metrics=True,
    )
    result = job.execute()
    print(
        f"[{trace.name} mode={result.mode_label} "
        f"{result.execution_cycles} cycles"
        + (f" trace_id={result.trace['trace_id']}" if result.trace else "")
        + "]",
        file=sys.stderr,
    )
    sys.stdout.write(render_openmetrics(result.metrics))
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """``mcr-dram cache``: inspect or trim the shared artifact cache."""
    import json

    from repro.harness import DEFAULT_CACHE_DIR
    from repro.service.cache import ArtifactCache

    cache = ArtifactCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.cache_command == "evict":
        cap = args.max_mb * 1024 * 1024
        evicted = cache.evict_to_cap(max_bytes=cap)
        stats = cache.stats()
        print(
            f"evicted {evicted} entries; {stats['entries']} remain "
            f"({stats['bytes']} bytes <= {cap} cap)"
        )
        return 0
    print(json.dumps(cache.stats(), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcr-dram",
        description="Regenerate the MCR-DRAM paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. fig11, table3, all")
    run.add_argument(
        "--scale",
        default=None,
        help="smoke | small | full (default: REPRO_SCALE env or small)",
    )
    run.add_argument(
        "--csv",
        default=None,
        metavar="DIR",
        help="also export each result as <DIR>/<experiment>.csv",
    )
    run.add_argument(
        "--json",
        default=None,
        metavar="DIR",
        help="also export each result as <DIR>/<experiment>.json",
    )
    _add_harness_args(run)
    report = sub.add_parser(
        "report", help="run every experiment and write EXPERIMENTS.md"
    )
    report.add_argument("--scale", default=None, help="smoke | small | full")
    report.add_argument(
        "--output", default="EXPERIMENTS.md", help="output path (- for stdout)"
    )
    report.add_argument(
        "--metrics",
        action="store_true",
        help="also print the harness metrics registry after the report",
    )
    _add_harness_args(report)
    trace_cmd = sub.add_parser(
        "trace",
        help="run one workload with the command-stream tracer attached",
    )
    trace_cmd.add_argument("workload", help="workload name, e.g. comm2, libq")
    trace_cmd.add_argument(
        "--mode", default="off", help="MCR mode string (default: off)"
    )
    trace_cmd.add_argument(
        "--requests", type=int, default=300, help="trace length (default: 300)"
    )
    trace_cmd.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    trace_cmd.add_argument(
        "--format",
        choices=("timeline", "jsonl"),
        default="timeline",
        help="human-readable timeline (default) or JSON Lines",
    )
    trace_cmd.add_argument(
        "--out", default=None, metavar="FILE", help="write to FILE instead of stdout"
    )
    trace_cmd.add_argument(
        "--limit",
        type=int,
        default=60,
        help="timeline: show only the first N events (default: 60; 0 = all)",
    )
    trace_cmd.add_argument(
        "--metrics",
        action="store_true",
        help="also print the run's metrics registry",
    )
    trace_cmd.add_argument(
        "--since",
        type=int,
        default=None,
        metavar="CYCLE",
        help="only events at or after this cycle",
    )
    trace_cmd.add_argument(
        "--until",
        type=int,
        default=None,
        metavar="CYCLE",
        help="only events before this cycle",
    )
    trace_cmd.add_argument(
        "--perfetto",
        default=None,
        metavar="FILE",
        help="also export the run as Chrome/Perfetto trace JSON",
    )
    profile_cmd = sub.add_parser(
        "profile",
        help="run one workload with the latency-attribution profiler",
    )
    profile_cmd.add_argument("workload", help="workload name, e.g. comm2, libq")
    profile_cmd.add_argument(
        "--mode", default="off", help="MCR mode string (default: off)"
    )
    profile_cmd.add_argument(
        "--requests", type=int, default=300, help="trace length (default: 300)"
    )
    profile_cmd.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    profile_cmd.add_argument(
        "--attribution",
        action="store_true",
        help="also print the Fig.-17-style mechanism attribution",
    )
    profile_cmd.add_argument(
        "--perfetto",
        default=None,
        metavar="FILE",
        help="also export the run as Chrome/Perfetto trace JSON",
    )
    profile_cmd.add_argument(
        "--save",
        default=None,
        metavar="FILE",
        help="write the full run artifact (input of 'mcr-dram diff')",
    )
    diff_cmd = sub.add_parser(
        "diff",
        help="compare two saved run artifacts (exit 1 when they differ)",
    )
    diff_cmd.add_argument("run_a", help="run artifact JSON (from profile --save)")
    diff_cmd.add_argument("run_b", help="run artifact JSON to compare against")
    serve_cmd = sub.add_parser(
        "serve",
        help="run the simulation service (HTTP/JSON API over the harness)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=8763, help="bind port (0 = pick a free one)"
    )
    serve_cmd.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="worker shards = execution concurrency (default: 2)",
    )
    serve_cmd.add_argument(
        "--backend",
        choices=("process", "thread"),
        default="process",
        help="worker backend (default: process)",
    )
    serve_cmd.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="queued jobs admitted per shard before 429 (default: 64)",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared artifact cache location (default: .repro-cache)",
    )
    serve_cmd.add_argument(
        "--no-cache", action="store_true", help="serve from memory only"
    )
    serve_cmd.add_argument(
        "--cache-max-mb",
        type=int,
        default=None,
        metavar="MB",
        help="artifact-cache size cap; oldest-touched entries evicted",
    )
    submit_cmd = sub.add_parser(
        "submit", help="submit one simulation to a running service"
    )
    submit_cmd.add_argument("workload", help="workload name, e.g. comm2, libq")
    submit_cmd.add_argument(
        "--mode", default="off", help="MCR mode string (default: off)"
    )
    submit_cmd.add_argument(
        "--requests", type=int, default=1000, help="trace length (default: 1000)"
    )
    submit_cmd.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    submit_cmd.add_argument(
        "--allocation",
        default=None,
        help="clone allocation: a ratio like 0.5, or 'collision-free'",
    )
    submit_cmd.add_argument("--host", default="127.0.0.1", help="service address")
    submit_cmd.add_argument(
        "--port", type=int, default=8763, help="service port (default: 8763)"
    )
    submit_cmd.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-request client timeout in seconds (default: 300)",
    )
    submit_cmd.add_argument(
        "--json", action="store_true", help="print the full result as JSON"
    )
    metrics_cmd = sub.add_parser(
        "metrics",
        help="one-shot Prometheus/OpenMetrics exposition for one run "
        "(or scrape a running service with --scrape)",
    )
    metrics_cmd.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="workload name, e.g. comm2 (omit with --scrape)",
    )
    metrics_cmd.add_argument(
        "--mode", default="off", help="MCR mode string (default: off)"
    )
    metrics_cmd.add_argument(
        "--requests", type=int, default=1000, help="trace length (default: 1000)"
    )
    metrics_cmd.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    metrics_cmd.add_argument(
        "--scrape",
        action="store_true",
        help="fetch /metrics from a running service instead of running locally",
    )
    metrics_cmd.add_argument("--host", default="127.0.0.1", help="service address")
    metrics_cmd.add_argument(
        "--port", type=int, default=8763, help="service port (default: 8763)"
    )
    metrics_cmd.add_argument(
        "--timeout", type=float, default=60.0, help="scrape timeout in seconds"
    )
    cache_cmd = sub.add_parser(
        "cache", help="inspect or trim the shared artifact cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command")
    cache_stats = cache_sub.add_parser("stats", help="occupancy and hit counters")
    cache_evict = cache_sub.add_parser(
        "evict", help="evict least-recently-used entries down to a size cap"
    )
    cache_evict.add_argument(
        "--max-mb",
        type=int,
        required=True,
        metavar="MB",
        help="target cache size after eviction",
    )
    for cache_parser in (cache_cmd, cache_stats, cache_evict):
        cache_parser.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="cache location (default: .repro-cache)",
        )
    verify_cmd = sub.add_parser(
        "verify",
        help="differential fuzz against the independent protocol oracle"
        " (delegates to `python -m repro.verify`)",
    )
    verify_cmd.add_argument(
        "verify_args",
        nargs=argparse.REMAINDER,
        help="arguments passed through, e.g. --seconds 60 --seed 0",
    )
    # argparse.REMAINDER does not capture leading options, so hand the
    # verify sub-command's argv through before the main parse.
    raw = sys.argv[1:] if argv is None else argv
    if raw[:1] == ["verify"]:
        from repro.verify.cli import main as verify_main

        return verify_main(raw[1:])
    args = parser.parse_args(argv)

    if args.command == "trace":
        if args.limit == 0:
            args.limit = None
        return _run_trace(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "diff":
        return _run_diff(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "metrics":
        return _run_metrics(args)
    if args.command == "cache":
        return _run_cache(args)

    registry = _registry()
    if args.command == "list":
        for name in registry:
            print(name)
        return 0

    from repro.harness import HarnessInterrupted

    if args.command == "report":
        from repro.experiments.report import generate

        session = _configure_session(args)
        try:
            _prewarm(session, list(registry), get_scale(args.scale))
        except HarnessInterrupted as stop:
            print(f"interrupted: {stop}", file=sys.stderr)
            print(session.telemetry.summary(), file=sys.stderr)
            return 130
        text = generate(get_scale(args.scale) if args.scale else None)
        print(session.telemetry.summary(), file=sys.stderr)
        if args.metrics:
            from repro.obs import format_metrics

            print(format_metrics(session.telemetry.to_metrics().snapshot()))
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"wrote {args.output}")
        return 0

    names = list(registry) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'mcr-dram list'", file=sys.stderr)
        return 2
    scale = get_scale(args.scale) if args.scale else None
    session = _configure_session(args)
    try:
        _prewarm(session, names, scale or get_scale())
    except HarnessInterrupted as stop:
        print(f"interrupted: {stop}", file=sys.stderr)
        print(session.telemetry.summary(), file=sys.stderr)
        return 130
    for name in names:
        start = time.time()
        result = registry[name](scale=scale) if scale else registry[name]()
        print(result.to_text())
        print(f"[{name} completed in {time.time() - start:.1f}s]\n")
        if getattr(args, "csv", None):
            from pathlib import Path

            from repro.experiments.export import to_csv

            directory = Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            to_csv(result, directory / f"{name}.csv")
        if getattr(args, "json", None):
            from pathlib import Path

            from repro.experiments.export import to_json

            directory = Path(args.json)
            directory.mkdir(parents=True, exist_ok=True)
            to_json(result, directory / f"{name}.json")
    print(session.telemetry.summary(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
