"""Unified command-line interface: ``python -m repro`` / ``deterrent``.

Subcommands:

- ``deterrent list`` — show every registered experiment.
- ``deterrent run <experiment> [--profile tiny|quick|full] [--jobs N]
  [--backend serial|process|thread] [--cell-timeout S] [--max-attempts N]
  [--cache-dir DIR] [--results-dir DIR] [--set key=value ...]`` — execute an
  experiment through the runner and print its paper-vs-measured report.
- ``deterrent report [<experiment>] [--results-dir DIR]`` — list saved runs,
  or re-print the stored report of one experiment.
- ``deterrent cache [--cache-dir DIR]`` — inspect the artifact cache
  (per-kind entry counts and sizes, zero-entry kinds included).
- ``deterrent cache prune [--max-size MIB] [--max-age DAYS] [--kind K]
  [--dry-run]`` — size/age-based eviction (oldest entries first; every
  entry is recomputable) plus a sweep of stale temp/lock debris.
- ``deterrent serve [--queue-dir DIR] [--port N] [--workers N]`` — run the
  detection-as-a-service HTTP front end (POST /jobs, GET /jobs/<id>,
  /healthz, /metrics) over a durable on-disk job queue.
- ``deterrent submit <experiment> (--bench FILE | --design NAME)
  [--url URL] [--profile P] [--set key=value ...] [--no-wait]`` — submit a
  netlist to a running service and (by default) poll until the job ends.
- ``deterrent queue-worker --queue-dir DIR`` — run one work-stealing
  worker against a queue directory: lease, run, heartbeat, ack.
- ``deterrent trace <dir>`` — render an exported trace directory (written
  by ``run --trace`` / ``serve --trace``): the span tree with durations,
  and the merged cross-worker timing percentiles;
  ``--chrome FILE`` additionally writes the Chrome ``trace_event`` view.

Every run writes structured artifacts under ``--results-dir`` (default
``results/``): a JSONL stream with one record per grid cell, plus a final
JSON run record embedding the rendered report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.experiments.reporting import (
    format_table,
    resilience_summary,
    results_dir,
    telemetry_summary,
)
from repro.runner.backends import backend_names


def _parse_option(text: str) -> tuple[str, Any]:
    """Parse one ``--set key=value`` pair (value decoded as JSON if possible)."""
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r} (e.g. --set design=c6288_like)"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_parser() -> argparse.ArgumentParser:
    """The ``deterrent`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="deterrent",
        description="DETERRENT reproduction: experiment registry, runner, and cache.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment through the runner")
    run_parser.add_argument("experiment", help="registered experiment name (see 'list')")
    run_parser.add_argument(
        "--profile", default="quick", help="execution profile: tiny, quick, or full"
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1,
        help="workers for grid cells (1 = serial, 0 = all CPUs)",
    )
    run_parser.add_argument(
        "--backend", default=None, choices=backend_names(),
        help="execution backend (default: serial for --jobs 1, process otherwise)",
    )
    run_parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock limit for one grid cell on pooled "
             "backends (default: the experiment's own, else unlimited)",
    )
    run_parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="attempts per grid cell before degrading to the serial backend "
             "(default: the experiment's own, else 3)",
    )
    run_parser.add_argument(
        "--cache-dir", default=None,
        help="artifact-cache directory (also honoured via DETERRENT_CACHE_DIR)",
    )
    run_parser.add_argument(
        "--results-dir", default=None,
        help="directory for JSON/JSONL run artifacts (default: results/)",
    )
    run_parser.add_argument(
        "--set", dest="options", action="append", default=[], type=_parse_option,
        metavar="KEY=VALUE", help="experiment option override (repeatable)",
    )
    run_parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="enable telemetry: export spans and metrics to DIR (inspect "
             "with 'deterrent trace DIR')",
    )

    report_parser = subparsers.add_parser("report", help="show saved run reports")
    report_parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment whose stored report to print (omit to list saved runs)",
    )
    report_parser.add_argument(
        "--profile", default=None, help="restrict to one profile's saved run"
    )
    report_parser.add_argument(
        "--results-dir", default=None, help="directory holding run artifacts"
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or prune the artifact cache"
    )
    cache_parser.add_argument(
        "--cache-dir", default=None,
        help="cache directory to inspect (default: DETERRENT_CACHE_DIR)",
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command")
    prune_parser = cache_sub.add_parser(
        "prune", help="evict cache entries by size and/or age (oldest first)"
    )
    # Distinct dest: a subparser re-applies its own defaults over the parent
    # namespace, so sharing dest="cache_dir" would silently discard a
    # --cache-dir given before the subcommand; the two are merged in
    # _command_cache_prune.
    prune_parser.add_argument(
        "--cache-dir", dest="prune_cache_dir", default=None,
        help="cache directory to prune (default: DETERRENT_CACHE_DIR)",
    )
    prune_parser.add_argument(
        "--max-size", type=float, default=None, metavar="MIB",
        help="evict oldest entries until the cache (or, with --kind, the "
             "selected kinds' subtotal) fits in MIB mebibytes",
    )
    prune_parser.add_argument(
        "--max-age", type=float, default=None, metavar="DAYS",
        help="evict entries not modified within DAYS days",
    )
    prune_parser.add_argument(
        "--kind", action="append", default=None, metavar="NAME",
        help="restrict eviction (and the --max-size budget) to one artifact "
             "kind (repeatable)",
    )
    prune_parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting anything",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the detection-as-a-service HTTP front end"
    )
    serve_parser.add_argument(
        "--queue-dir", default="deterrent-service/queue",
        help="durable job-queue directory shared with the workers",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None,
        help="shared artifact cache (default: DETERRENT_CACHE_DIR, else "
             "<queue-dir>/cache)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8787, help="bind port")
    serve_parser.add_argument(
        "--workers", type=int, default=0,
        help="queue workers to spawn locally (0: use externally started "
             "'deterrent queue-worker' processes)",
    )
    serve_parser.add_argument(
        "--lease-seconds", type=float, default=None, metavar="S",
        help="job lease duration before a dead worker's job is reclaimed",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="enable telemetry: trace submits (and, via the environment, "
             "spawned workers) into DIR",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit a netlist to a running detection service"
    )
    submit_parser.add_argument(
        "experiment", help="experiment harness to run (see 'deterrent list')"
    )
    source = submit_parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--bench", default=None, metavar="FILE",
        help=".bench netlist file to submit",
    )
    source.add_argument(
        "--design", default=None, metavar="NAME",
        help="submit a library benchmark's netlist instead of a file",
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8787", help="service base URL"
    )
    submit_parser.add_argument(
        "--profile", default="tiny", help="execution profile: tiny, quick, or full"
    )
    submit_parser.add_argument(
        "--set", dest="options", action="append", default=[], type=_parse_option,
        metavar="KEY=VALUE", help="experiment option override (repeatable)",
    )
    submit_parser.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without polling for the result",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="give up polling after S seconds (exit 1)",
    )
    submit_parser.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="S",
        help="seconds between status polls",
    )

    worker_parser = subparsers.add_parser(
        "queue-worker", help="run one work-stealing durable-queue worker"
    )
    worker_parser.add_argument(
        "--queue-dir", required=True, help="queue directory to work from"
    )
    worker_parser.add_argument(
        "--worker-id", default=None, help="stable worker name (default: worker-<pid>)"
    )
    worker_parser.add_argument(
        "--lease-seconds", type=float, default=None, metavar="S",
        help="lease duration this worker claims jobs with",
    )
    worker_parser.add_argument(
        "--poll-interval", type=float, default=0.1, metavar="S",
        help="idle sleep between claim attempts",
    )
    worker_parser.add_argument(
        "--no-heartbeat", action="store_true",
        help="do not renew leases while running (jobs longer than the lease "
             "will be stolen; chaos-testing aid)",
    )
    worker_parser.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="S",
        help="seconds between lease renewals (default: lease/3)",
    )
    worker_parser.add_argument(
        "--max-task-seconds", type=float, default=None, metavar="S",
        help="stop renewing a job's lease after S seconds so a wedged task "
             "is eventually reclaimed by a peer",
    )
    worker_parser.add_argument(
        "--max-idle-seconds", type=float, default=None, metavar="S",
        help="exit after S seconds without claimable work",
    )
    worker_parser.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after completing N jobs",
    )
    worker_parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache to use for every job (default: each job's own)",
    )
    worker_parser.add_argument(
        "--parent-pid", type=int, default=None, metavar="PID",
        help="exit when the supervising process PID is no longer the parent",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="render an exported telemetry directory"
    )
    trace_parser.add_argument(
        "trace_dir", help="trace directory written by 'run --trace' or 'serve --trace'"
    )
    trace_parser.add_argument(
        "--chrome", default=None, metavar="FILE",
        help="also write the Chrome trace_event JSON view to FILE",
    )
    trace_parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when the directory has no spans or the tree has "
             "orphaned parent links (CI validation)",
    )
    return parser


def _command_list() -> int:
    from repro.runner.registry import all_experiments

    rows = [[spec.name, spec.title, spec.description] for spec in all_experiments()]
    print(format_table(["Experiment", "Title", "Description"], rows))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.runner.execution import run_experiment
    from repro.runner.resilience import ResiliencePolicy

    if args.trace:
        obs.configure(args.trace)
    target_dir = Path(args.results_dir) if args.results_dir else results_dir()
    try:
        # An explicit CLI policy replaces the experiment's own cell
        # defaults wholesale (policy_for_spec's contract).
        resilience = None
        if args.cell_timeout is not None or args.max_attempts is not None:
            policy_kwargs: dict[str, Any] = {}
            if args.cell_timeout is not None:
                policy_kwargs["timeout"] = args.cell_timeout
            if args.max_attempts is not None:
                policy_kwargs["max_attempts"] = args.max_attempts
            resilience = ResiliencePolicy(**policy_kwargs)
        with obs.trace.span(
            "cli.run", attrs={"experiment": args.experiment, "profile": args.profile}
        ):
            run = run_experiment(
                args.experiment,
                profile=args.profile,
                jobs=args.jobs,
                options=dict(args.options),
                cache_dir=args.cache_dir,
                results_dir=target_dir,
                backend=args.backend,
                resilience=resilience,
                trace_dir=args.trace,
            )
        obs.flush()
    except (KeyError, ValueError) as error:
        # Unknown experiment/profile/option/backend or a bad policy value:
        # a usage error, not a crash.
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(run.report_text)
    print(
        f"\n{run.experiment} [{run.profile}] finished in {run.elapsed:.1f}s "
        f"({len(run.outcomes)} cells, jobs={run.jobs})"
    )
    print(resilience_summary(run.resilience))
    telemetry_line = telemetry_summary(run.telemetry)
    if telemetry_line:
        print(telemetry_line)
    if run.cache_stats is not None:
        print(
            f"artifact cache: {run.cache_stats['hits']} hits, "
            f"{run.cache_stats['misses']} misses"
        )
    if run.results_path is not None:
        print(f"results written to {run.results_path}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    target_dir = Path(args.results_dir) if args.results_dir else results_dir()
    records = []
    for path in sorted(target_dir.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(record, dict) and "experiment" in record and "report" in record:
            records.append((path, record))
    if not records:
        print(f"no saved runs under {target_dir}/ (run 'deterrent run <experiment>' first)")
        return 1

    if args.experiment is None:
        rows = [
            [
                record["experiment"],
                record.get("profile"),
                len(record.get("cells", [])),
                record.get("elapsed_seconds"),
                str(path),
            ]
            for path, record in records
        ]
        print(format_table(["Experiment", "Profile", "Cells", "Elapsed (s)", "File"], rows))
        return 0

    matches = [
        (path, record)
        for path, record in records
        if record["experiment"] == args.experiment
        and (args.profile is None or record.get("profile") == args.profile)
    ]
    if not matches:
        print(f"no saved run for {args.experiment!r} under {target_dir}/")
        return 1
    for _, record in matches:
        print(f"== {record['experiment']} [{record.get('profile')}] ==")
        print(record["report"])
    return 0


def _resolve_cache(args: argparse.Namespace):
    """The cache targeted by a ``cache`` subcommand, or None with a message."""
    from repro.runner.cache import CACHE_DIR_ENV, ArtifactCache, get_default_cache

    if args.cache_dir is not None:
        return ArtifactCache(Path(args.cache_dir))
    cache = get_default_cache()
    if cache is None:
        print(
            "no artifact cache configured (pass --cache-dir or set "
            f"{CACHE_DIR_ENV})"
        )
    return cache


def _command_cache(args: argparse.Namespace) -> int:
    if getattr(args, "cache_command", None) == "prune":
        return _command_cache_prune(args)
    cache = _resolve_cache(args)
    if cache is None:
        return 1
    root = Path(cache.root)
    if not root.exists():
        print(f"cache directory {root} does not exist yet (nothing cached)")
        return 0
    if not root.is_dir():
        print(f"error: cache path {root} is not a directory", file=sys.stderr)
        return 2
    # inventory() is tolerant of concurrent mutation and reports kinds with
    # zero remaining entries (e.g. after a prune) instead of dropping them.
    inventory = cache.inventory()
    if not inventory:
        print(f"cache directory {root} is empty")
        return 0
    rows = [
        [kind, count, f"{size / 1024:.1f} KiB"]
        for kind, (count, size) in sorted(inventory.items())
    ]
    total_entries = sum(count for count, _ in inventory.values())
    total_bytes = sum(size for _, size in inventory.values())
    print(format_table(["Kind", "Entries", "Size"], rows))
    print(f"\n{total_entries} entries, {total_bytes / 1024:.1f} KiB under {root}")
    lifetime = cache.stats_snapshot()["lifetime"]
    if lifetime:
        # Counters written through to <root>/stats.json by every run, queue
        # worker and HTTP service sharing this cache directory.
        print(
            f"lifetime stats: {lifetime.get('hits', 0)} hits, "
            f"{lifetime.get('misses', 0)} misses, "
            f"{lifetime.get('stores', 0)} stores, "
            f"{lifetime.get('corrupt', 0)} corrupt"
        )
    print(
        "entries are content-addressed and only evicted on request; run "
        "'deterrent cache prune'\n(--max-size MIB / --max-age DAYS) to "
        "reclaim space — every entry is recomputable."
    )
    return 0


def _command_cache_prune(args: argparse.Namespace) -> int:
    if args.prune_cache_dir is not None:
        args.cache_dir = args.prune_cache_dir
    cache = _resolve_cache(args)
    if cache is None:
        return 1
    root = Path(cache.root)
    if not root.exists():
        print(f"cache directory {root} does not exist yet (nothing to prune)")
        return 0
    if not root.is_dir():
        print(f"error: cache path {root} is not a directory", file=sys.stderr)
        return 2
    if args.kind:
        # Kinds are an open set (any store() caller can mint one), so a name
        # without a directory is a legitimate empty no-op — but say so, in
        # case it is a typo for one of the populated kinds.
        known = sorted(cache.inventory())
        missing = sorted(set(args.kind) - set(known))
        if missing:
            print(
                f"warning: no entries for kind(s): {', '.join(missing)}"
                + (f" (populated: {', '.join(known)})" if known else ""),
                file=sys.stderr,
            )
    max_bytes = None
    if args.max_size is not None:
        if args.max_size < 0:
            print("error: --max-size must be >= 0", file=sys.stderr)
            return 2
        max_bytes = int(args.max_size * 1024 * 1024)
    max_age_seconds = None
    if args.max_age is not None:
        if args.max_age < 0:
            print("error: --max-age must be >= 0", file=sys.stderr)
            return 2
        max_age_seconds = args.max_age * 86400.0
    report = cache.prune(
        max_bytes=max_bytes,
        max_age_seconds=max_age_seconds,
        kinds=args.kind,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {report.removed_entries} entries "
        f"({report.removed_bytes / 1024:.1f} KiB), kept {report.kept_entries} "
        f"({report.kept_bytes / 1024:.1f} KiB) under {root}"
    )
    for kind, count in sorted(report.removed_by_kind.items()):
        print(f"  {kind}: {verb} {count}")
    if report.removed_debris:
        print(f"  debris: {verb} {report.removed_debris} stale temp/lock file(s)")
    if max_bytes is None and max_age_seconds is None:
        swept = "would be swept" if args.dry_run else "was swept"
        print(
            "no --max-size or --max-age given: entries were kept, only stale "
            f"temp/lock debris {swept}"
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service.queue import DEFAULT_LEASE_SECONDS
    from repro.service.server import serve

    return serve(
        args.queue_dir,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.workers,
        lease_seconds=(
            args.lease_seconds if args.lease_seconds is not None else DEFAULT_LEASE_SECONDS
        ),
        verbose=args.verbose,
        trace_dir=args.trace,
    )


def _command_submit(args: argparse.Namespace) -> int:
    from repro.service.server import http_json

    if args.bench is not None:
        try:
            bench_text = Path(args.bench).read_text()
        except OSError as error:
            print(f"error: cannot read {args.bench}: {error}", file=sys.stderr)
            return 2
    else:
        from repro.circuits.bench_io import dumps_bench
        from repro.circuits.library import load_benchmark

        try:
            bench_text = dumps_bench(load_benchmark(args.design, combinational_view=False))
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    payload = {
        "experiment": args.experiment,
        "profile": args.profile,
        "options": dict(args.options),
        "bench": bench_text,
    }
    base = args.url.rstrip("/")
    try:
        status, body = http_json(f"{base}/jobs", payload)
    except OSError as error:
        print(f"error: cannot reach service at {base}: {error}", file=sys.stderr)
        return 1
    if status >= 400:
        print(f"error: service rejected the job: {body.get('error')}", file=sys.stderr)
        return 2 if status == 400 else 1
    job_id = body["job_id"]
    print(f"job {job_id}: {body.get('status')}" + (" (cached)" if body.get("cached") else ""))
    if body.get("status") == "done":
        _print_job_result(body)
        return 0
    if args.no_wait:
        print(f"poll with: GET {base}/jobs/{job_id}")
        return 0
    deadline = time.time() + args.timeout
    while time.time() < deadline:
        time.sleep(args.poll_interval)
        try:
            status, body = http_json(f"{base}/jobs/{job_id}")
        except OSError as error:
            print(f"error: lost the service at {base}: {error}", file=sys.stderr)
            return 1
        state = body.get("status")
        if state == "done":
            _print_job_result(body)
            return 0
        if state == "failed":
            error = body.get("error") or {}
            print(
                f"job {job_id} failed: {error.get('type', 'Error')}: "
                f"{error.get('message', 'unknown error')}",
                file=sys.stderr,
            )
            return 1
    print(f"error: job {job_id} still {body.get('status')!r} after {args.timeout}s", file=sys.stderr)
    return 1


def _print_job_result(body: dict[str, Any]) -> None:
    record = body.get("result") or {}
    report = record.get("report")
    if report:
        print(report)
    test_sets = record.get("test_sets")
    if test_sets:
        for entry in test_sets:
            count = len(entry.get("sequences", entry.get("patterns", [])))
            print(f"test set [{entry.get('cell')}]: {count} {entry.get('kind', 'vectors')}")
    if record.get("elapsed_seconds") is not None:
        print(f"job ran in {record['elapsed_seconds']}s on design {record.get('design')}")


def _command_queue_worker(args: argparse.Namespace) -> int:
    from repro.service.jobs import import_harnesses
    from repro.service.queue import (
        DEFAULT_LEASE_SECONDS,
        DurableQueue,
        WorkerOptions,
        worker_loop,
    )

    # Load the job stack before the first heartbeat: start-up, not the
    # first job, pays for it.
    import_harnesses()
    queue = DurableQueue(
        args.queue_dir,
        lease_seconds=(
            args.lease_seconds if args.lease_seconds is not None else DEFAULT_LEASE_SECONDS
        ),
    )
    options = WorkerOptions(
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        heartbeat=not args.no_heartbeat,
        heartbeat_interval=args.heartbeat_interval,
        max_task_seconds=args.max_task_seconds,
        max_idle_seconds=args.max_idle_seconds,
        max_jobs=args.max_jobs,
        cache_dir=args.cache_dir,
        parent_pid=args.parent_pid,
    )
    try:
        done = worker_loop(queue, options)
    except KeyboardInterrupt:
        return 0
    print(f"queue worker exiting after {done} job(s)")
    return 0


def _format_duration(seconds: object) -> str:
    if not isinstance(seconds, (int, float)):
        return "?"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}µs"


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    trace_dir = Path(args.trace_dir)
    if not trace_dir.is_dir():
        print(f"error: {trace_dir} is not a directory", file=sys.stderr)
        return 2
    spans = obs_trace.load_spans(trace_dir)
    if not spans:
        print(f"no spans under {trace_dir}")
        return 1 if args.check else 0
    roots, children = obs_trace.build_tree(spans)
    orphans = obs_trace.orphan_spans(spans)

    interesting = ("cell", "task", "attempt", "backend", "label", "experiment",
                   "profile", "job_id", "worker", "sequences", "failure")

    def render(record: dict, depth: int) -> None:
        status = record.get("status", "ok")
        flag = "" if status == "ok" else f"  [{status}]"
        attrs = record.get("attrs") or {}
        shown = ", ".join(
            f"{key}={attrs[key]}" for key in interesting if key in attrs
        )
        attr_text = f"  ({shown})" if shown else ""
        print(
            f"{'  ' * depth}{record.get('name', '?')}  "
            f"{_format_duration(record.get('dur_s'))}{flag}{attr_text}"
        )
        for child in children.get(record["span_id"], []):
            render(child, depth + 1)

    traces = {record.get("trace_id") for record in spans}
    print(
        f"{len(spans)} spans, {len(traces)} trace(s), "
        f"{len(roots)} root(s) under {trace_dir}"
    )
    for root in roots:
        render(root, 0)
    if orphans:
        print(f"\nwarning: {len(orphans)} span(s) reference a parent that was "
              "never exported (worker died before flushing?)")

    profiles = obs_metrics.percentile_summary(obs_metrics.merged_snapshot(trace_dir))
    if profiles:
        rows = [
            [
                name,
                int(summary["count"]),
                _format_duration(summary["p50"]),
                _format_duration(summary["p90"]),
                _format_duration(summary["p99"]),
                _format_duration(summary["total"]),
            ]
            for name, summary in sorted(profiles.items())
        ]
        print("\nprofiles:")
        print(format_table(["Path", "Samples", "p50", "p90", "p99", "Total"], rows))

    if args.chrome:
        chrome_path = Path(args.chrome)
        chrome_path.parent.mkdir(parents=True, exist_ok=True)
        chrome_path.write_text(json.dumps(obs_trace.chrome_trace(spans)))
        print(f"\nchrome trace written to {chrome_path} (open in ui.perfetto.dev)")

    if args.check and orphans:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (returns a process exit code)."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            return _command_run(args)
        if args.command == "report":
            return _command_report(args)
        if args.command == "cache":
            return _command_cache(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "submit":
            return _command_submit(args)
        if args.command == "queue-worker":
            return _command_queue_worker(args)
        if args.command == "trace":
            return _command_trace(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
