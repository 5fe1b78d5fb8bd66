"""Command-line entry point: ``python -m repro.harness <experiment>``."""

from __future__ import annotations

import argparse
import json
import sys

import repro.cluster.network as network_mod
import repro.faults as faults
import repro.obs as obs
from repro.traffic import parse_traffic_spec
from repro.harness import registry
from repro.harness.runner import SCALE_PAPER, SCALE_QUICK
from repro.obs import (
    DEFAULT_HZ,
    LiveConsole,
    Sampler,
    SamplingProfiler,
    Telemetry,
    ZoneProfiler,
    attach_store,
    analyze,
    check_tolerances,
    diff_runs,
    metrics_dict,
    parse_slo_spec,
    parse_tolerance_spec,
    profile_dict,
    profile_shard_dir,
    render_analysis,
    render_diff,
    slo_violation_predicate,
    summary_table,
    write_chrome_trace,
    write_html_report,
    write_metrics,
    write_prometheus,
    write_series_csv,
)

EXPERIMENTS = [
    "table1", "fig1", "fig2", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15",
]

#: Extensions beyond the paper's evaluation (not part of `all`).
EXTENSIONS = ["scaleout", "ablations", "chaos", "scale"]

#: Offline analysis tools over previously exported runs (ISSUE 4).
TOOLS = ["analyze", "diff"]

#: Registry commands (ISSUE 10): ``list`` prints the discovered registry,
#: ``run <name>`` executes any registered experiment by name.
COMMANDS = ["list", "run"]


def _load_metrics_doc(parser, flag: str, path: str) -> dict:
    """Load an exported metrics JSON, parser.error-ing on bad input."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        parser.error(f"{flag}: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        parser.error(f"{flag}: {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        parser.error(f"{flag}: {path} is not a metrics document (expected an object)")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + EXTENSIONS + TOOLS + COMMANDS + ["all"],
        help="which table/figure to regenerate ('all' runs the paper's set); "
        "'list' prints the experiment registry, 'run NAME' executes any "
        "registered experiment; "
        "'analyze' prints the critical-path blame of a saved run "
        "(--run RUN.json), re-renders a cached run directory "
        "(--from DIR), or profiles a shard dir (--stream-dir DIR); "
        "'diff' compares two saved runs "
        "(--run RUN.json --baseline BASE.json)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="experiment name for the 'run' command (see 'list')",
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "paper"],
        default="paper",
        help="experiment size (quick = CI-sized runs)",
    )
    parser.add_argument(
        "--system",
        choices=["strings", "design2", "rain"],
        default="strings",
        help="runtime system for the scaleout extension "
        "(strings = Design III, design2 = shared-master Design II, "
        "rain = Design I; other experiments fix their own systems)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON of the run(s) to PATH "
        "(open in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a flat JSON dump of all collected metrics to PATH",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a self-contained HTML run report (per-GPU sparklines, "
        "tenant attribution, SLO summary) to PATH",
    )
    parser.add_argument(
        "--series-out",
        metavar="PATH",
        default=None,
        help="write the sampled time series as long-format CSV to PATH",
    )
    parser.add_argument(
        "--prom-out",
        metavar="PATH",
        default=None,
        help="write final metrics in Prometheus text exposition to PATH",
    )
    parser.add_argument(
        "--stream-dir",
        metavar="DIR",
        default=None,
        help="streaming mode (ISSUE 6): flush finished request spans to "
        "rotating JSONL shard files under DIR instead of retaining every "
        "span in memory (bounded-memory 1e5-1e6-request runs; histograms "
        "are quantile sketches in every mode, so quantiles do not change; "
        "--trace/--analyze/--report read the retained+flushed union)",
    )
    parser.add_argument(
        "--span-buffer",
        metavar="N",
        type=int,
        default=10_000,
        help="streaming mode: spans buffered between shard flushes "
        "(flushes also happen on every sampler tick; default 10000)",
    )
    parser.add_argument(
        "--live",
        metavar="SECONDS",
        nargs="?",
        type=float,
        const=1.0,
        default=None,
        help="live run console: a periodically rewritten status line "
        "(completed, goodput, sketch p99, SLO burn, per-GPU util, ETA) "
        "redrawn at most every SECONDS wall-clock (default 1.0)",
    )
    parser.add_argument(
        "--heartbeat",
        metavar="PATH",
        default=None,
        help="append one machine-readable JSON progress record per live "
        "console redraw to PATH (implies --live)",
    )
    parser.add_argument(
        "--profile",
        metavar="HZ",
        nargs="?",
        type=float,
        const=DEFAULT_HZ,
        default=None,
        help="wall-clock self-profiling (ISSUE 9): attach the zone-tagged "
        "CPU ledger and an off-thread sampling profiler at HZ samples/s "
        f"(default {DEFAULT_HZ:.0f}; HZ=0 keeps the zone ledger but skips "
        "the stack sampler); simulated results are byte-identical either "
        "way — only wall-clock accounting is added",
    )
    parser.add_argument(
        "--flame-out",
        metavar="PATH",
        default=None,
        help="write the sampled stacks as collapsed-stack text "
        "(zone;frame;... count — flamegraph.pl/inferno input) to PATH; "
        "requires --profile with HZ > 0",
    )
    parser.add_argument(
        "--speedscope-out",
        metavar="PATH",
        default=None,
        help="write the sampled stacks as a speedscope JSON profile "
        "(open at https://www.speedscope.app) to PATH; requires "
        "--profile with HZ > 0",
    )
    parser.add_argument(
        "--traffic",
        metavar="SPEC",
        default=None,
        help="generated traffic scenario for the 'scale' extension, e.g. "
        "'poisson:rate=50,tenants=2000,churn=exp:120' "
        "(process head poisson/onoff/diurnal plus tenants=/churn=/think=/"
        "reqs=/duration=/apps=/nodes=/seed= knobs; see repro.traffic)",
    )
    parser.add_argument(
        "--loads",
        metavar="CSV",
        default=None,
        help="load multipliers the 'scale' extension sweeps over the "
        "scenario's offered rate (default 0.25,0.5,0.75,1,1.25,1.5,2; "
        "quick scale: 0.5,1,2)",
    )
    parser.add_argument(
        "--scale-out",
        metavar="PATH",
        default=None,
        help="write the 'scale' sweep (per-point goodput/latency/SLO burn "
        "plus the detected knee) as JSON to PATH",
    )
    parser.add_argument(
        "--scale-report",
        metavar="PATH",
        default=None,
        help="write a self-contained HTML card of the 'scale' sweep "
        "(goodput-vs-offered plot with knee marker) to PATH",
    )
    parser.add_argument(
        "--slo",
        metavar="SPEC",
        default=None,
        help="SLO targets, e.g. 'MC:2.5,*:30:0.99,window=20' "
        "(APP:LATENCY_S[:FRACTION], APP@THROUGHPUT_RPS, window=SECONDS)",
    )
    parser.add_argument(
        "--sample-interval",
        metavar="SIM_SECONDS",
        type=float,
        default=1.0,
        help="sim-time interval between sampler snapshots (default 1.0)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault plan, e.g. 'gpu_fail@30:gid=1:down=20,"
        "backend_crash@60:gid=0:restart=2,retries=8' "
        "(KIND@T:field=value items plus mtbf=/retries=/backoff=/warmup= "
        "globals; see DESIGN.md §Fault Model)",
    )
    parser.add_argument(
        "--link-gbps",
        metavar="GBPS",
        type=float,
        default=None,
        help="interconnect bandwidth in Gb/s (default 10.0)",
    )
    parser.add_argument(
        "--link-latency-us",
        metavar="US",
        type=float,
        default=None,
        help="one-way interconnect latency in microseconds (default 120)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="after the run, print the critical-path blame table "
        "(per-phase/GPU/tenant, top-k slowest, engine reconciliation)",
    )
    parser.add_argument(
        "--diff-against",
        metavar="PATH",
        default=None,
        help="compare this run against a previously exported metrics JSON "
        "(--metrics-out of an earlier run) and print the delta",
    )
    parser.add_argument(
        "--diff-out",
        metavar="PATH",
        default=None,
        help="write the run-comparison delta as a JSON artifact to PATH",
    )
    parser.add_argument(
        "--run",
        metavar="PATH",
        default=None,
        help="saved metrics JSON for the 'analyze'/'diff' tools",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline metrics JSON for the 'diff' tool",
    )
    parser.add_argument(
        "--top-k",
        metavar="N",
        type=int,
        default=10,
        help="slowest-request digest length for --analyze (default 10)",
    )
    parser.add_argument(
        "--tolerance",
        metavar="SPEC",
        default=None,
        help="per-metric relative tolerances for diffs, e.g. "
        "'kernel=0.05,p99=0.10,default=0.02' (KEY=FRACTION items; exit 1 "
        "when a diff exceeds them)",
    )
    parser.add_argument(
        "--out-dir",
        metavar="DIR",
        default=None,
        help="persist the run's artifacts (experiment.json + results.json) "
        "to DIR, re-renderable offline via 'analyze --from DIR'",
    )
    parser.add_argument(
        "--from",
        dest="from_dir",
        metavar="DIR",
        default=None,
        help="'analyze' tool: re-render the report of a cached run "
        "directory (an earlier --out-dir) from its artifacts, without "
        "re-simulating",
    )
    parser.add_argument(
        "-O",
        "--opt",
        metavar="KEY=VALUE",
        action="append",
        default=None,
        help="experiment option passed into the registry context, e.g. "
        "-O policy=GMin-Rain or -O pairs='[\"G\",\"K\"]' (VALUE parsed as "
        "JSON when possible, kept as a string otherwise; repeatable)",
    )
    args = parser.parse_args(argv)
    scale = SCALE_QUICK if args.scale == "quick" else SCALE_PAPER

    cli_opts = {}
    for item in args.opt or ():
        if "=" not in item:
            parser.error(f"--opt expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        try:
            cli_opts[key] = json.loads(value)
        except json.JSONDecodeError:
            cli_opts[key] = value

    # -- registry commands (ISSUE 10) --------------------------------------
    if args.experiment == "list":
        if args.target is not None:
            parser.error("'list' takes no experiment name")
        print(registry.format_listing())
        return 0
    if args.experiment == "run":
        if args.target is None:
            parser.error(
                "'run' needs an experiment name "
                "(see 'python -m repro.harness list')"
            )
        try:
            args.experiment = registry.get(args.target).name
        except registry.UnknownExperiment as e:
            parser.error(str(e))
    elif args.target is not None:
        parser.error(
            f"unexpected argument {args.target!r} "
            "(only 'run' takes an experiment name)"
        )
    if args.from_dir is not None and args.experiment != "analyze":
        parser.error("--from only applies to the 'analyze' tool")
    if args.out_dir is not None and args.experiment in TOOLS + ["all"]:
        parser.error("--out-dir needs a single experiment run")

    if args.sample_interval <= 0:
        parser.error(
            f"--sample-interval must be > 0 sim-seconds, got {args.sample_interval}"
        )
    if args.top_k <= 0:
        parser.error(f"--top-k must be > 0, got {args.top_k}")
    if args.span_buffer < 1:
        parser.error(f"--span-buffer must be >= 1, got {args.span_buffer}")
    if args.live is not None and args.live <= 0:
        parser.error(f"--live interval must be > 0 wall-seconds, got {args.live}")
    if args.heartbeat is not None and args.live is None:
        args.live = 1.0
    if args.profile is not None and args.profile < 0:
        parser.error(f"--profile rate must be >= 0 Hz, got {args.profile}")
    sampling_stacks = args.profile is not None and args.profile > 0
    for flag, value in (
        ("--flame-out", args.flame_out),
        ("--speedscope-out", args.speedscope_out),
    ):
        if value is not None and not sampling_stacks:
            parser.error(f"{flag} requires --profile with a rate > 0 Hz")

    tolerances = None
    if args.tolerance is not None:
        try:
            tolerances = parse_tolerance_spec(args.tolerance)
        except ValueError as e:
            parser.error(f"--tolerance: {e}")

    # A baseline for --diff-against must exist and parse *before* the
    # experiments burn any time (mirrors the --slo/--faults validation).
    baseline_doc = None
    if args.diff_against is not None:
        baseline_doc = _load_metrics_doc(parser, "--diff-against", args.diff_against)

    # -- offline tools: no simulation, just saved-run post-processing ------
    if args.experiment == "analyze":
        if args.from_dir is not None:
            # Cached-run re-analysis (ISSUE 10): re-render the registered
            # experiment's report from its saved artifacts; nothing below
            # constructs a simulation Environment.
            try:
                print(registry.analyze_from(args.from_dir, options=cli_opts))
            except (ValueError, registry.UnknownExperiment) as e:
                parser.error(f"--from: {e}")
            return 0
        if args.run is None and args.stream_dir is not None:
            # Offline shard-dir analysis: profile the stream directly
            # from its JSONL shards, no registry or metrics export needed.
            import os

            if not os.path.isdir(args.stream_dir):
                parser.error(f"--stream-dir: {args.stream_dir} is not a directory")
            profile = profile_shard_dir(args.stream_dir)
            if not profile.requests:
                parser.error(
                    f"--stream-dir: no finished request spans found under "
                    f"{args.stream_dir}"
                )
            print(
                render_analysis(
                    profile_dict(profile, top_k=args.top_k), top_k=args.top_k
                )
            )
            return 0
        if args.run is None:
            parser.error(
                "analyze requires --run RUN.json (a --metrics-out export) "
                "or --stream-dir DIR (a streaming run's shard directory)"
            )
        doc = _load_metrics_doc(parser, "--run", args.run)
        analysis = doc.get("analysis")
        if not analysis:
            parser.error(
                f"--run: {args.run} has no 'analysis' section "
                "(re-export it with --metrics-out from this version)"
            )
        print(render_analysis(analysis, top_k=args.top_k))
        return 0
    if args.experiment == "diff":
        if args.run is None or args.baseline is None:
            parser.error("diff requires --run RUN.json and --baseline BASE.json")
        doc = _load_metrics_doc(parser, "--run", args.run)
        base = _load_metrics_doc(parser, "--baseline", args.baseline)
        delta = diff_runs(
            base, doc, base_label=args.baseline, other_label=args.run
        )
        print(render_diff(delta))
        if args.diff_out is not None:
            with open(args.diff_out, "w") as fh:
                json.dump(delta, fh, indent=2, sort_keys=True)
            print(f"[diff written to {args.diff_out}]")
        if tolerances is not None:
            failures = check_tolerances(delta, tolerances)
            if failures:
                print("tolerance check FAILED:")
                for f in failures:
                    print(f"  {f}")
                return 1
            print("tolerance check passed")
        return 0
    if args.link_gbps is not None and args.link_gbps <= 0:
        parser.error(f"--link-gbps must be > 0, got {args.link_gbps}")
    if args.link_latency_us is not None and args.link_latency_us < 0:
        parser.error(f"--link-latency-us must be >= 0, got {args.link_latency_us}")

    slo_monitor = None
    if args.slo is not None:
        try:
            slo_monitor = parse_slo_spec(args.slo)
        except ValueError as e:
            parser.error(f"--slo: {e}")

    fault_plan = None
    if args.faults is not None:
        try:
            fault_plan = faults.parse_fault_spec(args.faults)
        except ValueError as e:
            parser.error(f"--faults: {e}")

    # --traffic / --loads drive the 'scale' extension only; validate them
    # up front (mirroring --slo/--faults) so a typo fails in milliseconds.
    scale_flags = {
        "--traffic": args.traffic, "--loads": args.loads,
        "--scale-out": args.scale_out, "--scale-report": args.scale_report,
    }
    for flag, value in scale_flags.items():
        if value is not None and args.experiment != "scale":
            parser.error(f"{flag} only applies to the 'scale' extension")
    if args.traffic is not None:
        try:
            parse_traffic_spec(args.traffic)
        except ValueError as e:
            parser.error(f"--traffic: {e}")
    loads = None
    if args.loads is not None:
        try:
            loads = tuple(
                float(tok) for tok in args.loads.split(",") if tok.strip()
            )
        except ValueError:
            parser.error(
                f"--loads: multipliers must be numbers, got {args.loads!r}"
            )
        if not loads:
            parser.error("--loads: needs at least one multiplier")
        if any(m <= 0 for m in loads):
            parser.error(f"--loads: multipliers must be > 0, got {args.loads!r}")

    out_paths = (
        args.trace, args.metrics_out, args.report, args.series_out,
        args.prom_out, args.diff_out,
    )
    # Fail on unwritable output paths now, not after the experiments ran.
    for path in out_paths + (
        args.heartbeat, args.scale_out, args.scale_report,
        args.flame_out, args.speedscope_out,
    ):
        if path is not None:
            try:
                with open(path, "a"):
                    pass
            except OSError as e:
                parser.error(f"cannot write {path}: {e}")

    # -- scale: the load-to-the-knee sweep manages its own per-point
    # telemetry registries (and per-point --stream-dir subdirectories), so
    # it dispatches before the process-wide observing registry installs.
    if args.experiment == "scale":
        from repro.harness import scale as scale_tool

        if args.flame_out is not None or args.speedscope_out is not None:
            parser.error(
                "--flame-out/--speedscope-out do not apply to the 'scale' "
                "extension (it runs one registry per load point; use "
                "--profile for per-point CPU ledgers in --scale-out)"
            )
        if args.link_gbps is not None or args.link_latency_us is not None:
            network_mod.configure_defaults(
                latency_s=(
                    args.link_latency_us * 1e-6
                    if args.link_latency_us is not None
                    else None
                ),
                bandwidth_gbps=args.link_gbps,
            )
        if loads is None:
            loads = (
                (0.5, 1.0, 2.0) if args.scale == "quick"
                else scale_tool.DEFAULT_LOADS
            )
        scale_tool.main(
            traffic=(
                args.traffic if args.traffic is not None
                else scale_tool.DEFAULT_TRAFFIC
            ),
            loads=loads,
            system=args.system,
            seed=scale.seed,
            stream_dir=args.stream_dir,
            span_buffer=args.span_buffer,
            slo=args.slo,
            live=args.live,
            sample_interval=args.sample_interval,
            fault_plan=fault_plan,
            profile=args.profile,
            out_json=args.scale_out,
            out_html=args.scale_report,
            out_dir=args.out_dir,
        )
        return 0

    # Bad -O values (an unknown policy or pair) fail now, before any
    # experiment simulates: prepare() validates options and never simulates.
    targets = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    for name in targets:
        try:
            registry.get(name)().prepare(
                registry.ExperimentContext(scale=scale, options=dict(cli_opts))
            )
        except ValueError as e:
            parser.error(f"-O: {e}")

    # Any observing flag installs a real registry — including --metrics-out
    # on its own, so its summary still carries span-derived p50/p99.
    streaming = args.stream_dir is not None
    live = args.live is not None
    profiling = args.profile is not None
    observing = (
        any(p is not None for p in out_paths)
        or slo_monitor is not None
        or args.analyze
        or baseline_doc is not None
        or streaming
        or live
        or profiling
    )
    tel = obs.install(Telemetry()) if observing else obs.current()
    if profiling:
        # Zone-tagged CPU ledger (ISSUE 9): hot paths re-read ``tel.perf``
        # per call, so attaching here (before any system is built) is all
        # the wiring the sim/scheduler/backend layers need.
        tel.perf = ZoneProfiler()

    # The sampler powers the series CSV, report sparklines, windowed SLO
    # throughput checks — and, in streaming/live mode, the shard-flush
    # and console-redraw ticks; skip it when none of those were asked for.
    if observing and (
        args.report or args.series_out or args.prom_out or slo_monitor
        or streaming or live
    ):
        tel.sampler = Sampler(interval_s=args.sample_interval)
    if slo_monitor is not None:
        tel.slo = slo_monitor.bind(tel)

    store = None
    if streaming:
        # Point the registry's span sink at a shard store; the default
        # (non-streaming) path is untouched and byte-identical.
        try:
            store = attach_store(
                tel,
                args.stream_dir,
                buffer_limit=args.span_buffer,
                violation=(
                    slo_violation_predicate(slo_monitor.targets)
                    if slo_monitor is not None
                    else None
                ),
            )
        except OSError as e:
            parser.error(f"--stream-dir: cannot create {args.stream_dir}: {e}")
    if live:
        tel.console = LiveConsole(
            interval_s=args.live, heartbeat_path=args.heartbeat
        )

    if args.link_gbps is not None or args.link_latency_us is not None:
        network_mod.configure_defaults(
            latency_s=(
                args.link_latency_us * 1e-6
                if args.link_latency_us is not None
                else None
            ),
            bandwidth_gbps=args.link_gbps,
        )
    if fault_plan is not None:
        faults.install_plan(fault_plan)

    profiler = None
    if sampling_stacks:
        profiler = SamplingProfiler(hz=args.profile, perf=tel.perf)
        tel.profiler = profiler  # report.py reads it for the flame summary
        profiler.start()

    try:
        for name in targets:
            print(f"==== {name} ".ljust(70, "="))
            with tel.stopwatch("experiment.wall_s", experiment=name) as sw:
                opts = dict(cli_opts)
                if name == "scaleout":
                    opts.setdefault("system", args.system)
                registry.run_main(
                    name, scale=scale, out_dir=args.out_dir, **opts
                )
            print(f"[{name} done in {sw.elapsed:.1f}s]\n")

        if profiler is not None:
            # Freeze the sample set before any exporter reads it.
            profiler.stop()
        if live:
            tel.console.close(tel)
        if store is not None:
            # Final flush: every completed request group (retained ones
            # included) lands in the shards, so the directory alone is a
            # complete record and every exporter below reads the
            # retained+flushed union through the store.
            store.close()
            st = store.stats()
            print(
                f"[span stream: {st['spans_flushed']} spans in "
                f"{st['shards']} shard(s) under {st['directory']}]"
            )

        delta = None
        if baseline_doc is not None:
            delta = diff_runs(
                baseline_doc,
                metrics_dict(tel),
                base_label=args.diff_against,
                other_label=f"this run ({args.experiment})",
            )

        if args.trace is not None:
            write_chrome_trace(tel, args.trace)
            print(f"[trace written to {args.trace}]")
        if args.metrics_out is not None:
            write_metrics(tel, args.metrics_out)
            print(f"[metrics written to {args.metrics_out}]")
        if args.series_out is not None:
            write_series_csv(tel, args.series_out)
            print(f"[series CSV written to {args.series_out}]")
        if args.prom_out is not None:
            write_prometheus(tel, args.prom_out)
            print(f"[prometheus metrics written to {args.prom_out}]")
        if delta is not None and args.diff_out is not None:
            with open(args.diff_out, "w") as fh:
                json.dump(delta, fh, indent=2, sort_keys=True)
            print(f"[diff written to {args.diff_out}]")
        if args.report is not None:
            write_html_report(
                tel,
                args.report,
                title=f"repro run report: {args.experiment}",
                comparison=delta,
            )
            print(f"[HTML report written to {args.report}]")
        if args.flame_out is not None:
            profiler.write_collapsed(args.flame_out)
            print(f"[collapsed stacks written to {args.flame_out}]")
        if args.speedscope_out is not None:
            profiler.write_speedscope(
                args.speedscope_out,
                name=f"repro self-profile: {args.experiment}",
            )
            print(f"[speedscope profile written to {args.speedscope_out}]")
        if observing:
            print()
            print(summary_table(tel))
        if profiling:
            print()
            print(tel.perf.format_ledger(title="CPU ledger (wall-clock zones)"))
            if profiler is not None:
                print(f"[profiler: {profiler.summary()}]")
        if args.analyze:
            print()
            print(render_analysis(analyze(tel, top_k=args.top_k), top_k=args.top_k))
        if delta is not None:
            print()
            print(render_diff(delta))
            if tolerances is not None:
                failures = check_tolerances(delta, tolerances)
                if failures:
                    print("tolerance check FAILED:")
                    for f in failures:
                        print(f"  {f}")
                    return 1
                print("tolerance check passed")
    finally:
        if profiler is not None:
            profiler.stop()  # idempotent; covers the exception path
        if observing:
            obs.reset()
        faults.reset_plan()
        network_mod.reset_defaults()
    return 0


if __name__ == "__main__":
    sys.exit(main())
