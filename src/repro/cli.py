"""Command-line front-end: ``graphsd`` (or ``python -m repro``).

Subcommands
-----------
``datasets``
    List the Table 3 dataset proxies and their sizes.
``preprocess``
    Build a system's on-disk representation for a dataset into a
    directory (reusable across runs, as §5.3 advocates).
``run``
    Execute one algorithm on one dataset with one system and print the
    run summary plus the per-iteration trace.
``bench``
    Regenerate one of the paper's tables/figures (or ``all``); ``bench
    write`` regenerates the committed ``BENCH_*.json`` records from their
    run tables, and ``bench check`` re-runs each table's gated cells
    against them and exits 1 on a perf regression (see
    :mod:`repro.bench.runner`).
``trace``
    Inspect structured trace files written by ``run --trace PATH`` or
    ``bench --trace DIR``: ``trace report`` prints the per-iteration and
    scheduler-audit summary, ``trace export`` converts to the Chrome /
    Perfetto ``trace_event`` format, and ``trace critical-path``
    attributes a merged distributed trace's makespan to worker ×
    resource per superstep (see ``docs/OBSERVABILITY.md``).
``lint``
    Run the project-invariant static checkers (see ``docs/ANALYSIS.md``).
    Exit 0 when clean, 1 on new findings, 2 on bad usage.
``tune``
    Fit and print §4.1 cost-model scales from the scheduler-audit records
    of one or more structured traces (see ``docs/TUNING.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench import (
    Harness,
    SYSTEMS,
    WORKLOADS,
    run_fig10_scheduler,
    run_fig11_overhead,
    run_fig12_buffering,
    run_fig6_breakdown,
    run_fig7_io_traffic,
    run_fig8_preprocessing,
    run_fig9_ablation,
    run_table1_features,
    run_table4_fig5,
)
from repro.bench.reporting import ExperimentReport, format_table
from repro.cluster import INTERCONNECT_PROFILES
from repro.core.convergence import require_async_capable
from repro.datasets import list_datasets, load_dataset, table3_rows
from repro.graph import preprocess_graphsd, preprocess_husgraph, preprocess_lumos
from repro.graph.grid import ENCODINGS, ENCODING_RAW
from repro.obs import peak_rss_bytes
from repro.storage import ChecksumError, Device, FaultError


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = table3_rows()
    headers = list(rows[0].keys())
    print(format_table(headers, [[r[h] for h in headers] for r in rows]))
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    if args.encoding != ENCODING_RAW and args.system != "graphsd":
        print(
            f"error: --encoding {args.encoding} is only supported by the "
            "graphsd representation",
            file=sys.stderr,
        )
        return 2
    edges = load_dataset(args.dataset, weighted=args.weighted, symmetrize=args.symmetrize)
    device = Device(args.out, checksums=args.checksums)
    pipeline = {
        "graphsd": preprocess_graphsd,
        "husgraph": preprocess_husgraph,
        "lumos": preprocess_lumos,
    }[args.system]
    kwargs = {"encoding": args.encoding} if args.system == "graphsd" else {}
    result = pipeline(edges, device, P=args.partitions, **kwargs)
    print(
        f"preprocessed {args.dataset} for {args.system}: "
        f"|V|={edges.num_vertices:,} |E|={edges.num_edges:,} P={args.partitions}"
    )
    peak = peak_rss_bytes()
    memory = "" if peak is None else f", peak RSS {peak / (1 << 20):.1f} MiB"
    print(f"  simulated time: {result.sim_seconds:.3f}s (wall {result.wall_seconds:.2f}s{memory})")
    print(f"  on-disk size: {device.total_bytes() / (1 << 20):.1f} MiB at {device.root}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # Refusals come first: none of them needs the dataset.
    if args.system == "graphsd-async":
        require_async_capable(WORKLOADS[args.algorithm].make_program())
    if args.workers is not None:
        if args.system != "graphsd":
            raise ValueError(
                "--workers requires --system graphsd (the cluster shards the "
                "graphsd grid representation)"
            )
        if args.pipeline:
            raise ValueError(
                "--workers and --pipeline are mutually exclusive (cluster "
                "workers overlap via sharding, not pipelining)"
            )
        if args.gather_lanes != 1:
            raise ValueError(
                "--gather-lanes applies to single-process graphsd runs, not --workers"
            )

    harness = Harness(
        workspace=args.workspace,
        P=args.partitions,
        verify=args.verify,
        checksums=args.checksums,
        encoding=args.encoding,
    )
    trace_path = args.trace if isinstance(args.trace, str) else None
    try:
        if args.workers is not None:
            result = harness.run_cluster(
                args.algorithm,
                args.dataset,
                workers=args.workers,
                interconnect=args.interconnect,
                trace_path=trace_path,
            )
        else:
            result = harness.run(
                args.system,
                args.algorithm,
                args.dataset,
                pipelined=args.pipeline,
                gather_lanes=args.gather_lanes,
                trace_path=trace_path,
            )
    finally:
        if args.workspace is None:
            harness.cleanup()
    if args.stats == "json":
        # Stable machine-readable result on stdout (docs/OBSERVABILITY.md);
        # the human summary and iteration table are suppressed so the
        # output stays parseable.
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        if trace_path:
            print(f"wrote {trace_path}", file=sys.stderr)
        return 0
    print(result.summary())
    if trace_path:
        print(f"wrote {trace_path}")
    if args.trace is True:
        rows = [
            [
                r.iteration,
                r.model,
                r.frontier_size,
                r.edges_processed,
                f"{r.sim_seconds:.4f}",
                f"{r.io_bytes / (1 << 20):.2f}",
            ]
            for r in result.per_iteration
        ]
        print(
            format_table(
                ["iter", "model", "frontier", "edges", "sim s", "I/O MiB"], rows
            )
        )
    if args.csv:
        from repro.bench.traces import iteration_trace_csv

        iteration_trace_csv(result, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _overlap(harness: Harness) -> List[ExperimentReport]:
    # Imported on use: the run tables stay off the ``graphsd run`` path.
    from repro.bench.tables import overlap_report

    return [overlap_report(harness)]


_EXPERIMENTS = {
    "table1": lambda h: [run_table1_features()],
    "table4": lambda h: list(run_table4_fig5(h)),
    "fig5": lambda h: list(run_table4_fig5(h)),
    "fig6": lambda h: [run_fig6_breakdown(h)],
    "fig7": lambda h: [run_fig7_io_traffic(h)],
    "fig8": lambda h: [run_fig8_preprocessing(h)],
    "fig9": lambda h: [run_fig9_ablation(h)],
    "fig10": lambda h: [run_fig10_scheduler(h)],
    "fig11": lambda h: [run_fig11_overhead(h)],
    "fig12": lambda h: [run_fig12_buffering(h)],
    "overlap": _overlap,
}


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.bench.record import generate_experiments_md

    with Harness(P=args.partitions, verify=args.verify) as harness:
        text = generate_experiments_md(harness, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        default_baseline_path,
        load_baseline,
        run_lint,
        write_baseline,
    )
    from repro.analysis.checkers import ALL_CHECKERS
    from repro.analysis.sarif import render_sarif

    if args.rules:
        print(f"{'rule':8} {'escape hatch':15} title")
        for cls in sorted(ALL_CHECKERS, key=lambda c: c.rule_id):
            print(f"{cls.rule_id:8} {cls.suppress_marker or '-':15} {cls.title}")
        print(f"{'GSD100':8} {'-':15} annotation markers must carry a reason")
        return 0

    paths = [Path(p) for p in args.paths] if args.paths else None

    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline_path()
    )
    if args.baseline and not baseline_path.exists():
        raise ValueError(f"baseline file does not exist: {baseline_path}")
    baseline = load_baseline(baseline_path)
    result = run_lint(paths=paths, baseline=baseline)
    if args.update_baseline:
        write_baseline(result.findings, baseline_path)
        print(
            f"wrote {baseline_path} ({len(result.findings)} entr"
            f"{'y' if len(result.findings) == 1 else 'ies'})"
        )
        return 0
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    elif args.format == "sarif":
        print(
            render_sarif(result.findings, result.new_findings, ALL_CHECKERS),
            end="",
        )
    else:
        print(result.render_text())
    return result.exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    names = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    with Harness(
        P=args.partitions, verify=args.verify, trace_dir=args.trace
    ) as harness:
        for name in names:
            for report in _EXPERIMENTS[name](harness):
                print(report.render())
                print()
    if args.trace:
        print(f"traces in {args.trace}")
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.runner import check_history

    report = check_history(
        Path(args.bench_dir),
        smoke=args.smoke,
        only=args.only or None,
        trace_dir=args.trace,
    )
    print(report.render(), end="")
    return 0 if report.ok else 1


def _cmd_bench_write(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.runner import write_records

    failures = write_records(Path(args.bench_dir), only=args.only or None)
    return 1 if failures else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tune import fit_scales

    print(fit_scales(args.traces).render())
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs import export_file

    count = export_file(args.trace_file, args.out)
    print(f"wrote {args.out} ({count} trace events)")
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import render_report

    print(render_report(args.trace_file))
    return 0


def _cmd_trace_critical_path(args: argparse.Namespace) -> int:
    from repro.obs import analyze_file

    print(analyze_file(args.trace_file).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsd",
        description="GraphSD (ICPP '22) reproduction: out-of-core graph processing "
        "with a state- and dependency-aware update strategy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table 3 dataset proxies").set_defaults(
        func=_cmd_datasets
    )

    p = sub.add_parser("preprocess", help="build an on-disk representation")
    p.add_argument("--dataset", required=True, choices=list_datasets())
    p.add_argument("--system", default="graphsd", choices=["graphsd", "husgraph", "lumos"])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("-P", "--partitions", type=int, default=8)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument(
        "--checksums",
        action="store_true",
        help="maintain CRC32 sidecars for every column file (see docs/ROBUSTNESS.md)",
    )
    p.add_argument(
        "--encoding",
        default=ENCODING_RAW,
        choices=list(ENCODINGS),
        help="sub-block layout: raw global records or the compact "
        "CSR-style local-ID format (graphsd only; see docs/STORAGE.md)",
    )
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("run", help="run one algorithm / dataset / system")
    p.add_argument("--dataset", required=True, choices=list_datasets())
    p.add_argument("--algorithm", required=True, choices=list(WORKLOADS))
    p.add_argument("--system", default="graphsd", choices=list(SYSTEMS))
    p.add_argument("-P", "--partitions", type=int, default=8)
    p.add_argument("--workspace", default=None, help="reuse a preprocessing workspace")
    p.add_argument(
        "--trace",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="bare: print the per-iteration table; with PATH: write the "
        "structured JSONL trace there (see docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--stats",
        choices=["text", "json"],
        default="text",
        help="result format on stdout: the human summary (text) or the "
        "stable RunResult JSON document (json)",
    )
    p.add_argument("--verify", action="store_true", help="check against the BSP oracle")
    p.add_argument("--csv", default=None, help="write a per-iteration CSV trace")
    p.add_argument(
        "--checksums",
        action="store_true",
        help="verify CRC32 sidecars on every read (detects on-disk corruption)",
    )
    p.add_argument(
        "--pipeline",
        action="store_true",
        help="charge disk I/O as overlapping compute (max(io, compute) + "
        "fill per scatter; results stay bit-identical, only modeled time "
        "changes; see docs/PERFORMANCE.md)",
    )
    p.add_argument(
        "--gather-lanes",
        type=int,
        default=1,
        metavar="K",
        help="modeled concurrent disk lanes for SCIU's selective gathers "
        "(default 1 = serial; results stay bit-identical for any K, only "
        "modeled time changes; see docs/PERFORMANCE.md)",
    )
    p.add_argument(
        "--encoding",
        default=ENCODING_RAW,
        choices=list(ENCODINGS),
        help="sub-block layout used for graphsd-representation systems",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard the run across N simulated cluster workers with "
        "crash recovery and straggler degradation (see docs/CLUSTER.md); "
        "results are bit-identical for any N",
    )
    p.add_argument(
        "--interconnect",
        default="eth10",
        choices=sorted(INTERCONNECT_PROFILES),
        help="modeled worker-to-worker fabric for --workers runs",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "record", help="run every experiment and write EXPERIMENTS.md"
    )
    p.add_argument("--out", default=None, help="output markdown file (default: stdout)")
    p.add_argument("-P", "--partitions", type=int, default=8)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser(
        "lint",
        help="run the project-invariant static checkers (docs/ANALYSIS.md)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the repro package)",
    )
    p.add_argument("--format", choices=["text", "json", "sarif"], default="text")
    p.add_argument(
        "--rules",
        action="store_true",
        help="list the rule catalogue (id, escape hatch) and exit",
    )
    p.add_argument(
        "--baseline",
        default=None,
        help="baseline file of grandfathered findings "
        "(default: the committed package baseline)",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather every current finding",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("bench", help="regenerate a table/figure of the paper")
    p.add_argument(
        "--experiment", default="all", choices=["all"] + list(_EXPERIMENTS)
    )
    p.add_argument("-P", "--partitions", type=int, default=8)
    p.add_argument("--verify", action="store_true")
    p.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="write a structured JSONL trace per executed cell into DIR",
    )
    p.set_defaults(func=_cmd_bench)
    bsub = p.add_subparsers(dest="bench_command", required=False)
    records = argparse.ArgumentParser(add_help=False)
    records.add_argument(
        "--bench-dir",
        default=".",
        metavar="DIR",
        help="directory holding BENCH_*.json records (default: cwd)",
    )
    records.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="BENCH_ID",
        help="restrict to one bench id (repeatable)",
    )
    b = bsub.add_parser(
        "write",
        parents=[records],
        help="measure every run table and write its BENCH_*.json record; "
        "exit 1 if an acceptance gate fails",
    )
    b.set_defaults(func=_cmd_bench_write)
    b = bsub.add_parser(
        "check",
        parents=[records],
        help="re-run each table's gated cells against the committed "
        "BENCH_*.json records; exit 1 on a regression or failed gate",
    )
    b.add_argument(
        "--smoke",
        action="store_true",
        help="re-run each table's smoke cells only (CI budget)",
    )
    b.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="write a structured JSONL trace per executed cell into DIR "
        "(cluster cells add the Perfetto export and critical path)",
    )
    b.set_defaults(func=_cmd_bench_check)

    p = sub.add_parser(
        "tune",
        help="print the cost-model scales fitted to trace audit records "
        "(docs/TUNING.md)",
    )
    p.add_argument(
        "traces", nargs="+", help="JSONL trace files written by run/bench --trace"
    )
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "trace", help="inspect structured trace files (docs/OBSERVABILITY.md)"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    t = tsub.add_parser(
        "export", help="convert a trace to Chrome/Perfetto trace_event JSON"
    )
    t.add_argument("trace_file", help="JSONL trace written by run/bench --trace")
    t.add_argument("--out", required=True, help="output .json file for Perfetto")
    t.set_defaults(func=_cmd_trace_export)
    t = tsub.add_parser(
        "report", help="print the per-iteration and scheduler-audit summary"
    )
    t.add_argument("trace_file", help="JSONL trace written by run/bench --trace")
    t.set_defaults(func=_cmd_trace_report)
    t = tsub.add_parser(
        "critical-path",
        help="attribute a merged distributed trace's makespan to "
        "worker x resource per superstep (float-exact validation)",
    )
    t.add_argument(
        "trace_file", help="merged trace written by a cluster run --trace"
    )
    t.set_defaults(func=_cmd_trace_critical_path)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChecksumError, FaultError, OSError, ValueError) as exc:
        # A missing/corrupt graph directory or a detected storage fault
        # is an operational error, not a bug: report it readably and
        # exit nonzero instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
