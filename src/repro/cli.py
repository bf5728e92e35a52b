"""Command-line interface: ``repro-tom``.

Subcommands::

    repro-tom run LIB --policy ctrl+tmap --scale SMALL
        Simulate one workload under one policy and print the metrics.

    repro-tom suite --scale TINY
        Run the Figure 8 policy grid over the whole suite.

    repro-tom suite --job-timeout 600 --max-retries 2
        The same grid with a per-job timeout and retries (exported as
        REPRO_JOB_TIMEOUT / REPRO_MAX_RETRIES). If jobs fail
        permanently, the suite still prints the partial results and a
        failure summary, and exits 3; running the same command again
        re-simulates only the failed points, because the result cache
        answers the rest (docs/ROBUSTNESS.md).

    repro-tom figure fig8 [--scale SMALL]
        Regenerate one of the paper's figures as a text table
        (fig2 fig3 fig5 fig6 fig8 fig9 fig10 fig11 fig12 fig13
        sec65 sec66).

    repro-tom inspect LIB
        Dump a workload's kernel and the compiler's offload analysis.

    repro-tom run LIB --policy ctrl+tmap --trace lib.jsonl
        Same simulation with the observability layer on: every offload
        decision, learning-phase outcome, access routing, and windowed
        channel metrics land in lib.jsonl (docs/OBSERVABILITY.md).

    repro-tom report lib.jsonl
        Render a trace: decision breakdown, learned-mapping scores,
        stack-routing matrix, per-channel utilization timeline.

Exit code 0 on success; errors print to stderr and exit 2; a suite run
that completes with partial results (some jobs failed permanently)
exits 3.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import (
    BASELINE,
    FIGURE8_GRID,
    TraceScale,
    WorkloadRunner,
    make_workload,
)
from .accel import BACKEND_NAMES
from .core.policies import POLICIES_BY_LABEL as _POLICIES
from .errors import ReproError
from .workloads.suite import SUITE_ORDER

_FIGURES = (
    "fig2", "fig3", "fig5", "fig6", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "sec65", "sec66",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tom",
        description="TOM (ISCA 2016) reproduction: simulate, sweep, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every simulating subcommand. The choice is exported as
    # REPRO_ENGINE before any simulation starts, so suite worker
    # processes inherit it too. Backends are bit-identical; "auto"
    # (default) uses the compiled core when its extension is built.
    engine_parent = argparse.ArgumentParser(add_help=False)
    engine_parent.add_argument(
        "--engine",
        default=None,
        choices=list(BACKEND_NAMES),
        help="event-engine backend: auto (default), compiled, or python",
    )

    run = sub.add_parser(
        "run",
        help="simulate one workload under one policy",
        parents=[engine_parent],
    )
    run.add_argument("workload", choices=SUITE_ORDER)
    run.add_argument(
        "--policy", default="ctrl+tmap", choices=sorted(_POLICIES)
    )
    run.add_argument("--scale", default="SMALL", choices=[s.name for s in TraceScale])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a structured event trace (JSONL) of the policy run",
    )
    run.add_argument(
        "--trace-window",
        type=float,
        default=None,
        metavar="CYCLES",
        help="metric sample window in cycles (default: the channel "
        "busy monitor's window)",
    )

    suite = sub.add_parser(
        "suite",
        help="Figure 8 policy grid over the suite",
        parents=[engine_parent],
    )
    suite.add_argument("--scale", default="SMALL", choices=[s.name for s in TraceScale])
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument(
        "--workloads", nargs="*", choices=SUITE_ORDER, default=None
    )
    suite.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout (default: REPRO_JOB_TIMEOUT, else none)",
    )
    suite.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failing job (default: REPRO_MAX_RETRIES, else 1)",
    )

    figure = sub.add_parser(
        "figure",
        help="regenerate one paper figure",
        parents=[engine_parent],
    )
    figure.add_argument("name", choices=_FIGURES)
    figure.add_argument("--scale", default=None, choices=[s.name for s in TraceScale])

    inspect = sub.add_parser("inspect", help="kernel + compiler analysis dump")
    inspect.add_argument("workload", choices=SUITE_ORDER)

    report = sub.add_parser(
        "report", help="render a recorded trace (see: run --trace)"
    )
    report.add_argument("trace", help="JSONL trace written by run --trace")
    report.add_argument(
        "--width", type=int, default=60, help="timeline width in columns"
    )
    report.add_argument(
        "--samples-csv",
        metavar="PATH",
        default=None,
        help="also write the metric-sample time series as CSV",
    )

    bundle = sub.add_parser(
        "bundle",
        help="write every figure (txt+csv+json) into a directory",
        parents=[engine_parent],
    )
    bundle.add_argument("directory")
    bundle.add_argument("--figures", nargs="*", default=None)
    bundle.add_argument("--scale", default=None, choices=[s.name for s in TraceScale])

    return parser


def _cmd_run(args) -> None:
    runner = WorkloadRunner(
        args.workload, scale=TraceScale[args.scale], seed=args.seed
    )
    policy = _POLICIES[args.policy]
    baseline = runner.baseline()
    recorder = None
    if args.trace:
        from .obs import TraceRecorder

        recorder = TraceRecorder(sample_window=args.trace_window)
        recorder.set_run(args.workload, policy.label, args.scale, args.seed)
    result = runner.run(policy, recorder=recorder)
    if recorder is not None:
        from .analysis.export import write_trace_jsonl

        n_events = write_trace_jsonl(recorder.events(), args.trace)
        dropped = sum(recorder.dropped.values())
        note = f" ({dropped} dropped by ring buffers)" if dropped else ""
        print(
            f"trace: {n_events} events -> {args.trace}{note}", file=sys.stderr
        )
    if getattr(args, "json", False):
        from .analysis.export import result_to_dict
        import json as _json

        payload = {
            "baseline": result_to_dict(baseline),
            "run": result_to_dict(result),
        }
        if policy is not BASELINE:
            payload["speedup"] = result.speedup_over(baseline)
            payload["traffic_ratio"] = result.traffic_ratio_over(baseline)
            payload["energy_ratio"] = result.energy_ratio_over(baseline)
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return
    print(baseline.summary_line())
    print(result.summary_line())
    if policy is not BASELINE:
        print(f"speedup over baseline: {result.speedup_over(baseline):.2f}x")
        print(f"traffic vs baseline  : {result.traffic_ratio_over(baseline):.1%}")
        print(f"energy vs baseline   : {result.energy_ratio_over(baseline):.1%}")
        print(f"offload decisions    : {result.offload.decision_breakdown}")


def _cmd_suite(args) -> int:
    from .analysis.figures import figure8
    from .core import result_cache
    from .core.experiment import run_suite
    from .errors import JobExecutionError

    # Exported like --engine, for SupervisorConfig.from_env to read.
    if args.job_timeout is not None:
        os.environ["REPRO_JOB_TIMEOUT"] = str(args.job_timeout)
    if args.max_retries is not None:
        os.environ["REPRO_MAX_RETRIES"] = str(args.max_retries)
    failures = []
    try:
        results = run_suite(
            FIGURE8_GRID,
            scale=TraceScale[args.scale],
            seed=args.seed,
            workloads=args.workloads,
        )
    except JobExecutionError as error:
        failures, results = error.failures, error.results

    def print_speedups(names) -> None:
        for name in names:
            per_policy = results.get(name, {})
            base = per_policy.get("baseline")
            if base is None:
                continue
            line = "  ".join(
                f"{label}={run.speedup_over(base):.2f}x"
                for label, run in per_policy.items()
                if label != "baseline"
            )
            print(f"{name:>4s}: {line}")

    if failures:
        # Partial run: print every workload that completed, summarize
        # the rest to stderr, and exit 3 so scripts notice.
        print_speedups(sorted(results))
        print(f"\n{len(failures)} job(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        if result_cache.enabled():
            print(
                "re-run the same command to retry only the failed points "
                "(the result cache answers the rest)",
                file=sys.stderr,
            )
        return 3
    if args.workloads:  # partial suite: print raw speedups
        print_speedups(results)
    else:
        print(figure8(results=results).render())
    return 0


def _cmd_figure(args) -> None:
    if args.scale:
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    from .analysis.figures import FIGURE_BUILDERS

    print(FIGURE_BUILDERS[args.name]().render())


def _cmd_inspect(args) -> None:
    from .compiler import select_candidates

    model = make_workload(args.workload)
    kernel = model.build_kernel()
    print(f"# {model.full_name} ({model.fixed_offset_profile})")
    print(kernel.dump())
    print()
    selection = select_candidates(kernel)
    print(f"offloading candidates ({len(selection.candidates)}):")
    for candidate in selection.candidates:
        print(f"  {candidate.describe()}")
    for reason in selection.rejected:
        print(f"  rejected: {reason}")


def _cmd_report(args) -> None:
    from .analysis.export import read_trace_jsonl, trace_samples_to_csv
    from .errors import AnalysisError
    from .obs import render_report

    try:
        events = read_trace_jsonl(args.trace)
    except OSError as error:
        raise AnalysisError(f"cannot read trace {args.trace!r}: {error}")
    print(render_report(events, width=args.width))
    if args.samples_csv:
        with open(args.samples_csv, "w") as handle:
            handle.write(trace_samples_to_csv(events))
        print(f"samples csv -> {args.samples_csv}", file=sys.stderr)


def _cmd_bundle(args) -> None:
    if args.scale:
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    from .analysis.export import write_bundle

    written = write_bundle(
        args.directory,
        figure_names=args.figures,
        progress=lambda name: print(f"generating {name} ...", file=sys.stderr),
    )
    for path in written:
        print(path)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Export the engine choice before any simulation is constructed so
    # suite worker processes (spawned with a copy of the environment)
    # pick the same backend as the parent.
    if getattr(args, "engine", None):
        os.environ["REPRO_ENGINE"] = args.engine
    try:
        code = {
            "run": _cmd_run,
            "suite": _cmd_suite,
            "figure": _cmd_figure,
            "inspect": _cmd_inspect,
            "report": _cmd_report,
            "bundle": _cmd_bundle,
        }[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return code if code else 0


if __name__ == "__main__":
    sys.exit(main())
