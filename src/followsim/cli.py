"""Command-line entry point: run / compare / tune / sweep.

Every command reads a scenario file, writes its artifacts (trace CSVs, SVG
plots, reports) only inside --out. On one host (README), identical arguments
and seed give byte-identical files; only the wall-clock loop cost that run
and compare print on stdout differs from run to run.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .metrics import compare, trace_metrics
from .report import write_report
from .scenario import CHANNELS, ScenarioConfig, ScenarioError, _parse_float_list, load_scenario
from .simulate import Trace, execute_archetype
from .svgplot import write_plot_svg
from .traceio import write_trace_csv
from .tune import OBJECTIVES, GridError, TuneError, TuneSpec, load_gain_grid, run_grid_search

def _channel(runs: tuple[ScenarioConfig, ...]) -> str:
    """The control channel a scenario's runs are judged and plotted on:
    throttle when they lock the steering, steering otherwise."""
    return "throttle" if runs[0].steering_locked else "steering"


def _loop_cost(trace: Trace) -> str:
    """The run's measured sensing and control time per record, for stdout only."""
    return f"{trace.loop_cost_ns / 1e3 / len(trace.records):.2f} us/record"


def _write_trace_artifacts(
    trace: Trace, out: Path, channel: str, stem: str | None = None
) -> tuple[Path, Path]:
    """Write a trace's CSV and its plot as <stem>.csv and <stem>.svg, the
    stem defaulting to the trace name."""
    stem = stem or trace.name
    csv_path = out / f"{stem}.csv"
    svg_path = out / f"{stem}.svg"
    write_trace_csv(trace, csv_path)
    write_plot_svg(trace, channel, svg_path)
    return csv_path, svg_path


def cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    runs = config.runs()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    channel = _channel(runs)
    for (trace,) in map(execute_archetype, runs):
        csv_path, svg_path = _write_trace_artifacts(trace, out, channel)
        print(
            f"{trace.name}: {len(trace.records)} records, "
            f"stop={trace.stop_reason or 'duration'}, loop cost {_loop_cost(trace)}, "
            f"wrote {csv_path} and {svg_path}"
        )
    return 0


def cmd_compare(args) -> int:
    runs = load_scenario(args.scenario).runs()
    if len(runs) != 1:
        raise ScenarioError("compare needs a single-run scenario archetype")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    channel = _channel(runs)

    traces = {}
    for family in ("pid", "fuzzy"):
        (trace,) = execute_archetype(replace(runs[0], steering_kind=family, throttle_kind=family))
        _write_trace_artifacts(trace, out, channel, f"{trace.name}_{family}")
        traces[family] = trace

    report = compare(traces["pid"], traces["fuzzy"], channel)
    report_path = out / f"{traces['pid'].name}_report.md"
    write_report(report, report_path)
    for metric, winner in report.winners.items():
        print(f"{metric}: {winner}")
    for family, trace in traces.items():
        print(f"{family} loop cost: {_loop_cost(trace)} (wall clock)")
    print(f"wrote {report_path}")
    return 0


def cmd_tune(args) -> int:
    config = load_scenario(args.scenario)
    grid = load_gain_grid(args.grid)
    try:  # --channel and --objective are argparse choices, so TuneSpec can only fail on the grid
        spec = TuneSpec(args.channel, args.objective, grid)
        results = run_grid_search(config, spec, args.out)
    except GridError as exc:
        raise TuneError(f"{args.grid}: {exc}") from None
    best = results[0]
    gains = " ".join(f"{k}={v:g}" for k, v in best.params.items())
    print(f"best: {gains} {spec.objective}={best.score:.9g} ({len(results)} candidates)")
    print(f"wrote the candidate traces and their ranking in {args.out}")
    return 0


def cmd_sweep(args) -> int:
    config = load_scenario(args.scenario)
    try:
        separations = _parse_float_list(args.separations)
        steps = replace(config, archetype="step_response", step_separations=separations)
    except ScenarioError as exc:
        raise ScenarioError(f"--separations {args.separations!r}: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    runs = steps.runs()
    channel = _channel(runs)
    lines = [
        f"# Step-response sweep: {config.name}",
        "",
        "| separation (m) | rise (s) | settle (s) | overshoot (%) | sse | rms | tv (pwm) |",
        "|---|---|---|---|---|---|---|",
    ]

    def cell(v: float) -> str:
        return "n/a" if v != v else format(v, ".5g")

    for sep, (trace,) in zip(separations, map(execute_archetype, runs)):
        _write_trace_artifacts(trace, out, channel)
        m = trace_metrics(trace, channel)
        # one column per metric, in MetricSet order, except mean_op_count
        lines.append(f"| {sep:g} | " + " | ".join(map(cell, m[:-1])) + " |")
        print(f"separation {sep:g} m: rise={cell(m.rise_time)} settle={cell(m.settling_time)}")
    summary_path = out / f"{config.name}_sweep.md"
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="followsim",
        description="Deterministic leader-follower control lab: run scenarios, "
        "compare PID vs fuzzy controllers, tune gains, sweep step responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write its trace and plot")
    run_p.add_argument("--scenario", required=True, help="scenario file (key = value lines)")
    run_p.add_argument("--out", required=True, help="output directory for CSV/SVG artifacts")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.set_defaults(handler=cmd_run)

    cmp_p = sub.add_parser("compare", help="run the scenario with PID then fuzzy and report")
    cmp_p.add_argument("--scenario", required=True, help="scenario file defining both controllers")
    cmp_p.add_argument("--out", required=True, help="output directory")
    cmp_p.set_defaults(handler=cmd_compare)

    tune_p = sub.add_parser("tune", help="grid-search one channel's gains")
    tune_p.add_argument("--scenario", required=True, help="scenario file to tune against")
    tune_p.add_argument("--channel", required=True, choices=CHANNELS,
                        help="which control channel to tune")
    tune_p.add_argument("--grid", required=True,
                        help="grid file: kp/ki/kd lists (pid) or output_scale (fuzzy)")
    tune_p.add_argument("--objective", required=True, choices=OBJECTIVES,
                        help="scalar score minimized over the grid")
    tune_p.add_argument("--out", required=True, help="output directory")
    tune_p.set_defaults(handler=cmd_tune)

    sweep_p = sub.add_parser("sweep", help="step responses across starting separations")
    sweep_p.add_argument("--scenario", required=True, help="scenario file (leader start pose is used)")
    sweep_p.add_argument("--separations", required=True,
                         help="comma-separated start distances in meters, e.g. 1,2,4")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
