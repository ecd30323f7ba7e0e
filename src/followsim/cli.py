"""Command-line entry point: run / compare / tune / sweep.

Every command reads a scenario file, writes its artifacts (trace CSVs, SVG
plots, reports) only inside --out, and is reproducible: identical arguments
and seed give identical outputs except the wall-clock loop_cost_us column.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .metrics import compare, trace_metrics
from .report import write_report
from .scenario import ScenarioConfig, ScenarioError, _parse_float_list, load_scenario
from .simulate import Trace, execute_archetype
from .svgplot import write_plot_svg
from .traceio import TraceFormatError, write_trace_csv
from .tune import TuneError, TuneSpec, candidate_filename, load_gain_grid, results_csv, run_grid_search

_STEP_CHANNELS = ("area_error", "throttle_pwm")
_STEER_CHANNELS = ("pixel_error_x", "steering_pwm")


def _plot_channels(config: ScenarioConfig) -> tuple[str, str]:
    return _STEP_CHANNELS if config.archetype == "step_response" else _STEER_CHANNELS


def _signal_for(config: ScenarioConfig) -> str:
    return "area_error" if config.archetype == "step_response" else "pixel_error_x"


def _write_trace_artifacts(trace: Trace, out: Path, channels) -> tuple[Path, Path]:
    csv_path = out / f"{trace.name}.csv"
    svg_path = out / f"{trace.name}.svg"
    write_trace_csv(trace, csv_path)
    write_plot_svg(trace, channels, svg_path)
    return csv_path, svg_path


def _initial_delta(trace: Trace, signal: str) -> float | None:
    if not trace.records:
        return None
    y0 = float(getattr(trace.records[0], signal))
    return -y0 if y0 != 0.0 else None


def cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    channels = _plot_channels(config)
    for trace in execute_archetype(config):
        csv_path, svg_path = _write_trace_artifacts(trace, out, channels)
        print(
            f"{trace.name}: {len(trace.records)} records, "
            f"stop={trace.stop_reason or 'duration'}, wrote {csv_path} and {svg_path}"
        )
    return 0


def cmd_compare(args) -> int:
    config = load_scenario(args.scenario)
    for family in ("pid", "fuzzy"):
        if family not in config.controllers:
            raise ScenarioError(
                f"scenario does not define {family} controller configs "
                "(controllers = pid,fuzzy is required for compare)"
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    channels = _plot_channels(config)

    traces = {}
    for family in ("pid", "fuzzy"):
        variant = replace(config, steering_kind=family, throttle_kind=family)
        runs = execute_archetype(variant)
        if len(runs) != 1:
            raise ScenarioError("compare needs a single-run scenario archetype")
        trace = runs[0]
        write_trace_csv(trace, out / f"{trace.name}_{family}.csv")
        write_plot_svg(trace, channels, out / f"{trace.name}_{family}.svg")
        traces[family] = trace

    signal = _signal_for(config)
    report = compare(
        traces["pid"], traces["fuzzy"], signal=signal,
        setpoint_delta=_initial_delta(traces["pid"], signal),
    )
    report_path = out / f"{traces['pid'].name}_report.md"
    write_report(report, report_path)
    for metric, winner in report.winners.items():
        print(f"{metric}: {winner}")
    print(f"wrote {report_path}")
    return 0


def cmd_tune(args) -> int:
    config = load_scenario(args.scenario)
    grid = load_gain_grid(args.grid)
    spec = TuneSpec(channel=args.channel, objective=args.objective, grid=grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    results = run_grid_search(config, spec)
    for result in results:
        write_trace_csv(result.trace, out / candidate_filename(result))
    results_path = out / "tune_results.csv"
    results_path.write_text(results_csv(spec, results), encoding="utf-8")

    best = results[0]
    gains = " ".join(f"{k}={v:g}" for k, v in best.params.items())
    print(f"best: {gains} {spec.objective}={best.score:.9g} ({len(results)} candidates)")
    print(f"wrote {results_path}")
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

    traces = execute_archetype(steps)
    lines = [
        f"# Step-response sweep: {config.name}",
        "",
        "| separation (m) | rise (s) | settle (s) | overshoot (%) | sse | rms | tv (pwm) |",
        "|---|---|---|---|---|---|---|",
    ]
    for sep, trace in zip(separations, traces):
        _write_trace_artifacts(trace, out, _STEP_CHANNELS)
        m = trace_metrics(trace, "area_error", _initial_delta(trace, "area_error"))

        def cell(v: float) -> str:
            return "n/a" if v != v else format(v, ".5g")

        lines.append(
            f"| {sep:g} | {cell(m.rise_time)} | {cell(m.settling_time)} | "
            f"{cell(m.overshoot)} | {cell(m.steady_state_error)} | "
            f"{cell(m.rms_error)} | {cell(m.control_effort_tv)} |"
        )
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
    tune_p.add_argument("--channel", required=True, choices=("steering", "throttle"),
                        help="which control channel to tune")
    tune_p.add_argument("--grid", required=True,
                        help="grid file: kp/ki/kd lists (pid) or output_scale (fuzzy)")
    tune_p.add_argument("--objective", required=True, choices=("itae", "ise", "rms"),
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
    except (ScenarioError, TuneError, TraceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
