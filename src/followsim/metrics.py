"""Step-response and tracking metrics over traces, plus the PID-vs-fuzzy verdict.

Conventions (all configurable nowhere else, so they are pinned here): rise is
the 10-90% traversal time, settling uses a 5% band of the step size around the
final sample, steady-state error is the mean of the final 20% of records.
Metrics that do not apply to a trace (no step to traverse) are NaN and render
as "n/a".
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .simulate import Trace

METRIC_FIELDS = (
    "rise_time",
    "settling_time",
    "overshoot",
    "steady_state_error",
    "rms_error",
    "control_effort_tv",
    "mean_op_count",
)

# error channel -> the command column that produces it
SIGNAL_COMMANDS = {"pixel_error_x": "steering_pwm", "area_error": "throttle_pwm"}

DEFAULT_TIE_TOLERANCE = 0.02  # relative margin below which a metric is a tie


@dataclass(frozen=True)
class MetricSet:
    rise_time: float
    settling_time: float
    overshoot: float
    steady_state_error: float
    rms_error: float
    control_effort_tv: float
    mean_op_count: float


def _column(trace: Trace, name: str) -> list[float]:
    try:
        return [float(getattr(r, name)) for r in trace.records]
    except AttributeError:
        raise ValueError(f"unknown trace column {name!r}") from None


def step_metrics(trace: Trace, signal: str, setpoint_delta: float) -> MetricSet:
    """Metrics for a trace that traverses a step of size setpoint_delta."""
    if setpoint_delta == 0 or not math.isfinite(setpoint_delta):
        raise ValueError("setpoint_delta must be non-zero")
    return _metrics(trace, signal, setpoint_delta)


def trace_metrics(trace: Trace, signal: str, setpoint_delta: float | None = None) -> MetricSet:
    """Like step_metrics, but a missing/zero step just disables the step metrics."""
    if setpoint_delta is not None and setpoint_delta != 0:
        return _metrics(trace, signal, setpoint_delta)
    return _metrics(trace, signal, None)


def _metrics(trace: Trace, signal: str, delta: float | None) -> MetricSet:
    ys = _column(trace, signal)
    ts = _column(trace, "t")
    if len(ys) < 5:
        raise ValueError(
            f"trace {trace.name!r} has {len(ys)} records; "
            "need at least 5 to evaluate settling bands"
        )
    tail_start = int(0.8 * len(ys))
    tail = ys[tail_start:]
    steady_state = sum(tail) / len(tail)
    final = ys[-1]

    rise = settle = overshoot = math.nan
    if delta is not None:
        t10 = t90 = None
        for t, y in zip(ts, ys):
            f = (y - ys[0]) / delta
            if t10 is None and f >= 0.1:
                t10 = t
            if f >= 0.9:
                t90 = t
                break
        if t10 is not None and t90 is not None:
            rise = t90 - t10

        band = 0.05 * abs(delta)
        last_outside = -1
        for i, y in enumerate(ys):
            if abs(y - final) > band:
                last_outside = i
        if last_outside + 1 < len(ys):
            settle = ts[last_outside + 1] - ts[0]

        direction = math.copysign(1.0, delta)
        overshoot = max(0.0, max((y - final) * direction for y in ys)) / abs(delta) * 100.0

    rms = math.sqrt(sum(y * y for y in ys) / len(ys))

    command = SIGNAL_COMMANDS.get(signal, "steering_pwm")
    cmds = _column(trace, command)
    tv = sum(abs(b - a) for a, b in zip(cmds, cmds[1:]))

    ops = _column(trace, "op_count")
    return MetricSet(
        rise_time=rise,
        settling_time=settle,
        overshoot=overshoot,
        steady_state_error=steady_state,
        rms_error=rms,
        control_effort_tv=tv,
        mean_op_count=sum(ops) / len(ops),
    )


@dataclass
class ComparisonReport:
    scenario: str
    pid: MetricSet
    fuzzy: MetricSet
    winners: dict[str, str]
    margins: dict[str, float]
    notes: list[str]


def _pick_winner(metric: str, a: float, b: float, tolerance: float) -> tuple[str, float]:
    if math.isnan(a) or math.isnan(b):
        return "n/a", math.nan
    # steady-state error is signed; closeness to zero is what counts
    if metric == "steady_state_error":
        a, b = abs(a), abs(b)
    margin = abs(a - b)
    if margin <= tolerance * max(abs(a), abs(b)):
        return "tie", margin
    return ("pid" if a < b else "fuzzy"), margin


def compare(
    trace_pid: Trace,
    trace_fuzzy: Trace,
    signal: str = "pixel_error_x",
    setpoint_delta: float | None = None,
    tolerances: dict[str, float] | None = None,
) -> ComparisonReport:
    """Side-by-side metric comparison of two runs of the same scenario.

    Every metric is lower-is-better; a metric within the tie tolerance
    (relative, default 2%) of its counterpart is a tie.
    """
    if trace_pid.name != trace_fuzzy.name:
        raise ValueError(
            f"traces come from different scenarios: {trace_pid.name!r} vs {trace_fuzzy.name!r}"
        )
    tolerances = tolerances or {}
    pid_metrics = trace_metrics(trace_pid, signal, setpoint_delta)
    fuzzy_metrics = trace_metrics(trace_fuzzy, signal, setpoint_delta)

    winners: dict[str, str] = {}
    margins: dict[str, float] = {}
    for metric in METRIC_FIELDS:
        tol = tolerances.get(metric, DEFAULT_TIE_TOLERANCE)
        winners[metric], margins[metric] = _pick_winner(
            metric, getattr(pid_metrics, metric), getattr(fuzzy_metrics, metric), tol
        )

    notes = []
    if fuzzy_metrics.mean_op_count > pid_metrics.mean_op_count:
        ratio = (
            fuzzy_metrics.mean_op_count / pid_metrics.mean_op_count
            if pid_metrics.mean_op_count
            else math.inf
        )
        notes.append(
            "fuzzy control costs more per loop: "
            f"{fuzzy_metrics.mean_op_count:.0f} vs {pid_metrics.mean_op_count:.0f} "
            f"float ops ({ratio:.0f}x)"
        )
    return ComparisonReport(
        scenario=trace_pid.name,
        pid=pid_metrics,
        fuzzy=fuzzy_metrics,
        winners=winners,
        margins=margins,
        notes=notes,
    )


def objective_value(trace: Trace, signal: str, objective: str) -> float:
    """Scalar tuning score of a run: itae, ise, or rms of the chosen error."""
    ys = _column(trace, signal)
    ts = _column(trace, "t")
    if len(ys) < 2:
        raise ValueError("trace too short for an objective")
    dt = ts[1] - ts[0]
    t0 = ts[0]
    if objective == "itae":
        return sum((t - t0) * abs(y) * dt for t, y in zip(ts, ys))
    if objective == "ise":
        return sum(y * y * dt for y in ys)
    if objective == "rms":
        return math.sqrt(sum(y * y for y in ys) / len(ys))
    raise ValueError(f"unknown objective {objective!r}")
