"""Seeded input generation for the followsim benchmark workloads.

Every workload is a list of CLI commands over generated scenario and grid
files. The seed picks one of ``VARIANTS`` input variants (``seed % VARIANTS``);
variant 0 reproduces the shipped ``scenarios/`` files byte for byte, the
others nudge scenario and grid values by a few percent. Durations, run
counts and grid sizes never change, so every variant does the same amount
of nominal work and has its own stored reference in ``golden.json``.

The workload descriptions below (why, stresses, predictions) are the
benchmark's record of why each workload exists and which end-to-end numbers
each layer should move on it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 16
FRAME_DT = 0.02  # camera frame interval of every generated scenario
# Head-on range of the default setpoint area; the runner extends the leader's
# lane backward from its start by 10 x max(follow range, 1 m).
FOLLOW_RANGE = 1.5
BACK_EXTENSION = 10.0 * max(FOLLOW_RANGE, 1.0)

MOVING_SCN = """\
# Steering benchmark: follower starts 1 m beside the leader's lane while the
# leader drives straight ahead at 1 m/s, so the follower can align behind it.
name = {name}
archetype = lateral_offset
lateral.offset = {offset}
lateral.leader_speed = {speed}
duration = {duration}
seed = 0
"""

S_CURVE_SCN = """\
# Path following along a gentle S-curve at 1 m/s, both channels active.
name = s_curve
archetype = path_follow
leader.kind = waypoint_path
leader.speed = {speed}
leader.waypoints = {waypoints}
duration = 18
seed = 0
"""

THROTTLE_STEP_SCN = """\
# Throttle step test: follower parked 4 m behind a stationary leader with
# steering locked; the speed controller has to close the gap to the setpoint.
name = throttle_step
duration = 12
controller.steering.locked = true
follower.start.x = {start_x}
follower.start.y = 0.0
seed = 0
"""

THROTTLE_GRID = """\
# Gain grid for `followsim tune --channel throttle` against throttle_step.scn
kp = {kp}
ki = {ki}
kd = {kd}
"""

PID_GRID = {
    "kp": ("0.0006", "0.0009", "0.0012", "0.0018", "0.0024"),
    "ki": ("0.0001", "0.0002", "0.0003", "0.0005", "0.0008"),
    "kd": ("0.0002", "0.0005", "0.001"),
}
OUTPUT_SCALES = tuple(format(0.5 + 0.1 * i, ".1f") for i in range(24))


@dataclass(frozen=True)
class LeaderPath:
    """The leader script as the benchmark generated it: a polyline from the
    leader's start, driven at constant speed (0 for a parked leader)."""

    vertices: tuple[tuple[float, float], ...]
    speed: float


@dataclass(frozen=True)
class Command:
    label: str  # output subdirectory and key in golden.json
    kind: str  # CLI command: "compare", or "tune" on the throttle channel by ITAE
    scenario: str  # generated file names
    grid: str | None
    leader: LeaderPath

    def argv(self, inputs, out) -> list[str]:
        args = [self.kind, "--scenario", str(inputs / self.scenario), "--out", str(out)]
        if self.kind == "tune":
            args += ["--channel", "throttle", "--grid", str(inputs / self.grid), "--objective", "itae"]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    predictions: tuple[str, ...]
    generate: object  # (seed) -> (files: dict[name, text], commands: list[Command])
    # labels of a full-length command and its quarter-length copy; without
    # them record_cost_growth comes from a probe of the first command's scenario
    growth_pair: tuple[str, str] | None = None


class _Perturb:
    """Variant 0 returns the shipped literal; other variants scale it by a
    factor drawn uniformly from [1 - rel, 1 + rel]."""

    def __init__(self, workload: str, seed: int) -> None:
        self.variant = seed % VARIANTS
        self.rng = random.Random(f"{workload}:{self.variant}")

    def __call__(self, literal: str, rel: float) -> str:
        if self.variant == 0:
            return literal
        return format(float(literal) * (1.0 + self.rng.uniform(-rel, rel)), ".6g")


def _straight(speed: str, duration: float) -> LeaderPath:
    v = float(speed)
    return LeaderPath(((0.0, 0.0), (v * duration, 0.0)), v)


PARKED = LeaderPath(((0.0, 0.0),), 0.0)


def _compare_path(seed: int):
    p = _Perturb("compare_path", seed)
    offset, speed = p("1.0", 0.05), p("1.0", 0.02)
    s_speed = p("1.0", 0.02)
    y1, y2 = p("0.8", 0.05), p("0.8", 0.05)
    files = {
        "lateral_offset_moving.scn": MOVING_SCN.format(
            name="lateral_offset_moving", offset=offset, speed=speed, duration="20"
        ),
        "lateral_offset_moving_quarter.scn": MOVING_SCN.format(
            name="lateral_offset_moving_quarter", offset=offset, speed=speed, duration="5"
        ),
        "s_curve.scn": S_CURVE_SCN.format(
            speed=s_speed, waypoints=f"3 0; 6 {y1}; 9 {y2}; 12 0; 15 0"
        ),
    }
    s_path = LeaderPath(
        ((0.0, 0.0), (3.0, 0.0), (6.0, float(y1)), (9.0, float(y2)), (12.0, 0.0), (15.0, 0.0)),
        float(s_speed),
    )
    commands = [
        # the quarter copy runs right after the full-length run, so the two
        # runner timings behind record_cost_growth see the same host speed
        Command("moving", "compare", "lateral_offset_moving.scn", None, _straight(speed, 20.0)),
        Command("quarter", "compare", "lateral_offset_moving_quarter.scn", None,
                _straight(speed, 5.0)),
        Command("s_curve", "compare", "s_curve.scn", None, s_path),
    ]
    return files, commands


def _tune_pid_step(seed: int):
    p = _Perturb("tune_pid_step", seed)
    grid = {key: ", ".join(p(v, 0.02) for v in values) for key, values in PID_GRID.items()}
    files = {
        "throttle_step.scn": THROTTLE_STEP_SCN.format(start_x=p("-4.0", 0.01)),
        "throttle_grid.grid": THROTTLE_GRID.format(**grid),
    }
    commands = [Command("tune", "tune", "throttle_step.scn", "throttle_grid.grid", PARKED)]
    return files, commands


def _tune_fuzzy_step(seed: int):
    p = _Perturb("tune_fuzzy_step", seed)
    files = {
        "throttle_step_fuzzy.scn": THROTTLE_STEP_SCN.format(start_x=p("-4.0", 0.01))
        + "controller.throttle.kind = fuzzy\n",
        "output_scale.grid": "output_scale = "
        + ", ".join(p(v, 0.01) for v in OUTPUT_SCALES) + "\n",
    }
    commands = [Command("tune", "tune", "throttle_step_fuzzy.scn", "output_scale.grid", PARKED)]
    return files, commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare_path",
            why="moving-leader compare runs with long, growing leader tracks: the workload "
            "where run cost grows with run length",
            stresses="world.lateral_deviation (about 75% of wall time, O(n^2) per run), "
            "world.step_bicycle (about 10%), fuzzy.fuzzy_step, traceio, svgplot, report",
            predictions=(
                "world.lateral_deviation moves records_per_s, wall_s and record_cost_growth here",
                "world.step_bicycle moves records_per_s",
                "fuzzy.* moves setup_s (both fuzzy configs are built at load)",
                "traceio, svgplot, report and metrics move wall_s and candidates_per_s, "
                "never records_per_s",
            ),
            generate=_compare_path,
            growth_pair=("moving", "quarter"),
        ),
        Workload(
            name="tune_pid_step",
            why="75 short PID tune runs against a parked leader: physics and per-run "
            "overhead dominate, the leader track stays at 2 points",
            stresses="world.step_bicycle (about 55%), traceio.write_trace_csv (about 10%), "
            "simulate.run_scenario self time; world.lateral_deviation about 3%; no fuzzy calls",
            predictions=(
                "world.step_bicycle moves candidates_per_s (most here) and records_per_s",
                "world.lateral_deviation: no change in any metric",
                "fuzzy.*: no calls, so no change except setup_s",
                "traceio and metrics move wall_s and candidates_per_s, never records_per_s",
                "simulate.run_scenario self time (per-run setup, record building) weighs most here",
            ),
            generate=_tune_pid_step,
        ),
        Workload(
            name="tune_fuzzy_step",
            why="24-value fuzzy output_scale tune: rebuilds a FuzzyConfig per candidate "
            "instead of building once and stepping many times",
            stresses="world.step_bicycle (about 40%), fuzzy.fuzzy_step (about 23%, with the "
            "lazy output-curve build in its first call), fuzzy.scale_output (about 3%)",
            predictions=(
                "fuzzy.* moves candidates_per_s and records_per_s here, and setup_s everywhere",
                "world.step_bicycle moves candidates_per_s and records_per_s",
                "world.lateral_deviation: no change in any metric",
                "traceio and metrics move wall_s and candidates_per_s, never records_per_s",
            ),
            generate=_tune_fuzzy_step,
        ),
    )
}
