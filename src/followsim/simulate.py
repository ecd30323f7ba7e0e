"""Closed-loop scenario execution.

One record is logged per control period (the camera frame interval); vehicle
kinematics are integrated with sub-steps of at most 2 ms inside each period so
plant accuracy never depends on the controller cadence. Runs are deterministic
for a fixed seed except for the wall-clock loop_cost_us field.
"""
from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from .actuation import ChannelController, ControlCommand, NEUTRAL_PWM, pwm_to_actuation
from .scenario import ScenarioConfig
from .sensor import area_error, observe, pixel_error_x
from .world import (
    MAX_PHYSICS_DT,
    following_distance,
    integrate_bicycle,
    lateral_deviation,
    leader_pose,
)

STOP_REASON_STATIONARY = "follower_stationary"


class TraceRecord(NamedTuple):
    """One control period of an experiment; the field order is the CSV column order."""

    t: float
    leader_x: float
    leader_y: float
    follower_x: float
    follower_y: float
    follower_heading: float
    pixel_error_x: float
    area_error: float
    steering_pwm: float
    throttle_pwm: float
    lateral_dev_m: float
    follow_dist_m: float
    detected: bool
    loop_cost_us: float
    op_count: int


@dataclass
class Trace:
    """Scenario name plus the time-ordered records; the config snapshot and any
    early-stop reason ride along but do not take part in equality (they do not
    survive the CSV round trip)."""

    name: str
    records: list[TraceRecord]
    config: ScenarioConfig | None = field(default=None, compare=False)
    stop_reason: str | None = field(default=None, compare=False)


def _make_channel(config: ScenarioConfig, channel: str) -> ChannelController:
    kind = getattr(config, f"{channel}_kind")
    return ChannelController(
        kind=kind,
        pid_config=getattr(config, f"{channel}_pid"),
        fuzzy_config=getattr(config, f"{channel}_fuzzy"),
        filter_alpha=config.filter_alpha_for(channel, kind),
    )


def run_scenario(config: ScenarioConfig) -> Trace:
    """Sense -> control -> actuate -> integrate loop producing one Trace.

    The camera is sampled once per period; between detections the last command
    (or neutral, under the `stop` policy) is held and the record is flagged
    undetected. Runs against a stationary leader end early once the follower
    has been slower than stop_speed_eps for stop_hold_time seconds.
    """
    n_records = int(config.duration / config.dt + 1e-9)
    sub_steps = max(1, math.ceil(config.dt / MAX_PHYSICS_DT - 1e-12))
    sub_dt = config.dt / sub_steps
    rng = random.Random(config.seed)

    steering = None if config.steering_locked else _make_channel(config, "steering")
    throttle = _make_channel(config, "throttle")

    follower = config.follower_start
    command = ControlCommand()
    pe = 0.0
    ae = 0.0
    tracked = False
    # lateral deviation is measured against the leader script's own polyline:
    # its lane extended backward from the start (so there is a line from the
    # first record on), the corners already passed, and the leader's position
    script = config.leader
    parked = script.kind == "stationary"
    leader0 = leader_pose(script, 0.0)
    back = 10.0 * max(config.follow_range, 1.0)
    tail = (leader0.x - back * math.cos(leader0.heading),
            leader0.y - back * math.sin(leader0.heading))
    if script.kind == "waypoint_path":
        corners = script.path_points()
        lengths = [length for _, _, length, _ in script.segments]
    else:
        corners, lengths = ((leader0.x, leader0.y),), []
    corner_s = list(accumulate(lengths, initial=0.0))
    parked_track = (tail, corners[0])
    records: list[TraceRecord] = []
    stop_reason = None
    still_time = 0.0

    for k in range(n_records):
        t = k * config.dt
        if parked:
            leader, track = leader0, parked_track
        else:
            leader = leader_pose(script, t)
            passed = bisect_right(corner_s, script.distance_at(t))
            track = (tail, *corners[:passed], (leader.x, leader.y))

        started = time.perf_counter_ns()
        reading = observe(config.camera, follower, leader, config.panel, t, rng=rng)
        ops = 0
        if reading is not None:
            pe = pixel_error_x(reading, config.camera)
            ae = area_error(reading, config.setpoint_area)
            if steering is None:
                steering_pwm = NEUTRAL_PWM
            else:
                steering_pwm = steering.update(pe, pe, config.dt)
                ops += steering.ops_per_step
            throttle_pwm = throttle.update(ae, reading.area_px2, config.dt)
            ops += throttle.ops_per_step
            command = ControlCommand(steering_pwm, throttle_pwm)
            tracked = True
        else:
            if config.lost_target_policy == "stop":
                command = ControlCommand()
            tracked = False
        loop_cost_us = (time.perf_counter_ns() - started) / 1000.0

        records.append(
            TraceRecord(
                t=t,
                leader_x=leader.x,
                leader_y=leader.y,
                follower_x=follower.x,
                follower_y=follower.y,
                follower_heading=follower.heading,
                pixel_error_x=pe,
                area_error=ae,
                steering_pwm=command.steering_pwm,
                throttle_pwm=command.throttle_pwm,
                lateral_dev_m=lateral_deviation(follower, track),
                follow_dist_m=following_distance(follower, leader),
                detected=tracked,
                loop_cost_us=loop_cost_us,
                op_count=ops,
            )
        )

        steer_angle, speed_cmd = pwm_to_actuation(command, config.vehicle)
        follower = integrate_bicycle(
            follower, config.vehicle, steer_angle, speed_cmd, sub_dt, sub_steps
        )

        if parked:
            still_time = still_time + config.dt if follower.speed < config.stop_speed_eps else 0.0
            if still_time >= config.stop_hold_time and k + 1 < n_records:
                stop_reason = STOP_REASON_STATIONARY
                break

    return Trace(config.name, records, config=config, stop_reason=stop_reason)


def execute_archetype(config: ScenarioConfig) -> list[Trace]:
    """Run every plain config the scenario's archetype expands to; always a list."""
    return [run_scenario(run) for run in config.runs()]
