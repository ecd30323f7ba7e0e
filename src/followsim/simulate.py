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

from .actuation import ChannelController, NEUTRAL_PWM, pwm_to_actuation
from .scenario import ScenarioConfig
from .sensor import area_error, observe, pixel_error_x
from .world import (
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
    """Scenario name plus the time-ordered records; the early-stop reason rides
    along but takes no part in equality (it does not survive the CSV round trip)."""

    name: str
    records: list[TraceRecord]
    stop_reason: str | None = field(default=None, compare=False)


def _make_channel(config: ScenarioConfig, channel: str) -> ChannelController:
    return ChannelController(
        kind=getattr(config, f"{channel}_kind"),
        pid_config=getattr(config, f"{channel}_pid"),
        fuzzy_config=getattr(config, f"{channel}_fuzzy"),
        filter_alpha=config.filter_alpha_for(channel),
    )


def run_scenario(config: ScenarioConfig) -> Trace:
    """Sense -> control -> actuate -> integrate loop producing one Trace.

    The camera is sampled once per period; between detections the last command
    (or neutral, under the `stop` policy) is held and the record is flagged
    undetected. Runs against a stationary leader end early once the follower
    has been slower than stop_speed_eps for stop_hold_time seconds. Against a
    parked leader with no pixel jitter the sensing depends on the follower
    alone, so while integrate_bicycle hands back the same follower object a
    record reuses the last one's reading and distances; the controllers still
    run on every record.
    Takes plain (archetype "scenario") configs only; execute_archetype runs
    the others through ScenarioConfig.runs().
    """
    if config.archetype != "scenario":
        raise ValueError(f"run_scenario takes a plain scenario, not archetype "
                         f"{config.archetype!r}: use execute_archetype or ScenarioConfig.runs()")
    dt = config.dt
    n_records = config.n_records
    sub_steps = config.sub_steps
    sub_dt = dt / sub_steps
    rng = random.Random(config.seed)

    steering = None if config.steering_locked else _make_channel(config, "steering")
    throttle = _make_channel(config, "throttle")

    follower = config.follower_start
    steering_pwm = throttle_pwm = NEUTRAL_PWM
    pe = 0.0
    ae = 0.0
    # lateral deviation is measured against the leader script's own polyline:
    # its lane extended backward from the start (so there is a line from the
    # first record on), the corners already passed, and the leader's position
    script = config.leader
    parked = script.kind == "stationary"
    leader0 = leader_pose(script, 0.0)
    back = 10.0 * max(config.follow_range, 1.0)
    tail = (leader0.x - back * math.cos(leader0.heading),
            leader0.y - back * math.sin(leader0.heading))
    corners = ((script.start.x, script.start.y), *(q for _, q, _, _ in script.segments))
    corner_s = list(accumulate((length for _, _, length, _ in script.segments), initial=0.0))
    parked_track = (tail, corners[0])
    records: list[TraceRecord] = []
    stop_reason = None
    still_time = 0.0
    # observe draws from the rng only under jitter
    reuse_sensing = parked and not config.camera.jitter_px
    sensed = None  # the follower the last sensing was of, while it may be reused

    for k in range(n_records):
        t = k * dt
        if parked:
            leader, track = leader0, parked_track
        else:
            leader = leader_pose(script, t)
            passed = bisect_right(corner_s, script.progress(t)[0])
            track = (tail, *corners[:passed], (leader.x, leader.y))

        started = time.perf_counter_ns()
        held = follower is sensed
        if not held:
            reading = observe(config.camera, follower, leader, config.panel, t, rng=rng)
            if reading is not None:
                pe = pixel_error_x(reading, config.camera)
                ae = area_error(reading, config.setpoint_area)
        ops = 0
        if reading is not None:
            if steering is not None:
                steering_pwm = steering.update(pe, pe, dt)
                ops += steering.ops_per_step
            throttle_pwm = throttle.update(ae, reading.area_px2, dt)
            ops += throttle.ops_per_step
        elif config.lost_target_policy == "stop":
            steering_pwm = throttle_pwm = NEUTRAL_PWM
        loop_cost_us = (time.perf_counter_ns() - started) / 1000.0

        if not held:
            lateral_dev = lateral_deviation(follower, track)
            follow_dist = following_distance(follower, leader)
            if reuse_sensing:
                sensed = follower
        records.append(TraceRecord(
            t, leader.x, leader.y, follower.x, follower.y, follower.heading, pe, ae,
            steering_pwm, throttle_pwm, lateral_dev, follow_dist, reading is not None,
            loop_cost_us, ops,
        ))

        steer_angle, speed_cmd = pwm_to_actuation(steering_pwm, throttle_pwm, config.vehicle)
        follower = integrate_bicycle(
            follower, config.vehicle, steer_angle, speed_cmd, sub_dt, sub_steps
        )

        if parked:
            still_time = still_time + dt if follower.speed < config.stop_speed_eps else 0.0
            if still_time >= config.stop_hold_time and k + 1 < n_records:
                stop_reason = STOP_REASON_STATIONARY
                break

    return Trace(config.name, records, stop_reason=stop_reason)


def execute_archetype(config: ScenarioConfig) -> list[Trace]:
    """Run every plain config the scenario's archetype expands to; always a list."""
    return [run_scenario(run) for run in config.runs()]
