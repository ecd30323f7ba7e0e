"""Closed-loop scenario execution.

One record is logged per control period (the camera frame interval); vehicle
kinematics are integrated with sub-steps of at most 2 ms inside each period so
plant accuracy never depends on the controller cadence. Runs are deterministic
for a fixed seed except for the wall-clock loop_cost_us field.

The loop records only what it senses, commands and integrates. The two
bookkeeping columns, lateral_dev_m and follow_dist_m, feed no controller:
they are worked out after the loop, for a block of records at a time.
"""
from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .actuation import ChannelController, NEUTRAL_PWM, pwm_to_actuation
from .scenario import ScenarioConfig
from .sensor import area_error, observe, pixel_error_x
from .world import integrate_bicycle, leader_pose, track_deviations

STOP_REASON_STATIONARY = "follower_stationary"
# records whose bookkeeping columns are worked out together: a block's rows
# and arrays take about 270 bytes a record beyond the trace, some 4 MB,
# however long the run
BOOKKEEPING_BLOCK = 16384


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


def _bookkeeping(config: ScenarioConfig, records: list) -> None:
    """Turn each recorded row (every column but lateral_dev_m and
    follow_dist_m) into its TraceRecord, in place, working the two columns
    out for a block of records at a time.

    Lateral deviation is measured against the leader script's own polyline:
    its lane extended backward from the start (so there is a line from the
    first record on), the corners passed by the record's time, and the
    leader's position. A parked leader has passed only its start, and the
    segment from there to itself has no length.
    """
    script = config.leader
    leader0 = leader_pose(script, 0.0)
    back = 10.0 * max(config.follow_range, 1.0)
    tail = (leader0.x - back * math.cos(leader0.heading),
            leader0.y - back * math.sin(leader0.heading))
    vertices = (tail, (script.start.x, script.start.y),
                *(q for _, q, _, _ in script.segments))
    # a record has passed each corner whose arc length its leader has reached
    # by then. Arc length never falls as t grows, so corner j is passed from
    # the first record that reaches it on, found by bisection.
    corner_s = accumulate((length for _, _, length, _ in script.segments), initial=0.0)
    first = [bisect_left(records, s, key=lambda row: script.progress(row[0])[0])
             for s in corner_s]
    make = TraceRecord._make
    for lo in range(0, len(records), BOOKKEEPING_BLOCK):
        rows = records[lo:lo + BOOKKEEPING_BLOCK]
        passed = np.searchsorted(first, np.arange(lo, lo + len(rows)), side="right")
        positions = chain.from_iterable(map(itemgetter(1, 2, 3, 4), rows))
        lx, ly, fx, fy = np.fromiter(positions, float, 4 * len(rows)).reshape(-1, 4).T
        lateral_dev = track_deviations((fx, fy), vertices, passed, (lx, ly))
        # following_distance of each record: every recorded position is finite
        with np.errstate(over="ignore"):
            follow_dist = map(math.hypot, (lx - fx).tolist(), (ly - fy).tolist())
        records[lo:lo + len(rows)] = [make((*row[:10], lateral, gap, *row[10:]))
                                      for row, lateral, gap in zip(rows, lateral_dev, follow_dist)]


def run_scenario(config: ScenarioConfig) -> Trace:
    """Sense -> control -> actuate -> integrate loop producing one Trace.

    The camera is sampled once per period; between detections the last command
    (or neutral, under the `stop` policy) is held and the record is flagged
    undetected. Runs against a stationary leader end early once the follower
    has been slower than stop_speed_eps for stop_hold_time seconds. Against a
    parked leader with no pixel jitter the sensing depends on the follower
    alone, so while integrate_bicycle hands back the same follower object a
    record reuses the last one's camera reading and errors; the controllers
    still run on every record. lateral_dev_m and follow_dist_m are worked out
    for every record after the loop (_bookkeeping).
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
    script = config.leader
    parked = script.kind == "stationary"
    leader0 = leader_pose(script, 0.0)
    # each record's row, which lacks lateral_dev_m and follow_dist_m until
    # they are worked out after the loop
    records = []
    stop_reason = None
    still_time = 0.0
    # observe draws from the rng only under jitter
    reuse_sensing = parked and not config.camera.jitter_px
    sensed = None  # the follower the last sensing was of, while it may be reused

    for k in range(n_records):
        t = k * dt
        leader = leader0 if parked else leader_pose(script, t)

        started = time.perf_counter_ns()
        if follower is not sensed:
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

        if reuse_sensing:
            sensed = follower
        records.append((
            t, leader.x, leader.y, follower.x, follower.y, follower.heading, pe, ae,
            steering_pwm, throttle_pwm, reading is not None, loop_cost_us, ops,
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

    _bookkeeping(config, records)
    return Trace(config.name, records, stop_reason=stop_reason)


def execute_archetype(config: ScenarioConfig) -> list[Trace]:
    """Run every plain config the scenario's archetype expands to; always a list."""
    return [run_scenario(run) for run in config.runs()]
