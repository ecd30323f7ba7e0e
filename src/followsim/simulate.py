"""Closed-loop scenario execution.

One record is logged per control period (the camera frame interval); vehicle
kinematics are integrated with sub-steps of at most 2 ms inside each period so
plant accuracy never depends on the controller cadence. Runs are deterministic
for a fixed seed, but for the wall-clock loop_cost_ns a Trace keeps apart.

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
from functools import partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .actuation import ChannelController, NEUTRAL_PWM, pwm_to_actuation
from .scenario import ScenarioConfig
from .sensor import observe
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
    op_count: int


@dataclass
class Trace:
    """Scenario name plus the time-ordered records. The early-stop reason and
    loop_cost_ns, the run's wall-clock ns of sensing and control, ride along
    but take no part in equality: neither survives the CSV round trip."""

    name: str
    records: list[TraceRecord]
    stop_reason: str | None = field(default=None, compare=False)
    loop_cost_ns: int = field(default=0, compare=False)


def _bookkeeping(config: ScenarioConfig, records: list) -> None:
    """Turn each recorded row (every column but lateral_dev_m and
    follow_dist_m) into its TraceRecord, in place, working the two columns
    out for a block of records at a time.

    Each block is transposed into columns once, and its records are built
    from them in C: no Python frame runs per record. The two columns have
    the arithmetic and the bits of lateral_deviation and of math.hypot.

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
    make = partial(tuple.__new__, TraceRecord)
    for lo in range(0, len(records), BOOKKEEPING_BLOCK):
        cols = list(zip(*records[lo:lo + BOOKKEEPING_BLOCK]))
        n = len(cols[0])
        passed = np.searchsorted(first, np.arange(lo, lo + n), side="right")
        lx, ly, fx, fy = (np.fromiter(col, float, n) for col in cols[1:5])
        lateral_dev = track_deviations((fx, fy), vertices, passed, (lx, ly))
        # follow_dist_m of each record: every recorded position is finite
        with np.errstate(over="ignore"):
            follow_dist = map(math.hypot, (lx - fx).tolist(), (ly - fy).tolist())
        records[lo:lo + n] = map(make, zip(*cols[:10], lateral_dev, follow_dist, *cols[10:]))


def run_scenario(config: ScenarioConfig) -> Trace:
    """Sense -> control -> actuate -> integrate loop producing one Trace.

    The camera is sampled once per period; between detections the last command
    (or neutral, under the `stop` policy) is held and the record is flagged
    undetected. Runs against a stationary leader end early once the follower
    has been slower than stop_speed_eps for stop_hold_time seconds. Against a
    parked leader with no pixel jitter the sensing depends on the follower
    alone, so while integrate_bicycle hands back the same follower object a
    record reuses the last one's camera reading and errors; the controllers
    still run on every record. What the config fixes is read once, before
    the loop, and the errors are worked out inline with the bits of
    pixel_error_x and area_error. lateral_dev_m and follow_dist_m are worked
    out for every record after the loop (_bookkeeping).
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
    camera, panel, vehicle = config.camera, config.panel, config.vehicle
    setpoint_area, half_width = config.setpoint_area, camera.image_width / 2.0
    stop_on_loss = config.lost_target_policy == "stop"
    still_speed, hold_time = config.stop_speed_eps, config.stop_hold_time
    clock = time.perf_counter_ns

    steering = None if config.steering_locked else ChannelController(*config.controller("steering"))
    throttle = ChannelController(*config.controller("throttle"))
    detected_ops = throttle.ops_per_step + (0 if steering is None else steering.ops_per_step)

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
    loop_cost_ns = 0
    # observe draws from the rng only under jitter
    reuse_sensing = parked and not camera.jitter_px
    sensed = None  # the follower the last sensing was of, while it may be reused

    for k in range(n_records):
        t = k * dt
        leader = leader0 if parked else leader_pose(script, t)

        started = clock()
        if follower is not sensed:
            reading = observe(camera, follower, leader, panel, t, rng=rng)
            if reading is not None:
                x_px, _, width_px, height_px, _ = reading
                area = width_px * height_px  # SensorReading.area_px2
                pe = x_px - half_width
                ae = setpoint_area - area
        if reading is not None:
            if steering is not None:
                steering_pwm = steering.update(pe, pe, dt)
            throttle_pwm = throttle.update(ae, area, dt)
        elif stop_on_loss:
            steering_pwm = throttle_pwm = NEUTRAL_PWM
        loop_cost_ns += clock() - started

        if reuse_sensing:
            sensed = follower
        fx, fy, heading, _ = follower
        detected = reading is not None
        records.append((
            t, leader[0], leader[1], fx, fy, heading, pe, ae, steering_pwm, throttle_pwm,
            detected, detected_ops if detected else 0,
        ))

        steer_angle, speed_cmd = pwm_to_actuation(steering_pwm, throttle_pwm, vehicle)
        follower = integrate_bicycle(follower, vehicle, steer_angle, speed_cmd, sub_dt, sub_steps)

        if parked:
            still_time = still_time + dt if follower[3] < still_speed else 0.0
            if still_time >= hold_time and k + 1 < n_records:
                stop_reason = STOP_REASON_STATIONARY
                break

    _bookkeeping(config, records)
    return Trace(config.name, records, stop_reason=stop_reason, loop_cost_ns=loop_cost_ns)


def execute_archetype(config: ScenarioConfig) -> list[Trace]:
    """Run every plain config the scenario's archetype expands to; always a list."""
    return [run_scenario(run) for run in config.runs()]
