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
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .actuation import ChannelController, NEUTRAL_PWM, pwm_to_actuation
from .scenario import ScenarioConfig
from .sensor import observe
from .world import integrate_bicycle, leader_poses, leader_progress, track_deviations

STOP_REASON_STATIONARY = "follower_stationary"
# records whose leader poses, and then whose bookkeeping columns, are worked
# out together: a block's rows and arrays take about 270 bytes a record
# beyond the trace, some 4 MB, however long the run
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
    leader's position. A record has passed each corner whose arc length its
    leader has reached (leader_progress at the record's t). A parked leader
    has passed only its start, and the segment from there to itself has no
    length.
    """
    script = config.leader
    leader0, corners, corner_s = script.track  # only a waypoint path has corners
    back = 10.0 * max(config.follow_range, 1.0)
    vertices = ((leader0.x - back * math.cos(leader0.heading),
                 leader0.y - back * math.sin(leader0.heading)), *corners)
    make = partial(tuple.__new__, TraceRecord)
    for lo in range(0, len(records), BOOKKEEPING_BLOCK):
        cols = list(zip(*records[lo:lo + BOOKKEEPING_BLOCK]))
        n = len(cols[0])
        leaders, followers = np.fromiter(chain(*cols[1:5]), float, 4 * n).reshape(2, 2, n)
        passed = np.ones(n, dtype=np.intp)  # the start, and each corner reached by then
        if corner_s:
            s, _ = leader_progress(script, np.fromiter(cols[0], float, n))
            passed += np.searchsorted(corner_s, s, side="right")
        lateral_dev = track_deviations(followers, vertices, passed, leaders)
        # follow_dist_m of each record: every recorded position is finite
        with np.errstate(over="ignore"):
            follow_dist = map(math.hypot, *(leaders - followers).tolist())
        records[lo:lo + n] = map(make, zip(*cols[:10], lateral_dev, follow_dist, *cols[10:]))


def _leader_schedule(script, dt: float, n_records: int):
    """Each record's (t, leader pose), one block of records at a time: t is
    k * dt, and a moving leader's poses for the block come from one
    leader_poses call, while a parked one holds its pose at t = 0."""
    for lo in range(0, n_records, BOOKKEEPING_BLOCK):
        t = np.arange(lo, min(lo + BOOKKEEPING_BLOCK, n_records)) * dt
        poses = (repeat(script.track[0]) if script.kind == "stationary"
                 else zip(*(column.tolist() for column in leader_poses(script, t))))
        yield zip(t.tolist(), poses)


def run_scenario(config: ScenarioConfig) -> Trace:
    """Sense -> control -> actuate -> integrate loop producing one Trace.

    The camera is sampled once per period; between detections the last command
    (or neutral, under the `stop` policy) is held and the record is flagged
    undetected. Runs against a stationary leader end early once the follower
    has been slower than stop_speed_eps for stop_hold_time seconds. observe
    draws from the seeded rng only under pixel jitter, so a run without it
    makes none. Against a parked leader with no jitter the sensing depends
    on the follower alone, so while integrate_bicycle hands back the same
    follower object a record reuses the last one's camera reading and
    errors; the controllers still run on every record. What the config fixes
    is read once, before the loop, and the errors are worked out inline with
    the bits of pixel_error_x and area_error. Leader poses (_leader_schedule)
    and the bookkeeping columns (_bookkeeping) are worked out a block of
    records at a time, so memory stays flat however long the run.
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
    camera, panel, vehicle = config.camera, config.panel, config.vehicle
    rng = random.Random(config.seed) if camera.jitter_px else None
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
    # each record's row, which lacks lateral_dev_m and follow_dist_m until
    # they are worked out after the loop
    records = []
    stop_reason = None
    still_time = 0.0
    loop_cost_ns = 0
    reuse_sensing = parked and rng is None
    sensed = None  # the follower the last sensing was of, while it may be reused

    for t, leader in chain.from_iterable(_leader_schedule(script, dt, n_records)):
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
            if still_time >= hold_time and len(records) < n_records:
                stop_reason = STOP_REASON_STATIONARY
                break

    _bookkeeping(config, records)
    return Trace(config.name, records, stop_reason=stop_reason, loop_cost_ns=loop_cost_ns)


def execute_archetype(config: ScenarioConfig) -> list[Trace]:
    """Run every plain config the scenario's archetype expands to; always a list."""
    return [run_scenario(run) for run in config.runs()]
