"""The reference model of a run: one plain, scalar account of what run_scenario
computes, written to be read. Every "same bits" test compares the library
against a function here; test_run_matches_reference_bit_for_bit compares
whole runs. pytest does not collect this file; tests import it as `reference`.

Each step keeps the IEEE operation order that the bits contract fixes and
none of the library's speed-ups: no step, rule or input tables, no cached
track or segments, no blocks of records, no reuse of a sensor reading. It
reads config fields only, which tests/test_package.py checks.

The rule for later changes: a [perf_opt] change edits `src/` only and keeps
every comparison with this model green. A change that has to edit this file
changes what a run computes, so it is not a "same bits" change, and it says
which outputs move and why.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace
from itertools import accumulate

import numpy as np

from followsim import PID_STEP_OPS, LeaderScript, PidConfig, TraceRecord, VehicleState, count_fuzzy_ops
from followsim.actuation import _DELTA_OPS, _EXP_FILTER_OPS, _PWM_MAP_OPS
from followsim.simulate import STOP_REASON_STATIONARY

MAX_SUB_STEP = 0.002  # s, the longest physics sub-step
FUZZY_FILTER_ALPHA = 0.3  # the output filter an "auto" fuzzy channel gets


def clamp(x, lo, hi):
    return min(max(x, lo), hi)


def wrap(angle):
    """An angle wrapped to [-pi, pi)."""
    a = math.remainder(angle, math.tau)
    return -math.pi if a == math.pi else a


def progress(script, t):
    """(arc length, speed) at t: each piece begun by t adds its speed times its time, in turn."""
    profile = script.speed_profile
    s, v = 0.0, profile[0][1]
    for i, (t0, v0) in enumerate(profile):
        if t < t0:
            break
        t1 = profile[i + 1][0] if i + 1 < len(profile) else t
        s += v0 * (min(t, t1) - t0)
        v = v0
    return s, v


def segments(script):
    """(p, q, length, heading) of each leg from the start through each new waypoint."""
    points = [(script.start.x, script.start.y)]
    for p in script.waypoints or ():
        if p != points[-1]:
            points.append(p)
    return [(p, q, math.hypot(q[0] - p[0], q[1] - p[1]), math.atan2(q[1] - p[1], q[0] - p[0]))
            for p, q in zip(points, points[1:])]


def leader_pose(script, t):
    """The leader's (x, y, heading, speed) at t; past its last leg it stands still."""
    x0, y0, h0, _ = script.start
    if script.kind == "stationary":
        return x0, y0, h0, 0.0
    s, v = progress(script, t)
    if script.kind == "straight_line":
        return x0 + s * math.cos(h0), y0 + s * math.sin(h0), h0, v
    for p, q, length, heading in segments(script):
        if s <= length:
            u = s / length
            return p[0] + u * (q[0] - p[0]), p[1] + u * (q[1] - p[1]), wrap(heading), v
        s -= length
    return q[0], q[1], wrap(heading), 0.0


def focal_length(camera):
    return (camera.image_width / 2.0) / math.tan(camera.horizontal_fov / 2.0)


def follow_range(config):
    """The head-on range at which the panel's box area is the setpoint."""
    panel = config.panel
    return focal_length(config.camera) * math.sqrt(panel.width * panel.height / config.setpoint_area)


def observe(camera, follower, leader, panel, t, rng=None):
    """(x_px, y_px, width_px, height_px, t) of the leader's panel, or None when
    it is out of range, out of view or not facing the camera; jitter is drawn
    only past those checks."""
    fx, fy, fh, _ = follower
    lx, ly, lh, _ = leader
    px = lx - panel.rear_offset * math.cos(lh)
    py = ly - panel.rear_offset * math.sin(lh)
    rel_x, rel_y = px - fx, py - fy
    distance = math.hypot(rel_x, rel_y)
    if not camera.min_range <= distance <= camera.max_range:
        return None
    hx, hy = math.cos(fh), math.sin(fh)
    forward = rel_x * hx + rel_y * hy
    left = -rel_x * hy + rel_y * hx
    if forward <= 0.0 or abs(math.atan2(left, forward)) >= camera.horizontal_fov / 2.0:
        return None
    facing = math.cos(wrap(fh - lh))
    if facing <= 1e-9:
        return None
    f_px = focal_length(camera)
    x_px = camera.image_width / 2.0 + f_px * (left / forward)
    width_px = f_px * panel.width * facing / distance
    height_px = f_px * panel.height / distance
    if rng is not None and camera.jitter_px > 0.0:
        jitter = camera.jitter_px
        x_px += rng.uniform(-jitter, jitter)
        width_px += rng.uniform(-jitter, jitter)
        height_px += rng.uniform(-jitter, jitter)
    w_max, h_max = float(camera.image_width), float(camera.image_height)
    return (clamp(x_px, 0.0, w_max), camera.image_height / 2.0, clamp(width_px, 0.0, w_max),
            clamp(height_px, 0.0, h_max), t)


def pid_step(config, state, error, measurement, dt):
    """(effort, (integral, measurement, filtered derivative)): ki times the
    integral stays within integral_limit, and ki == 0 keeps none."""
    integral, prev_measurement, prev_derivative = state
    if config.ki != 0.0:
        bound = config.integral_limit / abs(config.ki)
        integral = clamp(integral + error * dt, -bound, bound)
    alpha = config.derivative_filter_alpha
    derivative = alpha * ((measurement - prev_measurement) / dt) + (1.0 - alpha) * prev_derivative
    effort = config.kp * error + config.ki * integral - config.kd * derivative
    limit = config.output_limit
    return clamp(effort, -limit, limit), (integral, measurement, derivative)


def grade(breakpoints, x):
    """Membership of x in a triangle (a, b, c) or a trapezoid (a, lo, hi, c)."""
    a, *core, c = breakpoints
    lo, hi = core[0], core[-1]
    if x < a or x > c:
        return 0.0
    if lo <= x <= hi:
        return 1.0
    return (x - a) / (lo - a) if x < lo else (c - x) / (c - hi)


def centroid(grid, aggregate):
    """The aggregate's weighted mean over the grid: the tests' one centroid."""
    return float(np.dot(grid, aggregate)) / float(aggregate.sum())


def fuzzy_controller(config):
    """The Mamdani step (error, error rate) -> output of a FuzzyConfig. Each rule
    fires at min(error grade, rate grade) and clips its output curve there."""
    lo, hi = config.output_universe
    grid = np.linspace(lo, hi, config.grid_points)
    curves = {label: np.array([grade(mf.breakpoints, float(u)) for u in grid])
              for label, mf in config.output_sets.items()}

    def step(error, error_delta):
        e = clamp(error, *config.error_universe)
        d = clamp(error_delta, *config.delta_universe)
        e_grades = {label: grade(mf.breakpoints, e) for label, mf in config.error_sets.items()}
        d_grades = {label: grade(mf.breakpoints, d) for label, mf in config.delta_sets.items()}
        aggregate = np.zeros(config.grid_points)
        for (e_label, d_label), out in config.rules.items():
            strength = min(e_grades[e_label], d_grades[d_label])
            if strength > 0.0:
                np.maximum(aggregate, np.minimum(curves[out], strength), out=aggregate)
        return clamp(centroid(grid, aggregate), lo, hi)

    return step


class Channel:
    """A PID or fuzzy controller, an optional output filter and the servo map;
    the first update starts the PID derivative, or the fuzzy rate, at zero."""

    def __init__(self, config, filter_alpha=None):
        self.config, self.alpha = config, filter_alpha
        self.fuzzy = None if isinstance(config, PidConfig) else fuzzy_controller(config)
        self.state, self.filtered = None, 0.0  # PID state or last fuzzy error; filter output
        ops = PID_STEP_OPS if self.fuzzy is None else count_fuzzy_ops(config) + _DELTA_OPS
        self.ops_per_step = ops + _PWM_MAP_OPS + (0 if filter_alpha is None else _EXP_FILTER_OPS)

    def update(self, error, measurement, dt):
        if self.fuzzy is None:
            state = (0.0, measurement, 0.0) if self.state is None else self.state
            effort, self.state = pid_step(self.config, state, error, measurement, dt)
        else:
            prev = error if self.state is None else self.state
            effort = self.fuzzy(error, (error - prev) / dt)
            self.state = error
        if self.alpha is not None:
            effort = self.alpha * effort + (1.0 - self.alpha) * self.filtered
            self.filtered = effort
        return effort_to_pwm(effort)


def channel(config, name):
    """The Channel of a scenario's `steering` or `throttle` settings."""
    kind, alpha = getattr(config, f"{name}_kind"), getattr(config, f"{name}_filter")
    if alpha == "auto":
        alpha = FUZZY_FILTER_ALPHA if kind == "fuzzy" else None
    return Channel(getattr(config, f"{name}_{kind}"), alpha)


def effort_to_pwm(effort):
    """An effort on the servo scale: 90 neutral, +-1 the ends 0 and 180."""
    return clamp(90.0 + 90.0 * effort, 0.0, 180.0)


def pwm_to_actuation(steering_pwm, throttle_pwm, vehicle):
    """(steer angle, speed command); a throttle below neutral coasts."""
    steer = vehicle.max_steer_angle * (steering_pwm - 90.0) / 90.0
    speed = vehicle.max_speed * max(0.0, throttle_pwm - 90.0) / 90.0
    return steer, speed


def rk4_sub_step(state, vehicle, steer_angle, speed_cmd, dt):
    """One classic RK4 step of xdot = v cos h, ydot = v sin h, hdot = v tan(delta)
    / wheelbase, the speed slewing toward its target at max_accel. Stage k runs
    at v_k from h_k; stages 2 and 3 share a speed, hence a heading rate."""
    x, y, h, v = state
    lock = vehicle.max_steer_angle
    curvature = math.tan(clamp(steer_angle, -lock, lock)) / vehicle.wheelbase
    target = clamp(speed_cmd, 0.0, vehicle.max_speed)
    ramp_time = abs(target - v) / vehicle.max_accel

    def speed_at(tau):
        return target if tau >= ramp_time else v + math.copysign(vehicle.max_accel * tau, target - v)

    half = 0.5 * dt
    v1, v2, v4 = speed_at(0.0), speed_at(half), speed_at(dt)
    h2 = h + half * (v1 * curvature)
    h3 = h + half * (v2 * curvature)
    h4 = h + dt * (v2 * curvature)
    cos, sin, sixth = math.cos, math.sin, dt / 6.0
    x += sixth * (v1 * cos(h) + 2.0 * (v2 * cos(h2)) + 2.0 * (v2 * cos(h3)) + v4 * cos(h4))
    y += sixth * (v1 * sin(h) + 2.0 * (v2 * sin(h2)) + 2.0 * (v2 * sin(h3)) + v4 * sin(h4))
    h += sixth * (v1 * curvature + 2.0 * (v2 * curvature) + 2.0 * (v2 * curvature) + v4 * curvature)
    return x, y, wrap(h), v4


def integrate(state, vehicle, steer_angle, speed_cmd, dt, steps):
    for _ in range(steps):
        state = rk4_sub_step(state, vehicle, steer_angle, speed_cmd, dt)
    return state


def lateral_deviation(fx, fy, track):
    """Signed distance from (fx, fy) to a polyline, left of travel positive:
    the side of the first nearest leg of some length, none on its axis. With
    no such leg, or every distance past float range, the first point's."""
    best_d2, best_cross = math.inf, 0.0
    for (px, py), (qx, qy) in zip(track, track[1:]):
        vx, vy = qx - px, qy - py
        norm2 = vx * vx + vy * vy
        if norm2 == 0.0:
            continue
        u = clamp(((fx - px) * vx + (fy - py) * vy) / norm2, 0.0, 1.0)
        dx, dy = fx - (px + u * vx), fy - (py + u * vy)
        d2 = dx * dx + dy * dy
        if d2 < best_d2:
            best_d2, best_cross = d2, vx * dy - vy * dx
    if best_d2 == math.inf:
        return math.hypot(fx - track[0][0], fy - track[0][1])
    d = math.sqrt(best_d2)
    return math.copysign(d, best_cross) if best_cross != 0.0 else d


def cut_track(config):
    """The track of a record at t whose leader stands at leader_xy, as a
    function of the two: the leader's lane extended back from its start, the
    corners it has reached by t, the leader."""
    script = config.leader
    x0, y0, h0, _ = leader_pose(script, 0.0)
    back = 10.0 * max(follow_range(config), 1.0)
    tail = (x0 - back * math.cos(h0), y0 - back * math.sin(h0))
    legs = segments(script)
    corners = [(script.start.x, script.start.y), *(q for _, q, _, _ in legs)]
    corner_s = list(accumulate((length for _, _, length, _ in legs), initial=0.0))

    def track(t, leader_xy):
        arc = progress(script, t)[0]
        passed = sum(1 for s in corner_s if s <= arc)
        return [(float(x), float(y)) for x, y in (tail, *corners[:passed], leader_xy)]
    return track


def reference_run(config):
    """(records, stop reason) of a plain scenario. A record's lateral deviation
    is measured against its cut_track."""
    camera, panel, vehicle, script = config.camera, config.panel, config.vehicle, config.leader
    dt = 1.0 / camera.frame_rate
    n_records = int(config.duration / dt + 1e-9)
    sub_steps = max(1, math.ceil(dt / MAX_SUB_STEP - 1e-12))
    rng = random.Random(config.seed)
    steering = None if config.steering_locked else channel(config, "steering")
    throttle = channel(config, "throttle")

    follower = tuple(config.follower_start)
    steering_pwm = throttle_pwm = 90.0
    pixel_error = area_error = 0.0
    rows, stop_reason, still_time = [], None, 0.0
    for k in range(n_records):
        t = k * dt
        leader = leader_pose(script, t)
        reading = observe(camera, follower, leader, panel, t, rng)
        ops = 0
        if reading is not None:
            x_px, _, width_px, height_px, _ = reading
            area = width_px * height_px
            pixel_error = x_px - camera.image_width / 2.0
            area_error = config.setpoint_area - area
            if steering is not None:
                steering_pwm = steering.update(pixel_error, pixel_error, dt)
                ops += steering.ops_per_step
            throttle_pwm = throttle.update(area_error, area, dt)
            ops += throttle.ops_per_step
        elif config.lost_target_policy == "stop":
            steering_pwm = throttle_pwm = 90.0
        rows.append((t, leader, follower, pixel_error, area_error, steering_pwm, throttle_pwm,
                     reading is not None, ops))

        steer_angle, speed_cmd = pwm_to_actuation(steering_pwm, throttle_pwm, vehicle)
        follower = integrate(follower, vehicle, steer_angle, speed_cmd, dt / sub_steps, sub_steps)
        if script.kind == "stationary":
            still_time = still_time + dt if follower[3] < config.stop_speed_eps else 0.0
            if still_time >= config.stop_hold_time and k + 1 < n_records:
                stop_reason = STOP_REASON_STATIONARY
                break

    track = cut_track(config)
    records = []
    for t, (lx, ly, _, _), (fx, fy, heading, _), *rest in rows:
        deviation = lateral_deviation(fx, fy, track(t, (lx, ly)))
        records.append(TraceRecord(t, lx, ly, fx, fy, heading, *rest[:4], deviation,
                                   math.hypot(lx - fx, ly - fy), *rest[4:]))
    return records, stop_reason


def metrics(records, channel_name):
    """trace_metrics of a channel. Its error steps from its first sample y0 to
    zero; a y0 of +-0 is no step, and the step metrics are NaN."""
    error, command = {"steering": ("pixel_error_x", "steering_pwm"),
                      "throttle": ("area_error", "throttle_pwm")}[channel_name]
    ys = [float(getattr(r, error)) for r in records]
    ts = [float(r.t) for r in records]
    delta = -ys[0] or None
    tail = ys[int(0.8 * len(ys)):]
    final = ys[-1]
    rise = settle = overshoot = math.nan
    if delta is not None:
        fractions = [(y - ys[0]) / delta for y in ys]  # of the way from ys[0] to zero
        t10 = next((t for t, f in zip(ts, fractions) if f >= 0.1), None)
        t90 = next((t for t, f in zip(ts, fractions) if f >= 0.9), None)
        if t90 is not None:
            rise = t90 - t10
        outside = [i for i, y in enumerate(ys) if abs(y - final) > 0.05 * abs(delta)]
        first_inside = outside[-1] + 1 if outside else 0
        if first_inside < len(ys):
            settle = ts[first_inside] - ts[0]
        direction = math.copysign(1.0, delta)
        overshoot = max(0.0, max((y - final) * direction for y in ys)) / abs(delta) * 100.0
    cmds = [float(getattr(r, command)) for r in records]
    ops = [float(r.op_count) for r in records]
    return (rise, settle, overshoot, sum(tail) / len(tail), math.sqrt(sum(y * y for y in ys) / len(ys)),
            sum((abs(b - a) for a, b in zip(cmds, cmds[1:])), 0.0), sum(ops) / len(ops))


def place_behind(pose, gap, offset=0.0):
    """A parked pose `gap` behind a pose and `offset` to its left."""
    x, y, h = pose[:3]
    return VehicleState._make((x - gap * math.cos(h) - offset * math.sin(h),
                               y - gap * math.sin(h) + offset * math.cos(h), h, 0.0))


def archetype_runs(config):
    """The plain configs a scenario's archetype expands to, one per trace."""
    start = config.leader.start
    parked = LeaderScript(kind="stationary", start=start)

    def run(suffix, leader, follower_start, locked=False):
        return replace(config, name=config.name + suffix, archetype="scenario", leader=leader,
                       follower_start=follower_start, steering_locked=locked)

    def tag(value):  # a number as a run's name carries it: 2.5 -> 2p5, -0.8 -> m0p8
        return f"{value:g}".replace(".", "p").replace("-", "m")

    if config.archetype == "step_response":
        return [run(f"_sep_{tag(sep)}m", parked, place_behind(start, sep), locked=True)
                for sep in config.step_separations]
    if config.archetype == "lateral_offset":
        offset, speed = config.lateral_offset, config.lateral_leader_speed
        leader = parked if speed == 0.0 else LeaderScript("straight_line", start, speed_profile=speed)
        return [run(f"_lat_{tag(offset)}m_v{tag(speed)}", leader,
                    place_behind(start, follow_range(config), offset))]
    if config.archetype == "path_follow":
        reference = start
        if config.leader.kind == "waypoint_path":
            (x, y), _, _, heading = segments(config.leader)[0]
            reference = (x, y, wrap(heading))
        return [run("_path", config.leader, place_behind(reference, follow_range(config)))]
    return [config]
