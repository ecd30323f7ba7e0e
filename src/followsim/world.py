"""Planar ground-truth kinematics for the leader and follower vehicles.

The follower is integrated with a no-slip bicycle model (fixed rear wheel,
steered front wheel): xdot = v*cos(h), ydot = v*sin(h), hdot = v*tan(delta)/L.
The leader is scripted, not controlled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

SCRIPT_KINDS = ("stationary", "straight_line", "waypoint_path")

# physics sub-step ceiling used by the experiment runner
MAX_PHYSICS_DT = 0.002


def normalize_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi). Angles already in range pass through unchanged."""
    a = math.remainder(angle, math.tau)
    return -math.pi if a == math.pi else a


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"non-finite {name}: {v!r}")


@dataclass(frozen=True)
class VehicleState:
    """Pose and speed of one vehicle. Heading is CCW radians from +x."""

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading", normalize_angle(self.heading))


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float = 0.33
    max_steer_angle: float = 0.45
    max_speed: float = 4.0
    max_accel: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(
            wheelbase=self.wheelbase,
            max_steer_angle=self.max_steer_angle,
            max_speed=self.max_speed,
            max_accel=self.max_accel,
        )
        if self.wheelbase <= 0:
            raise ValueError("wheelbase must be positive")
        if not 0 < self.max_steer_angle < math.pi / 2:
            raise ValueError("max_steer_angle must be in (0, pi/2)")
        if self.max_speed <= 0:
            raise ValueError("max_speed must be positive")
        if self.max_accel <= 0:
            raise ValueError("max_accel must be positive")


def _normalize_profile(profile) -> tuple[tuple[float, float], ...]:
    """Accept a plain speed or (time, speed) pairs; return sorted pairs from t=0."""
    if isinstance(profile, (int, float)):
        pairs = ((0.0, float(profile)),)
    else:
        pairs = tuple((float(t), float(v)) for t, v in profile)
    if not pairs:
        raise ValueError("speed profile must not be empty")
    if pairs[0][0] != 0.0:
        raise ValueError("speed profile must start at t=0")
    for (t0, v0), (t1, _) in zip(pairs, pairs[1:]):
        if t1 <= t0:
            raise ValueError("speed profile times must be strictly ascending")
    for t, v in pairs:
        _require_finite(time=t, speed=v)
        if v < 0:
            raise ValueError("speed profile values must be non-negative")
    return pairs


@dataclass(frozen=True)
class LeaderScript:
    """Scripted leader motion: parked, constant-heading line, or waypoint polyline."""

    kind: str = "stationary"
    start: VehicleState = VehicleState()
    speed_profile: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    waypoints: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCRIPT_KINDS:
            raise ValueError(f"unknown leader script kind {self.kind!r}")
        object.__setattr__(self, "speed_profile", _normalize_profile(self.speed_profile))
        if self.kind == "waypoint_path":
            if self.waypoints is None or len(self.waypoints) < 2:
                raise ValueError("waypoint_path needs at least two waypoints")
            pts = tuple((float(x), float(y)) for x, y in self.waypoints)
            if all(p == pts[0] for p in pts):
                raise ValueError("waypoints must contain at least two distinct points")
            object.__setattr__(self, "waypoints", pts)

    def speed_at(self, t: float) -> float:
        v = self.speed_profile[0][1]
        for t0, v0 in self.speed_profile:
            if t0 <= t:
                v = v0
            else:
                break
        return v

    def distance_at(self, t: float) -> float:
        """Arc length traveled by time t under the piecewise-constant profile."""
        s = 0.0
        for i, (t0, v0) in enumerate(self.speed_profile):
            t1 = self.speed_profile[i + 1][0] if i + 1 < len(self.speed_profile) else t
            if t <= t0:
                break
            s += v0 * (min(t, t1) - t0)
        return s

    @cached_property
    def segments(self) -> tuple[tuple, ...]:
        """(p, q, length, heading) of each path_points() segment, worked out once."""
        pts = self.path_points()
        return tuple(
            (p, q, math.hypot(q[0] - p[0], q[1] - p[1]), math.atan2(q[1] - p[1], q[0] - p[0]))
            for p, q in zip(pts, pts[1:])
        )

    def path_points(self) -> tuple[tuple[float, float], ...]:
        """Polyline traversed by a waypoint_path script (start pose prepended)."""
        pts = [(self.start.x, self.start.y)]
        for p in self.waypoints or ():
            if p != pts[-1]:
                pts.append(p)
        return tuple(pts)


def place_behind(leader_start: VehicleState, gap: float, offset: float = 0.0) -> VehicleState:
    """Parked follower pose `gap` behind the leader, `offset` to its left."""
    h = leader_start.heading
    return VehicleState(
        leader_start.x - gap * math.cos(h) - offset * math.sin(h),
        leader_start.y - gap * math.sin(h) + offset * math.cos(h),
        h,
        0.0,
    )


def integrate_bicycle(
    state: VehicleState,
    params: VehicleParams,
    steer_angle: float,
    speed_cmd: float,
    dt: float,
    steps: int,
) -> VehicleState:
    """Advance one vehicle `steps` RK4 sub-steps of dt seconds each under
    bicycle kinematics, holding the steering and speed commands.

    The steering angle is clamped to +-max_steer_angle. Speed slews toward the
    (clamped, non-negative) command at max_accel, and each sub-step integrates
    the pose with RK4 using the exact slewed speed profile within it. Inputs
    are validated once; the sub-steps run over plain floats, wrapping the
    heading after each one.
    """
    _require_finite(
        x=state.x, y=state.y, heading=state.heading, speed=state.speed,
        steer_angle=steer_angle, speed_cmd=speed_cmd, dt=dt,
    )
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")

    delta = min(max(steer_angle, -params.max_steer_angle), params.max_steer_angle)
    curvature = math.tan(delta) / params.wheelbase
    max_accel = params.max_accel
    target = min(max(speed_cmd, 0.0), params.max_speed)
    half = 0.5 * dt
    sixth = dt / 6.0
    # speed change of a ramp still under way by tau = dt/2 and dt
    slew_mid, slew_end = max_accel * half, max_accel * dt
    cos, sin, copysign = math.cos, math.sin, math.copysign

    x, y, h, v = state.x, state.y, state.heading, state.speed
    for _ in range(steps):
        dv = target - v
        ramp_time = abs(dv) / max_accel
        # adding the zero change at tau = 0 turns a -0.0 speed into +0.0
        v_start = target if 0.0 >= ramp_time else v + copysign(0.0, dv)
        v_mid = target if half >= ramp_time else v + copysign(slew_mid, dv)
        v_end = target if dt >= ramp_time else v + copysign(slew_end, dv)

        # k2 and k3 share the mid-step speed, hence one heading rate k2h
        k1h = v_start * curvature
        h2 = h + half * k1h
        k2h = v_mid * curvature
        h3 = h + half * k2h
        h4 = h + dt * k2h
        k4h = v_end * curvature
        x += sixth * (v_start * cos(h) + 2.0 * (v_mid * cos(h2))
                      + 2.0 * (v_mid * cos(h3)) + v_end * cos(h4))
        y += sixth * (v_start * sin(h) + 2.0 * (v_mid * sin(h2))
                      + 2.0 * (v_mid * sin(h3)) + v_end * sin(h4))
        h += sixth * (k1h + 2.0 * k2h + 2.0 * k2h + k4h)
        h = math.remainder(h, math.tau)  # normalize_angle, inlined
        if h == math.pi:
            h = -math.pi
        v = v_end
    return VehicleState(x, y, h, v)


def step_bicycle(
    state: VehicleState,
    params: VehicleParams,
    steer_angle: float,
    speed_cmd: float,
    dt: float,
) -> VehicleState:
    """Advance one vehicle dt seconds under bicycle kinematics: one RK4 step
    of integrate_bicycle."""
    return integrate_bicycle(state, params, steer_angle, speed_cmd, dt, 1)


def leader_pose(script: LeaderScript, t: float) -> VehicleState:
    """Pose of the scripted leader at time t >= 0."""
    if not math.isfinite(t):
        raise ValueError(f"non-finite time: {t!r}")
    if t < 0:
        raise ValueError("time must be non-negative")

    if script.kind == "stationary":
        return replace(script.start, speed=0.0)

    if script.kind == "straight_line":
        s = script.distance_at(t)
        h = script.start.heading
        return VehicleState(
            script.start.x + s * math.cos(h),
            script.start.y + s * math.sin(h),
            h,
            script.speed_at(t),
        )

    # waypoint_path: walk segments at the profile speed, hold the end pose
    s = script.distance_at(t)
    for p, q, seg, heading in script.segments:
        if s <= seg:
            u = s / seg
            return VehicleState(
                p[0] + u * (q[0] - p[0]), p[1] + u * (q[1] - p[1]),
                heading, script.speed_at(t),
            )
        s -= seg
    return VehicleState(q[0], q[1], heading, 0.0)


def _as_point(p) -> tuple[float, float]:
    if hasattr(p, "x"):
        return (p.x, p.y)
    return (float(p[0]), float(p[1]))


def lateral_deviation(follower: VehicleState, leader_track) -> float:
    """Signed perpendicular distance from the follower to the leader's polyline.

    Positive when the follower sits left of the local track direction. A track
    with a single distinct point (or a follower collinear with the nearest
    segment's axis) has no left/right side; the unsigned distance is returned.
    """
    pts = [_as_point(p) for p in leader_track]
    if not pts:
        raise ValueError("leader track must not be empty")

    fx, fy = follower.x, follower.y
    best_d2 = math.inf
    best_sign = 0.0
    for (px, py), (qx, qy) in zip(pts, pts[1:]):
        vx, vy = qx - px, qy - py
        norm2 = vx * vx + vy * vy
        if norm2 == 0.0:  # a repeated point, or distinct points closer than sqrt(tiny)
            continue
        u = ((fx - px) * vx + (fy - py) * vy) / norm2
        u = min(max(u, 0.0), 1.0)
        cx, cy = px + u * vx, py + u * vy
        d2 = (fx - cx) ** 2 + (fy - cy) ** 2
        if d2 < best_d2:
            best_d2 = d2
            cross = vx * (fy - cy) - vy * (fx - cx)
            best_sign = math.copysign(1.0, cross) if cross != 0.0 else 0.0
    if math.isinf(best_d2):  # one distinct point, or every segment collapsed
        return math.hypot(fx - pts[0][0], fy - pts[0][1])
    d = math.sqrt(best_d2)
    return best_sign * d if best_sign != 0.0 else d


def following_distance(follower: VehicleState, leader: VehicleState) -> float:
    """Euclidean distance between the two vehicle positions."""
    _require_finite(fx=follower.x, fy=follower.y, lx=leader.x, ly=leader.y)
    return math.hypot(leader.x - follower.x, leader.y - follower.y)
