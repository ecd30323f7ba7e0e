"""Planar ground-truth kinematics for the leader and follower vehicles.

The follower is integrated with a no-slip bicycle model (fixed rear wheel,
steered front wheel): xdot = v*cos(h), ydot = v*sin(h), hdot = v*tan(delta)/L.
The leader is scripted, not controlled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np

SCRIPT_KINDS = ("stationary", "straight_line", "waypoint_path")

# physics sub-step ceiling used by the experiment runner
MAX_PHYSICS_DT = 0.002


def normalize_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi). Angles already in range pass through unchanged."""
    a = math.remainder(angle, math.tau)
    return -math.pi if a == math.pi else a


def _require_finite(**values: float) -> None:
    """Name the first non-finite value; hot callers test math.isfinite first."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"non-finite {name}: {v!r}")


class _Pose(NamedTuple):
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0


class VehicleState(_Pose):
    """Pose and speed of one vehicle. Heading is CCW radians from +x, wrapped
    to [-pi, pi) on construction; `_make` and `_replace` take the fields as
    given, for a heading that is already wrapped."""

    __slots__ = ()

    def __new__(cls, x: float = 0.0, y: float = 0.0, heading: float = 0.0, speed: float = 0.0):
        return tuple.__new__(cls, (x, y, normalize_angle(heading), speed))


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float = 0.33
    max_steer_angle: float = 0.45
    max_speed: float = 4.0
    max_accel: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(wheelbase=self.wheelbase, max_steer_angle=self.max_steer_angle,
                        max_speed=self.max_speed, max_accel=self.max_accel)
        if self.wheelbase <= 0:
            raise ValueError("wheelbase must be positive")
        if not 0 < self.max_steer_angle < math.pi / 2:
            raise ValueError("max_steer_angle must be in (0, pi/2)")
        if self.max_speed <= 0:
            raise ValueError("max_speed must be positive")
        if self.max_accel <= 0:
            raise ValueError("max_accel must be positive")
        # the runner's full-throttle speed command is max_speed * 90 / 90, and an
        # RK4 step sums six heading rates of up to this fastest turn rate
        if not math.isfinite(90.0 * self.max_speed):
            raise ValueError(f"max_speed {self.max_speed:g} overflows the speed command")
        turn_rate = self.max_speed * (math.tan(self.max_steer_angle) / self.wheelbase)
        if not math.isfinite(6.0 * turn_rate):
            raise ValueError("max_speed * tan(max_steer_angle) / wheelbase overflows the turn rate")


def _normalize_profile(profile) -> tuple[tuple[float, float], ...]:
    """Accept a plain speed or (time, speed) pairs; return sorted pairs from t=0."""
    if isinstance(profile, (int, float)):
        pairs = ((0.0, float(profile)),)
    else:
        pairs = tuple((float(t), float(v)) for t, v in profile)
    if not pairs:
        raise ValueError("speed_profile must not be empty")
    if pairs[0][0] != 0.0:
        raise ValueError("speed_profile must start at t=0")
    for (t0, v0), (t1, _) in zip(pairs, pairs[1:]):
        if t1 <= t0:
            raise ValueError("speed_profile times must be strictly ascending")
    for t, v in pairs:
        _require_finite(time=t, speed=v)
        if v < 0:
            raise ValueError("speed_profile values must be non-negative")
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
                raise ValueError("waypoints must hold at least two points for kind waypoint_path")
            pts = tuple((float(x), float(y)) for x, y in self.waypoints)
            if all(p == pts[0] for p in pts):
                raise ValueError("waypoints must contain at least two distinct points")
            object.__setattr__(self, "waypoints", pts)
            if not all(math.isfinite(length) for _, _, length, _ in self.segments):
                raise ValueError("waypoints make a path segment too long to measure")
        elif self.waypoints is not None:
            raise ValueError(f"waypoints are driven only by kind waypoint_path, not {self.kind}")

    @cached_property
    def segments(self) -> tuple[tuple, ...]:
        """(p, q, length, heading) of each leg of a waypoint_path, from the start
        pose through each waypoint unlike the one before, worked out once; () otherwise."""
        if self.kind != "waypoint_path":
            return ()
        pts = [(self.start.x, self.start.y)]
        for p in self.waypoints:
            if p != pts[-1]:
                pts.append(p)
        return tuple(
            (p, q, math.hypot(q[0] - p[0], q[1] - p[1]), math.atan2(q[1] - p[1], q[0] - p[0]))
            for p, q in zip(pts, pts[1:])
        )

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(start time, speed, arc length by its start) of each speed-profile
        piece as columns, worked out once: each finished piece adds its
        distance in turn, from 0.0."""
        profile = self.speed_profile
        arcs = accumulate((v0 * (t1 - t0) for (t0, v0), (t1, _) in zip(profile, profile[1:])),
                          initial=0.0)
        return np.array([t for t, _ in profile]), np.array([v for _, v in profile]), np.array([*arcs])

    @cached_property
    def _legs(self) -> tuple[np.ndarray, ...]:
        """The segments as columns, worked out once: start x and y, extent
        along x and y, length, and heading wrapped as a pose wraps it."""
        return tuple(np.array(column, dtype=float) for column in zip(*(
            (p[0], p[1], q[0] - p[0], q[1] - p[1], length, normalize_angle(heading))
            for p, q, length, heading in self.segments)))

    @cached_property
    def track(self) -> tuple:
        """(pose at t = 0, the start and each corner as (x, y), the arc length
        of each corner), worked out once: the leader track but for its tail."""
        corners = ((self.start.x, self.start.y), *(q for _, q, _, _ in self.segments))
        return leader_pose(self, 0.0), corners, tuple(accumulate(s for _, _, s, _ in self.segments))


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

    Shortcuts keep the bits of the full four-point trig step: an along-x
    call (zero curvature, a +0.0 heading, a speed >= 0, a target not -0.0)
    updates only x and the speed, and settled sub-steps share one speed, one
    heading step, one mid-step angle and the last end heading's trig.

    A call that cannot change any bit of the state returns `state` itself,
    so `result is state` tells a caller that nothing moved. That is a +0.0
    heading, speed and clamped target, zero curvature of either sign and
    neither x nor y a -0.0: every sub-step then adds +0.0 to x, and y gains
    only +0.0. Every other call returns a new VehicleState.
    """
    x, y, h, v = state.x, state.y, state.heading, state.speed
    # finite only if every term is; an overflow leaves nothing to reject
    if not math.isfinite(x + y + h + v + steer_angle + speed_cmd + dt):
        _require_finite(x=x, y=y, heading=h, speed=v,
                        steer_angle=steer_angle, speed_cmd=speed_cmd, dt=dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")

    # each clamp has the bits of min(max(x, lo), hi)
    lock = params.max_steer_angle
    delta = -lock if steer_angle < -lock else lock if steer_angle > lock else steer_angle
    curvature = math.tan(delta) / params.wheelbase
    max_accel = params.max_accel
    top = params.max_speed
    target = 0.0 if speed_cmd < 0.0 else top if speed_cmd > top else speed_cmd
    copysign = math.copysign
    # zero curvature, a +0.0 heading, a speed >= 0 and a target that is not
    # -0.0 make every heading rate of every sub-step a zero and every angle
    # and sine +0.0: each cosine is 1.0, the heading stays +0.0 and y gains
    # only +0.0
    along_x = (not curvature and not h and copysign(1.0, h) > 0.0
               and v >= 0.0 and copysign(1.0, target) > 0.0)
    # at rest along x, x + 0.0 and y + 0.0 change only a -0.0, and the
    # speed ends at its +0.0 target
    if (along_x and not target and not v and copysign(1.0, v) > 0.0
            and (x or copysign(1.0, x) > 0.0) and (y or copysign(1.0, y) > 0.0)):
        return state
    half = 0.5 * dt
    sixth = dt / 6.0
    cos, sin = math.cos, math.sin
    # speed change of a ramp still under way by tau = dt/2 and dt. A ramp
    # meets the target without passing it, so its sign holds for the call.
    slew_mid = copysign(max_accel * half, target - v)
    slew_end = copysign(max_accel * dt, target - v)

    settled = 0  # sub-steps left once the speed has met the target
    for i in range(steps):
        dv = target - v
        ramp_time = abs(dv) / max_accel
        if 0.0 >= ramp_time:
            settled = steps - i
            break
        # adding the zero change at tau = 0 turns a -0.0 speed into +0.0
        v_start = v + 0.0
        v_mid = target if half >= ramp_time else v + slew_mid
        v_end = target if dt >= ramp_time else v + slew_end
        v = v_end
        if along_x:
            x += sixth * (v_start + 2.0 * v_mid + 2.0 * v_mid + v_end)
            continue
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
        h = -math.pi if h == math.pi else h

    if along_x:
        dx = sixth * (target + 2.0 * target + 2.0 * target + target)
        for _ in range(settled):
            x += dx
        y += 0.0
    elif settled:
        # every speed of a sub-step is the target: one heading rate kh, and
        # h3 is h2, so a sub-step needs at most three cosines and three sines
        kh = target * curvature
        dh = sixth * (kh + 2.0 * kh + 2.0 * kh + kh)
        c, s = cos(h), sin(h)
        for _ in range(settled):
            h2, h4 = h + half * kh, h + dt * kh
            c2, s2 = 2.0 * (target * cos(h2)), 2.0 * (target * sin(h2))
            c4, s4 = cos(h4), sin(h4)
            x += sixth * (target * c + c2 + c2 + target * c4)
            y += sixth * (target * s + s2 + s2 + target * s4)
            h = math.remainder(h + dh, math.tau)
            h = -math.pi if h == math.pi else h
            # the next sub-step reuses the end heading's cosine and sine if it
            # starts at that same float. Equal zeros are the same zero: h4 and
            # the next h add steps of one sign to the same h, so their signs agree
            c, s = c4, s4
            if h != h4:
                c, s = cos(h), sin(h)
    return tuple.__new__(VehicleState, (x, y, h, target if settled else v))


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


def leader_progress(script: LeaderScript, times) -> tuple[np.ndarray, np.ndarray]:
    """(arc length traveled, speed) at each of an array of times >= 0 under
    the piecewise-constant speed profile: the arc length by the start of the
    last piece begun, plus that piece's speed times the time since."""
    starts, speeds, arcs = script._pieces
    piece = np.searchsorted(starts, times, side="right") - 1
    v = speeds[piece]
    with np.errstate(over="ignore"):
        return arcs[piece] + v * (times - starts[piece]), v


def leader_poses(script: LeaderScript, times) -> tuple[np.ndarray, ...]:
    """Columns (x, y, heading, speed) of the scripted leader's pose at each of
    an array of times >= 0 (one time gives columns of one); each time gets the float operations of a walk
    along the profile and then along the path, so one element at a time
    gives the same bits.

    A waypoint_path leader drives each leg at the profile speed: each leg
    it has passed takes that leg's length off its arc length, in turn, and
    it holds the end pose at speed 0 once past the last leg.
    """
    times = np.array(times, dtype=float, ndmin=1)
    x0, y0, h0, _ = script.start  # a built pose, so h0 is wrapped
    if script.kind == "stationary":
        return tuple(np.full(times.shape, c, dtype=float) for c in (x0, y0, h0, 0.0))
    s, v = leader_progress(script, times)
    # past float range a sum reads inf, as with floats; past the end of a
    # path, u > 1 goes unused
    with np.errstate(all="ignore"):
        if script.kind == "straight_line":
            return x0 + s * math.cos(h0), y0 + s * math.sin(h0), np.full(times.shape, h0), v
        px, py, dx, dy, lengths, headings = script._legs
        leg = np.zeros(times.shape, dtype=np.intp)
        beyond = np.ones(times.shape, dtype=bool)  # still walking: past every leg so far
        for length in lengths.tolist():
            np.greater(s, length, out=beyond, where=beyond)
            leg += beyond
            np.subtract(s, length, out=s, where=beyond)  # s is leader_progress's own array
        past = leg == len(lengths)
        leg[past] = len(lengths) - 1
        u = s / lengths[leg]
        end_x, end_y = script.segments[-1][1]
        x = np.where(past, end_x, px[leg] + u * dx[leg])
        y = np.where(past, end_y, py[leg] + u * dy[leg])
    return x, y, headings[leg], np.where(past, 0.0, v)


def leader_pose(script: LeaderScript, t: float) -> VehicleState:
    """Pose of the scripted leader at time t >= 0: leader_poses at one time,
    or, for a parked leader, its start pose as given at speed 0."""
    if not math.isfinite(t):
        raise ValueError(f"non-finite time: {t!r}")
    if t < 0:
        raise ValueError("time must be non-negative")
    if script.kind == "stationary":
        return script.start._replace(speed=0.0)
    return tuple.__new__(VehicleState, np.array(leader_poses(script, t))[:, 0].tolist())


def track_deviations(followers, vertices, passed, leaders) -> list[float]:
    """Signed perpendicular distance from each follower position to its own
    leader track, worked out for every record at once.

    `followers` and `leaders` are (xs, ys) pairs of equal-length arrays, one
    entry per record, and `vertices` is a sequence of (x, y) points. Record
    i's track is the polyline vertices[:passed[i] + 1] followed by leaders[i].
    Positive when the follower sits left of the local track direction.

    Segments are measured in track order, skipping any of zero length, and
    only a strictly nearer one replaces the best, so the first nearest gives
    the sign. A follower on that segment's axis has no side: its unsigned
    distance is returned. A track with no segment to measure, or whose every
    squared distance overflows, gives the plain distance to vertices[0].
    Where no record, or every record, is cut at a vertex, its segments take
    no per-record choice of end.
    """
    fx, fy = np.asarray(followers, dtype=float)
    lx, ly = np.asarray(leaders, dtype=float)
    passed = np.asarray(passed)
    first, last = (int(passed.min()), int(passed.max())) if passed.size else (0, -1)
    best_d2 = np.full(fx.shape, math.inf)
    best_cross = np.zeros(fx.shape)  # the nearest segment's cross product, whose sign is the side
    # past float range a square reads inf and 0 * inf reads nan, as with floats
    with np.errstate(all="ignore"):
        # segment j of a record runs from vertex j to the next vertex, or to the
        # leader if the record was cut after vertex j; no record runs on past
        # the last vertex, which stands in as the next of its own
        pairs = zip(vertices, [*vertices[1:], vertices[-1]])
        for j, ((px, py), (ex, ey)) in enumerate(islice(pairs, last + 1)):
            px, py, ex, ey = float(px), float(py), float(ex), float(ey)  # as an array holds them
            if j < first:  # no record is cut here: every segment ends at the next vertex
                qx, qy = ex, ey
            elif first == last:  # every record is cut here: each ends at its leader
                qx, qy = lx, ly
            else:
                to_leader = passed == j
                qx, qy = np.where(to_leader, lx, ex), np.where(to_leader, ly, ey)
            vx, vy = qx - px, qy - py
            norm2 = vx * vx + vy * vy
            if not (norm2 if j < first else norm2.any()):  # no segment has a length to be closer on
                continue
            u = ((fx - px) * vx + (fy - py) * vy) / norm2
            u = np.where(0.0 > u, 0.0, u)  # max(u, 0.0), which keeps a -0.0 and a nan
            u = np.where(1.0 < u, 1.0, u)  # min(u, 1.0)
            dx, dy = fx - (px + u * vx), fy - (py + u * vy)
            d2 = dx * dx + dy * dy
            cross = vx * dy - vy * dx
            closer = d2 < best_d2
            if j >= first:  # a record may lack segment j, or its segment a length
                closer &= (passed >= j) & (norm2 != 0.0)
            best_d2 = np.where(closer, d2, best_d2)
            best_cross = np.where(closer, cross, best_cross)
        d = np.sqrt(best_d2)
        out = np.where(best_cross != 0.0, np.copysign(d, best_cross), d).tolist()
    x0, y0 = vertices[0]
    for i in np.isinf(best_d2).nonzero()[0].tolist():
        out[i] = math.hypot(float(fx[i]) - x0, float(fy[i]) - y0)
    return out


def lateral_deviation(follower: VehicleState, leader_track) -> float:
    """Signed perpendicular distance from the follower to the leader's (x, y)
    polyline, left of travel positive: track_deviations for one position,
    whose leader stands on the polyline's last point, so the leg to it has
    no length."""
    if not leader_track:
        raise ValueError("leader track must not be empty")
    last_x, last_y = leader_track[-1]
    (d,) = track_deviations(([follower.x], [follower.y]), leader_track,
                            [len(leader_track) - 1], ([last_x], [last_y]))
    return d
