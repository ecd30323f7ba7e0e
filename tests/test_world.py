import math
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from followsim import (
    LeaderScript,
    PidState,
    SensorReading,
    VehicleParams,
    VehicleState,
    default_scenario,
    integrate_bicycle,
    lateral_deviation,
    leader_pose,
    normalize_angle,
    run_scenario,
    step_bicycle,
)
from followsim.world import SCRIPT_KINDS, leader_poses, leader_progress, track_deviations

PARAMS = VehicleParams()


def state_bits(state) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in state)


@st.composite
def kernel_inputs(draw):
    """(state, steer, speed command, dt, steps) covering the kernel's branches."""
    steps = draw(st.integers(1, 12))
    dt = draw(st.sampled_from([0.002, 0.02 / 10, 1.0 / 600]) | st.floats(1e-4, 0.05))
    speed = draw(st.sampled_from([0.0, -0.0, PARAMS.max_speed]) | st.floats(-0.5, 4.5))
    heading = draw(st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-math.pi, math.pi, exclude_max=True),
        st.floats(math.pi - 1e-6, math.pi),  # wraps to -pi within a few steps
        st.floats(-math.pi, -math.pi + 1e-6),
    ))
    # beyond +-max_steer_angle both ways
    steer = draw(st.sampled_from([0.0, -0.0]) | st.floats(-1.5, 1.5))
    ramp = PARAMS.max_accel * dt
    cmd = draw(st.one_of(
        st.just(speed),  # already at target
        # the ramp ends inside sub-step j
        st.tuples(st.integers(0, steps - 1), st.floats(0.0, 1.0), st.sampled_from([-1.0, 1.0]))
        .map(lambda jus: speed + jus[2] * (jus[0] + jus[1]) * ramp),
        st.floats(-10.0, -1e-9),  # negative
        st.floats(PARAMS.max_speed, 10.0, exclude_min=True),  # above max_speed
        st.floats(0.0, PARAMS.max_speed),
    ))
    state = VehicleState(draw(st.floats(-100, 100)), draw(st.floats(-100, 100)), heading, speed)
    return state, steer, cmd, dt, steps


# module-level strategies: one built per example would cost more than the kernel
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
COORDINATE = SIGNED_ZERO | st.floats(-100, 100)
# only a +0.0 heading takes the along-x path
WRAPPED_HEADING = (SIGNED_ZERO | st.sampled_from([-math.pi, math.nextafter(math.pi, 0.0)])
                   | st.floats(-math.pi, math.pi, exclude_max=True))
SPEED = st.sampled_from([0.0, -0.0, PARAMS.max_speed]) | st.floats(-0.5, 4.5)
COMMAND = SIGNED_ZERO | st.floats(-10.0, 10.0)


@st.composite
def straight_kernel_inputs(draw):
    """(state, steer, speed command, dt, steps) of a zero-curvature call:
    signed zeros in every field, headings at both ends of the wrapped range,
    and a command already met, met by a ramp that ends mid-record, or free."""
    steps = draw(st.integers(1, 12))
    dt = draw(st.floats(1e-4, 0.05))
    speed = draw(SPEED)
    kind = draw(st.sampled_from(["met", "ramp", "free"]))
    if kind == "met":
        cmd = speed
    elif kind == "ramp":
        cmd = speed + draw(st.floats(-1.0, 1.0)) * steps * PARAMS.max_accel * dt
    else:
        cmd = draw(COMMAND)
    state = VehicleState(draw(COORDINATE), draw(COORDINATE), draw(WRAPPED_HEADING), speed)
    return state, draw(SIGNED_ZERO), cmd, dt, steps


@st.composite
def settled_turning_inputs(draw):
    """(state, steer, speed command, dt, steps) of a turning call whose speed
    meets its target at once or by a ramp that ends mid-call, so that most of
    its sub-steps run at the target: signed-zero headings and speeds, headings
    that wrap, and a clamped or within-lock steering angle."""
    steps = draw(st.integers(1, 12))
    dt = draw(st.sampled_from([0.002, 1.0 / 600]) | st.floats(1e-4, 0.05))
    heading = draw(WRAPPED_HEADING | st.floats(math.pi - 0.05, math.pi, exclude_max=True))
    steer = draw(st.sampled_from([0.45, -0.45, 1.0, -1.0]) | st.floats(-0.5, 0.5)
                 .filter(lambda a: a != 0.0))
    speed = draw(SPEED)
    if draw(st.booleans()):
        cmd = speed  # settled from the first sub-step
    else:
        cmd = speed + draw(st.floats(-1.0, 1.0)) * PARAMS.max_accel * dt
    state = VehicleState(draw(COORDINATE), draw(COORDINATE), heading, speed)
    return state, steer, cmd, dt, steps


def arc_pose(start: VehicleState, params: VehicleParams, steer: float, v: float, t: float):
    """Closed-form constant-steer trajectory: a circle of radius L/tan(delta)."""
    if steer == 0.0:
        return (
            start.x + v * t * math.cos(start.heading),
            start.y + v * t * math.sin(start.heading),
            start.heading,
        )
    radius = params.wheelbase / math.tan(steer)
    omega = v / radius
    h0, h1 = start.heading, start.heading + omega * t
    return (
        start.x + radius * (math.sin(h1) - math.sin(h0)),
        start.y - radius * (math.cos(h1) - math.cos(h0)),
        h1,
    )


def simulate_constant(start, params, steer, v, t_total, dt):
    state = start
    steps = round(t_total / dt)
    for _ in range(steps):
        state = step_bicycle(state, params, steer, v, dt)
    return state


class TestStepBicycle:
    def test_zero_steer_straight_line(self):
        state = VehicleState(0.0, 0.0, 0.0, speed=1.0)
        out = step_bicycle(state, PARAMS, 0.0, 1.0, 0.1)
        assert out.heading == 0.0
        assert out.x == pytest.approx(0.1, abs=1e-12)
        assert out.y == 0.0
        assert out.speed == 1.0

    def test_constant_steer_matches_circular_arc(self):
        start = VehicleState(0.2, -0.4, 0.3, speed=1.0)
        steer, v, t = 0.1, 1.0, 5.0
        end = simulate_constant(start, PARAMS, steer, v, t, dt=0.01)
        x, y, h = arc_pose(start, PARAMS, steer, v, t)
        assert end.x == pytest.approx(x, abs=1e-8)
        assert end.y == pytest.approx(y, abs=1e-8)
        assert normalize_angle(end.heading - normalize_angle(h)) == pytest.approx(0.0, abs=1e-8)

    def test_speed_slew_saturation(self):
        state = VehicleState(0.0, 0.0, 0.0, speed=0.5)
        out = step_bicycle(state, PARAMS, 0.0, 100.0, 0.1)
        # far-off command: speed moves by exactly max_accel*dt
        assert out.speed == pytest.approx(0.5 + PARAMS.max_accel * 0.1, abs=0.0)

    def test_speed_reaches_target_within_step(self):
        state = VehicleState(0.0, 0.0, 0.0, speed=1.0)
        out = step_bicycle(state, PARAMS, 0.0, 1.05, 0.1)
        assert out.speed == 1.05

    def test_steer_clamped_internally(self):
        state = VehicleState(0.0, 0.0, 0.0, speed=1.0)
        hard = step_bicycle(state, PARAMS, 10.0, 1.0, 0.05)
        at_limit = step_bicycle(state, PARAMS, PARAMS.max_steer_angle, 1.0, 0.05)
        assert hard == at_limit

    def test_speed_never_exceeds_limits(self):
        state = VehicleState(0.0, 0.0, 0.0, speed=3.9)
        out = step_bicycle(state, PARAMS, 0.0, 99.0, 10.0)
        assert out.speed == PARAMS.max_speed
        out = step_bicycle(state, PARAMS, 0.0, -5.0, 10.0)
        assert out.speed == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        state = VehicleState(0.0, 0.0, 0.0, speed=1.0)
        with pytest.raises(ValueError):
            step_bicycle(state, PARAMS, bad, 1.0, 0.1)
        with pytest.raises(ValueError):
            step_bicycle(VehicleState(bad, 0.0, 0.0), PARAMS, 0.0, 1.0, 0.1)

    def test_zero_dt_rejected(self):
        with pytest.raises(ValueError):
            step_bicycle(VehicleState(0, 0, 0), PARAMS, 0.0, 1.0, 0.0)

    def test_zero_steer_heading_bit_identical(self):
        state = VehicleState(1.0, 2.0, 0.73, speed=0.0)
        for k in range(500):
            state = step_bicycle(state, PARAMS, 0.0, 0.5 + 0.001 * k, 0.01)
        assert state.heading == 0.73

    @given(
        steer=st.floats(-0.45, 0.45),
        v=st.floats(0.0, 4.0),
        heading=st.floats(-math.pi, math.pi - 1e-9),
        speed=st.floats(0.0, 4.0),
    )
    @settings(max_examples=200)
    def test_finite_in_finite_out(self, steer, v, heading, speed):
        state = VehicleState(0.0, 0.0, heading, speed=speed)
        out = step_bicycle(state, PARAMS, steer, v, 0.02)
        assert math.isfinite(out.x) and math.isfinite(out.y)
        assert -math.pi <= out.heading < math.pi
        assert 0.0 <= out.speed <= PARAMS.max_speed


class TestIntegrateBicycle:
    @given(kernel_inputs())
    # the first sub-step lands exactly on pi, which wraps to -pi before the next
    @example((VehicleState(0.0, 0.0, math.nextafter(math.pi, 0.0), 2.0), 2e-14, 2.0, 0.002, 2))
    # a turning ramp that ends exactly on the boundary of sub-steps 2 and 3:
    # the settled phase starts with sub-step 3
    @example((VehicleState(1.0, 2.0, 0.5, 1.0), 0.2, 1.5, 0.125, 4))
    # a speed one subnormal above the target: its ramp time underflows to 0,
    # so the first sub-step is settled and the call ends at the target
    @example((VehicleState(1.0, 2.0, 0.5, 5e-324), 0.2, 0.0, 0.002, 3))
    # a ramp up from -0.0 speed: the speed at tau = 0 is +0.0, which fixes
    # the sign of the zero heading
    @example((VehicleState(0.0, 0.0, -0.0, -0.0), -0.0, 1.0, 0.002, 1))
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_chained_closure_steps(self, inputs):
        state, steer, cmd, dt, steps = inputs
        fused = integrate_bicycle(state, PARAMS, steer, cmd, dt, steps)
        assert state_bits(fused) == state_bits(reference.integrate(state, PARAMS, steer, cmd, dt, steps))

    @given(straight_kernel_inputs())
    # the zero k1h of a ramp from rest turns a -0.0 heading into +0.0 at h2,
    # so sin(h) would give y the wrong zero
    @example((VehicleState(0.0, -0.0, -0.0, 0.0), 0.0, 1.0, 0.002, 1))
    # along x, y ends as y + 0.0, which turns a -0.0 into +0.0
    @example((VehicleState(0.0, -0.0, 0.0, 0.0), 0.0, 1.0, 0.002, 3))
    # -0.0 in each guard term in turn. A -0.0 curvature gives the along-x bits.
    # A -0.0 heading ends as +0.0, and a -0.0 target (from a -0.0 command)
    # leaves y at -0.0, so neither may take the along-x path.
    @example((VehicleState(0.0, -0.0, 0.0, 0.0), -0.0, 1.0, 0.002, 3))
    @example((VehicleState(0.0, -0.0, -0.0, 1.0), 0.0, 1.0, 0.002, 3))
    @example((VehicleState(0.0, -0.0, 0.0, 0.0), 0.0, -0.0, 0.002, 3))
    # a -0.0 speed takes the along-x path; a negative one leaves y at -0.0
    @example((VehicleState(0.0, -0.0, 0.0, -0.0), 0.0, 1.0, 0.002, 3))
    @example((VehicleState(0.0, -0.0, 0.0, -0.5), 0.0, 1.0, 0.002, 1))
    @settings(max_examples=1000, deadline=None)
    def test_straight_bit_identical_to_frozen_kernel(self, inputs):
        state, steer, cmd, dt, steps = inputs
        got = integrate_bicycle(state, PARAMS, steer, cmd, dt, steps)
        want = reference.integrate(state, PARAMS, steer, cmd, dt, steps)
        assert state_bits(got) == state_bits(want)
        assert -math.pi <= got.heading < math.pi

    @given(x=COORDINATE, y=COORDINATE, heading=SIGNED_ZERO, speed=SIGNED_ZERO | SPEED,
           steer=SIGNED_ZERO | st.floats(-0.1, 0.1), cmd=COMMAND, steps=st.integers(1, 12))
    @settings(max_examples=400, deadline=None)
    def test_returns_state_itself_only_when_no_bit_moves(self, x, y, heading, speed, steer, cmd,
                                                         steps):
        state = VehicleState(x, y, heading, speed)
        got = integrate_bicycle(state, PARAMS, steer, cmd, 0.002, steps)
        want = reference.integrate(state, PARAMS, steer, cmd, 0.002, steps)
        assert state_bits(got) == state_bits(want)
        if got is state:
            assert state_bits(want) == state_bits(state)

    @pytest.mark.parametrize("state, steer, cmd, same", [
        (VehicleState(-4.0, 0.0), 0.0, 0.0, True),
        (VehicleState(0.0, 2.5), 0.0, 0.0, True),
        # a -0.0 curvature, and a negative command that clamps to a +0.0 target
        (VehicleState(-4.0, 0.0), -0.0, -1.0, True),
        # each guard term in turn: a -0.0 x or y ends as +0.0, a -0.0 heading
        # as +0.0, a -0.0 speed as +0.0, and a -0.0 target ends the speed at -0.0
        (VehicleState(-0.0, 0.0), 0.0, 0.0, False),
        (VehicleState(-4.0, -0.0), 0.0, 0.0, False),
        (VehicleState(-4.0, 0.0, -0.0), 0.0, 0.0, False),
        (VehicleState(-4.0, 0.0, 0.0, -0.0), 0.0, 0.0, False),
        (VehicleState(-4.0, 0.0), 0.0, -0.0, False),
    ])
    def test_returns_state_itself_at_rest_along_x(self, state, steer, cmd, same):
        got = integrate_bicycle(state, PARAMS, steer, cmd, 0.002, 10)
        assert (got is state) == same
        assert (state_bits(got) == state_bits(state)) == same
        assert state_bits(got) == state_bits(
            reference.integrate(state, PARAMS, steer, cmd, 0.002, 10))

    @given(settled_turning_inputs())
    # a zero heading with a zero turn rate: h4 and the next heading are zeros
    @example((VehicleState(0.0, 0.0, -0.0, 0.0), 0.3, -1.0, 0.002, 5))
    @example((VehicleState(0.0, 0.0, 0.0, 0.0), -0.3, 0.0, 0.002, 5))
    # the heading wraps past pi within the call
    @example((VehicleState(1.0, 2.0, math.nextafter(math.pi, 0.0), 4.0), 0.45, 4.0, 0.002, 10))
    @settings(max_examples=500, deadline=None)
    def test_settled_turning_bit_identical_to_frozen_kernel(self, inputs):
        state, steer, cmd, dt, steps = inputs
        got = integrate_bicycle(state, PARAMS, steer, cmd, dt, steps)
        assert type(got) is VehicleState
        assert state_bits(got) == state_bits(
            reference.integrate(state, PARAMS, steer, cmd, dt, steps))

    @pytest.mark.parametrize("state, steer", [
        (VehicleState(1.7e308, 1.7e308, 0.5, 1.0), 0.2),
        (VehicleState(-1.7e308, -1.7e308, 0.0, 0.0), 0.0),  # along x
        (VehicleState(1e308, 1e308, -0.0, 3.0), -0.3),
    ])
    def test_finite_inputs_whose_sum_overflows_pass(self, state, steer):
        assert not math.isfinite(state.x + state.y + state.heading + state.speed)
        got = integrate_bicycle(state, PARAMS, steer, 2.0, 0.002, 10)
        assert type(got) is VehicleState
        assert state_bits(got) == state_bits(
            reference.integrate(state, PARAMS, steer, 2.0, 0.002, 10))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y", "heading", "speed", "steer_angle", "speed_cmd",
                                       "dt"])
    def test_non_finite_named_beside_huge_finite_values(self, bad, where):
        pose = SimpleNamespace(**{f: bad if f == where else 1e308
                                  for f in ("x", "y", "heading", "speed")})
        args = {f: bad if f == where else 1e308 for f in ("steer_angle", "speed_cmd", "dt")}
        with pytest.raises(ValueError, match=f"^non-finite {where}: "):
            integrate_bicycle(pose, PARAMS, args["steer_angle"], args["speed_cmd"],
                              args["dt"], 10)

    def test_step_bicycle_is_one_sub_step(self):
        state = VehicleState(0.5, -1.0, 3.1, speed=0.7)
        assert step_bicycle(state, PARAMS, 0.2, 2.5, 0.002) == integrate_bicycle(
            state, PARAMS, 0.2, 2.5, 0.002, 1
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y", "heading", "speed", "steer_angle", "speed_cmd",
                                       "dt"])
    def test_non_finite_rejected(self, bad, where):
        # a plain namespace, since VehicleState itself rejects an infinite heading
        pose = SimpleNamespace(**{f: bad if f == where else 0.5
                                  for f in ("x", "y", "heading", "speed")})
        args = {f: bad if f == where else 0.002 for f in ("steer_angle", "speed_cmd", "dt")}
        with pytest.raises(ValueError, match=f"non-finite {where}"):
            integrate_bicycle(pose, PARAMS, args["steer_angle"], args["speed_cmd"],
                              args["dt"], 10)

    @pytest.mark.parametrize("dt", [0.0, -0.0, -0.002])
    def test_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_bicycle(VehicleState(), PARAMS, 0.0, 1.0, dt, 10)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_fewer_than_one_step_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            integrate_bicycle(VehicleState(), PARAMS, 0.0, 1.0, 0.002, steps)


class TestVehicleState:
    @pytest.mark.parametrize("heading, wrapped", [
        (math.pi, -math.pi), (3 * math.pi, -math.pi), (math.tau + 0.5, 0.5),
    ])
    def test_heading_wraps_on_construction(self, heading, wrapped):
        assert VehicleState(1.0, 2.0, heading, 0.5).heading.hex() == wrapped.hex()
        assert VehicleState(x=1.0, heading=heading).heading.hex() == wrapped.hex()

    @pytest.mark.parametrize("value", [
        VehicleState(1.0, 2.0, 0.5, 1.0), SensorReading(160.0, 100.0, 20.0, 30.0, 0.0), PidState(),
    ], ids=lambda value: type(value).__name__)
    def test_value_types_reject_attribute_assignment(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], 9.0)
        with pytest.raises(AttributeError):
            value.extra = 9.0


class TestVehicleParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(wheelbase=0.0),
            dict(wheelbase=-1.0),
            dict(max_steer_angle=0.0),
            dict(max_steer_angle=math.pi / 2),
            dict(max_speed=0.0),
            dict(max_accel=-0.1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VehicleParams(**kwargs)


# few values, so that drawn waypoints repeat, some as the other signed zero
POINT_COORDS = [0.0, -0.0, 1.0, -2.5, 3.0]


@st.composite
def leader_scripts(draw):
    """A leader of any kind: a start on signed zeros, an int or a heading of
    pi; a profile of one to four pieces, the first often at 1 m/s; and few
    waypoint values, so that points repeat and legs head at +-pi."""
    kind = draw(st.sampled_from(SCRIPT_KINDS))
    coord = st.sampled_from([*POINT_COORDS, 2])
    start = VehicleState(draw(coord), draw(coord),
                         draw(st.sampled_from([0.0, -0.0, math.pi, -math.pi, 1.1, -2.0])))
    speed = st.sampled_from([0.0, 1.0, 0.25]) | st.floats(0.0, 5.0)
    profile, t = [(0.0, draw(st.sampled_from([1.0]) | speed))], 0.0
    for gap in draw(st.lists(st.floats(0.01, 8.0), max_size=3)):
        t += gap
        profile.append((t, draw(speed)))
    waypoints = None
    if kind == "waypoint_path":
        point = st.tuples(st.sampled_from(POINT_COORDS), st.sampled_from(POINT_COORDS))
        waypoints = draw(st.lists(point, min_size=2, max_size=7))
        assume(any(p != waypoints[0] for p in waypoints))
    return LeaderScript(kind, start, tuple(profile), waypoints)


class TestLeaderPose:
    @settings(max_examples=300, deadline=None)
    @given(x=COORDINATE, y=COORDINATE, heading=WRAPPED_HEADING,
           profile=SIGNED_ZERO | st.floats(0.0, 5.0)
           | st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)).map(
               lambda vs: ((0.0, vs[0]), (1.5, vs[1]))),
           t=SIGNED_ZERO | st.sampled_from([1.5]) | st.floats(0.0, 1e4))
    def test_straight_line_matches_frozen_bit_for_bit(self, x, y, heading, profile, t):
        script = LeaderScript(kind="straight_line", start=VehicleState(x, y, heading),
                              speed_profile=profile)
        got = leader_pose(script, t)
        assert type(got) is VehicleState
        assert state_bits(got) == state_bits(reference.leader_pose(script, t))

    @settings(max_examples=300, deadline=None)
    @given(leader_scripts())
    @example(LeaderScript("waypoint_path", VehicleState(3.0, 0.0, math.pi), ((0.0, 1.0), (4.0, 2.5)),
                          ((-2.5, 0.0), (-2.5, 0.0), (-2.5, -0.0), (1.0, -0.0), (-2.5, -0.0))))
    @example(LeaderScript("straight_line", VehicleState(2, -0.0, math.pi), ((0.0, 0.0), (1.0, 3.0))))
    @example(LeaderScript("stationary", VehicleState(2, -0.0, -3.0), 1.0))
    @example(LeaderScript("straight_line", VehicleState(-73.5, 0.0, math.nextafter(math.pi, 0.0)),
                          ((0.0, 4.75), (1.5, 0.0), (40.0, 3.25))))
    def test_poses_match_frozen_walks_bit_for_bit(self, script):
        """leader_pose at one time, and leader_poses and leader_progress over
        a block of times, carry the bits of the reference model's walks,
        leader_pose with its exact return types: on and between profile
        breakpoints, on each corner's arc length (a first piece at 1 m/s
        reaches it at that time), past the end of the path and far on."""
        times = [t for t, _ in script.speed_profile]
        corners = [*accumulate((length for _, _, length, _ in script.segments), initial=0.0)]
        ts = [-0.0, *times, *corners, 3.0 * (times[-1] + corners[-1]) + 1.0, 1e4]
        ts += [math.nextafter(t, math.inf) for t in ts[1:]]
        ts += [math.nextafter(t, 0.0) for t in ts[1:]]
        ts += [t + 0.37 for t in times]
        wants = [reference.leader_pose(script, t) for t in ts]
        for t, want in zip(ts, wants):
            got = leader_pose(script, t)
            assert type(got) is VehicleState
            assert list(map(type, got)) == list(map(type, want)), t
            assert state_bits(got) == state_bits(want), t
        columns = leader_poses(script, np.array(ts))
        assert [(c.dtype, c.shape) for c in columns] == [(np.float64, (len(ts),))] * 4
        assert [state_bits(VehicleState._make(pose)) for pose in zip(*(c.tolist() for c in columns))] \
            == list(map(state_bits, wants))
        arcs, speeds = leader_progress(script, np.array(ts))
        assert [(s.hex(), v.hex()) for s, v in zip(arcs.tolist(), speeds.tolist())] \
            == [tuple(map(float.hex, reference.progress(script, t))) for t in ts]

    def test_stationary_holds_start(self):
        script = LeaderScript(kind="stationary", start=VehicleState(1.0, 2.0, 0.5, speed=3.0))
        for t in (0.0, 1.3, 99.0):
            pose = leader_pose(script, t)
            assert (pose.x, pose.y, pose.heading, pose.speed) == (1.0, 2.0, 0.5, 0.0)

    def test_straight_line_uniform_motion(self):
        script = LeaderScript(kind="straight_line", start=VehicleState(0, 0, 0), speed_profile=1.0)
        pose = leader_pose(script, 2.5)
        assert (pose.x, pose.y, pose.heading, pose.speed) == (2.5, 0.0, 0.0, 1.0)

    def test_straight_line_piecewise_profile(self):
        script = LeaderScript(
            kind="straight_line",
            start=VehicleState(0, 0, 0),
            speed_profile=((0.0, 1.0), (2.0, 0.5)),
        )
        # 2 s at 1 m/s then 2 s at 0.5 m/s
        assert leader_pose(script, 4.0).x == pytest.approx(3.0)
        assert leader_pose(script, 4.0).speed == 0.5

    def test_waypoint_path_completion(self):
        # two-waypoint path of length 3 m at 1 m/s: done at t=3, held afterward
        script = LeaderScript(
            kind="waypoint_path",
            start=VehicleState(0, 0, 0),
            speed_profile=1.0,
            waypoints=((0.0, 0.0), (3.0, 0.0)),
        )
        pose = leader_pose(script, 10.0)
        assert (pose.x, pose.y, pose.speed) == (3.0, 0.0, 0.0)

    def test_waypoint_path_mid_segment(self):
        script = LeaderScript(
            kind="waypoint_path",
            start=VehicleState(0, 0, 0),
            speed_profile=2.0,
            waypoints=((4.0, 0.0), (4.0, 4.0)),
        )
        pose = leader_pose(script, 3.0)  # 6 m along an L of 8 m
        assert pose.x == pytest.approx(4.0)
        assert pose.y == pytest.approx(2.0)
        assert pose.heading == pytest.approx(math.pi / 2)

    def test_negative_time_rejected(self):
        script = LeaderScript(kind="stationary", start=VehicleState(0, 0, 0))
        with pytest.raises(ValueError):
            leader_pose(script, -0.1)
        with pytest.raises(ValueError):
            leader_pose(script, math.nan)

    def test_empty_speed_profile_rejected(self):
        # a scenario file cannot give one: `leader.speed =` fails to parse
        with pytest.raises(ValueError, match="^speed_profile must not be empty$"):
            LeaderScript(kind="straight_line", speed_profile=())

    def test_waypoints_must_be_distinct(self):
        with pytest.raises(ValueError):
            LeaderScript(
                kind="waypoint_path",
                start=VehicleState(0, 0, 0),
                waypoints=((1.0, 1.0), (1.0, 1.0)),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(1e-3, 100.0),
                           st.one_of(st.floats(0.0, 50.0), st.just(0.0))),
                 min_size=1, max_size=5),
        st.one_of(st.floats(0.0, 50.0), st.just(0.0)),
    )
    def test_progress_matches_frozen_distance_and_speed(self, steps, v_first):
        times, profile = [0.0], [(0.0, v_first)]
        for gap, v in steps:
            times.append(times[-1] + gap)
            profile.append((times[-1], v))
        script = LeaderScript(kind="straight_line", speed_profile=tuple(profile))
        ts = [-0.0, *times, times[-1] + 1.0, 2.0 * times[-1] + 7.5]
        ts += [(a + b) / 2.0 for a, b in zip(times, times[1:])]
        ts += [math.nextafter(b, 0.0) for b in times[1:]]
        arcs, speeds = (column.tolist() for column in leader_progress(script, np.array(ts)))
        for t, s, v in zip(ts, arcs, speeds):
            assert (s.hex(), v.hex()) == tuple(x.hex() for x in reference.progress(script, t)), t

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.sampled_from(POINT_COORDS), st.sampled_from(POINT_COORDS)),
        st.lists(st.tuples(st.sampled_from(POINT_COORDS), st.sampled_from(POINT_COORDS)),
                 min_size=2, max_size=8),
    )
    @example((0.0, 0.0), [(0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, -0.0)])
    def test_waypoint_segments_match_frozen_path_points(self, start, waypoints):
        assume(len(set(waypoints)) > 1)
        script = LeaderScript(kind="waypoint_path", start=VehicleState(*start),
                              speed_profile=1.0, waypoints=tuple(waypoints))
        # repr tells -0.0 from 0.0, where == does not
        assert repr(list(script.segments)) == repr(reference.segments(script))

    @pytest.mark.parametrize("kind", ["stationary", "straight_line"])
    def test_segments_empty_unless_waypoint_path(self, kind):
        # only a waypoint_path drives waypoints, so any other kind rejects them
        start = VehicleState(1.0, 2.0, 0.5)
        assert LeaderScript(kind=kind, start=start, speed_profile=1.0).segments == ()
        message = f"waypoints are driven only by kind waypoint_path, not {kind}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            LeaderScript(kind=kind, start=start, speed_profile=1.0,
                         waypoints=((3.0, 4.0), (5.0, 6.0)))


def _sign_is_robust(point, pts, margin=1e-6):
    """True when the signed deviation is stable under tiny perturbations:
    a clear winner among segments, and the point clearly off the winner's axis."""
    px, py = point
    candidates = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        vx, vy = x1 - x0, y1 - y0
        norm2 = vx * vx + vy * vy
        if norm2 == 0.0:
            continue
        u = min(max(((px - x0) * vx + (py - y0) * vy) / norm2, 0.0), 1.0)
        cx, cy = x0 + u * vx, y0 + u * vy
        d = math.hypot(px - cx, py - cy)
        cross = vx * (py - cy) - vy * (px - cx)
        candidates.append((d, abs(cross) / math.sqrt(norm2)))
    candidates.sort()
    if not candidates:
        return False
    best_d, best_offaxis = candidates[0]
    if len(candidates) > 1 and candidates[1][0] - best_d <= margin:
        return False  # equidistance tie between segments
    return best_offaxis > margin  # collinear-beyond-endpoint has no side


def brute_force_polyline_distance(point, pts, resolution=1e-3):
    """Dense sampling along every segment at ~1 mm; unsigned distance oracle."""
    px, py = point
    best = math.inf
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        seg = math.hypot(x1 - x0, y1 - y0)
        n = max(2, int(seg / resolution) + 1)
        for i in range(n + 1):
            u = i / n
            d = math.hypot(px - (x0 + u * (x1 - x0)), py - (y0 + u * (y1 - y0)))
            best = min(best, d)
    return best


@st.composite
def repeating_tracks(draw):
    """Polylines whose points repeat in runs; a zero x may flip sign inside a run."""
    coord = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, -0.0]))
    track = []
    for x, y in draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5)):
        for _ in range(draw(st.integers(1, 4))):
            if x == 0.0 and draw(st.booleans()):
                x = -x
            track.append((x, y))
    return track


@st.composite
def cut_tracks(draw):
    """A vertex table, then records that each cut it after one of its
    vertices and end their track at their own leader position. Coordinates
    repeat, line up on legs, carry either zero, or lie near 1e300, where a
    squared distance overflows."""
    coord = st.one_of(
        st.floats(-10, 10),
        st.sampled_from([0.0, -0.0, 1.0, 2.0]),
        st.floats(1e299, 1e301),
        st.floats(-1e301, -1e299),
    )
    point = st.tuples(coord, coord)
    vertices = draw(st.lists(point, min_size=1, max_size=5))
    n = draw(st.integers(1, 6))
    passed = draw(st.lists(st.integers(0, len(vertices) - 1), min_size=n, max_size=n))
    followers = draw(st.lists(point, min_size=n, max_size=n))
    leaders = draw(st.lists(point, min_size=n, max_size=n))
    return vertices, passed, followers, leaders


class TestTrackDeviations:
    """The per-run pass gives, for every record, the bits of the reference
    model's deviation on that record's cut polyline."""

    @given(cut_tracks())
    # collinear legs with a repeated corner and a follower on the axis
    @example(([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [3, 1],
              [(3.0, 0.0), (-0.0, 0.5)], [(2.0, 0.0), (1.0, -0.0)]))
    # the follower's squared distance overflows on the only segment
    @example(([(0.0, 0.0)], [0], [(1e300, 1e300)], [(1.0, 0.0)]))
    # the first record's leg to its leader is too short for its squared
    # length, which underflows to 0.0: it has no length to be nearer on
    @example(([(0.0, 0.0)], [0, 0], [(3.0, -1.0), (3.0, -1.0)], [(1e-200, 0.0), (5.0, 0.0)]))
    # repeated points, one of them with the other zero, and a track of one point
    @example(([(0.0, 1.0), (-0.0, 1.0)], [1], [(-0.0, 0.0)], [(2.0, 1.0)]))
    @example(([(1.0, 2.0)] * 3, [2], [(4.0, 6.0)], [(1.0, 2.0)]))
    @settings(max_examples=300)
    @pytest.mark.filterwarnings("error")
    def test_matches_the_frozen_definition_on_each_cut_track(self, case):
        """Each record's deviation, and lateral_deviation of its cut track."""
        vertices, passed, followers, leaders = case
        got = track_deviations(tuple(zip(*followers)), vertices, passed, tuple(zip(*leaders)))
        for d, cut, (fx, fy), leader in zip(got, passed, followers, leaders):
            track = [*vertices[:cut + 1], leader]
            want = reference.lateral_deviation(fx, fy, track).hex()
            assert d.hex() == lateral_deviation(VehicleState(fx, fy), track).hex() == want

    def test_an_overflowing_distance_falls_back_to_the_first_vertex(self):
        # d2 is inf on the one segment, so no segment is nearest
        (d,) = track_deviations(([1e300], [1e300]), [(0.0, 0.0)], [0], ([1.0], [0.0]))
        assert d == math.hypot(1e300, 1e300)

    def test_records_cut_at_different_vertices(self):
        # the same follower against an L-shaped table: before the corner only
        # the first leg and the leg to the leader count
        vertices = [(-10.0, 0.0), (0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]
        got = track_deviations(([2.5, 2.5], [1.0, 1.0]), vertices, [1, 3], ([1.0, 2.0], [0.0, 3.0]))
        assert got == [math.hypot(1.5, 1.0), -0.5]


class TestLateralDeviation:
    def test_on_track_is_zero(self):
        track = [(0.0, 0.0), (5.0, 0.0)]
        assert lateral_deviation(VehicleState(2.5, 0.0, 0.0), track) == 0.0

    def test_axis_aligned_sign(self):
        track = [(0.0, 0.0), (5.0, 0.0)]
        assert lateral_deviation(VehicleState(1.0, 0.4, 0.0), track) == pytest.approx(0.4)
        assert lateral_deviation(VehicleState(1.0, -0.4, 0.0), track) == pytest.approx(-0.4)

    def test_corner_against_dense_sampling(self):
        track = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]  # L-shape
        for point in [(2.2, -0.1), (1.9, 0.3), (2.4, 0.4), (2.05, 0.02)]:
            got = lateral_deviation(VehicleState(point[0], point[1], 0.0), track)
            want = brute_force_polyline_distance(point, track)
            assert abs(got) == pytest.approx(want, abs=2e-3)

    def test_single_point_track_unsigned(self):
        assert lateral_deviation(VehicleState(3.0, 4.0, 0.0), [(0.0, 0.0)]) == pytest.approx(5.0)

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError):
            lateral_deviation(VehicleState(0, 0, 0), [])

    @given(
        pts=st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=2, max_size=6
        ),
        fx=st.floats(-12, 12),
        fy=st.floats(-12, 12),
        angle=st.floats(-math.pi, math.pi),
        shift_x=st.floats(-20, 20),
        shift_y=st.floats(-20, 20),
    )
    @settings(max_examples=200)
    def test_rigid_motion_invariance(self, pts, fx, fy, angle, shift_x, shift_y):
        # micro-segments collapse under float translation; demand mm-scale geometry
        assume(all(
            math.hypot(q[0] - p[0], q[1] - p[1]) > 1e-6 or p == q
            for p, q in zip(pts, pts[1:])
        ))
        base = lateral_deviation(VehicleState(fx, fy, 0.0), pts)

        c, s = math.cos(angle), math.sin(angle)

        def move(p):
            return (c * p[0] - s * p[1] + shift_x, s * p[0] + c * p[1] + shift_y)

        moved = lateral_deviation(VehicleState(*move((fx, fy)), 0.0), [move(p) for p in pts])
        assert abs(moved) == pytest.approx(abs(base), abs=1e-7)
        # the sign is only defined away from ties and away from segment axes
        if _sign_is_robust((fx, fy), pts):
            assert moved == pytest.approx(base, abs=1e-7)

    @given(track=repeating_tracks(), fx=st.floats(-12, 12), fy=st.floats(-12, 12))
    @example(track=[(0.0, 1.0), (-0.0, 1.0), (2.0, 1.0)], fx=-0.0, fy=0.0)
    @example(track=[(1.0, 2.0)] * 4, fx=4.0, fy=6.0)
    @settings(max_examples=300)
    def test_matches_deduplicating_version_bit_for_bit(self, track, fx, fy):
        got = lateral_deviation(VehicleState(fx, fy, 0.0), track)
        assert got.hex() == reference.lateral_deviation(fx, fy, track).hex()


class TestFollowingDistance:
    """A record's follow_dist_m is the distance between the two positions."""

    @staticmethod
    def first_follow_dist(follower: VehicleState, leader: VehicleState) -> float:
        """follow_dist_m of the one record of a run whose follower starts at
        `follower` behind a leader parked at `leader`."""
        config = default_scenario("gap", duration=0.02, leader=LeaderScript(start=leader),
                                  follower_start=follower)
        (record,) = run_scenario(config).records
        return record.follow_dist_m

    def test_identical_positions(self):
        a = VehicleState(1.0, 1.0, 0.3)
        assert self.first_follow_dist(a, a) == 0.0

    def test_three_four_five(self):
        assert self.first_follow_dist(VehicleState(0, 0, 0), VehicleState(3, 4, 1)) == 5.0

    @given(
        ax=st.floats(-100, 100), ay=st.floats(-100, 100),
        bx=st.floats(-100, 100), by=st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_hypot(self, ax, ay, bx, by):
        got = self.first_follow_dist(VehicleState(ax, ay, 0), VehicleState(bx, by, 0))
        assert got.hex() == math.hypot(bx - ax, by - ay).hex()


class TestNormalizeAngle:
    @pytest.mark.parametrize("angle", [0.0, 1.0, -1.0, math.pi - 1e-9, -math.pi])
    def test_in_range_unchanged(self, angle):
        assert normalize_angle(angle) == angle

    def test_wraps(self):
        assert normalize_angle(math.pi) == -math.pi
        assert normalize_angle(3 * math.pi) == pytest.approx(-math.pi)
        assert normalize_angle(math.tau + 0.5) == pytest.approx(0.5)

    @given(st.floats(-100.0, 100.0))
    def test_always_in_range(self, angle):
        out = normalize_angle(angle)
        assert -math.pi <= out < math.pi
