import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from followsim import (
    CameraIntrinsics,
    ScenarioError,
    SensorReading,
    TargetPanel,
    VehicleState,
    area_at_range,
    default_scenario,
    observe,
    range_for_area,
    run_scenario,
)

CAM = CameraIntrinsics()
PANEL = TargetPanel()


def oracle_projection(fov_deg, image_width, panel_width, distance):
    """Independent pinhole oracle: focal from FOV, box width from similar triangles."""
    f = (image_width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    return f, f * panel_width / distance


class TestObserve:
    def test_dead_ahead_centered(self):
        for rng_dist in (0.5, 1.5, 5.0, 19.0):
            reading = observe(CAM, VehicleState(0, 0, 0), VehicleState(rng_dist, 0, 0), PANEL, 0.0)
            assert reading is not None
            assert reading.x_px == CAM.image_width / 2.0

    def test_width_matches_projection_oracle(self):
        # 320 px at 75 deg fov => f ~ 208.5 px; 8.5 inch panel at 2 m head-on
        f, want_width = oracle_projection(75.0, 320, 0.2159, 2.0)
        assert CAM.focal_px == pytest.approx(f, rel=1e-12)
        reading = observe(CAM, VehicleState(0, 0, 0), VehicleState(2.0, 0, 0), PANEL, 0.0)
        assert reading.width_px == pytest.approx(want_width, rel=1e-12)
        assert reading.height_px == pytest.approx(f * 0.2794 / 2.0, rel=1e-12)

    def test_out_of_range_no_detection(self):
        assert observe(CAM, VehicleState(0, 0, 0), VehicleState(100.0, 0, 0), PANEL, 0.0) is None
        assert observe(CAM, VehicleState(0, 0, 0), VehicleState(0.1, 0, 0), PANEL, 0.0) is None

    def test_outside_fov_no_detection(self):
        # target 60 degrees off-axis with a 37.5 degree half fov
        x = 2.0 * math.cos(math.radians(60))
        y = 2.0 * math.sin(math.radians(60))
        assert observe(CAM, VehicleState(0, 0, 0), VehicleState(x, y, 0), PANEL, 0.0) is None

    def test_behind_no_detection(self):
        assert observe(CAM, VehicleState(0, 0, 0), VehicleState(-2.0, 0, 0), PANEL, 0.0) is None

    def test_panel_facing_away_no_detection(self):
        # leader heading reversed: its rear panel faces away from the follower
        leader = VehicleState(2.0, 0, math.pi)
        assert observe(CAM, VehicleState(0, 0, 0), leader, PANEL, 0.0) is None

    def test_panel_on_the_fov_edge_is_not_detected(self):
        # a bearing at half the field of view gives no reading: atan2(2, 2) is
        # exactly pi/4, half of a pi/2 field of view
        camera = CameraIntrinsics(horizontal_fov=math.pi / 2)
        assert math.atan2(2.0, 2.0) == camera.horizontal_fov / 2.0
        follower = VehicleState(0.0, 0.0, 0.0)
        assert observe(camera, follower, VehicleState(2.0, 2.0, 0.0), PANEL, 0.0) is None
        assert observe(camera, follower, VehicleState(2.0, 1.999, 0.0), PANEL, 0.0) is not None

    @pytest.mark.parametrize("aspect", [
        math.acos(1e-6),
        math.nextafter(math.acos(1e-9), 0.0),  # the last aspect whose facing is above 1e-9
        math.acos(1e-9),
        math.acos(5e-10),
        math.pi / 2,
    ])
    def test_edge_on_cut_off_at_a_facing_of_1e_9(self, aspect):
        # the panel's facing is cos(aspect); at or below 1e-9 it is edge-on
        reading = observe(CAM, VehicleState(0, 0, 0), VehicleState(3.0, 0.0, aspect), PANEL, 0.0)
        assert (reading is not None) == (math.cos(aspect) > 1e-9)

    def test_aspect_foreshortens_width_only(self):
        head_on = observe(CAM, VehicleState(0, 0, 0), VehicleState(2.0, 0, 0.0), PANEL, 0.0)
        angled = observe(CAM, VehicleState(0, 0, 0), VehicleState(2.0, 0, 0.5), PANEL, 0.0)
        assert angled.width_px == pytest.approx(head_on.width_px * math.cos(0.5), rel=1e-12)
        assert angled.height_px == head_on.height_px

    def test_y_px_pinned_to_center(self):
        reading = observe(CAM, VehicleState(0, 0, 0), VehicleState(2.0, 0.5, 0), PANEL, 0.0)
        assert reading.y_px == CAM.image_height / 2.0

    def test_rear_offset_moves_panel(self):
        shifted = TargetPanel(rear_offset=0.5)
        near = observe(CAM, VehicleState(0, 0, 0), VehicleState(2.0, 0, 0), shifted, 0.0)
        base = observe(CAM, VehicleState(0, 0, 0), VehicleState(1.5, 0, 0), PANEL, 0.0)
        assert near.width_px == pytest.approx(base.width_px, rel=1e-12)

    def test_jitter_deterministic_per_seed(self):
        cam = CameraIntrinsics(jitter_px=2.0)
        args = (VehicleState(0, 0, 0), VehicleState(2.0, 0.2, 0), PANEL, 0.0)
        r1 = observe(cam, *args, rng=random.Random(7))
        r2 = observe(cam, *args, rng=random.Random(7))
        r3 = observe(cam, *args, rng=random.Random(8))
        assert r1 == r2
        assert r1 != r3
        clean = observe(cam, *args)  # no rng: jitter off
        assert clean != r1

    def test_range_law_inverse_linear_size(self):
        widths = {}
        for dist in (1.0, 2.0, 4.0, 8.0):
            r = observe(CAM, VehicleState(0, 0, 0), VehicleState(dist, 0, 0), PANEL, 0.0)
            widths[dist] = r.width_px
        products = [w * d for d, w in widths.items()]
        assert max(products) == pytest.approx(min(products), rel=1e-9)

    @given(
        b1=st.floats(-0.6, 0.6),
        b2=st.floats(-0.6, 0.6),
        dist=st.floats(0.5, 10.0),
    )
    @settings(max_examples=200)
    def test_projection_monotone_in_bearing(self, b1, b2, dist):
        if abs(b1 - b2) < 1e-9:  # below pixel resolvability in double precision
            return
        readings = []
        for b in (b1, b2):
            leader = VehicleState(dist * math.cos(b), dist * math.sin(b), 0.0)
            readings.append(observe(CAM, VehicleState(0, 0, 0), leader, PANEL, 0.0))
        assert all(r is not None for r in readings)
        if b1 < b2:
            assert readings[0].x_px < readings[1].x_px
        else:
            assert readings[0].x_px > readings[1].x_px


def first_record(**follower):
    """The one record of a one-frame run of the default scenario, whose leader
    is parked at the origin heading +x and whose follower starts at the
    setpoint range behind it, but for the given follower fields; and the
    reading the camera takes of that start."""
    config = default_scenario("one", duration=0.02, follower=follower)
    (record,) = run_scenario(config).records
    reading = observe(config.camera, config.follower_start, config.leader.start, config.panel, 0.0)
    return record, reading, config


class TestPixelError:
    """The trace's pixel_error_x column: the centroid's offset from the
    image centre, x_px - image_width / 2."""

    def test_centered_zero(self):
        record, _, _ = first_record()
        assert record.pixel_error_x == 0.0

    def test_offset_arithmetic(self):
        record, reading, config = first_record(y=-0.2)
        assert record.pixel_error_x == reading.x_px - config.camera.image_width / 2

    def test_panel_right_of_centre_reads_positive(self):
        # a leader left of the follower's heading shows right of the image
        # centre, the side an above-neutral (PWM > 90) steering command turns to
        record, reading, config = first_record(y=-0.2)
        assert reading.x_px > config.camera.image_width / 2
        assert record.pixel_error_x > 0.0 and record.steering_pwm > 90.0

    def test_mirror_antisymmetry(self):
        for y in (0.05, 0.1, 0.2, 0.3):
            left, _, _ = first_record(y=y)
            right, _, _ = first_record(y=-y)
            assert left.pixel_error_x == pytest.approx(-right.pixel_error_x, abs=1e-9)


class TestAreaError:
    """The trace's area_error column: setpoint_area less the box area,
    width_px * height_px."""

    def test_at_setpoint_zero(self):
        record, _, _ = first_record()
        assert record.area_error == 0.0

    def test_too_far_positive(self):
        # smaller-than-setpoint signature means too far: close the distance
        record, reading, config = first_record(x=-2.0)
        assert record.area_error == config.setpoint_area - reading.width_px * reading.height_px
        assert record.area_error > 0.0

    def test_setpoint_must_be_positive(self):
        with pytest.raises(ScenarioError, match="setpoint_area must be positive"):
            default_scenario("zero", setpoint_area=0.0)

    def test_monotone_in_range(self):
        ranges = [0.5 + 0.25 * k for k in range(40)]
        errors = [first_record(x=-dist)[0].area_error for dist in ranges]
        assert all(a < b for a, b in zip(errors, errors[1:]))


class TestRangeHelpers:
    def test_area_at_range_round_trip(self):
        for dist in (0.5, 1.5, 3.7):
            assert range_for_area(CAM, PANEL, area_at_range(CAM, PANEL, dist)) == pytest.approx(
                dist, rel=1e-12
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            area_at_range(CAM, PANEL, 0.0)
        with pytest.raises(ValueError):
            range_for_area(CAM, PANEL, -1.0)


class TestCameraValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(image_width=321),
            dict(image_width=0),
            dict(image_height=-1),
            dict(horizontal_fov=0.0),
            dict(horizontal_fov=math.pi),
            dict(frame_rate=0.0),
            dict(min_range=0.0),
            dict(min_range=30.0),
            dict(jitter_px=-1.0),
            dict(frame_rate=math.inf),
            dict(frame_rate=math.nan),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CameraIntrinsics(**kwargs)


class ScriptedJitter:
    """An rng whose uniform draws are given in advance."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def uniform(self, a, b):
        return next(self.draws)


_signed_zero = st.sampled_from([0.0, -0.0])
_coordinate = _signed_zero | st.floats(-3.0, 3.0)
_heading = (_signed_zero | st.sampled_from([-math.pi, math.nextafter(math.pi, 0.0), 0.5])
            | st.floats(-math.pi, math.pi, exclude_max=True))


@st.composite
def observe_poses(draw):
    """(follower, leader): anywhere, or the leader in view of the follower
    (most such poses detect), with signed zeros and both ends of the heading range."""
    follower = VehicleState(draw(_coordinate), draw(_coordinate), draw(_heading))
    if draw(st.booleans()):
        return follower, VehicleState(draw(_coordinate), draw(_coordinate), draw(_heading))
    bearing = follower.heading + draw(_signed_zero | st.floats(-0.7, 0.7))
    dist = draw(st.floats(0.2, 21.0))
    aspect = draw(_signed_zero | st.floats(-1.6, 1.6))
    return follower, VehicleState(follower.x + dist * math.cos(bearing),
                                  follower.y + dist * math.sin(bearing), follower.heading + aspect)


@st.composite
def jittery_cameras(draw):
    """A camera with jitter on: the shipped one, or one whose image size,
    field of view and ranges are all drawn."""
    if draw(st.booleans()):
        return CameraIntrinsics(jitter_px=1.0)
    min_range = draw(st.floats(0.05, 2.0))
    return CameraIntrinsics(
        image_width=2 * draw(st.integers(1, 400)), image_height=draw(st.integers(1, 400)),
        horizontal_fov=draw(st.floats(0.05, 3.1)), min_range=min_range,
        max_range=min_range + draw(st.floats(0.01, 30.0)), jitter_px=1.0)


_panels = st.builds(TargetPanel, width=st.just(0.2159) | st.floats(0.01, 2.0),
                    height=st.just(0.2794) | st.floats(0.01, 2.0),
                    rear_offset=_signed_zero | st.floats(0.0, 0.5))


class TestObserveAgainstFrozen:
    @given(poses=observe_poses(), camera=jittery_cameras(), panel=_panels,
           t=_signed_zero | st.floats(0.0, 100.0),
           mode=st.sampled_from(["none", "low", "high", "free"]),
           free=st.tuples(*[st.floats(-400.0, 400.0)] * 3))
    @settings(max_examples=500, deadline=None)
    def test_matches_frozen_bit_for_bit(self, poses, camera, panel, t, mode, free):
        """A reading as the reference model gives it, with no jitter, and with
        jitter that puts each box value exactly on its lower clamp bound, on
        its upper one (as near as one addition gets) or anywhere."""
        args = (*poses, panel, t)
        clean = reference.observe(camera, *args)
        assert observe(camera, *args) == clean
        if clean is None:
            return
        if mode == "none":
            got, want = observe(camera, *args), clean
        else:
            values = (clean[0], clean[2], clean[3])
            bounds = (0.0, 0.0, 0.0) if mode == "low" else (
                float(camera.image_width), float(camera.image_width), float(camera.image_height))
            draws = free if mode == "free" else [b - v for b, v in zip(bounds, values)]
            got = observe(camera, *args, rng=ScriptedJitter(draws))
            want = reference.observe(camera, *args, rng=ScriptedJitter(draws))
        assert type(got) is SensorReading
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestStepTables:
    """The camera's and the panel's step tables hold what observe reads,
    built from the fields at first use, and take no part in equality,
    hashing or repr."""

    def test_tables_hold_the_fields(self):
        camera = CameraIntrinsics(image_width=640, image_height=481, horizontal_fov=1.0,
                                  min_range=0.5, max_range=9.0, jitter_px=2.0)
        assert camera.step_table == (0.5, 9.0, 0.5, camera.focal_px, 320.0, 640.0, 481.0,
                                     240.5, 2.0)
        assert TargetPanel(0.3, 0.4, 0.1).step_table == (0.1, 0.3, 0.4)

    def test_replace_steps_with_the_new_fields(self):
        follower, leader = VehicleState(0.0, 0.0, 0.0), VehicleState(2.0, 0.3, 0.2)
        observe(CAM, follower, leader, PANEL, 0.0)  # builds both tables
        camera = replace(CAM, image_width=200, image_height=90, horizontal_fov=1.2,
                         min_range=1.0, max_range=3.0)
        panel = replace(PANEL, width=0.5, height=0.1, rear_offset=0.25)
        for cam, pan in ((camera, PANEL), (CAM, panel), (camera, panel)):
            got = observe(cam, follower, leader, pan, 0.0)
            assert got == reference.observe(cam, follower, leader, pan, 0.0)
            assert got != observe(CAM, follower, leader, PANEL, 0.0)
        # out of the new range, and out of the new field of view
        assert observe(camera, follower, VehicleState(3.5, 0.0, 0.0), PANEL, 0.0) is None
        assert observe(replace(CAM, horizontal_fov=0.2), follower, leader, PANEL, 0.0) is None

    @pytest.mark.parametrize("make", [CameraIntrinsics, TargetPanel])
    def test_table_is_outside_equality_hash_and_repr(self, make):
        built, fresh = make(), make()
        assert built.step_table
        assert "step_table" in vars(built) and "step_table" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh) and "step_table" not in repr(built)
