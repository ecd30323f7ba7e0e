import math
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from followsim import (
    CameraIntrinsics,
    FuzzyConfig,
    LeaderScript,
    PidConfig,
    ScenarioConfig,
    ScenarioError,
    TargetPanel,
    VehicleParams,
    VehicleState,
    area_at_range,
    default_fuzzy_config,
    default_scenario,
    execute_archetype,
    load_scenario,
    parse_scenario_text,
    run_scenario,
    scale_output,
)
from followsim.metrics import trace_metrics
from followsim.pid import MAX_GAIN
from followsim.scenario import (CHANNELS, COMMAND_SUFFIX_MAX_BYTES, DEFAULT_FOLLOW_RANGE,
                                FILE_NAME_MAX_BYTES, MAX_SUB_STEPS, SCENARIO_KEYS)
from followsim.world import place_behind

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parents[1] / "scenarios"
README = Path(__file__).parents[1] / "README.md"


class TestDefaults:
    def test_default_scenario_is_valid_equilibrium(self, base_scenario):
        cfg = base_scenario
        assert cfg.setpoint_area == pytest.approx(
            area_at_range(cfg.camera, cfg.panel, DEFAULT_FOLLOW_RANGE)
        )
        assert cfg.follow_range == pytest.approx(DEFAULT_FOLLOW_RANGE)
        # follower parked exactly at the setpoint range behind the leader
        assert cfg.follower_start.x == pytest.approx(-DEFAULT_FOLLOW_RANGE)
        assert cfg.follower_start.y == 0.0

    def test_dt_is_one_frame_interval(self, base_scenario):
        assert parse_scenario_text("camera.frame_rate = 30\n").dt == 1.0 / 30
        cfg = replace(base_scenario, camera=replace(base_scenario.camera, frame_rate=25.0))
        assert cfg.dt == 0.04

    @pytest.mark.parametrize("line", ["dt = 0.02", "steady_state_px = 5", "controllers = pid"])
    def test_removed_keys_are_unknown(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ScenarioError, match=rf"^line 1: {key}: unknown key$"):
            parse_scenario_text(line + "\n")

    def test_runaway_guard(self):
        with pytest.raises(ScenarioError, match="guard"):
            default_scenario("x", duration=1e7)

    def test_setpoint_area_checked_on_replace(self, base_scenario):
        # a scenario file meets default_scenario's check of the same value first
        with pytest.raises(ScenarioError, match="^setpoint_area must be positive$"):
            replace(base_scenario, setpoint_area=0.0)

    def test_duration_floor(self):
        with pytest.raises(ScenarioError):
            default_scenario("x", duration=0.0)

    @pytest.mark.parametrize("missing", [
        "camera", "panel", "setpoint_area", "steering_fuzzy", "throttle_fuzzy",
    ])
    def test_derived_fields_are_required(self, base_scenario, missing):
        # their defaults live in default_scenario only
        kwargs = {f.name: getattr(base_scenario, f.name) for f in fields(ScenarioConfig)}
        assert ScenarioConfig(**kwargs) == base_scenario
        del kwargs[missing]
        with pytest.raises(TypeError, match=missing):
            ScenarioConfig(**kwargs)
        with pytest.raises(TypeError):
            ScenarioConfig(name="x", leader=LeaderScript(), follower_start=VehicleState())

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("kind, setting, alpha", [
        ("pid", "auto", None), ("fuzzy", "auto", 0.3), ("pid", 0.5, 0.5), ("fuzzy", 0.5, 0.5),
        ("pid", None, None), ("fuzzy", None, None),
    ])
    def test_controller_resolution(self, base_scenario, channel, kind, setting, alpha):
        config = replace(base_scenario, **{f"{channel}_kind": kind, f"{channel}_filter": setting})
        selected, resolved = config.controller(channel)
        assert selected is getattr(config, f"{channel}_{kind}")
        assert resolved == alpha


class TestParser:
    def test_empty_text_gives_defaults(self):
        cfg = parse_scenario_text("", default_name="fallback")
        assert cfg.name == "fallback"
        assert cfg.steering_kind == "pid"
        assert parse_scenario_text("", "x") == default_scenario("x")

    def test_every_flat_key_reaches_its_field(self):
        path = DATA / "every_key.scn"
        lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
        assert {ln.partition("=")[0].strip() for ln in lines} == set(SCENARIO_KEYS)
        cfg = load_scenario(path)
        expected = ScenarioConfig(
            name="every_key",
            archetype="path_follow",
            seed=7,
            duration=10.0,
            setpoint_area=900.0,
            lost_target_policy="stop",
            stop_speed_eps=0.05,
            stop_hold_time=2.0,
            lateral_offset=-0.5,
            lateral_leader_speed=0.5,
            step_separations=(1.5, 3.0),
            leader=LeaderScript(
                kind="waypoint_path",
                start=VehicleState(1.0, 2.0, 0.5),
                speed_profile=((0.0, 1.5), (4.0, 0.5)),
                waypoints=((5.0, 2.0), (8.0, 4.0)),
            ),
            follower_start=VehicleState(-1.0, 1.5, 0.25, 0.2),
            vehicle=VehicleParams(
                wheelbase=0.5, max_steer_angle=0.4, max_speed=3.0, max_accel=1.5
            ),
            camera=CameraIntrinsics(
                image_width=640,
                image_height=480,
                horizontal_fov=math.radians(60.0),
                frame_rate=25.0,
                min_range=0.5,
                max_range=15.0,
                jitter_px=0.5,
            ),
            panel=TargetPanel(width=0.3, height=0.2, rear_offset=0.1),
            steering_kind="fuzzy",
            throttle_kind="fuzzy",
            steering_locked=True,
            steering_filter=0.5,
            throttle_filter=None,
            steering_pid=PidConfig(
                kp=0.02, ki=0.001, kd=0.002,
                output_limit=0.8, integral_limit=0.3, derivative_filter_alpha=0.6,
            ),
            throttle_pid=PidConfig(
                kp=0.002, ki=0.0004, kd=0.0006,
                output_limit=0.9, integral_limit=0.15, derivative_filter_alpha=0.7,
            ),
            steering_fuzzy=scale_output(default_fuzzy_config(200.0, 500.0, 0.8, 501), 1.5),
            throttle_fuzzy=scale_output(default_fuzzy_config(800.0, 1500.0, 0.9, 401), 0.5),
        )
        assert cfg == expected

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_scenario_text("# comment\n\nname = demo\n")
        assert cfg.name == "demo"

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ScenarioError, match=r"line 2.*pid\.steering\.kpp"):
            parse_scenario_text("name = x\npid.steering.kpp = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario_text("duration = 5\nduration = 5\n")

    def test_bad_number_rejected_with_line(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario_text("duration = fast\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioError, match="key = value"):
            parse_scenario_text("just some words\n")

    def test_pid_gain_override(self):
        cfg = parse_scenario_text("pid.steering.kp = 0.5\n")
        assert cfg.steering_pid.kp == 0.5
        # untouched fields keep defaults
        assert cfg.throttle_pid.kp != 0.5

    def test_camera_and_setpoint_coupling(self):
        cfg = parse_scenario_text(
            "camera.horizontal_fov_deg = 60\ncamera.frame_rate = 25\n"
        )
        assert cfg.camera.horizontal_fov == pytest.approx(math.radians(60))
        assert cfg.dt == 0.04
        assert cfg.setpoint_area == pytest.approx(
            area_at_range(cfg.camera, cfg.panel, DEFAULT_FOLLOW_RANGE)
        )

    def test_explicit_setpoint_moves_default_follower(self):
        cfg = parse_scenario_text("setpoint_area = 300\n")
        assert cfg.follow_range == pytest.approx(
            math.sqrt(area_at_range(cfg.camera, cfg.panel, 1.0) / 300.0)
        )
        assert cfg.follower_start.x == pytest.approx(-cfg.follow_range)

    def test_x_alone_behind_a_turned_leader(self):
        # y, heading and speed stay those of the pose the setpoint range
        # behind the leader's start
        cfg = parse_scenario_text(
            "leader.start.heading = 1.5707963267948966\nfollower.start.x = -3\n"
        )
        placed = place_behind(cfg.leader.start, cfg.follow_range)
        assert cfg.follower_start == placed._replace(x=-3.0)
        assert cfg.follower_start.y == pytest.approx(-DEFAULT_FOLLOW_RANGE)
        assert cfg.follower_start.heading == pytest.approx(math.pi / 2)

    def test_leader_script_round_trip(self):
        cfg = parse_scenario_text(
            "leader.kind = waypoint_path\n"
            "leader.speed = 0:1.0, 5:0.5\n"
            "leader.waypoints = 3 0; 6 2\n"
        )
        assert cfg.leader.kind == "waypoint_path"
        assert cfg.leader.speed_profile == ((0.0, 1.0), (5.0, 0.5))
        assert cfg.leader.waypoints == ((3.0, 0.0), (6.0, 2.0))

    def test_fuzzy_universe_override(self):
        cfg = parse_scenario_text("fuzzy.steering.error_universe = 80\n")
        assert cfg.steering_fuzzy.error_universe == (-80.0, 80.0)

    def test_fuzzy_set_override(self):
        cfg = parse_scenario_text("fuzzy.steering.set.error.Z = -50, 0, 50\n")
        assert cfg.steering_fuzzy.error_sets["Z"].breakpoints == (-50.0, 0.0, 50.0)

    def test_fuzzy_rule_override(self):
        cfg = parse_scenario_text("fuzzy.throttle.rule.Z.Z = PS\n")
        assert cfg.throttle_fuzzy.rules[("Z", "Z")] == "PS"

    def test_fuzzy_output_scale(self):
        base = parse_scenario_text("")
        scaled = parse_scenario_text("fuzzy.steering.output_scale = 2.0\n")
        assert scaled.steering_fuzzy.output_universe == tuple(
            2.0 * u for u in base.steering_fuzzy.output_universe
        )

    def test_fuzzy_unknown_label_rejected(self):
        with pytest.raises(ScenarioError, match="label"):
            parse_scenario_text("fuzzy.steering.set.error.HUGE = 0, 1, 2\n")

    def test_fuzzy_bad_rule_cell_rejected(self):
        with pytest.raises(ScenarioError, match="rule"):
            parse_scenario_text("fuzzy.steering.rule.NL.WAT = Z\n")

    def test_fuzzy_coverage_break_rejected(self):
        # pulling NS's foot back and narrowing Z opens a hole near -35 px
        with pytest.raises(ScenarioError, match="uncovered"):
            parse_scenario_text(
                "fuzzy.steering.set.error.NS = -160, -80, -40\n"
                "fuzzy.steering.set.error.Z = -30, 0, 30\n"
            )

    def test_coverage_gap_between_samples_fails_at_load(self):
        # Z ends at 0.2 px and PS starts at 0.5 px, so an error of 0.3 px
        # fires no rule and fuzzy_step would find an all-zero aggregate
        with pytest.raises(ScenarioError, match="uncovered"):
            parse_scenario_text(
                "controller.steering.kind = fuzzy\n"
                "fuzzy.steering.set.error.Z = -80, -0.5, 0.2\n"
                "fuzzy.steering.set.error.PS = 0.5, 80, 160\n"
            )

    def test_output_set_without_grid_sample_fails_at_load(self):
        # Z lies between two grid samples (spacing 0.002), so a rule firing Z
        # alone would give fuzzy_step an all-zero aggregate
        with pytest.raises(ScenarioError, match="fuzzy.steering: output set Z has no positive"):
            parse_scenario_text(
                "controller.steering.kind = fuzzy\n"
                "fuzzy.steering.set.output.NS = -1, -0.5, 0.0001\n"
                "fuzzy.steering.set.output.Z = 0.0001, 0.0005, 0.0009\n"
            )

    def test_grid_points_capped_at_load(self):
        with pytest.raises(ScenarioError, match=r"^line 1: fuzzy.steering.grid_points: "
                           r"grid_points must be in \[201, 100001\]$"):
            parse_scenario_text("fuzzy.steering.grid_points = 1000000000000\n")

    @pytest.mark.parametrize("line, message", [
        ("camera.image_width = 3", "image_width must be a positive even integer"),
        ("vehicle.wheelbase = -1", "wheelbase must be positive"),
        ("fuzzy.steering.output_scale = 0", "expected a positive number, got '0'"),
        ("fuzzy.steering.error_universe = -5", "expected a positive number, got '-5'"),
        ("fuzzy.steering.grid_points = 5", r"grid_points must be in \[201, 100001\]"),
    ], ids=["image_width", "wheelbase", "output_scale", "error_universe", "grid_points"])
    def test_dataclass_error_names_key_and_line(self, line, message):
        key = line.split(" = ")[0]
        with pytest.raises(ScenarioError, match=rf"^line 2: {key}: {message}$"):
            parse_scenario_text(f"duration = 1\n{line}\nseed = 3\n")

    def test_cross_field_error_blames_the_key_its_message_names(self):
        with pytest.raises(ScenarioError, match=r"^line 1: camera.min_range: need 0 < min_range"):
            parse_scenario_text("camera.min_range = 20\nseed = 3\n")

    def test_error_blames_the_key_it_names_not_the_sections_last(self):
        with pytest.raises(ScenarioError, match=r"^line 1: panel.width: width must be positive$"):
            parse_scenario_text("panel.width = -1\nseed = 3\npanel.height = 0.3\n")

    def test_unknown_controller_kind_names_key_and_line(self):
        with pytest.raises(ScenarioError, match=r"^line 2: controller.steering.kind: .*'fizzy'"):
            parse_scenario_text("seed = 3\ncontroller.steering.kind = fizzy\n")

    def test_negative_setpoint_area_names_key_and_line(self):
        with pytest.raises(ScenarioError,
                           match=r"^line 2: setpoint_area: setpoint_area must be positive$"):
            parse_scenario_text("seed = 3\nsetpoint_area = -3\n")

    def test_overflowing_gains_fail_at_load(self):
        # kp*error - kd*derivative would be inf - inf: a NaN effort at record 2
        with pytest.raises(ScenarioError, match=r"^line 3: pid.throttle.kp: gain kp must be "
                           r"within \+-1e\+06, got 1e\+308$"):
            parse_scenario_text(
                "controller.steering.locked = true\nfollower.start.x = -4\n"
                "pid.throttle.kp = 1e308\npid.throttle.kd = 1e308\n"
            )

    @pytest.mark.parametrize("key", ["kp", "ki", "kd"])
    def test_gain_bound_is_inclusive(self, key):
        cfg = parse_scenario_text(f"seed = 3\npid.steering.{key} = {-MAX_GAIN!r}\n")
        assert getattr(cfg.steering_pid, key) == -MAX_GAIN
        past = math.nextafter(MAX_GAIN, math.inf)
        with pytest.raises(ScenarioError, match=rf"^line 2: pid.steering.{key}: gain {key} must be"):
            parse_scenario_text(f"seed = 3\npid.steering.{key} = {past!r}\n")

    @pytest.mark.parametrize("kind", ["pid", "fuzzy"])
    def test_camera_at_the_box_area_bound_loads_and_runs(self, kind):
        # 2e150 x 1e150 pixels at 50 frames a second: the box area may change
        # by (just under) 1e302 a second; at 51 frames it may not
        text = (f"camera.image_width = 2{'0' * 150}\ncamera.image_height = 1{'0' * 150}\n"
                f"setpoint_area = 1000\nfollower.start.x = -1\nduration = 1\n"
                f"controller.steering.kind = {kind}\ncontroller.throttle.kind = {kind}\n")
        trace = run_scenario(parse_scenario_text(text))
        assert len(trace.records) == 50 and all(r.detected for r in trace.records)
        with pytest.raises(ScenarioError, match=r"^line 1: camera.image_width: image_width \* "
                           r"image_height \* frame_rate, .* is 1\.02e\+302, past 1e\+302$"):
            parse_scenario_text(text + "camera.frame_rate = 51\n")

    @pytest.mark.parametrize("text", ["", "fuzzy.throttle.output_scale = 0.7\n"],
                             ids=["empty", "output_scale"])
    def test_one_fuzzy_build_per_channel(self, monkeypatch, text):
        builds = []
        check = FuzzyConfig.__post_init__

        def counting(self):
            builds.append(self)
            check(self)

        monkeypatch.setattr(FuzzyConfig, "__post_init__", counting)
        cfg = parse_scenario_text(text)
        assert len(builds) == 2
        assert builds[0] is cfg.steering_fuzzy and builds[1] is cfg.throttle_fuzzy

    @pytest.mark.parametrize("key", ["camera.image_width", "camera.image_height", "seed"])
    def test_huge_integer_rejected_with_line(self, key):
        with pytest.raises(ScenarioError, match=rf"line 2: {key}: integer out of range"):
            parse_scenario_text(f"duration = 1\n{key} = {'4' * 400}\n")

    def test_filter_settings(self):
        cfg = parse_scenario_text("filter.steering.alpha = none\nfilter.throttle.alpha = 0.25\n")
        assert cfg.steering_filter is None
        assert cfg.throttle_filter == 0.25

    def test_jitter_and_seed(self):
        cfg = parse_scenario_text("camera.jitter_px = 1.5\nseed = 42\n")
        assert cfg.camera.jitter_px == 1.5
        assert cfg.seed == 42


# each archetype's inputs are checked at load, so a scenario that loads also runs
@pytest.mark.parametrize("text, message", [
    ("archetype = step_response\nstep.separations = 0.1\n",
     r"^line 2: step\.separations: step\.separations 0\.1 m is inside camera\.min_range"),
    ("archetype = step_response\ncamera.max_range = 3\n",
     r"^line 2: camera\.max_range: step\.separations 4 m .*undetectable"),
    ("archetype = lateral_offset\nlateral.offset = 0\n",
     r"^line 2: lateral\.offset: lateral\.offset must be"),
    ("archetype = lateral_offset\nlateral.leader_speed = -1\n",
     r"^line 2: lateral\.leader_speed: lateral\.leader_speed must be"),
    ("archetype = path_follow\n",
     r"^line 1: archetype: leader\.kind must be straight_line or waypoint_path"),
    ("archetype = path_follow\nleader.kind = stationary\n",
     r"^line 2: leader\.kind: leader\.kind must be straight_line or waypoint_path"),
    # leaders that overflow float range before the run ends
    ("leader.kind = straight_line\nleader.speed = 1e308\nduration = 2\n",
     r"^line 2: leader\.speed: .* non-finite position by duration 2 s"),
    ("leader.kind = waypoint_path\nleader.start.x = -1e308\n"
     "leader.waypoints = -1e308 0; 1e308 0\n",
     r"^line 3: leader\.waypoints: waypoints make a path segment too long"),
    ("archetype = lateral_offset\nlateral.leader_speed = 1e308\nduration = 2\n",
     r"^line 2: lateral\.leader_speed: .* non-finite position by duration 2 s"),
], ids=["inside_min_range", "beyond_max_range", "zero_offset", "negative_leader_speed",
        "default_leader_path", "stationary_leader_path", "straight_line_overflow",
        "waypoint_segment_overflow", "lateral_leader_overflow"])
def test_archetype_inputs_fail_at_load(text, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario_text(text)


# each check a scenario file can reach blames the line and key that its
# message names first, and no key is guessed at; an error of a channel's whole
# fuzzy controller names the channel
@pytest.mark.parametrize("text, prefix", [
    ("name =\n", "line 1: name: scenario name must not be empty"),
    ("name = ../escaped\n", "line 1: name: name must be a file stem, with no path separator"),
    ("archetype = ramp\n", "line 1: archetype: unknown archetype 'ramp'"),
    ("lost_target.policy = x\n", "line 1: lost_target.policy: lost_target.policy must be hold or stop"),
    ("stop.speed_eps = -1\n", "line 1: stop.speed_eps: stop.speed_eps must be non-negative"),
    ("stop.hold_time = 0\n", "line 1: stop.hold_time: stop.hold_time must be positive"),
    ("filter.throttle.alpha = 2\n", "line 1: filter.throttle.alpha: filter.throttle.alpha must be"),
    ("step.separations = 1, -2\n", "line 1: step.separations: step.separations must be positive"),
    # runs of one scenario write files named after themselves
    ("archetype = step_response\nstep.separations = 1.0000001, 1.0000002, 2\n",
     "line 2: step.separations: step.separations 1.0000001, 1.0000002 share the run name "
     "'scenario_sep_1m': runs must have distinct names"),
    # a number list has no empty item
    ("step.separations = 1,,2,\n",
     "line 1: step.separations: expected a comma-separated number list, got '1,,2,'"),
    ("fuzzy.steering.set.error.Z = -80,, 0, 80\n",
     "line 1: fuzzy.steering.set.error.Z: expected a comma-separated number list, "
     "got '-80,, 0, 80'"),
    ("fuzzy.throttle.set.output.PL = \n",
     "line 1: fuzzy.throttle.set.output.PL: expected a comma-separated number list, got ''"),
    ("seed = 1.5\n", "line 1: seed: expected an integer, got '1.5'"),
    ("controller.steering.locked = maybe\n",
     "line 1: controller.steering.locked: expected true/false, got 'maybe'"),
    ("leader.waypoints = 1 2 3\n", "line 1: leader.waypoints: waypoint '1 2 3' is not 'x y'"),
    ("fuzzy.steering.set.error.Z = 1, 0, 2\n",
     "line 1: fuzzy.steering.set.error.Z: breakpoints must be non-decreasing"),
    ("fuzzy.steering.rule.Z.Z = HUGE\n", "line 1: fuzzy.steering.rule.Z.Z: expected one of NL NS"),
    ("fuzzy.steering.set.speed.Z = 0, 1, 2\n", "line 1: fuzzy.steering.set.speed.Z: unknown key"),
    ("leader.speed = 1:1\n", "line 1: leader.speed: speed_profile must start at t=0"),
    ("leader.speed = 0:1, 0:2\n", "line 1: leader.speed: speed_profile times must be strictly"),
    ("leader.speed = 0:1, 2:-1\nleader.kind = straight_line\n",
     "line 1: leader.speed: speed_profile values must be non-negative"),
    ("leader.kind = orbit\n", "line 1: leader.kind: unknown leader script kind 'orbit'"),
    ("leader.kind = waypoint_path\n", "line 1: leader.kind: waypoints must hold at least two"),
    ("leader.kind = waypoint_path\nleader.waypoints = 1 2\n",
     "line 2: leader.waypoints: waypoints must hold at least two"),
    ("leader.waypoints = 1 1; 1 1\nleader.kind = waypoint_path\n",
     "line 1: leader.waypoints: waypoints must contain at least two distinct points"),
    ("leader.kind = stationary\nleader.speed = 1\nleader.waypoints = 1 0; 2 0\n",
     "line 3: leader.waypoints: waypoints are driven only by kind waypoint_path, not stationary"),
    ("leader.kind = straight_line\nleader.speed = 1\nleader.waypoints = 1 0; 2 0\n",
     "line 3: leader.waypoints: waypoints are driven only by kind waypoint_path, not straight_line"),
    ("follower.start.speed = 5\n",
     "line 1: follower.start.speed: follower.start.speed must be in [0, vehicle.max_speed]"),
    ("panel.width = -1\npanel.height = 0.3\n", "line 1: panel.width: width must be positive"),
    ("panel.height = 0\npanel.width = 0.3\n", "line 1: panel.height: height must be positive"),
    ("panel.rear_offset = -1\n", "line 1: panel.rear_offset: rear_offset must be non-negative"),
    ("camera.horizontal_fov_deg = 1e-320\n",
     "line 1: camera.horizontal_fov_deg: horizontal_fov gives a degenerate focal length"),
    ("camera.frame_rate = 0.01\n", "line 1: camera.frame_rate: duration must be at least"),
    # the default setpoint area derived from them leaves float range
    ("camera.horizontal_fov_deg = 1e-300\n",
     "line 1: camera.horizontal_fov_deg: panel.width, panel.height, camera.image_width"),
    ("panel.height = 1e-300\npanel.width = 1e-300\n",
     "line 2: panel.width: panel.width, panel.height, camera.image_width"),
    # values that would overflow mid-run
    ("setpoint_area = 5e-324\n", "line 1: setpoint_area: setpoint_area 4.94066e-324 puts the follow"),
    ("vehicle.max_speed = 1e307\n", "line 1: vehicle.max_speed: max_speed 1e+307 overflows the speed"),
    ("vehicle.wheelbase = 5e-324\n",
     "line 1: vehicle.wheelbase: max_speed * tan(max_steer_angle) / wheelbase overflows"),
    # an error of a channel's whole controller names the channel
    ("fuzzy.steering.output_scale = 1e306\n",
     "fuzzy.steering: output universe (-1e+306, 1e+306) overflows the centroid sum"),
    # the throttle universes span 1 and 2 setpoint areas
    ("setpoint_area = 1e308\n", "line 1: setpoint_area: setpoint_area 1e+308 makes a throttle"),
    # runs whose physics would never end: few records of endless frames, or
    # the record guard's worth of 1000 s frames
    ("camera.frame_rate = 1e-300\nduration = 1e301\n",
     "line 2: duration: duration and camera.frame_rate give 10 records of 5e+302 physics"),
    ("duration = 1e9\ncamera.frame_rate = 0.001\n",
     "line 1: duration: duration and camera.frame_rate give 1,000,000 records of 5e+05"),
    ("camera.frame_rate = 20\nduration = 20001\n",
     "line 2: duration: duration and camera.frame_rate give 400,020 records of 25 physics"),
    # a follower that the run would drive past float range
    ("leader.kind = straight_line\nleader.speed = 1\nvehicle.max_speed = 1e306\n"
     "vehicle.max_accel = 1e306\ncamera.frame_rate = 1\nduration = 1000\nfollower.start.x = -3\n",
     "line 3: vehicle.max_speed: vehicle.max_speed 1e+306 m/s over duration 1000 s can drive"),
], ids=["empty_name", "path_name", "archetype", "lost_target", "speed_eps", "hold_time", "filter",
        "separations", "twin_separations", "empty_separation", "empty_set_item", "empty_list",
        "integer", "bool", "waypoint", "membership", "label", "set_variable",
        "profile_start", "profile_order", "profile_sign", "leader_kind", "no_waypoints",
        "one_waypoint", "same_waypoints", "parked_waypoints", "line_waypoints", "start_speed",
        "panel_width", "panel_height", "rear_offset", "focal_length", "frame_interval",
        "area_overflow", "area_underflow", "follow_range", "max_speed", "turn_rate",
        "centroid_sum", "throttle_universe", "endless_frames", "long_frames", "sub_step_guard",
        "follower_reach"])
def test_file_reachable_check_names_line_and_key(text, prefix):
    with pytest.raises(ScenarioError, match=f"^{re.escape(prefix)}"):
        parse_scenario_text(text)


@pytest.mark.parametrize("text", ["camera.frame_rate = 25\nduration = 20000\n",
                                  "duration = 20000\n", "camera.frame_rate = 1e-3\nduration = 2e4\n"])
def test_runs_at_the_sub_step_guard_load(text):
    """The guard caps the exact sub-step count of a full run: 500,000 records
    of 20, 1,000,000 of 10 and 20 of 500,000 all sit on it."""
    cfg = parse_scenario_text(text)
    assert cfg.n_records * cfg.sub_steps == MAX_SUB_STEPS


@pytest.mark.parametrize("path", [*sorted(SCENARIOS.glob("*.scn")), DATA / "every_key.scn"],
                         ids=lambda path: path.stem)
def test_loaded_scenarios_run(path):
    traces = execute_archetype(replace(load_scenario(path), duration=1.0))
    assert traces and all(trace.records for trace in traces)


# load-to-run fuzzer: mutations of a file that sets every key either load and
# run or fail at load with a ScenarioError that blames the key of its line
_EVERY_KEY = [line.split(" = ", 1) for line in (DATA / "every_key.scn").read_text().splitlines()
              if not line.startswith("#")]
_EXTREMES = ["0", "-0", "-1", "5e-324", "1e-300", "1e300", "1e308", "-1e308", "nan", "inf",
             "-inf", "1" + "0" * 309]
_INSERTS = [
    ("bogus", "1"), ("camera.bogus", "1"), ("fuzzy.steering.bogus", "1"),
    ("fuzzy.steering.set.speed.Z", "0, 1, 2"), ("fuzzy.throttle.rule.Z.WAT", "Z"),
    ("fuzzy.steering.set.error.Z", "-50, 0, 50"), ("fuzzy.throttle.set.output.PS", "0, 0.5, 1"),
    ("fuzzy.throttle.rule.Z.Z", "PL"), ("fuzzy.steering.set.delta.NL", "-500, -500, -250, 0"),
]
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e-?\d+)?")
_INDEX = st.integers(0, 99)
_MUTATION = st.one_of(
    st.tuples(st.just("delete"), _INDEX),
    st.tuples(st.just("swap"), _INDEX, _INDEX),
    st.tuples(st.just("number"), _INDEX, st.integers(0, 3), st.sampled_from(_EXTREMES)),
    st.tuples(st.just("insert"), _INDEX, st.sampled_from(_INSERTS)),
)


def _mutated(mutations) -> list[list[str]]:
    lines = [list(line) for line in _EVERY_KEY]
    for op, i, *args in mutations:
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "swap":
            j = args[0] % len(lines)
            lines[i][1], lines[j][1] = lines[j][1], lines[i][1]
        elif op == "number":  # the k-th number of the value, else the whole value
            k, extreme = args
            spans = [m.span() for m in _NUMBER.finditer(lines[i][1])]
            a, b = spans[k % len(spans)] if spans else (0, len(lines[i][1]))
            lines[i][1] = lines[i][1][:a] + extreme + lines[i][1][b:]
        else:
            lines.insert(i, list(args[0]))
    return lines


@settings(max_examples=500, deadline=None)
@given(mutations=st.lists(_MUTATION, max_size=4))
# each example loaded at the parent of the checks it now meets and failed mid-run
@example(mutations=[("number", 27, 0, "1e-300")])  # horizontal_fov_deg: a 1e302 m follow range
@example(mutations=[("number", 4, 0, "5e-324")])  # setpoint_area: an infinite follow range
@example(mutations=[("number", 21, 0, "5e-324")])  # wheelbase: an infinite turn rate
@example(mutations=[("number", 23, 0, "1e308")])  # max_speed: an infinite speed command
@example(mutations=[("number", 55, 0, "1e308")])  # steering output_scale: a NaN centroid
@example(mutations=[("delete", 1), ("number", 19, 0, "1e308")])  # a plain run's start speed
def test_mutated_scenario_loads_and_runs_or_names_its_key(mutations):
    lines = _mutated(mutations)
    try:
        cfg = parse_scenario_text("".join(f"{key} = {value}\n" for key, value in lines))
    except ScenarioError as exc:
        blamed = re.match(r"line (\d+): (\S+): ", str(exc))
        if blamed:
            assert lines[int(blamed[1]) - 1][0] == blamed[2], exc
        else:
            assert re.match(r"fuzzy\.(steering|throttle): ", str(exc)), exc
        return
    # a frame interval past 1 s leaves no record inside the 1 s cut
    if cfg.dt > 1.0:
        return
    for trace in execute_archetype(replace(cfg, duration=min(cfg.duration, 1.0))):
        assert trace.records
        for channel in CHANNELS:
            trace_metrics(trace, channel)


def readme_keys() -> set[str]:
    """Keys in the README's scenario-file tables, `a.b` / `.c` shorthand expanded."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        names = [name.strip().strip("`") for name in line.split("|")[1].split(" / ")]
        base = names[0].rsplit(".", 1)[0]
        keys.update(base + n if n.startswith(".") else n for n in names)
    return keys


_POSE_VALUES = {
    "x": st.floats(-50.0, 50.0),
    "y": st.floats(-50.0, 50.0),
    "heading": st.floats(-10.0, 10.0),
    "speed": st.floats(0.0, 4.0),
}


@settings(max_examples=200, deadline=None)
@given(
    leader=st.fixed_dictionaries({k: _POSE_VALUES[k] for k in ("x", "y", "heading")}),
    follower=st.fixed_dictionaries({}, optional=_POSE_VALUES).filter(bool),
)
@example(leader={"x": 0.0, "y": 0.0, "heading": 0.0}, follower={"x": -4.0, "y": 0.0})
def test_follower_keys_override_the_placed_pose(leader, follower):
    """Every non-empty subset of the follower.start keys overrides those
    fields of the pose the setpoint range behind the leader's start, bit for bit."""
    text = "".join(f"leader.start.{k} = {v!r}\n" for k, v in leader.items())
    text += "".join(f"follower.start.{k} = {v!r}\n" for k, v in follower.items())
    cfg = parse_scenario_text(text)
    placed = place_behind(VehicleState(**leader), cfg.follow_range)
    want = VehicleState(**{**placed._asdict(), **follower})
    got = cfg.follower_start
    assert [v.hex() for v in got._asdict().values()] == [v.hex() for v in want._asdict().values()]


def test_readme_tables_list_exactly_the_key_table():
    keys = {k.replace("<ch>", ch) for k in readme_keys() for ch in CHANNELS}
    patterns = {k for k in keys if "<" in k}
    assert keys - patterns == set(SCENARIO_KEYS)
    assert patterns == {
        f"fuzzy.{ch}.{p}" for ch in CHANNELS for p in ("set.<var>.<LABEL>", "rule.<E>.<D>")
    }


# README rows whose default is prose, or an expression of another key
PROSE_DEFAULTS = {
    "name", "setpoint_area", "leader.waypoints",
    *(f"follower.start.{f}" for f in ("x", "y", "heading", "speed")),
    *(f"fuzzy.{ch}.{p}" for ch in CHANNELS for p in ("set.<var>.<LABEL>", "rule.<E>.<D>")),
    "fuzzy.throttle.error_universe", "fuzzy.throttle.delta_universe",
}
LITERALS = re.compile(r"`[^`]+`(?: / `[^`]+`)*(?: \([^)]*\))?")


def readme_defaults() -> dict[str, str | None]:
    """Each README key with its default literal, or None where the default is prose.

    One literal serves every key of its row, `a` / `b` pairs key by key, and
    `x/y/z` inside one literal splits over a row of three keys; a
    `steering ..., throttle ...` cell gives each channel its own.
    """
    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    defaults = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [cell.strip() for cell in line.split("|")[1:3]]
        names = [name.strip().strip("`") for name in cells[0].split(" / ")]
        base = names[0].rsplit(".", 1)[0]
        names = [base + n if n.startswith(".") else n for n in names]
        per_channel = re.fullmatch(r"steering (.+), throttle (.+)", cells[1])
        for ch in CHANNELS if "<ch>" in names[0] else (None,):
            cell = per_channel[1 + CHANNELS.index(ch)] if per_channel else cells[1]
            keys = [n.replace("<ch>", ch) if ch else n for n in names]
            if not LITERALS.fullmatch(cell):
                defaults.update(dict.fromkeys(keys))
                continue
            values = re.findall(r"`([^`]+)`", cell)
            if len(values) == 1 and len(keys) > 1:
                values = values[0].split("/") if "/" in values[0] else values * len(keys)
            assert len(values) == len(keys), line
            defaults.update(zip(keys, values))
    return defaults


def test_readme_default_column_is_the_parsed_default():
    baseline = parse_scenario_text("")
    prose = set()
    for key, value in readme_defaults().items():
        try:
            parsed = parse_scenario_text(f"{key} = {value}") if value else None
        except ScenarioError:
            parsed = None  # a backticked expression such as `2*setpoint_area`
        if parsed is None:
            prose.add(key)
        else:
            assert parsed == baseline, f"README default {key} = {value}"
    assert prose == PROSE_DEFAULTS


# field -> the message its range check gives when the field is NaN
NAN_FAILS = {
    "stop_hold_time": "stop.hold_time must be positive",
    "stop_speed_eps": "stop.speed_eps must be non-negative",
    "duration": "duration must be at least 1 / camera.frame_rate",
    "width": "width must be positive",
    "height": "height must be positive",
    "rear_offset": "rear_offset must be non-negative",
    "image_height": "image_height must be positive",
    "jitter_px": "jitter_px must be non-negative",
}


class TestLoadScenario:
    def test_load_names_from_stem(self, tmp_path):
        path = tmp_path / "myrun.scn"
        path.write_text("duration = 1\n")
        cfg = load_scenario(path)
        assert cfg.name == "myrun"
        assert cfg.duration == 1.0

    def test_explicit_name_wins(self, tmp_path):
        path = tmp_path / "file.scn"
        path.write_text("name = custom\n")
        assert load_scenario(path).name == "custom"

    @pytest.mark.parametrize("name", ["a/b", "/abs/olute", "../up", "dir/", "a\0b"])
    def test_name_with_a_separator_or_nul_fails(self, name):
        message = f"name must be a file stem, with no path separator or NUL, got {name!r}"
        with pytest.raises(ScenarioError, match=f"^line 2: name: {re.escape(message)}$"):
            parse_scenario_text(f"duration = 1\nname = {name}\n")
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            default_scenario(name)

    def test_name_with_the_alternative_separator_fails(self, monkeypatch):
        monkeypatch.setattr(os, "altsep", "\\")  # as on Windows
        with pytest.raises(ScenarioError, match="file stem"):
            default_scenario("a\\b")

    def test_name_length_limit_counts_utf8_bytes(self):
        # a plain run's name is the scenario name, and compare adds `_fuzzy.csv`
        assert COMMAND_SUFFIX_MAX_BYTES == len("_fuzzy.csv") == len("_report.md") == 10
        limit = FILE_NAME_MAX_BYTES - COMMAND_SUFFIX_MAX_BYTES
        assert limit == 245
        assert parse_scenario_text(f"name = {'a' * limit}\n").name == "a" * limit
        for name in ("a" * (limit + 1), "é" * (limit // 2 + 1)):
            with pytest.raises(ScenarioError, match=(
                    rf"^line 1: name: name, with its run's suffix if any, is {limit + 1} bytes "
                    rf"in UTF-8, more than the {limit} it may take: a command adds up to 10 "
                    rf"bytes to it, and a file name holds at most 255$")):
                parse_scenario_text(f"name = {name}\n")

    @pytest.mark.parametrize("build", [
        lambda name: parse_scenario_text(f"name = {name}\nduration = 0.1\n"),
        lambda name: default_scenario(name),
        lambda name: replace(load_scenario(SCENARIOS / "throttle_step.scn"), name=name),
        lambda name: replace(default_scenario(), archetype="step_response", name=name),
    ], ids=["file", "default_scenario", "replace", "replace_archetype"])
    def test_a_300_byte_name_fails_by_every_route(self, build):
        with pytest.raises(ScenarioError, match="name, with its run's suffix if any, is 300 bytes"):
            build("a" * 300)

    def test_a_lateral_run_name_may_reach_the_limit_exactly(self):
        text = "archetype = lateral_offset\nlateral.offset = 1\nname = {}\n"
        name = "a" * (FILE_NAME_MAX_BYTES - COMMAND_SUFFIX_MAX_BYTES - len("_lat_1m_v1"))
        (run,) = parse_scenario_text(text.format(name)).runs()
        assert run.name == f"{name}_lat_1m_v1"
        assert len(run.name) == 245
        with pytest.raises(ScenarioError, match="^line 3: name: name, with its run's suffix if "
                                                "any, is 246 bytes"):
            parse_scenario_text(text.format(name + "a"))

    @pytest.mark.parametrize("field, message", NAN_FAILS.items(), ids=NAN_FAILS)
    def test_a_nan_fails_each_range_check(self, field, message):
        # the parser rejects non-finite numbers, so only a Python caller can pass a NaN
        owner = next(obj for obj in (load_scenario(SCENARIOS / "throttle_step.scn"), TargetPanel(),
                                     CameraIntrinsics()) if field in {f.name for f in fields(obj)})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(owner, **{field: math.nan})

    @pytest.mark.parametrize("name", [".", "..", "...", "a b", "s.curve.v2", "-x_"])
    def test_stem_names_load(self, name):
        # every output file name adds a suffix to the name, so `..` stays a file name
        assert parse_scenario_text(f"name = {name}\n").name == name

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.scn")

    def test_error_carries_file_context(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text("bogus.key = 1\n")
        with pytest.raises(ScenarioError, match="broken.scn"):
            load_scenario(path)

    def test_shipped_examples_parse(self):
        for name in (
            "lateral_offset_moving",
            "lateral_offset_stationary",
            "throttle_step",
            "s_curve",
        ):
            cfg = load_scenario(f"scenarios/{name}.scn")
            assert cfg.name == name
