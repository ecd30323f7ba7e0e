import gc
import math
import tracemalloc
from dataclasses import replace
from functools import cached_property, partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STEADY_STATE_PX, overflowing_pid_config, records_match_except_timing
from followsim import (
    LeaderScript,
    ScenarioError,
    VehicleState,
    default_scenario,
    execute_archetype,
    load_scenario,
    parse_scenario_text,
    run_scenario,
)
from followsim import actuation, simulate
from followsim.scenario import MAX_RECORDS
from followsim.world import place_behind

ROOT = Path(__file__).parents[1]
S_CURVE = ROOT / "scenarios" / "s_curve.scn"
THROTTLE_STEP = ROOT / "scenarios" / "throttle_step.scn"
LATERAL_MOVING = ROOT / "scenarios" / "lateral_offset_moving.scn"

# memory one trace at the runaway guard may hold, as the README's `duration`
# row states it
TRACE_BUDGET_BYTES = 512 * 2**20


class TestRunScenario:
    @pytest.mark.parametrize("archetype", ["step_response", "lateral_offset", "path_follow"])
    def test_archetype_configs_rejected(self, archetype):
        leader = LeaderScript(kind="straight_line", speed_profile=1.0)
        config = default_scenario("x", archetype=archetype, duration=1.0, leader=leader)
        with pytest.raises(ValueError, match=rf"archetype '{archetype}': use execute_archetype"):
            run_scenario(config)
        assert len(execute_archetype(config)) == len(config.runs())

    def test_single_record_boundary(self):
        trace = run_scenario(default_scenario("one", duration=0.02))
        assert len(trace.records) == 1
        assert trace.records[0].t == 0.0

    def test_equilibrium_stays_neutral(self, base_scenario):
        trace = run_scenario(replace(base_scenario, duration=1.5))
        for r in trace.records:
            assert r.pixel_error_x == 0.0
            assert r.area_error == 0.0
            assert (r.steering_pwm, r.throttle_pwm) == (90.0, 90.0)
            assert r.lateral_dev_m == 0.0
            assert r.detected

    def test_deterministic_modulo_loop_cost(self, base_scenario):
        cfg = default_scenario("det", duration=2.0,
                               camera=replace(base_scenario.camera, jitter_px=1.0))
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert len(a.records) == len(b.records)
        assert all(records_match_except_timing(x, y) for x, y in zip(a.records, b.records))

    def test_seed_changes_jittered_run(self, base_scenario):
        camera = replace(base_scenario.camera, jitter_px=2.0)
        base = default_scenario("j", duration=2.0, camera=camera,
                                leader=LeaderScript(kind="straight_line",
                                                    start=VehicleState(0, 0, 0),
                                                    speed_profile=1.0))
        a = run_scenario(replace(base, seed=1))
        b = run_scenario(replace(base, seed=2))
        assert any(not records_match_except_timing(x, y) for x, y in zip(a.records, b.records))

    def test_record_cadence_and_frame_alignment(self, base_scenario):
        trace = run_scenario(replace(base_scenario, duration=0.5))
        frame = 1.0 / base_scenario.camera.frame_rate
        for k, r in enumerate(trace.records):
            assert r.t == k * base_scenario.dt
            # readings happen exactly on camera frames
            assert abs(r.t / frame - round(r.t / frame)) < 1e-9

    def test_stationary_stop_condition(self, base_scenario):
        trace = run_scenario(replace(base_scenario, duration=20.0))
        # equilibrium: never moves, so the run ends after stop_hold_time
        assert trace.stop_reason == "follower_stationary"
        assert len(trace.records) == round(base_scenario.stop_hold_time / base_scenario.dt)

    def test_stops_at_exactly_the_hold_time(self, base_scenario):
        # at 2 Hz the still time sums exactly to 0.5 and then 1.0: the run
        # stops on the record where it reaches the 1 s hold
        camera = replace(base_scenario.camera, frame_rate=2.0)
        trace = run_scenario(replace(base_scenario, duration=20.0, camera=camera))
        assert base_scenario.stop_hold_time == 1.0
        assert trace.stop_reason == "follower_stationary"
        assert len(trace.records) == 2

    def test_moving_leader_never_stops_early(self, base_scenario):
        moving = default_scenario(
            "mv", duration=2.0,
            leader=LeaderScript(kind="straight_line", start=VehicleState(0, 0, 0),
                                speed_profile=1.0),
        )
        trace = run_scenario(moving)
        assert trace.stop_reason is None
        assert len(trace.records) == 100

    def test_hold_policy_keeps_last_command(self):
        # leader teleports out of view via a waypoint hairpin: command persists
        base = default_scenario("hold")
        hairpin = LeaderScript(
            kind="waypoint_path", start=VehicleState(0, 0, 0), speed_profile=2.0,
            waypoints=((2.0, 0.0), (1.8, 0.4), (-5.0, 0.6)),
        )
        (trace,) = execute_archetype(
            replace(base, duration=10.0, archetype="path_follow", leader=hairpin)
        )
        lost = [i for i, r in enumerate(trace.records) if not r.detected]
        assert lost
        i = lost[0]
        prev = trace.records[i - 1]
        cur = trace.records[i]
        assert (cur.steering_pwm, cur.throttle_pwm) == (prev.steering_pwm, prev.throttle_pwm)
        assert cur.op_count == 0

    def test_stop_policy_goes_neutral(self):
        base = default_scenario("stoppol", lost_target_policy="stop")
        hairpin = LeaderScript(
            kind="waypoint_path", start=VehicleState(0, 0, 0), speed_profile=2.0,
            waypoints=((2.0, 0.0), (1.8, 0.4), (-5.0, 0.6)),
        )
        (trace,) = execute_archetype(
            replace(base, duration=10.0, archetype="path_follow", leader=hairpin)
        )
        lost = [r for r in trace.records if not r.detected]
        assert lost
        assert all((r.steering_pwm, r.throttle_pwm) == (90.0, 90.0) for r in lost)

    def test_nan_effort_fails_at_the_record_that_made_it(self, monkeypatch):
        # the NaN effort would pass effort_to_pwm's clamp
        config = parse_scenario_text("controller.steering.locked = true\nfollower.start.x = -4\n")
        config = replace(config, throttle_pid=overflowing_pid_config(config.throttle_pid))
        observed = []
        sense = simulate.observe

        def counting(*args, **kwargs):
            observed.append(args)
            return sense(*args, **kwargs)

        monkeypatch.setattr(simulate, "observe", counting)
        with pytest.raises(ValueError, match="^controller effort is NaN$"):
            run_scenario(config)
        assert len(observed) == 3  # raised while controlling record index 2


class TestStepResponse:
    def test_zero_error_step_is_flat(self, base_scenario):
        (trace,) = execute_archetype(
            replace(base_scenario, duration=3.0, archetype="step_response",
                    step_separations=(base_scenario.follow_range,))
        )
        assert all(r.area_error == 0.0 for r in trace.records)
        assert all(r.throttle_pwm == 90.0 for r in trace.records)
        assert all(r.steering_pwm == 90.0 for r in trace.records)

    def test_steering_locked_neutral_throughout(self, base_scenario):
        traces = execute_archetype(replace(base_scenario, duration=3.0, archetype="step_response",
                                           step_separations=(2.0, 4.0)))
        for trace in traces:
            assert all(r.steering_pwm == 90.0 for r in trace.records)

    def test_distinct_transients(self, base_scenario):
        t2, t4 = execute_archetype(replace(base_scenario, duration=6.0, archetype="step_response",
                                           step_separations=(2.0, 4.0)))
        assert [r.area_error for r in t2.records] != [r.area_error for r in t4.records]

    def test_saturating_start(self, base_scenario):
        (trace,) = execute_archetype(replace(base_scenario, duration=6.0,
                                             archetype="step_response", step_separations=(4.0,)))
        assert max(r.throttle_pwm for r in trace.records[:20]) == 180.0

    def test_separation_validation(self, base_scenario):
        steps = partial(replace, base_scenario, archetype="step_response")
        with pytest.raises(ScenarioError, match="min_range"):
            steps(step_separations=(0.1,))
        with pytest.raises(ScenarioError, match="undetectable"):
            steps(step_separations=(25.0,))
        with pytest.raises(ScenarioError):
            steps(step_separations=())


class TestLateralOffset:
    def test_offset_must_be_nonzero(self, base_scenario):
        with pytest.raises(ScenarioError):
            replace(base_scenario, archetype="lateral_offset",
                    lateral_offset=0.0, lateral_leader_speed=1.0)

    def test_stationary_regime_stops_misaligned(self, base_scenario):
        (trace,) = execute_archetype(replace(
            base_scenario, duration=20.0, archetype="lateral_offset",
            lateral_offset=1.0, lateral_leader_speed=0.0,
        ))
        assert trace.stop_reason == "follower_stationary"
        assert abs(trace.records[-1].pixel_error_x) > STEADY_STATE_PX

    def test_moving_regime_reaches_steady_state(self, base_scenario):
        (trace,) = execute_archetype(replace(
            base_scenario, duration=20.0, archetype="lateral_offset",
            lateral_offset=1.0, lateral_leader_speed=1.0,
        ))
        n = len(trace.records)
        tail = trace.records[int(0.8 * n):]
        mean_abs = sum(abs(r.pixel_error_x) for r in tail) / len(tail)
        assert mean_abs < STEADY_STATE_PX

    def test_mirror_symmetry(self, base_scenario):
        cfg = replace(base_scenario, duration=2.0, archetype="lateral_offset",
                      lateral_leader_speed=1.0)
        (left,) = execute_archetype(replace(cfg, lateral_offset=0.8))
        (right,) = execute_archetype(replace(cfg, lateral_offset=-0.8))
        assert len(left.records) == len(right.records)
        for a, b in zip(left.records, right.records):
            assert a.pixel_error_x == pytest.approx(-b.pixel_error_x, abs=1e-6)
            assert a.steering_pwm - 90.0 == pytest.approx(-(b.steering_pwm - 90.0), abs=1e-6)
            assert a.throttle_pwm == pytest.approx(b.throttle_pwm, abs=1e-9)
            assert a.lateral_dev_m == pytest.approx(-b.lateral_dev_m, abs=1e-9)

    def test_initial_offset_recorded_in_lateral_dev(self, base_scenario):
        (trace,) = execute_archetype(replace(
            base_scenario, duration=1.0, archetype="lateral_offset",
            lateral_offset=1.0, lateral_leader_speed=1.0,
        ))
        assert trace.records[0].lateral_dev_m == pytest.approx(1.0)


class TestPathFollow:
    def test_straight_path_zero_deviation(self, base_scenario):
        path = LeaderScript(kind="straight_line", start=VehicleState(0, 0, 0), speed_profile=1.0)
        (trace,) = execute_archetype(
            replace(base_scenario, duration=5.0, archetype="path_follow", leader=path)
        )
        assert max(abs(r.lateral_dev_m) for r in trace.records) < 1e-9

    def test_gentle_s_curve_never_loses_target(self, base_scenario):
        path = LeaderScript(
            kind="waypoint_path", start=VehicleState(0, 0, 0), speed_profile=1.0,
            waypoints=((3.0, 0.0), (6.0, 0.8), (9.0, 0.8), (12.0, 0.0), (15.0, 0.0)),
        )
        (trace,) = execute_archetype(
            replace(base_scenario, duration=15.0, archetype="path_follow", leader=path)
        )
        assert all(r.detected for r in trace.records)

    def test_hairpin_loses_target(self, base_scenario):
        path = LeaderScript(
            kind="waypoint_path", start=VehicleState(0, 0, 0), speed_profile=1.5,
            waypoints=((2.5, 0.0), (2.8, 0.3), (2.5, 0.6), (-3.0, 0.6)),
        )
        (trace,) = execute_archetype(
            replace(base_scenario, duration=10.0, archetype="path_follow", leader=path)
        )
        assert any(not r.detected for r in trace.records)

    def test_rejects_stationary_path(self, base_scenario):
        with pytest.raises(ScenarioError):
            replace(base_scenario, archetype="path_follow",
                    leader=LeaderScript(kind="stationary", start=VehicleState(0, 0, 0)))


def signed_distance(x, y, pts):
    """Signed distance from (x, y) to a polyline, left of travel positive."""
    best_d2, best_cross = math.inf, 0.0
    for (px, py), (qx, qy) in zip(pts, pts[1:]):
        vx, vy = qx - px, qy - py
        if vx == 0.0 and vy == 0.0:
            continue
        u = min(max(((x - px) * vx + (y - py) * vy) / (vx * vx + vy * vy), 0.0), 1.0)
        dx, dy = x - (px + u * vx), y - (py + u * vy)
        if dx * dx + dy * dy < best_d2:
            best_d2, best_cross = dx * dx + dy * dy, vx * dy - vy * dx
    return math.copysign(math.sqrt(best_d2), best_cross)


class TestLeaderTrack:
    """Lateral deviation is measured against the leader script's polyline,
    cut at the leader's current arc length: a bounded track per record."""

    @staticmethod
    def track_lengths(monkeypatch, config):
        lengths = []
        measure = simulate.lateral_deviation

        def counting(follower, leader_track):
            lengths.append(len(leader_track))
            return measure(follower, leader_track)

        monkeypatch.setattr(simulate, "lateral_deviation", counting)
        (trace,) = execute_archetype(config)
        assert len(lengths) == len(trace.records)
        return lengths

    def test_track_bounded_on_long_straight_run(self, monkeypatch):
        cfg = replace(load_scenario(S_CURVE), duration=80.0,
                      leader=LeaderScript(kind="straight_line", speed_profile=1.0))
        assert max(self.track_lengths(monkeypatch, cfg)) <= 3  # no waypoints

    def test_track_bounded_on_waypoint_path(self, monkeypatch):
        cfg = load_scenario(S_CURVE)
        assert max(self.track_lengths(monkeypatch, cfg)) <= len(cfg.leader.waypoints) + 3

    @staticmethod
    def assert_deviation_matches_cut_polyline(cfg):
        """Each record's lateral_dev_m against the start, the corners passed by
        then and the leader, with the lane extended back along +x."""
        (trace,) = execute_archetype(cfg)
        path = cfg.leader
        speed = path.speed_profile[0][1]
        corners = [(path.start.x, path.start.y), *(path.waypoints or ())]
        arc = [0.0]
        for (px, py), (qx, qy) in zip(corners, corners[1:]):
            arc.append(arc[-1] + math.hypot(qx - px, qy - py))
        back = 10.0 * max(cfg.follow_range, 1.0)
        tail = (path.start.x - back, path.start.y)
        for r in trace.records:
            passed = [c for c, s in zip(corners, arc) if s <= speed * r.t]
            want = signed_distance(r.follower_x, r.follower_y,
                                   [tail, *passed, (r.leader_x, r.leader_y)])
            assert r.lateral_dev_m == pytest.approx(want, abs=1e-9)
        return trace

    @pytest.mark.parametrize("kind", ["pid", "fuzzy"])
    def test_deviation_matches_cut_script_polyline(self, kind):
        # s_curve's first leg heads along +x; its leader reaches the end of
        # its path and holds there
        cfg = replace(load_scenario(S_CURVE), steering_kind=kind, throttle_kind=kind)
        trace = self.assert_deviation_matches_cut_polyline(cfg)
        assert (trace.records[-1].leader_x, trace.records[-1].leader_y) == cfg.leader.waypoints[-1]

    def test_deviation_matches_cut_straight_line_from_negative_zero(self):
        # the runner's first corner is the script's start, (-0.0, 0.0) here,
        # where leader_pose(script, 0.0) reads (0.0, 0.0)
        leader = LeaderScript(kind="straight_line", start=VehicleState(-0.0, 0.0, 0.0),
                              speed_profile=0.5)
        cfg = replace(load_scenario(S_CURVE), archetype="scenario", leader=leader, duration=10.0,
                      follower_start=VehicleState(-2.0, 0.5, 0.0))
        trace = self.assert_deviation_matches_cut_polyline(cfg)
        assert trace.records[0].lateral_dev_m == 0.5  # the follower starts left of the lane


class TestPhysicsCalls:
    """The runner integrates each control period in one kernel call."""

    @pytest.mark.parametrize("path", [S_CURVE, THROTTLE_STEP], ids=["s_curve", "throttle_step"])
    def test_one_integrate_call_per_record(self, monkeypatch, path):
        steps = []
        integrate = simulate.integrate_bicycle

        def counting(state, params, steer_angle, speed_cmd, dt, n):
            steps.append(n)
            return integrate(state, params, steer_angle, speed_cmd, dt, n)

        monkeypatch.setattr(simulate, "integrate_bicycle", counting)
        traces = execute_archetype(load_scenario(path))
        assert len(steps) == sum(len(trace.records) for trace in traces)
        assert set(steps) == {10}  # a 20 ms frame in 2 ms sub-steps


class TestHeldSensing:
    """Against a parked leader with no jitter, a record whose follower did not
    move reuses the previous record's reading and distances; any other
    record senses afresh."""

    SENSING = ("observe", "lateral_deviation", "following_distance")

    @classmethod
    def sensing_calls(cls, monkeypatch, config):
        calls = {name: 0 for name in cls.SENSING}
        for name in cls.SENSING:
            def counting(*args, _name=name, _f=getattr(simulate, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(simulate, name, counting)
        (trace,) = execute_archetype(config)
        records = trace.records
        pose = lambda r: (r.follower_x, r.follower_y, r.follower_heading)  # noqa: E731
        still = sum(1 for a, b in zip(records, records[1:]) if pose(a) == pose(b))
        assert still > 0  # every case below has records in which the follower stood still
        return calls, len(records), still

    def test_parked_leader_senses_once_per_move(self, monkeypatch):
        calls, records, still = self.sensing_calls(monkeypatch, load_scenario(THROTTLE_STEP))
        assert calls == dict.fromkeys(self.SENSING, records - still)

    def test_jitter_senses_every_record(self, monkeypatch):
        cfg = load_scenario(THROTTLE_STEP)
        cfg = replace(cfg, camera=replace(cfg.camera, jitter_px=1.0))
        calls, records, _ = self.sensing_calls(monkeypatch, cfg)
        assert calls == dict.fromkeys(self.SENSING, records)

    def test_moving_leader_senses_every_record(self, monkeypatch):
        # the leader drives off once the follower has stopped behind it
        cfg = load_scenario(THROTTLE_STEP)
        cfg = replace(cfg, leader=LeaderScript(kind="straight_line", start=cfg.leader.start,
                                               speed_profile=((0.0, 0.0), (8.0, 0.5))))
        calls, records, _ = self.sensing_calls(monkeypatch, cfg)
        assert calls == dict.fromkeys(self.SENSING, records)


class TestPerRunWork:
    """Work that the config fixes is done once per run, not once per record."""

    def test_segments_built_once_per_script(self, monkeypatch):
        calls = []
        build = LeaderScript.segments.func

        def counting(script):
            calls.append(script)
            return build(script)

        segments = cached_property(counting)
        segments.__set_name__(LeaderScript, "segments")
        monkeypatch.setattr(LeaderScript, "segments", segments)
        cfg = load_scenario(S_CURVE)
        (trace,) = execute_archetype(cfg)
        assert len(trace.records) == 900
        assert len(calls) == 1 and calls[0] is cfg.leader

    def test_fuzzy_op_cost_counted_once_per_channel(self, monkeypatch):
        cfg = replace(load_scenario(S_CURVE), steering_kind="fuzzy", throttle_kind="fuzzy")
        calls = []
        count = actuation.count_fuzzy_ops

        def counting(config):
            calls.append(config)
            return count(config)

        monkeypatch.setattr(actuation, "count_fuzzy_ops", counting)
        (trace,) = execute_archetype(cfg)
        assert sum(r.detected for r in trace.records) > 100
        assert calls == [cfg.steering_fuzzy, cfg.throttle_fuzzy]


def frozen_tag(value: float) -> str:
    return f"{value:g}".replace(".", "p").replace("-", "m")


def frozen_step_configs(base, separations):
    """The configs the run_step_response wrapper built, as it stood before
    ScenarioConfig.runs() took the archetypes over."""
    separations = tuple(float(s) for s in separations)
    leader = LeaderScript(kind="stationary", start=base.leader.start)
    return [
        replace(
            base,
            name=f"{base.name}_sep_{frozen_tag(sep)}m",
            archetype="scenario",
            leader=leader,
            follower_start=place_behind(leader.start, sep),
            steering_locked=True,
        )
        for sep in separations
    ]


def frozen_lateral_config(base, offset, leader_speed):
    """The config the run_lateral_offset wrapper built."""
    if leader_speed == 0.0:
        leader = LeaderScript(kind="stationary", start=base.leader.start)
    else:
        leader = LeaderScript(
            kind="straight_line", start=base.leader.start, speed_profile=leader_speed
        )
    return replace(
        base,
        name=f"{base.name}_lat_{frozen_tag(offset)}m_v{frozen_tag(leader_speed)}",
        archetype="scenario",
        leader=leader,
        follower_start=place_behind(base.leader.start, base.follow_range, offset),
        steering_locked=False,
    )


def frozen_path_config(base, path):
    """The config the run_path_follow wrapper built."""
    if path.kind == "waypoint_path":
        (x, y), _, _, heading = path.segments[0]
        start = VehicleState(x, y, heading)
    else:
        start = path.start
    return replace(
        base,
        name=f"{base.name}_path",
        archetype="scenario",
        leader=path,
        follower_start=place_behind(start, base.follow_range),
        steering_locked=False,
    )


LEADER_STARTS = [VehicleState(0.0, 0.0, 0.0), VehicleState(1.0, -2.0, 2.3)]


class TestRunsMatchFrozenWrappers:
    """ScenarioConfig.runs() builds the configs the deleted run_* wrappers
    built, down to the bits of the follower's start pose."""

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b
            assert [v.hex() for v in a.follower_start._asdict().values()] == \
                [v.hex() for v in b.follower_start._asdict().values()]
            assert a.archetype == "scenario"

    @pytest.mark.parametrize("start", LEADER_STARTS)
    def test_step_response(self, start):
        base = default_scenario("eq", leader=LeaderScript(start=start),
                                archetype="step_response", step_separations=(1, 2.5, 4))
        self.assert_same(base.runs(), frozen_step_configs(base, (1, 2.5, 4)))

    @pytest.mark.parametrize("start", LEADER_STARTS)
    @pytest.mark.parametrize("offset", [0.8, -0.8, -0.5])
    @pytest.mark.parametrize("speed", [0.0, 1.25])
    def test_lateral_offset(self, start, offset, speed):
        base = default_scenario("eq", leader=LeaderScript(start=start), archetype="lateral_offset",
                                lateral_offset=offset, lateral_leader_speed=speed)
        self.assert_same(base.runs(), [frozen_lateral_config(base, offset, speed)])

    @pytest.mark.parametrize("start", LEADER_STARTS)
    @pytest.mark.parametrize("kind", ["straight_line", "waypoint_path"])
    def test_path_follow(self, start, kind):
        waypoints = None
        if kind == "waypoint_path":  # the first waypoint repeats the start
            waypoints = ((start.x, start.y), (start.x + 3.0, start.y + 1.0), (6.0, 2.0))
        path = LeaderScript(kind=kind, start=start, speed_profile=1.0, waypoints=waypoints)
        base = default_scenario("eq", leader=path, archetype="path_follow")
        self.assert_same(base.runs(), [frozen_path_config(base, path)])


class TestExecuteArchetype:
    def test_step_response_archetype(self, base_scenario):
        cfg = replace(base_scenario, archetype="step_response",
                      step_separations=(2.0, 4.0), duration=2.0)
        traces = execute_archetype(cfg)
        assert len(traces) == 2
        assert {t.name for t in traces} == {"testbase_sep_2m", "testbase_sep_4m"}

    def test_lateral_archetype(self, base_scenario):
        cfg = replace(base_scenario, archetype="lateral_offset", duration=1.0)
        (trace,) = execute_archetype(cfg)
        assert "lat" in trace.name

    def test_plain_archetype(self, base_scenario):
        cfg = replace(base_scenario, duration=1.0)
        (trace,) = execute_archetype(cfg)
        assert trace.name == "testbase"


@given(
    offset=st.floats(-1.2, 1.2),
    leader_speed=st.floats(0.0, 2.0),
    kp=st.floats(0.001, 0.04),
    duration=st.floats(0.1, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_records_never_violate_invariants(offset, leader_speed, kp, duration):
    from followsim.pid import PidConfig

    cfg = default_scenario(
        "fuzzed",
        duration=max(duration, 0.02),
        steering_pid=PidConfig(kp=kp, ki=0.002, kd=0.001),
    )
    if offset != 0.0:
        (trace,) = execute_archetype(replace(
            cfg, archetype="lateral_offset", lateral_offset=offset, lateral_leader_speed=leader_speed,
        ))
    else:
        trace = run_scenario(cfg)
    ts = [r.t for r in trace.records]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for r in trace.records:
        assert 0.0 <= r.steering_pwm <= 180.0
        assert 0.0 <= r.throttle_pwm <= 180.0
        assert math.isfinite(r.follower_x) and math.isfinite(r.follower_y)
        assert -math.pi <= r.follower_heading < math.pi
        assert r.follow_dist_m >= 0.0
        assert r.op_count >= 0


def test_trace_at_the_runaway_guard_fits_the_documented_budget():
    """tracemalloc bytes per kept record of a 1000-record moving-leader run,
    where every record holds floats of its own, times the guard stay within
    the budget the README states. No wall clock takes part."""
    row = next(line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
               if line.startswith("| `duration` |"))
    assert "<= 1e6" in row and "512 MiB" in row and MAX_RECORDS == 1e6
    (cfg,) = load_scenario(LATERAL_MOVING).runs()
    run_scenario(replace(cfg, duration=0.1))  # first-call caches are not per-record cost
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_scenario(cfg)
        gc.collect()
        per_record = (tracemalloc.get_traced_memory()[0] - before) / len(trace.records)
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 1000
    assert per_record * MAX_RECORDS <= TRACE_BUDGET_BYTES, f"{per_record:.0f} bytes per record"
