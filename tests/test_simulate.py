import gc
import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from dataclasses import replace
from functools import cached_property, partial
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STEADY_STATE_PX, overflowing_pid_config
from test_world import frozen_lateral_deviation, frozen_leader_pose, frozen_progress
from followsim import (
    CameraIntrinsics,
    LeaderScript,
    ScenarioError,
    TargetPanel,
    Trace,
    TraceRecord,
    VehicleState,
    default_scenario,
    execute_archetype,
    load_scenario,
    parse_scenario_text,
    run_scenario,
)
from followsim import actuation, simulate, world
from followsim.actuation import NEUTRAL_PWM, ChannelController, pwm_to_actuation
from followsim.scenario import DEFAULT_STEERING_PID, DEFAULT_THROTTLE_PID, MAX_RECORDS
from followsim.sensor import area_error, observe, pixel_error_x
from followsim.world import integrate_bicycle, place_behind

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

    def test_two_runs_of_a_jittered_config_are_equal(self, base_scenario):
        cfg = default_scenario("det", duration=2.0,
                               camera=replace(base_scenario.camera, jitter_px=1.0))
        assert run_scenario(cfg) == run_scenario(cfg)

    def test_loop_cost_is_a_positive_int_outside_equality(self, base_scenario):
        trace = run_scenario(replace(base_scenario, duration=2.0))
        assert type(trace.loop_cost_ns) is int and trace.loop_cost_ns > 0
        assert trace == replace(trace, loop_cost_ns=0)

    def test_seed_changes_jittered_run(self, base_scenario):
        camera = replace(base_scenario.camera, jitter_px=2.0)
        base = default_scenario("j", duration=2.0, camera=camera,
                                leader=LeaderScript(kind="straight_line",
                                                    start=VehicleState(0, 0, 0),
                                                    speed_profile=1.0))
        a = run_scenario(replace(base, seed=1))
        b = run_scenario(replace(base, seed=2))
        assert a.records != b.records

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
    def passes(monkeypatch, config):
        """(vertex count, track lengths) of each call of the per-run pass."""
        calls = []
        measure = simulate.track_deviations

        def counting(followers, vertices, passed, leaders):
            calls.append((len(vertices), [int(p) + 2 for p in passed]))
            return measure(followers, vertices, passed, leaders)

        monkeypatch.setattr(simulate, "track_deviations", counting)
        (trace,) = execute_archetype(config)
        assert len(calls) == 1  # once per run, over every record
        assert len(calls[0][1]) == len(trace.records)
        return calls[0]

    def test_track_bounded_on_long_straight_run(self, monkeypatch):
        cfg = replace(load_scenario(S_CURVE), duration=80.0,
                      leader=LeaderScript(kind="straight_line", speed_profile=1.0))
        vertices, lengths = self.passes(monkeypatch, cfg)
        assert vertices == 2  # the lane's tail and the start: no waypoints
        assert max(lengths) <= 3

    def test_track_bounded_on_waypoint_path(self, monkeypatch):
        cfg = load_scenario(S_CURVE)
        vertices, lengths = self.passes(monkeypatch, cfg)
        assert vertices <= len(cfg.leader.segments) + 2
        assert max(lengths) <= len(cfg.leader.waypoints) + 3

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

    @pytest.mark.parametrize("kind", ["pid", "fuzzy"])
    def test_columns_match_the_per_record_definitions(self, kind):
        """Every record's lateral_dev_m and follow_dist_m carry the bits that
        lateral_deviation on the record's cut track and math.hypot of the
        leader's offset gave when the loop worked them out record by record.
        The leader starts at -0.0, stops on its first corner, then drives on
        at two more speeds past a repeated waypoint to the end of its path."""
        leader = LeaderScript(kind="waypoint_path", start=VehicleState(-0.0, -0.0, 0.0),
                              speed_profile=((0.0, 0.5), (4.0, 0.0), (5.0, 0.9), (7.0, 0.4)),
                              waypoints=((2.0, -0.0), (3.0, 1.0), (3.0, 1.0), (5.0, 1.0)))
        cfg = replace(load_scenario(S_CURVE), archetype="scenario", leader=leader,
                      duration=12.0, steering_kind=kind, throttle_kind=kind,
                      follower_start=place_behind(leader.start, 1.5, -0.0))
        (trace,) = execute_archetype(cfg)
        leader0 = frozen_leader_pose(leader, 0.0)
        back = 10.0 * max(cfg.follow_range, 1.0)
        tail = (leader0.x - back * math.cos(leader0.heading),
                leader0.y - back * math.sin(leader0.heading))
        corners = ((leader.start.x, leader.start.y), *(q for _, q, _, _ in leader.segments))
        corner_s = list(accumulate((length for _, _, length, _ in leader.segments), initial=0.0))
        cut = [bisect_right(corner_s, frozen_progress(leader, r.t)[0]) for r in trace.records]
        assert set(cut) == {1, 2, 3, 4}  # every corner is passed, the last one is the end
        for r, passed in zip(trace.records, cut):
            follower = VehicleState(r.follower_x, r.follower_y)
            want = frozen_lateral_deviation(follower, (tail, *corners[:passed],
                                                       (r.leader_x, r.leader_y)))
            assert r.lateral_dev_m.hex() == want.hex()
            gap = math.hypot(r.leader_x - r.follower_x, r.leader_y - r.follower_y)
            assert r.follow_dist_m.hex() == gap.hex()


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
    move reuses the previous record's camera reading; any other record senses
    afresh. The distances are worked out for every record after the run."""

    @staticmethod
    def observe_calls(monkeypatch, config):
        calls = []
        real = simulate.observe

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "observe", counting)
        (trace,) = execute_archetype(config)
        records = trace.records
        pose = lambda r: (r.follower_x, r.follower_y, r.follower_heading)  # noqa: E731
        still = sum(1 for a, b in zip(records, records[1:]) if pose(a) == pose(b))
        assert still > 0  # every case below has records in which the follower stood still
        return len(calls), len(records), still

    def test_parked_leader_senses_once_per_move(self, monkeypatch):
        calls, records, still = self.observe_calls(monkeypatch, load_scenario(THROTTLE_STEP))
        assert calls == records - still

    def test_jitter_senses_every_record(self, monkeypatch):
        cfg = load_scenario(THROTTLE_STEP)
        cfg = replace(cfg, camera=replace(cfg.camera, jitter_px=1.0))
        calls, records, _ = self.observe_calls(monkeypatch, cfg)
        assert calls == records

    def test_moving_leader_senses_every_record(self, monkeypatch):
        # the leader drives off once the follower has stopped behind it
        cfg = load_scenario(THROTTLE_STEP)
        cfg = replace(cfg, leader=LeaderScript(kind="straight_line", start=cfg.leader.start,
                                               speed_profile=((0.0, 0.0), (8.0, 0.5))))
        calls, records, _ = self.observe_calls(monkeypatch, cfg)
        assert calls == records


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

    def test_no_distance_is_worked_out_per_record(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a per-record distance call")

        for module in (simulate, world):
            if hasattr(module, "lateral_deviation"):
                monkeypatch.setattr(module, "lateral_deviation", refuse)
        for path in (S_CURVE, THROTTLE_STEP, LATERAL_MOVING):
            assert all(trace.records for trace in execute_archetype(load_scenario(path)))

    def test_bookkeeping_blocks_give_the_same_records(self, monkeypatch):
        # s_curve's 900 records in blocks of 7, with a last block of 4
        cfg = load_scenario(S_CURVE)
        (whole,) = execute_archetype(cfg)
        monkeypatch.setattr(simulate, "BOOKKEEPING_BLOCK", 7)
        (blocked,) = execute_archetype(cfg)
        assert len(blocked.records) == 900
        assert blocked.records == whole.records

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


def frozen_bookkeeping(config, records):
    """simulate._bookkeeping before it went by column, kept verbatim as the
    oracle of the records it builds, with the scalar leader walks that
    stood then."""
    script = config.leader
    leader0 = frozen_leader_pose(script, 0.0)
    back = 10.0 * max(config.follow_range, 1.0)
    tail = (leader0.x - back * math.cos(leader0.heading),
            leader0.y - back * math.sin(leader0.heading))
    vertices = (tail, (script.start.x, script.start.y),
                *(q for _, q, _, _ in script.segments))
    corner_s = accumulate((length for _, _, length, _ in script.segments), initial=0.0)
    first = [bisect_left(records, s, key=lambda row: frozen_progress(script, row[0])[0])
             for s in corner_s]
    new = tuple.__new__
    for lo in range(0, len(records), simulate.BOOKKEEPING_BLOCK):
        rows = records[lo:lo + simulate.BOOKKEEPING_BLOCK]
        passed = np.searchsorted(first, np.arange(lo, lo + len(rows)), side="right")
        positions = chain.from_iterable(map(itemgetter(1, 2, 3, 4), rows))
        lx, ly, fx, fy = np.fromiter(positions, float, 4 * len(rows)).reshape(-1, 4).T
        lateral_dev = world.track_deviations((fx, fy), vertices, passed, (lx, ly))
        with np.errstate(over="ignore"):
            follow_dist = map(math.hypot, (lx - fx).tolist(), (ly - fy).tolist())
        records[lo:lo + len(rows)] = [new(TraceRecord, (*row[:10], lateral, gap, *row[10:]))
                                      for row, lateral, gap in zip(rows, lateral_dev, follow_dist)]


def frozen_run_scenario(config):
    """run_scenario before it read its config once per run and worked out
    the errors inline, kept verbatim as the bit-exact oracle of the loop but
    for the wall clock it read around sensing and control, with the scalar
    leader walks that stood then."""
    dt = config.dt
    n_records = config.n_records
    sub_steps = config.sub_steps
    sub_dt = dt / sub_steps
    rng = random.Random(config.seed)

    steering = None if config.steering_locked else ChannelController(*config.controller("steering"))
    throttle = ChannelController(*config.controller("throttle"))

    follower = config.follower_start
    steering_pwm = throttle_pwm = NEUTRAL_PWM
    pe = 0.0
    ae = 0.0
    script = config.leader
    parked = script.kind == "stationary"
    leader0 = frozen_leader_pose(script, 0.0)
    records = []
    stop_reason = None
    still_time = 0.0
    reuse_sensing = parked and not config.camera.jitter_px
    sensed = None

    for k in range(n_records):
        t = k * dt
        leader = leader0 if parked else frozen_leader_pose(script, t)

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

        if reuse_sensing:
            sensed = follower
        records.append((
            t, leader.x, leader.y, follower.x, follower.y, follower.heading, pe, ae,
            steering_pwm, throttle_pwm, reading is not None, ops,
        ))

        steer_angle, speed_cmd = pwm_to_actuation(steering_pwm, throttle_pwm, config.vehicle)
        follower = integrate_bicycle(
            follower, config.vehicle, steer_angle, speed_cmd, sub_dt, sub_steps
        )

        if parked:
            still_time = still_time + dt if follower.speed < config.stop_speed_eps else 0.0
            if still_time >= config.stop_hold_time and k + 1 < n_records:
                stop_reason = simulate.STOP_REASON_STATIONARY
                break

    frozen_bookkeeping(config, records)
    return Trace(config.name, records, stop_reason=stop_reason)


def run_bits(trace) -> tuple:
    """A trace as comparable values: each float by its hex and every other
    value with its type."""
    rows = tuple(tuple(v.hex() if type(v) is float else (type(v), v) for v in r)
                 for r in trace.records)
    return trace.name, trace.stop_reason, tuple(map(type, trace.records)), rows


@st.composite
def plain_configs(draw):
    """A short plain run: a parked, straight-line or waypoint leader with a
    start on either zero, a follower placed near, beside or facing away from
    it (so that some runs lose the target), jitter on or off (so a run makes
    an rng or none), a panel on or behind the leader's reference point,
    either lost-target policy, the steering locked or not, either family per
    channel, PID gains with ki zero of either sign or not and a derivative
    filter on or off, and stop settings that end some parked runs early."""
    kind = draw(st.sampled_from(["stationary", "straight_line", "waypoint_path"]))
    start = VehicleState(draw(st.sampled_from([0.0, -0.0, 1.5])),
                         draw(st.sampled_from([0.0, -0.0, -2.0])),
                         draw(st.sampled_from([0.0, -0.0, 0.7, -3.0])))
    if kind == "stationary":
        leader = LeaderScript(start=start)
    elif kind == "straight_line":
        profile = draw(st.sampled_from([1.0, ((0.0, 0.0), (0.6, 1.2))]))
        leader = LeaderScript("straight_line", start, speed_profile=profile)
    else:
        bend = draw(st.sampled_from([0.5, 0.0]))  # gentle, or a right angle that loses the panel
        leader = LeaderScript("waypoint_path", start, speed_profile=1.5, waypoints=(
            (start.x + 1.0, start.y), (start.x + 1.0 + bend, start.y + 3.0)))
    gap = draw(st.sampled_from([0.25, 1.0, 1.5, 3.0]))
    offset = draw(st.sampled_from([0.0, -0.0, 0.4, -1.5]))
    placed = place_behind(leader.start, gap, offset)
    follower = VehicleState(placed.x, placed.y,
                            placed.heading + draw(st.sampled_from([0.0, 0.3, -0.9, math.pi])))
    defaults = {"steering_pid": DEFAULT_STEERING_PID, "throttle_pid": DEFAULT_THROTTLE_PID}
    pid = {key: replace(config, ki=draw(st.sampled_from([0.0, -0.0, config.ki, -0.5 * config.ki])),
                        derivative_filter_alpha=draw(st.sampled_from([1.0, 0.4])))
           for key, config in defaults.items()}
    return default_scenario(
        "frozen",
        leader=leader,
        follower_start=follower,
        camera=CameraIntrinsics(jitter_px=draw(st.sampled_from([0.0, 1.5]))),
        panel=TargetPanel(rear_offset=draw(st.sampled_from([0.0, 0.3]))),
        **pid,
        duration=draw(st.sampled_from([0.02, 0.5, 2.5])),
        seed=draw(st.integers(0, 3)),
        steering_kind=draw(st.sampled_from(["pid", "fuzzy"])),
        throttle_kind=draw(st.sampled_from(["pid", "fuzzy"])),
        steering_locked=draw(st.booleans()),
        steering_filter=draw(st.sampled_from(["auto", None, 0.5])),
        lost_target_policy=draw(st.sampled_from(["hold", "stop"])),
        stop_speed_eps=draw(st.sampled_from([0.01, 0.3])),
        stop_hold_time=draw(st.sampled_from([0.1, 1.0])),
    )


class TestRunnerAgainstFrozen:
    """run_scenario gives the records the loop and bookkeeping it replaced
    gave, down to the bits, and stops for the same reason."""

    @given(plain_configs())
    @settings(max_examples=150, deadline=None)
    def test_matches_frozen_bit_for_bit(self, config):
        assert run_bits(run_scenario(config)) == run_bits(frozen_run_scenario(config))

    @staticmethod
    def path_leader():
        """A waypoint leader that stops on its first corner, then drives on
        at two more speeds past a repeated waypoint to the end of its path."""
        return LeaderScript("waypoint_path", VehicleState(-0.0, -0.0, 0.0),
                            speed_profile=((0.0, 0.5), (4.0, 0.0), (5.0, 0.9), (7.0, 0.4)),
                            waypoints=((2.0, -0.0), (3.0, 1.0), (3.0, 1.0), (5.0, 1.0)))

    def test_moving_leader_across_small_blocks_matches_frozen(self, monkeypatch):
        # 600 records in blocks of 7: the leader's poses and the bookkeeping
        # columns cross 85 block edges, at corners and past the path's end
        config = default_scenario("frozen", leader=self.path_leader(), duration=12.0)
        monkeypatch.setattr(simulate, "BOOKKEEPING_BLOCK", 7)
        got = run_scenario(config)
        assert len(got.records) == 600
        assert run_bits(got) == run_bits(frozen_run_scenario(config))

    def test_moving_leader_longer_than_one_block_matches_frozen(self):
        # 40 records past the first full block of leader poses
        n = simulate.BOOKKEEPING_BLOCK + 40
        config = default_scenario("frozen", leader=self.path_leader(), duration=n * 0.02)
        got = run_scenario(config)
        assert len(got.records) == n
        assert run_bits(got) == run_bits(frozen_run_scenario(config))

    COVERING = {
        # what each case shows: (leader kind, config overrides)
        "parked, stops early": ("stationary", dict(stop_hold_time=0.2)),
        "parked, held sensing under hold": ("stationary", dict(follower={"x": -3.0})),
        "parked, jitter, locked steering": ("stationary", dict(
            camera=CameraIntrinsics(jitter_px=1.5), steering_locked=True, duration=2.0)),
        "straight line, target lost under stop": ("straight_line", dict(
            follower={"heading": math.pi}, lost_target_policy="stop")),
        "waypoints, target lost under hold, fuzzy": ("waypoint_path", dict(
            steering_kind="fuzzy", throttle_kind="fuzzy")),
    }

    @pytest.mark.parametrize("case", COVERING)
    def test_each_covering_case_matches_frozen(self, case):
        kind, overrides = self.COVERING[case]
        leader = {
            "stationary": LeaderScript(),
            "straight_line": LeaderScript("straight_line", speed_profile=1.0),
            "waypoint_path": LeaderScript("waypoint_path", speed_profile=1.5,
                                          waypoints=((1.0, 0.0), (1.0, 3.0))),
        }[kind]
        config = default_scenario("frozen", leader=leader, **{"duration": 3.0, **overrides})
        got = run_scenario(config)
        assert run_bits(got) == run_bits(frozen_run_scenario(config))
        records = got.records
        shown = {
            "parked, stops early": got.stop_reason == simulate.STOP_REASON_STATIONARY,
            "parked, held sensing under hold": any(
                a[3:6] == b[3:6] and b.detected for a, b in zip(records, records[1:])),
            "parked, jitter, locked steering": {r.steering_pwm for r in records} == {90.0},
            "straight line, target lost under stop": any(
                not r.detected and (r.steering_pwm, r.throttle_pwm) == (90.0, 90.0)
                for r in records),
            "waypoints, target lost under hold, fuzzy": any(not r.detected for r in records),
        }[case]
        assert shown, case
