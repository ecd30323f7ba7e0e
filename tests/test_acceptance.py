"""Acceptance criteria for the whole package, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assert failing marks that criterion red.
"""
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import STEADY_STATE_PX, make_record
from followsim import (
    PidConfig,
    PidState,
    Trace,
    VehicleParams,
    VehicleState,
    compare,
    default_fuzzy_config,
    default_scenario,
    format_report,
    fuzzy_step,
    load_scenario,
    observe,
    pid_step,
    execute_archetype,
    read_trace_csv,
    scale_output,
    step_bicycle,
    trace_metrics,
    write_trace_csv,
)
from followsim.cli import main
from followsim.metrics import objective_value
from followsim.scenario import parse_scenario_text
from followsim.sensor import CameraIntrinsics, TargetPanel

ACCEPT = settings(max_examples=1000, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS", flush=True)


# ---------------------------------------------------------------------------
# 1. kinematics oracle


def test_criterion_1_kinematics_matches_circular_arc():
    started = time.perf_counter()
    params = VehicleParams()
    rng = random.Random(20240901)
    dt, horizon = 1e-3, 10.0
    for _ in range(20):
        steer = rng.uniform(-params.max_steer_angle, params.max_steer_angle)
        v = rng.uniform(0.2, params.max_speed)
        start = VehicleState(rng.uniform(-5, 5), rng.uniform(-5, 5),
                             rng.uniform(-math.pi, math.pi), speed=v)
        state = start
        for _ in range(int(horizon / dt)):
            state = step_bicycle(state, params, steer, v, dt)
        # closed form: circle of radius L/tan(delta), yaw rate v/R
        if steer == 0.0:
            want_x = start.x + v * horizon * math.cos(start.heading)
            want_y = start.y + v * horizon * math.sin(start.heading)
        else:
            radius = params.wheelbase / math.tan(steer)
            h1 = start.heading + v / radius * horizon
            want_x = start.x + radius * (math.sin(h1) - math.sin(start.heading))
            want_y = start.y - radius * (math.cos(h1) - math.cos(start.heading))
        assert math.hypot(state.x - want_x, state.y - want_y) < 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"kinematics oracle took {elapsed:.1f}s"
    _ok(1, "kinematics-arc-oracle")


# ---------------------------------------------------------------------------
# 2. defuzzification oracle


def _interp_membership(breakpoints, xs):
    """Vectorized piecewise-linear oracle, independent of the library path."""
    if len(breakpoints) == 3:
        xp, fp = list(breakpoints), [0.0, 1.0, 0.0]
    else:
        xp, fp = list(breakpoints), [0.0, 1.0, 1.0, 0.0]
    return np.interp(xs, xp, fp)


def _random_config(rng: random.Random):
    span = rng.uniform(0.5, 200.0)
    config = default_fuzzy_config(span, rng.uniform(0.5, 200.0),
                                  output_span=rng.uniform(0.5, 10.0))
    # stretch feet outward so sets go asymmetric but never lose coverage
    def stretched(sets):
        out = {}
        for label, mf in sets.items():
            a, b, c = mf.breakpoints
            half = (c - a) / 2.0
            out[label] = type(mf)((a - rng.uniform(0, half), b, c + rng.uniform(0, half)))
        return out

    config = replace(
        config,
        error_sets=stretched(config.error_sets),
        delta_sets=stretched(config.delta_sets),
        output_sets=stretched(config.output_sets),
    )
    return scale_output(config, rng.uniform(0.2, 5.0))


def test_criterion_2_centroid_matches_fine_integration():
    started = time.perf_counter()
    rng = random.Random(7)
    for _ in range(100):
        config = _random_config(rng)
        e_lo, e_hi = config.error_universe
        d_lo, d_hi = config.delta_universe
        e = rng.uniform(e_lo * 1.1, e_hi * 1.1)
        d = rng.uniform(d_lo * 1.1, d_hi * 1.1)
        got = fuzzy_step(config, e, d)

        # oracle: rebuild the aggregate on a 10x grid and integrate trapezoidally
        e_c = min(max(e, e_lo), e_hi)
        d_c = min(max(d, d_lo), d_hi)
        lo, hi = config.output_universe
        fine = np.linspace(lo, hi, 10 * config.grid_points)
        aggregate = np.zeros_like(fine)
        for (el, dl), out in config.rules.items():
            strength = min(
                float(_interp_membership(config.error_sets[el].breakpoints, e_c)),
                float(_interp_membership(config.delta_sets[dl].breakpoints, d_c)),
            )
            if strength > 0.0:
                curve = _interp_membership(config.output_sets[out].breakpoints, fine)
                aggregate = np.maximum(aggregate, np.minimum(curve, strength))
        want = np.trapezoid(fine * aggregate, fine) / np.trapezoid(aggregate, fine)
        assert abs(got - want) <= 1e-3 * (hi - lo), f"centroid off by {abs(got - want):g}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"defuzz oracle took {elapsed:.1f}s"
    _ok(2, "defuzz-centroid-oracle")


# ---------------------------------------------------------------------------
# 3. and 4. the steering-difficulty phenomena


@pytest.mark.parametrize("family", ["pid", "fuzzy"])
def test_criterion_3_stationary_leader_stops_misaligned(family):
    base = default_scenario("fig5", steering_kind=family, throttle_kind=family)
    (trace,) = execute_archetype(replace(base, archetype="lateral_offset",
                                         lateral_offset=1.0, lateral_leader_speed=0.0))
    # the run must end on the stillness condition, not the duration cap
    assert trace.stop_reason == "follower_stationary"
    assert abs(trace.records[-1].pixel_error_x) > STEADY_STATE_PX
    _ok(3, f"stationary-offset-fails-to-align ({family})")


@pytest.mark.parametrize("family", ["pid", "fuzzy"])
def test_criterion_4_moving_leader_reaches_steady_state(family):
    base = default_scenario("fig6", steering_kind=family, throttle_kind=family)
    (trace,) = execute_archetype(replace(base, archetype="lateral_offset",
                                         lateral_offset=1.0, lateral_leader_speed=1.0))
    tail = trace.records[int(0.8 * len(trace.records)):]
    mean_abs = sum(abs(r.pixel_error_x) for r in tail) / len(tail)
    assert mean_abs < STEADY_STATE_PX, f"{family} tail error {mean_abs:.2f}px"
    _ok(4, f"moving-leader-aligns ({family})")


# ---------------------------------------------------------------------------
# 5. step responses depend on the starting distance


def test_criterion_5_step_response_depends_on_separation():
    traces = execute_archetype(default_scenario("steps", archetype="step_response",
                                                step_separations=(1.0, 2.0, 4.0)))
    transients = []
    for trace in traces:
        m = trace_metrics(trace, "throttle")
        transients.append((m.rise_time, m.settling_time))

    def distinct(a, b):
        return any(
            (math.isnan(x) != math.isnan(y)) or (not math.isnan(x) and abs(x - y) > 1e-9)
            for x, y in zip(a, b)
        )

    assert distinct(transients[0], transients[1])
    assert distinct(transients[0], transients[2])
    assert distinct(transients[1], transients[2])
    _ok(5, "step-response-separation-dependence")


# ---------------------------------------------------------------------------
# 6. fuzzy costs more resources on every default scenario


def test_criterion_6_fuzzy_costs_more_ops():
    scenarios = {
        "equilibrium": default_scenario("equilibrium", duration=2.0),
        "lateral_moving": replace(
            default_scenario("lateral_moving", duration=6.0),
            archetype="lateral_offset",
        ),
        "throttle_step": replace(
            default_scenario("throttle_step", duration=6.0),
            archetype="step_response", step_separations=(3.0,),
        ),
    }
    for name, cfg in scenarios.items():
        pair = {}
        for family in ("pid", "fuzzy"):
            variant = replace(cfg, steering_kind=family, throttle_kind=family)
            (pair[family],) = execute_archetype(variant)
        report = compare(pair["pid"], pair["fuzzy"])
        assert report.fuzzy.mean_op_count > report.pid.mean_op_count, name
        rendered = format_report(report)
        row = next(line for line in rendered.splitlines() if "mean_op_count" in line)
        assert "pid" in row  # the cheaper controller wins the resource row
    _ok(6, "fuzzy-needs-more-resources")


# ---------------------------------------------------------------------------
# 7. compare determinism at the byte level


def _strip_loop_cost(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    idx = lines[0].split(",").index("loop_cost_us")
    return "\n".join(
        ",".join(cell for j, cell in enumerate(line.split(",")) if j != idx)
        for line in lines
    )


def test_criterion_7_compare_byte_identical(tmp_path):
    scn = tmp_path / "det.scn"
    scn.write_text(
        "archetype = lateral_offset\nlateral.offset = 1\nlateral.leader_speed = 1\n"
        "duration = 6\nseed = 11\ncamera.jitter_px = 0.5\n"
    )
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["compare", "--scenario", str(scn), "--out", str(out1)]) == 0
    assert main(["compare", "--scenario", str(scn), "--out", str(out2)]) == 0
    # every file under --out: trace CSVs up to their wall-clock column,
    # plots and the report byte for byte
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert {Path(n).suffix for n in names} == {".csv", ".svg", ".md"}
    for name in names:
        if name.endswith(".csv"):
            assert _strip_loop_cost(out1 / name) == _strip_loop_cost(out2 / name)
        else:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _ok(7, "compare-byte-determinism")


# ---------------------------------------------------------------------------
# 8. the named invariant properties, 1000 cases each


@given(
    kp=st.floats(0.0, 5.0),
    ki=st.floats(0.0, 5.0),
    kd=st.floats(0.0, 5.0),
    output_limit=st.floats(0.1, 50.0),
    frac=st.floats(0.01, 1.0),
    steps=st.lists(st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)),
                   min_size=1, max_size=12),
)
@ACCEPT
def test_criterion_8a_pid_saturation_bounds(kp, ki, kd, output_limit, frac, steps):
    config = PidConfig(kp=kp, ki=ki, kd=kd, output_limit=output_limit,
                       integral_limit=frac * output_limit)
    state = PidState()
    for error, measurement in steps:
        effort, state = pid_step(config, state, error, measurement, 0.02)
        assert abs(effort) <= config.output_limit
        assert abs(config.ki * state.integral) <= config.integral_limit * (1 + 1e-12)


@given(
    e=st.floats(-1.5, 1.5),
    d=st.floats(-1.5, 1.5),
    k=st.floats(0.01, 100.0),
    span=st.floats(0.2, 5.0),
)
@ACCEPT
def test_criterion_8b_centroid_homogeneity(e, d, k, span):
    config = default_fuzzy_config(1.0, 1.0, output_span=span, grid_points=201)
    scaled = scale_output(config, k)
    assert fuzzy_step(scaled, e, d) == pytest.approx(
        k * fuzzy_step(config, e, d), rel=1e-9, abs=1e-12
    )


@given(
    b1=st.floats(-0.63, 0.63),
    b2=st.floats(-0.63, 0.63),
    dist=st.floats(0.4, 15.0),
)
@ACCEPT
def test_criterion_8c_projection_monotonicity(b1, b2, dist):
    if abs(b1 - b2) < 1e-9:
        return
    cam = CameraIntrinsics()
    panel = TargetPanel()
    xs = []
    for b in sorted((b1, b2)):
        leader = VehicleState(dist * math.cos(b), dist * math.sin(b), 0.0)
        reading = observe(cam, VehicleState(0, 0, 0), leader, panel, 0.0)
        assert reading is not None
        xs.append(reading.x_px)
    assert xs[0] < xs[1]


_finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
_records = st.lists(
    st.builds(
        make_record,
        t=_finite,
        pixel_error_x=_finite,
        area_error=_finite,
        steering_pwm=st.floats(0, 180),
        throttle_pwm=st.floats(0, 180),
        lateral_dev_m=_finite,
        follow_dist_m=_finite,
        detected=st.booleans(),
        loop_cost_us=st.floats(0, 1e6),
        op_count=st.integers(0, 10**9),
    ),
    max_size=4,
)


@pytest.fixture(scope="module")
def roundtrip_file(tmp_path_factory):
    return tmp_path_factory.mktemp("acc") / "roundtrip.csv"


@given(records=_records)
@ACCEPT
def test_criterion_8d_csv_round_trip_identity(roundtrip_file, records):
    write_trace_csv(Trace("roundtrip", records), roundtrip_file)
    first = roundtrip_file.read_bytes()
    write_trace_csv(read_trace_csv(roundtrip_file), roundtrip_file)
    assert roundtrip_file.read_bytes() == first


@given(
    offset=st.floats(0.05, 1.2),
    speed=st.floats(0.0, 2.0),
)
@ACCEPT
def test_criterion_8e_lateral_mirror_symmetry(offset, speed):
    base = default_scenario("mirror", duration=0.6)
    base = replace(base, archetype="lateral_offset", lateral_leader_speed=speed)
    (left,) = execute_archetype(replace(base, lateral_offset=offset))
    (right,) = execute_archetype(replace(base, lateral_offset=-offset))
    assert len(left.records) == len(right.records)
    for a, b in zip(left.records, right.records):
        assert a.pixel_error_x == pytest.approx(-b.pixel_error_x, abs=1e-6)
        assert a.steering_pwm - 90.0 == pytest.approx(-(b.steering_pwm - 90.0), abs=1e-6)
        assert a.throttle_pwm == pytest.approx(b.throttle_pwm, abs=1e-9)


def test_criterion_8_summary():
    _ok(8, "invariant-suite-1000-cases-each")


# ---------------------------------------------------------------------------
# 9. tuner sanity on the throttle step scenario


def test_criterion_9_grid_search_minimizes_itae(tmp_path):
    scn = tmp_path / "step.scn"
    scn.write_text(
        "name = tunecheck\nduration = 8\ncontroller.steering.locked = true\n"
        "follower.start.x = -3\nfollower.start.y = 0\n"
    )
    grid = tmp_path / "g.grid"
    grid.write_text(
        "kp = 0.0006, 0.0009, 0.0012, 0.0018, 0.0024\n"
        "ki = 0.0001, 0.0002, 0.0003, 0.0005, 0.0008\n"
        "kd = 0.0002, 0.0005, 0.001\n"
    )
    out = tmp_path / "out"
    assert main(["tune", "--scenario", str(scn), "--channel", "throttle",
                 "--grid", str(grid), "--objective", "itae", "--out", str(out)]) == 0

    results = (out / "tune_results.csv").read_text().splitlines()
    assert len(results) == 1 + 75  # header + 5*5*3 candidates
    header = results[0].split(",")
    score_col = header.index("itae")
    file_col = header.index("trace_file")

    dt = load_scenario(scn).dt
    reported = []
    recomputed = []
    for line in results[1:]:
        cells = line.split(",")
        reported.append(float(cells[score_col]))
        trace = read_trace_csv(out / cells[file_col])
        recomputed.append(objective_value(trace, "throttle", "itae", dt))
    for want, got in zip(reported, recomputed):
        assert got == pytest.approx(want, rel=1e-6)
    # trace CSVs carry 9 significant digits; allow that much slack on the min
    assert reported[0] <= min(recomputed) * (1 + 1e-6)
    _ok(9, "grid-search-itae-minimum")


# guard: the acceptance scenarios really are the shipped defaults
def test_defaults_are_what_acceptance_ran():
    cfg = default_scenario("check")
    parsed = parse_scenario_text("")
    assert parsed.steering_pid == cfg.steering_pid
    assert parsed.throttle_pid == cfg.throttle_pid
    assert parsed.setpoint_area == pytest.approx(cfg.setpoint_area)
