import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from followsim import (
    FuzzyConfig,
    FuzzyError,
    MembershipFunction,
    PID_STEP_OPS,
    count_fuzzy_ops,
    default_fuzzy_config,
    fuzzy_step,
    scale_output,
)
from followsim.actuation import ChannelController
from followsim.fuzzy import DEFAULT_LABELS, MAX_GRID_POINTS
from followsim.scenario import CHANNELS, load_scenario

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parents[1] / "scenarios"


def oracle_membership(breakpoints, x):
    """Brute-force piecewise-linear grade, independent of the library code."""
    if len(breakpoints) == 3:
        a, b, c = breakpoints
        lo = hi = b
    else:
        a, lo, hi, c = breakpoints
    if lo <= x <= hi:
        return 1.0
    if x <= a or x >= c:
        return 0.0
    if x < lo:
        return (x - a) / (lo - a)
    return (c - x) / (c - hi)


class TestMembershipFunction:
    def test_peak_is_one(self):
        mf = MembershipFunction((-1.0, 0.5, 2.0))
        assert mf.membership(0.5) == 1.0

    def test_fifty_percent_crossing(self):
        left = MembershipFunction((-2.0, -1.0, 0.0))
        right = MembershipFunction((-1.0, 0.0, 1.0))
        assert left.membership(-0.5) == 0.5
        assert right.membership(-0.5) == 0.5

    def test_trapezoid_core(self):
        mf = MembershipFunction((0.0, 1.0, 2.0, 4.0))
        assert mf.membership(1.5) == 1.0
        assert mf.membership(3.0) == 0.5

    def test_zero_width_edges_act_as_steps(self):
        mf = MembershipFunction((0.0, 0.0, 1.0))
        assert mf.membership(0.0) == 1.0
        assert mf.membership(-1e-9) == 0.0

    @given(
        a=st.floats(-10, 10),
        spread1=st.floats(0, 5),
        spread2=st.floats(0, 5),
        x=st.floats(-25, 25),
    )
    @settings(max_examples=300)
    def test_matches_piecewise_linear_oracle(self, a, spread1, spread2, x):
        mf = MembershipFunction((a, a + spread1, a + spread1 + spread2))
        want = oracle_membership(mf.breakpoints, x)
        assert mf.membership(x) == pytest.approx(want, abs=1e-12)
        assert 0.0 <= mf.membership(x) <= 1.0

    @pytest.mark.parametrize("pts", [(1.0, 0.0, 2.0), (0.0, 1.0), (0, 1, 2, 3, 4)])
    def test_bad_breakpoints_rejected(self, pts):
        with pytest.raises(FuzzyError):
            MembershipFunction(pts)

    @given(
        points=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0)),
            min_size=3, max_size=4,
        ).map(sorted),
        extra=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)), max_size=30),
        n=st.integers(2, 60),
    )
    @settings(max_examples=300, deadline=None)
    @example(points=[0.0, 0.0, 1.0], extra=[-0.0, 0.0], n=3)  # zero-width edge at a sample
    @example(points=[-1.0, 0.0, 0.0, 1.0], extra=[-0.0], n=2)  # zero-width core
    @example(points=[-0.0, 0.0, 0.0, -0.0], extra=[0.0, -0.0, 1e-300], n=2)  # signed zeros
    def test_on_grid_matches_scalar_loop(self, points, extra, n):
        """on_grid gives the scalar membership's bits at every point, including
        -0.0 grades and points that sit exactly on a breakpoint."""
        mf = MembershipFunction(tuple(points))
        grid = np.concatenate([np.linspace(-2.5, 2.5, n), points, extra])
        want = np.array([mf.membership(float(x)) for x in grid])
        assert mf.on_grid(grid).tobytes() == want.tobytes()


def grades(sets, x):
    return {label: mf.membership(x) for label, mf in sets.items()}


class TestFuzzify:
    def test_degrees_and_clamping(self):
        config = default_fuzzy_config(100.0, 100.0)
        degrees = grades(config.error_sets, 0.0)
        assert degrees["Z"] == 1.0
        assert sum(1 for d in degrees.values() if d > 0) == 1
        # out-of-universe inputs clamp to the edge sets
        assert fuzzy_step(config, 1e9, -1e9) == fuzzy_step(config, 100.0, -100.0)

    def test_adjacent_overlap_sums_to_one(self):
        config = default_fuzzy_config(100.0, 100.0)
        for x in (-80.0, -30.0, 12.5, 60.0, 99.0):
            assert sum(grades(config.error_sets, x).values()) == pytest.approx(1.0, abs=1e-12)


def two_rule_config(output: MembershipFunction, grid_points: int = 1001) -> FuzzyConfig:
    """Error grades N = (1 - e) / 2 and P = (1 + e) / 2 on [-1, 1]; both rules
    fire output set C, so the aggregate is C clipped at max(N, P)."""
    wide = MembershipFunction((-2.0, -1.0, 1.0, 2.0))
    return FuzzyConfig(
        error_sets={"N": MembershipFunction((-2.0, -1.0, 1.0)), "P": MembershipFunction((-1.0, 1.0, 2.0))},
        delta_sets={"Z": wide},
        output_sets={"C": output, "W": wide},
        rules={("N", "Z"): "C", ("P", "Z"): "C"},
        error_universe=(-1.0, 1.0),
        delta_universe=(-1.0, 1.0),
        output_universe=(-1.0, 1.0),
        grid_points=grid_points,
    )


def aggregate_fn(config, e, d):
    """The clipped, max-aggregated output membership at any u, by scalar grades."""
    e_deg, d_deg = grades(config.error_sets, e), grades(config.delta_sets, d)

    def mu(u):
        best = 0.0
        for (el, dl), out in config.rules.items():
            strength = min(e_deg[el], d_deg[dl])
            best = max(best, min(strength, config.output_sets[out].membership(u)))
        return best

    return mu


class TestInfer:
    def test_single_rule_identity(self):
        # at (0, 0) only rule (Z, Z) fires, at full strength: the output is
        # the centroid of the Z curve itself
        config = default_fuzzy_config(1.0, 1.0)
        curve = config.output_sets["Z"].on_grid(config.output_grid)
        want = float(np.dot(config.output_grid, curve)) / float(curve.sum())
        assert fuzzy_step(config, 0.0, 0.0) == want

    def test_half_strength_clips(self):
        # the right triangle (0, 0, 1) has centroid 1/3; clipped at 0.5 it is
        # a trapezoid with centroid 7/18
        config = two_rule_config(MembershipFunction((0.0, 0.0, 1.0)))
        assert fuzzy_step(config, -1.0, 0.0) == pytest.approx(1.0 / 3.0, abs=2e-3)
        assert fuzzy_step(config, 0.0, 0.0) == pytest.approx(7.0 / 18.0, abs=2e-3)

    def test_pointwise_max_against_grid_oracle(self):
        config = default_fuzzy_config(1.0, 1.0)
        mu = np.array([aggregate_fn(config, 0.3, -0.6)(float(u)) for u in config.output_grid])
        want = float(np.dot(config.output_grid, mu)) / float(mu.sum())
        assert fuzzy_step(config, 0.3, -0.6) == pytest.approx(want, abs=1e-12)


def fine_grid_centroid(aggregate_fn, lo, hi, n):
    """Trapezoidal integration of u*mu(u) / mu(u) on an n-point grid."""
    us = np.linspace(lo, hi, n)
    mu = np.array([aggregate_fn(float(u)) for u in us])
    num = np.trapezoid(us * mu, us)
    den = np.trapezoid(mu, us)
    return num / den


class TestDefuzz:
    def test_symmetric_aggregate_centered_at_zero(self):
        config = default_fuzzy_config(1.0, 1.0)
        out = fuzzy_step(config, 0.0, 0.0)
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_clipped_symmetric_triangle_returns_center(self):
        config = two_rule_config(MembershipFunction((0.1, 0.3, 0.5)), grid_points=401)
        assert fuzzy_step(config, -0.2, 0.0) == pytest.approx(0.3, abs=1e-9)

    def test_asymmetric_aggregate_matches_fine_integration(self):
        config = default_fuzzy_config(1.0, 1.0)
        got = fuzzy_step(config, 0.55, 0.2)
        lo, hi = config.output_universe
        want = fine_grid_centroid(aggregate_fn(config, 0.55, 0.2), lo, hi, 10 * config.grid_points)
        assert abs(got - want) <= 1e-3 * (hi - lo)


def oracle_fuzzy_step(config, error, error_delta):
    """End-to-end reference evaluation sharing nothing with the library path."""
    lo, hi = config.error_universe
    error = min(max(error, lo), hi)
    lo, hi = config.delta_universe
    error_delta = min(max(error_delta, lo), hi)
    e_deg = {l: oracle_membership(mf.breakpoints, error) for l, mf in config.error_sets.items()}
    d_deg = {l: oracle_membership(mf.breakpoints, error_delta) for l, mf in config.delta_sets.items()}
    out_lo, out_hi = config.output_universe
    num = den = 0.0
    for i in range(config.grid_points):
        u = out_lo + i * (out_hi - out_lo) / (config.grid_points - 1)
        mu = 0.0
        for (el, dl), out in config.rules.items():
            strength = min(e_deg[el], d_deg[dl])
            mu = max(mu, min(strength, oracle_membership(config.output_sets[out].breakpoints, u)))
        num += u * mu
        den += mu
    return num / den


class TestFuzzyStep:
    def test_zero_inputs_zero_output(self):
        config = default_fuzzy_config(160.0, 600.0)
        assert fuzzy_step(config, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", ["error", "error_delta"])
    def test_non_finite_input_rejected(self, bad, position):
        args = {"error": 0.0, "error_delta": 0.0, position: bad}
        with pytest.raises(FuzzyError, match=f"non-finite controller input {position}$"):
            fuzzy_step(default_fuzzy_config(1.0, 1.0), **args)

    @given(e=st.floats(-200, 200), d=st.floats(-700, 700))
    @settings(max_examples=100)
    def test_sign_symmetry(self, e, d):
        config = default_fuzzy_config(160.0, 600.0)
        assert fuzzy_step(config, -e, -d) == pytest.approx(
            -fuzzy_step(config, e, d), abs=1e-9
        )

    @given(e=st.floats(-1.5, 1.5), d=st.floats(-1.5, 1.5))
    @settings(max_examples=100)
    def test_matches_end_to_end_oracle(self, e, d):
        config = default_fuzzy_config(1.0, 1.0)
        assert fuzzy_step(config, e, d) == pytest.approx(
            oracle_fuzzy_step(config, e, d), abs=1e-9
        )

    @given(e=st.floats(-2, 2), d=st.floats(-2, 2), span=st.floats(0.1, 10))
    @settings(max_examples=100)
    def test_output_within_universe_hull(self, e, d, span):
        config = default_fuzzy_config(1.0, 1.0, output_span=span)
        out = fuzzy_step(config, e, d)
        assert -span <= out <= span

    @given(
        e=st.floats(-1.5, 1.5),
        d=st.floats(-1.5, 1.5),
        k=st.floats(0.01, 100.0),
    )
    @settings(max_examples=200)
    def test_centroid_homogeneity_under_output_scaling(self, e, d, k):
        config = default_fuzzy_config(1.0, 1.0)
        scaled = scale_output(config, k)
        assert fuzzy_step(scaled, e, d) == pytest.approx(
            k * fuzzy_step(config, e, d), rel=1e-9, abs=1e-12
        )


class TestConfigValidation:
    def test_rule_table_must_be_total(self):
        config = default_fuzzy_config(1.0, 1.0)
        rules = dict(config.rules)
        del rules[("Z", "Z")]
        with pytest.raises(FuzzyError, match="not total"):
            default_fuzzy_config(1.0, 1.0).__class__(
                error_sets=config.error_sets,
                delta_sets=config.delta_sets,
                output_sets=config.output_sets,
                rules=rules,
                error_universe=config.error_universe,
                delta_universe=config.delta_universe,
                output_universe=config.output_universe,
            )

    def test_coverage_gap_rejected(self):
        sets = {
            "N": MembershipFunction((-1.0, -0.6, -0.2)),
            "P": MembershipFunction((0.2, 0.6, 1.0)),
        }  # hole around zero
        config = default_fuzzy_config(1.0, 1.0)
        with pytest.raises(FuzzyError, match="uncovered"):
            config.__class__(
                error_sets=sets,
                delta_sets=config.delta_sets,
                output_sets=config.output_sets,
                rules={(e, d): "Z" for e in sets for d in config.delta_sets},
                error_universe=(-1.0, 1.0),
                delta_universe=config.delta_universe,
                output_universe=config.output_universe,
            )

    @staticmethod
    def _with_error_sets(sets):
        config = default_fuzzy_config(1.0, 1.0)
        return config.__class__(
            error_sets=sets,
            delta_sets=config.delta_sets,
            output_sets=config.output_sets,
            rules={(e, d): "Z" for e in sets for d in config.delta_sets},
            error_universe=(-1.0, 1.0),
            delta_universe=config.delta_universe,
            output_universe=config.output_universe,
        )

    def test_variable_without_sets_rejected(self):
        with pytest.raises(FuzzyError, match="^every variable needs at least one set$"):
            self._with_error_sets({})

    def test_rule_output_must_be_an_output_set(self):
        with pytest.raises(FuzzyError, match="^rule output 'XL' is not an output set$"):
            default_fuzzy_config(1.0, 1.0, rules={("Z", "Z"): "XL"})

    def test_gap_between_samples_rejected(self):
        # the hole (0.0025, 0.005) is narrower than 1/256 of the universe
        sets = {
            "N": MembershipFunction((-2.0, -1.0, 0.0025)),
            "P": MembershipFunction((0.005, 1.0, 2.0)),
        }
        with pytest.raises(FuzzyError, match="uncovered"):
            self._with_error_sets(sets)

    def test_closed_cores_meeting_at_a_point_cover(self):
        # both sets reach zero only at 0, where their closed cores give grade 1
        sets = {
            "N": MembershipFunction((-2.0, -1.0, 0.0, 0.0)),
            "P": MembershipFunction((0.0, 0.0, 1.0, 2.0)),
        }
        config = self._with_error_sets(sets)
        assert grades(config.error_sets, 0.0) == {"N": 1.0, "P": 1.0}

    def test_grid_floor_enforced(self):
        with pytest.raises(FuzzyError):
            default_fuzzy_config(1.0, 1.0, grid_points=50)

    def test_grid_ceiling_enforced(self):
        config = default_fuzzy_config(1.0, 1.0, grid_points=MAX_GRID_POINTS)
        assert len(config.output_grid) == MAX_GRID_POINTS
        with pytest.raises(FuzzyError, match="grid_points"):
            default_fuzzy_config(1.0, 1.0, grid_points=MAX_GRID_POINTS + 1)

    def test_output_set_touching_one_sample_accepted(self):
        config = default_fuzzy_config(1.0, 1.0)
        sets = dict(config.output_sets, Z=MembershipFunction((-0.0001, 0.0, 0.0, 0.0001)))
        assert fuzzy_step(replace(config, output_sets=sets), 0.0, 0.0) == 0.0

    def test_output_set_between_samples_rejected(self):
        config = default_fuzzy_config(1.0, 1.0)
        # the grid samples 0.0 and 0.002; X lies strictly between them
        sets = dict(config.output_sets, X=MembershipFunction((0.0001, 0.0005, 0.0009)))
        with pytest.raises(FuzzyError, match="output set X has no positive sample"):
            replace(config, output_sets=sets)

    def test_scale_must_be_positive(self):
        with pytest.raises(FuzzyError):
            scale_output(default_fuzzy_config(1.0, 1.0), 0.0)

    @pytest.mark.parametrize("edits, message", [
        ({"sets": {("error", "XL"): MembershipFunction((0, 1, 2))}}, "no error set 'XL'"),
        ({"sets": {("speed", "Z"): MembershipFunction((0, 1, 2))}}, "no speed set 'Z'"),
        ({"rules": {("Z", "XL"): "Z"}}, r"no rule cell \('Z', 'XL'\)"),
        ({"rules": {("Z", "Z"): "PS"}, "output_scale": 0.0}, "scale factor must be positive"),
    ], ids=["label", "variable", "rule_cell", "scale"])
    def test_edit_outside_the_default_controller_rejected(self, edits, message):
        # a sixth output set would pass the config checks with no rule using it
        with pytest.raises(FuzzyError, match=message):
            default_fuzzy_config(1.0, 1.0, **edits)

    def test_spans_are_checked_before_the_edits(self):
        with pytest.raises(FuzzyError, match="universe spans must be positive"):
            default_fuzzy_config(1.0, 0.0, rules={("Z", "XL"): "Z"}, output_scale=0.0)

    def test_widest_output_universe_keeps_the_centroid_finite(self):
        n = 201  # a coarse grid admits the widest universe
        span = sys.float_info.max / n  # then the largest span whose n-fold is finite
        while not math.isfinite(n * span):
            span = math.nextafter(span, 0.0)
        while math.isfinite(n * math.nextafter(span, math.inf)):
            span = math.nextafter(span, math.inf)
        config = default_fuzzy_config(1.0, 1.0, output_span=span, grid_points=n)
        for error, delta in ((1.0, 1.0), (-1.0, -1.0), (0.3, -0.6), (0.0, 0.0)):
            assert math.isfinite(fuzzy_step(config, error, delta))
        with pytest.raises(FuzzyError, match=r"output universe .* overflows the centroid sum"):
            default_fuzzy_config(1.0, 1.0, output_span=math.nextafter(span, math.inf),
                                 grid_points=n)


def test_fuzzy_costs_more_ops_than_pid():
    fuzzy_ops = count_fuzzy_ops(default_fuzzy_config(160.0, 600.0))
    assert fuzzy_ops > PID_STEP_OPS
    assert fuzzy_ops > 100 * PID_STEP_OPS  # the gap is structural, not marginal


def test_op_model_is_the_grid_controllers_not_ours():
    # op_count models the paper's grid-based controller, where every rule
    # clips the whole grid; fuzzy_step's sparse evaluation must not shrink it
    assert count_fuzzy_ops(default_fuzzy_config(160.0, 600.0)) == 53149
    config = replace(load_scenario(SCENARIOS / "s_curve.scn"),
                     steering_kind="fuzzy", throttle_kind="fuzzy")
    channels = [ChannelController(*config.controller(ch)) for ch in CHANNELS]
    assert [channel.ops_per_step for channel in channels] == [53157, 53157]


def shipped_fuzzy_configs():
    configs = [default_fuzzy_config(160.0, 600.0)]
    for path in (DATA / "throttle_step_fuzzy.scn", SCENARIOS / "s_curve.scn"):
        config = load_scenario(path)
        configs += [getattr(config, f"{ch}_fuzzy") for ch in CHANNELS]
    return configs


def rule_table_supports(config):
    """Each output label the rule table uses -> its (support slice, curve view)."""
    return {label: (span, view) for row in config.rule_table for label, span, view in row}


def assert_supports_match_curves(config):
    """Each output label's support slice spans the nonzero samples of its set
    on the output grid, and its stored curve is a view over that slice of the
    set's whole sampled curve."""
    supports = rule_table_supports(config)
    assert supports.keys() == set(config.rules.values())
    for label, (span, view) in supports.items():
        curve = config.output_sets[label].on_grid(config.output_grid)
        nonzero = np.flatnonzero(curve)
        assert span == slice(nonzero[0], nonzero[-1] + 1)
        assert np.array_equal(view.base, curve)
        assert np.array_equal(view, curve[span])


@pytest.mark.parametrize("config", shipped_fuzzy_configs())
def test_shipped_support_slices_are_the_nonzero_span(config):
    assert_supports_match_curves(config)


def test_support_of_one_sample_and_of_the_whole_grid():
    config = default_fuzzy_config(1.0, 1.0)
    sets = dict(
        config.output_sets,
        Z=MembershipFunction((-0.0001, 0.0, 0.0, 0.0001)),  # grid sample 500 only
        PL=MembershipFunction((-2.0, -1.0, 1.0, 2.0)),  # past both universe ends
    )
    config = replace(config, output_sets=sets)
    assert_supports_match_curves(config)
    supports = rule_table_supports(config)
    assert supports["Z"][0] == slice(500, 501)
    assert supports["PL"][0] == slice(0, config.grid_points)
    for e, d in [(0.0, 0.0), (0.7, 0.6), (0.2, 0.9), (1.0, 1.0), (0.5, -0.25)]:
        assert fuzzy_step(config, e, d).hex() == staged_fuzzy_step(config, e, d).hex()


def staged_fuzzy_step(config, error, error_delta):
    """Frozen copy of the staged evaluation fuzzy_step replaced: fuzzify each
    input, infer over output curves built by a scalar membership loop, then
    defuzz_centroid, clamped into the output universe as fuzzy_step's
    centroid is. fuzzy_step must give the same bits."""

    def fuzzify(value, sets, universe):
        lo, hi = universe
        v = min(max(value, lo), hi)
        return {label: mf.membership(v) for label, mf in sets.items()}

    e_deg = fuzzify(error, config.error_sets, config.error_universe)
    d_deg = fuzzify(error_delta, config.delta_sets, config.delta_universe)
    lo, hi = config.output_universe
    grid = np.linspace(lo, hi, config.grid_points)
    curves = {
        label: np.array([mf.membership(float(x)) for x in grid])
        for label, mf in config.output_sets.items()
    }
    aggregate = np.zeros_like(grid)
    for (e_label, d_label), out_label in config.rules.items():
        strength = min(e_deg[e_label], d_deg[d_label])
        if strength > 0.0:
            np.maximum(aggregate, np.minimum(curves[out_label], strength), out=aggregate)
    total = float(aggregate.sum())
    if total == 0.0:
        raise FuzzyError("all-zero aggregate: rule coverage is incomplete for this input")
    return min(max(float(np.dot(grid, aggregate)) / total, lo), hi)


@st.composite
def covering_sets(draw, universe):
    """1-5 asymmetric triangles or trapezoids that cover the universe: set i
    peaks at peaks[i] and its feet stand on the neighboring peaks, the outer
    feet beyond the universe. Equal peaks give zero-width edges."""
    lo, hi = universe
    width = hi - lo
    k = draw(st.integers(1, len(DEFAULT_LABELS)))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    peaks = sorted(lo + f * width for f in fractions)
    margins = draw(st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)))
    feet = [lo - margins[0] * width, *peaks, hi + margins[1] * width]
    sets = {}
    for i, label in enumerate(DEFAULT_LABELS[:k]):
        a, b, c = feet[i : i + 3]
        if draw(st.booleans()):
            sets[label] = MembershipFunction((a, b, c))
        else:  # the core runs part of the way to the right foot
            sets[label] = MembershipFunction((a, b, b + draw(st.floats(0.0, 0.9)) * (c - b), c))
    return sets


@st.composite
def universes(draw):
    if draw(st.booleans()):
        span = draw(st.floats(0.1, 50.0))
        return (-span, span)  # samples 0.0 on an odd grid
    lo = draw(st.floats(-50.0, 50.0))
    return (lo, lo + draw(st.floats(0.1, 50.0)))


@st.composite
def fuzzy_configs(draw):
    universe = {var: draw(universes()) for var in ("error", "delta", "output")}
    sets = {var: draw(covering_sets(universe[var])) for var in universe}
    out_labels = sorted(sets["output"])
    rules = {
        (e, d): draw(st.sampled_from(out_labels))  # outputs repeat across rules
        for e in sets["error"] for d in sets["delta"]
    }
    try:
        config = FuzzyConfig(
            error_sets=sets["error"],
            delta_sets=sets["delta"],
            output_sets=sets["output"],
            rules=rules,
            error_universe=universe["error"],
            delta_universe=universe["delta"],
            output_universe=universe["output"],
            grid_points=draw(st.integers(201, 5001)),
        )
        if draw(st.booleans()):
            config = scale_output(config, draw(st.floats(0.01, 100.0)))
    except FuzzyError:  # e.g. an output set that falls between grid samples
        assume(False)
    return config


def inputs_for(sets, universe):
    """Inputs inside, on the breakpoints of, and beyond the universe."""
    lo, hi = universe
    width = hi - lo
    return st.one_of(
        st.floats(-1.0, 2.0).map(lambda f: lo + f * width),
        st.sampled_from(sorted({b for mf in sets.values() for b in mf.breakpoints})),
        st.sampled_from([0.0, -0.0, lo - 1e6 * width, hi + 1e6 * width]),
    )


@given(data=st.data(), config=fuzzy_configs())
@settings(max_examples=150, deadline=None)
def test_fuzzy_step_matches_staged_pipeline_bit_for_bit(data, config):
    errors = inputs_for(config.error_sets, config.error_universe)
    deltas = inputs_for(config.delta_sets, config.delta_universe)
    for _ in range(4):
        e, d = data.draw(errors), data.draw(deltas)
        assert fuzzy_step(config, e, d).hex() == staged_fuzzy_step(config, e, d).hex()


@given(config=fuzzy_configs())
@settings(max_examples=100, deadline=None)
def test_support_slices_match_curves(config):
    assert_supports_match_curves(config)


def assert_rule_table_matches_rules(config):
    """Input table i is the i-th set's breakpoints as (i, a, lo, hi, c), and
    rule table cell (i, j) is the rule of the i-th error and j-th delta set:
    its output label with that label's support slice and curve view."""
    for table, sets in ((config.error_table, config.error_sets),
                        (config.delta_table, config.delta_sets)):
        assert [row[0] for row in table] == list(range(len(sets)))
        for row, mf in zip(table, sets.values()):
            assert row[1:] == (*mf.breakpoints[:2], *mf.breakpoints[-2:])
    assert len(config.rule_table) == len(config.error_sets)
    supports = rule_table_supports(config)
    for row, e in zip(config.rule_table, config.error_sets):
        assert len(row) == len(config.delta_sets)
        for (label, span, curve), d in zip(row, config.delta_sets):
            assert label == config.rules[e, d]
            assert span is supports[label][0]
            assert curve is supports[label][1]


def assert_no_signed_curve_sample(config):
    """fuzzy_step clips the first fired label straight into the +0.0
    aggregate, which is exact only if min(curve, s) >= +0.0 everywhere."""
    for _, view in rule_table_supports(config).values():
        assert not np.signbit(view.base).any()


@pytest.mark.parametrize("config", shipped_fuzzy_configs())
def test_shipped_rule_tables_and_curve_signs(config):
    assert_rule_table_matches_rules(config)
    assert_no_signed_curve_sample(config)


@given(config=fuzzy_configs())
@settings(max_examples=100, deadline=None)
def test_rule_tables_match_rules_and_no_curve_sample_is_signed(config):
    assert_rule_table_matches_rules(config)
    assert_no_signed_curve_sample(config)


def fired_labels(config, e, d):
    lo, hi = config.error_universe
    e_deg = grades(config.error_sets, min(max(e, lo), hi))
    lo, hi = config.delta_universe
    d_deg = grades(config.delta_sets, min(max(d, lo), hi))
    return {out for (el, dl), out in config.rules.items() if min(e_deg[el], d_deg[dl]) > 0.0}


@pytest.mark.parametrize(
    "e, d, rules, labels",
    [
        (0.0, 0.0, None, {"Z"}),
        (-1.7, 2.0, None, {"Z"}),  # both inputs clamp to an edge set's peak
        (0.3, 0.0, None, {"Z", "PS"}),
        (0.3, 0.1, None, {"Z", "PS", "PL"}),
        (-0.8, -0.35, None, {"NL", "NS"}),  # the table clamps NL - NS to NL
        # (PS, Z) moved off the diagonal: four distinct labels
        (0.3, 0.1, {("PS", "Z"): "NL"}, {"Z", "PS", "PL", "NL"}),
        (0.3, 0.1, {("PS", "Z"): "NL", ("Z", "PS"): "NL"}, {"Z", "NL", "PL"}),
    ],
)
def test_one_to_four_fired_labels_match_staged_pipeline(e, d, rules, labels):
    """fuzzy_step clips the first fired label into the aggregate directly and
    takes each further one through the max: every label count keeps the
    staged pipeline's bits, whichever label comes first."""
    config = default_fuzzy_config(1.0, 1.0, rules=rules)
    assert fired_labels(config, e, d) == labels
    assert fuzzy_step(config, e, d).hex() == staged_fuzzy_step(config, e, d).hex()
    assert fuzzy_step(config, -e, -d).hex() == staged_fuzzy_step(config, -e, -d).hex()


@st.composite
def default_edits(draw):
    """default_fuzzy_config arguments: spans, a grid, one set edit per
    variable, one rule edit and an optional output scale. Each edited set
    widens a default triangle's support and redraws its core inside, so
    every universe stays covered and every output set keeps its samples."""
    spans = draw(st.tuples(st.floats(0.1, 1000.0), st.floats(0.1, 1000.0), st.floats(0.1, 10.0)))
    grid_points = draw(st.integers(201, 2001))
    base = default_fuzzy_config(*spans, grid_points)
    sets = {}
    for var in ("error", "delta", "output"):
        label = draw(st.sampled_from(DEFAULT_LABELS))
        a, _, c = getattr(base, f"{var}_sets")[label].breakpoints
        lo = a - draw(st.floats(0.0, 1.0)) * (c - a)
        hi = c + draw(st.floats(0.0, 1.0)) * (c - a)
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))
        core = sorted(min(lo + f * (hi - lo), hi) for f in fractions)
        sets[var, label] = MembershipFunction((lo, *core, hi))
    cell = draw(st.tuples(st.sampled_from(DEFAULT_LABELS), st.sampled_from(DEFAULT_LABELS)))
    rules = {cell: draw(st.sampled_from(DEFAULT_LABELS))}
    scale = draw(st.none() | st.floats(0.01, 100.0))
    return spans, grid_points, sets, rules, scale


@given(data=st.data(), edits=default_edits())
@settings(max_examples=100, deadline=None)
def test_builder_edits_match_the_staged_build(data, edits):
    """The one-build edits give the config, field for field, and the
    fuzzy_step bits of editing a default config's fields, then scaling it."""
    spans, grid_points, sets, rules, scale = edits
    built = default_fuzzy_config(*spans, grid_points, sets=sets, rules=rules, output_scale=scale)
    base = default_fuzzy_config(*spans, grid_points)
    edited = {
        f"{var}_sets": {**getattr(base, f"{var}_sets"),
                        **{label: mf for (v, label), mf in sets.items() if v == var}}
        for var in ("error", "delta", "output")
    }
    staged = replace(base, rules={**base.rules, **rules}, **edited)
    if scale is not None:
        staged = scale_output(staged, scale)
    for f in fields(FuzzyConfig):
        assert repr(getattr(built, f.name)) == repr(getattr(staged, f.name)), f.name
    errors = inputs_for(built.error_sets, built.error_universe)
    deltas = inputs_for(built.delta_sets, built.delta_universe)
    for _ in range(4):
        e, d = data.draw(errors), data.draw(deltas)
        assert fuzzy_step(built, e, d).hex() == fuzzy_step(staged, e, d).hex()


@pytest.mark.parametrize("config", shipped_fuzzy_configs())
def test_shipped_tables_are_read_only(config):
    """Nothing can write into the output grid or a rule table curve, the
    arrays fuzzy_step reads, so a built config stays as it was checked."""
    with pytest.raises(ValueError, match="read-only"):
        config.output_grid[0] = 0.0
    for _, view in rule_table_supports(config).values():
        for curve in (view, view.base):
            with pytest.raises(ValueError, match="read-only"):
                curve[:] = 0.0
        with pytest.raises(ValueError):
            view.flags.writeable = True


def assert_output_in_universe(config, error, error_delta):
    """A finite output inside the output universe, its ends included."""
    lo, hi = config.output_universe
    out = fuzzy_step(config, error, error_delta)
    assert math.isfinite(out)
    assert lo <= out <= hi


def test_a_centroid_on_the_universe_end_is_that_end():
    """Every rule fires NL, whose only positive grid sample is the lower end
    u = -0.235, so the aggregate is one weight w there, and u*w/w rounds to
    -0.23500000000000001 before the clamp."""
    span, grid_points = 0.235, 201
    step = 2.0 * span / (grid_points - 1)
    config = default_fuzzy_config(
        1.0, 1.0, span, grid_points,
        sets={("output", "NL"): MembershipFunction((-span - step, -span, -span + 0.05 * step))},
        rules={(e, d): "NL" for e in DEFAULT_LABELS for d in DEFAULT_LABELS})
    assert float(config.output_grid[0]) == -span
    assert fuzzy_step(config, -1.0, 0.77).hex() == (-span).hex()


_any_finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("config", shipped_fuzzy_configs())
@given(error=_any_finite, error_delta=_any_finite)
@settings(max_examples=50, deadline=None)
def test_shipped_output_stays_in_universe(config, error, error_delta):
    assert_output_in_universe(config, error, error_delta)


@given(data=st.data(), config=fuzzy_configs())
@settings(max_examples=150, deadline=None)
def test_output_stays_in_universe(data, config):
    errors = inputs_for(config.error_sets, config.error_universe) | _any_finite
    deltas = inputs_for(config.delta_sets, config.delta_universe) | _any_finite
    for _ in range(4):
        assert_output_in_universe(config, data.draw(errors), data.draw(deltas))
