from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from followsim import (
    Aggregate,
    FuzzyError,
    MembershipFunction,
    PID_STEP_OPS,
    count_fuzzy_ops,
    default_fuzzy_config,
    defuzz_centroid,
    fuzzify,
    fuzzy_step,
    infer,
    scale_output,
)
from followsim.fuzzy import MAX_GRID_POINTS, _has_positive_sample


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
        mf = MembershipFunction.triangle(-1.0, 0.5, 2.0)
        assert mf.membership(0.5) == 1.0

    def test_fifty_percent_crossing(self):
        left = MembershipFunction.triangle(-2.0, -1.0, 0.0)
        right = MembershipFunction.triangle(-1.0, 0.0, 1.0)
        assert left.membership(-0.5) == 0.5
        assert right.membership(-0.5) == 0.5

    def test_trapezoid_core(self):
        mf = MembershipFunction.trapezoid(0.0, 1.0, 2.0, 4.0)
        assert mf.membership(1.5) == 1.0
        assert mf.membership(3.0) == 0.5
        assert mf.shape == "trapezoidal"

    def test_zero_width_edges_act_as_steps(self):
        mf = MembershipFunction.triangle(0.0, 0.0, 1.0)
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
        mf = MembershipFunction.triangle(a, a + spread1, a + spread1 + spread2)
        want = oracle_membership(mf.breakpoints, x)
        assert mf.membership(x) == pytest.approx(want, abs=1e-12)
        assert 0.0 <= mf.membership(x) <= 1.0

    @pytest.mark.parametrize("pts", [(1.0, 0.0, 2.0), (0.0, 1.0), (0, 1, 2, 3, 4)])
    def test_bad_breakpoints_rejected(self, pts):
        with pytest.raises(FuzzyError):
            MembershipFunction(pts)


class TestFuzzify:
    def test_degrees_and_clamping(self):
        config = default_fuzzy_config(100.0, 100.0)
        degrees = fuzzify(0.0, config.error_sets, config.error_universe)
        assert degrees["Z"] == 1.0
        assert sum(1 for d in degrees.values() if d > 0) == 1
        # out-of-universe input clamps to the edge set
        edge = fuzzify(1e9, config.error_sets, config.error_universe)
        assert edge["PL"] == 1.0

    def test_adjacent_overlap_sums_to_one(self):
        config = default_fuzzy_config(100.0, 100.0)
        for x in (-80.0, -30.0, 12.5, 60.0, 99.0):
            degrees = fuzzify(x, config.error_sets, config.error_universe)
            assert sum(degrees.values()) == pytest.approx(1.0, abs=1e-12)


class TestInfer:
    def test_single_rule_identity(self):
        config = default_fuzzy_config(1.0, 1.0)
        e = {label: (1.0 if label == "Z" else 0.0) for label in config.error_sets}
        d = dict(e)
        agg = infer(config, e, d)
        want = config.output_sets["Z"].on_grid(agg.universe)
        assert np.array_equal(agg.membership, want)

    def test_half_strength_clips(self):
        config = default_fuzzy_config(1.0, 1.0)
        e = {label: (0.5 if label == "Z" else 0.0) for label in config.error_sets}
        agg = infer(config, e, dict(e))
        assert agg.membership.max() == 0.5

    def test_pointwise_max_against_grid_oracle(self):
        config = default_fuzzy_config(1.0, 1.0)
        e_deg = fuzzify(0.3, config.error_sets, config.error_universe)
        d_deg = fuzzify(-0.6, config.delta_sets, config.delta_universe)
        agg = infer(config, e_deg, d_deg)
        for i, u in enumerate(agg.universe):
            want = 0.0
            for (el, dl), out in config.rules.items():
                strength = min(e_deg[el], d_deg[dl])
                want = max(want, min(strength, config.output_sets[out].membership(float(u))))
            assert agg.membership[i] == pytest.approx(want, abs=1e-12)


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
        grid = np.linspace(-1.0, 1.0, 401)
        mf = MembershipFunction.triangle(0.1, 0.3, 0.5)
        membership = np.minimum(mf.on_grid(grid), 0.6)
        assert defuzz_centroid(Aggregate(grid, membership)) == pytest.approx(0.3, abs=1e-9)

    def test_asymmetric_aggregate_matches_fine_integration(self):
        config = default_fuzzy_config(1.0, 1.0)
        e_deg = fuzzify(0.55, config.error_sets, config.error_universe)
        d_deg = fuzzify(0.2, config.delta_sets, config.delta_universe)
        agg = infer(config, e_deg, d_deg)

        def aggregate_fn(u):
            best = 0.0
            for (el, dl), out in config.rules.items():
                strength = min(e_deg[el], d_deg[dl])
                best = max(best, min(strength, config.output_sets[out].membership(u)))
            return best

        got = defuzz_centroid(agg)
        lo, hi = config.output_universe
        want = fine_grid_centroid(aggregate_fn, lo, hi, 10 * config.grid_points)
        assert abs(got - want) <= 1e-3 * (hi - lo)

    def test_all_zero_aggregate_rejected(self):
        grid = np.linspace(-1, 1, 201)
        with pytest.raises(FuzzyError):
            defuzz_centroid(Aggregate(grid, np.zeros_like(grid)))


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
            "N": MembershipFunction.triangle(-1.0, -0.6, -0.2),
            "P": MembershipFunction.triangle(0.2, 0.6, 1.0),
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

    def test_gap_between_samples_rejected(self):
        # the hole (0.0025, 0.005) is narrower than 1/256 of the universe
        sets = {
            "N": MembershipFunction.triangle(-2.0, -1.0, 0.0025),
            "P": MembershipFunction.triangle(0.005, 1.0, 2.0),
        }
        with pytest.raises(FuzzyError, match="uncovered"):
            self._with_error_sets(sets)

    def test_closed_cores_meeting_at_a_point_cover(self):
        # both sets reach zero only at 0, where their closed cores give grade 1
        sets = {
            "N": MembershipFunction.trapezoid(-2.0, -1.0, 0.0, 0.0),
            "P": MembershipFunction.trapezoid(0.0, 0.0, 1.0, 2.0),
        }
        config = self._with_error_sets(sets)
        assert fuzzify(0.0, config.error_sets, config.error_universe) == {"N": 1.0, "P": 1.0}

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
        sets = dict(config.output_sets, Z=MembershipFunction.trapezoid(-0.0001, 0.0, 0.0, 0.0001))
        assert fuzzy_step(replace(config, output_sets=sets), 0.0, 0.0) == 0.0

    def test_scale_must_be_positive(self):
        with pytest.raises(FuzzyError):
            scale_output(default_fuzzy_config(1.0, 1.0), 0.0)


def test_fuzzy_costs_more_ops_than_pid():
    fuzzy_ops = count_fuzzy_ops(default_fuzzy_config(160.0, 600.0))
    assert fuzzy_ops > PID_STEP_OPS
    assert fuzzy_ops > 100 * PID_STEP_OPS  # the gap is structural, not marginal


@given(
    points=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=4).map(sorted),
    n=st.integers(2, 300),
)
@settings(max_examples=200, deadline=None)
def test_positive_sample_lookup_matches_membership(points, n):
    mf = MembershipFunction(tuple(points))
    grid = np.linspace(-1.0, 1.0, n)
    assert _has_positive_sample(mf, grid) == any(mf.on_grid(grid) > 0.0)
