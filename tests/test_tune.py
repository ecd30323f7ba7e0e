import re
from dataclasses import replace
from pathlib import Path

import pytest

from followsim import (
    TuneError,
    TuneSpec,
    default_scenario,
    load_gain_grid,
    objective_value,
    run_grid_search,
)
from followsim.pid import MAX_GAIN
from followsim.tune import candidate_filename, results_csv


def step_scenario(duration=6.0):
    cfg = default_scenario("tunestep", duration=duration, steering_locked=True)
    from followsim.world import place_behind

    return replace(cfg, follower_start=place_behind(cfg.leader.start, 3.0))


class TestTuneSpec:
    def test_pid_and_fuzzy_modes(self):
        assert TuneSpec("throttle", "itae", {"kp": (1.0,)}).mode == "pid"
        assert TuneSpec("steering", "ise", {"output_scale": (0.5, 1.0)}).mode == "fuzzy"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(channel="yaw", objective="itae", grid={"kp": (1.0,)}),
            dict(channel="steering", objective="best", grid={"kp": (1.0,)}),
            dict(channel="steering", objective="itae", grid={}),
            dict(channel="steering", objective="itae", grid={"kp": ()}),
            dict(channel="steering", objective="itae", grid={"kp": (2.0, 1.0)}),
            dict(channel="steering", objective="itae", grid={"kp": (1.0,), "output_scale": (1.0,)}),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(TuneError):
            TuneSpec(**kwargs)


class TestLoadGainGrid:
    def test_parses_lists(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("# comment\nkp = 1, 2, 3\nki = 0.1\n")
        assert load_gain_grid(path) == {"kp": (1.0, 2.0, 3.0), "ki": (0.1,)}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("kq = 1\n")
        with pytest.raises(TuneError, match="kq"):
            load_gain_grid(path)

    def test_empty_grid_rejected(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("# nothing\n")
        with pytest.raises(TuneError, match=rf"^{re.escape(str(path))}: grid file defines no gains$"):
            load_gain_grid(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("kp = 1\nkp = 2\n")
        with pytest.raises(TuneError, match="duplicate"):
            load_gain_grid(path)

    @pytest.mark.parametrize("raw", ["nan", "1e999", "-inf"])
    def test_non_finite_value_names_the_line(self, tmp_path, raw):
        path = tmp_path / "g.grid"
        path.write_text(f"# grid\nkp = 1, {raw}\n")
        with pytest.raises(
            TuneError, match=rf"^{re.escape(str(path))}: line 2: kp: expected a finite number, got '{raw}'$"
        ):
            load_gain_grid(path)

    @pytest.mark.parametrize("raw", ["0.002, 0.001", "1, 1"])
    def test_unordered_values_name_the_line(self, tmp_path, raw):
        path = tmp_path / "g.grid"
        path.write_text(f"ki = 0.1\nkp = {raw}\n")
        with pytest.raises(
            TuneError, match=rf"^{re.escape(str(path))}: line 2: kp: values must be strictly ascending"
        ):
            load_gain_grid(path)

    def test_gain_past_the_bound_names_the_line(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("ki = 0.1\nkd = 0.001, 1e308\n")
        with pytest.raises(TuneError, match=rf"^{re.escape(str(path))}: line 2: kd: gains must be "
                           r"within \+-1e\+06, got '0.001, 1e308'$"):
            load_gain_grid(path)

    def test_shipped_and_output_scale_grids_load(self, tmp_path):
        grid = load_gain_grid(Path(__file__).parents[1] / "scenarios" / "throttle_grid.grid")
        assert max(abs(v) for values in grid.values() for v in values) <= MAX_GAIN
        path = tmp_path / "g.grid"
        path.write_text("output_scale = 0.5, 2e6\n")  # a scale, not a gain: no gain bound
        assert load_gain_grid(path) == {"output_scale": (0.5, 2e6)}

    def test_malformed_line_names_the_line(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("kp 1\n")
        with pytest.raises(TuneError, match=rf"^{re.escape(str(path))}: line 1: expected 'key = value'"):
            load_gain_grid(path)


class TestGridSearch:
    def test_singleton_grid_returns_candidate(self):
        spec = TuneSpec("throttle", "itae", {"kp": (0.0012,)})
        results = run_grid_search(step_scenario(), spec)
        assert len(results) == 1
        assert results[0].params == {"kp": 0.0012}

    def test_best_minimizes_objective_on_3x3x1_grid(self):
        spec = TuneSpec(
            "throttle", "itae",
            {"kp": (0.0004, 0.0012, 0.002), "ki": (0.0001, 0.0002, 0.0003), "kd": (0.0005,)},
        )
        base = step_scenario()
        results = run_grid_search(base, spec)
        assert len(results) == 9
        assert all(results[0].score <= r.score for r in results)
        # scores recompute from the stored traces
        for r in results:
            assert objective_value(r.trace, "area_error", "itae", base.dt) == r.score

    def test_equilibrium_ties_break_lexicographically(self):
        # zero error throughout: every candidate scores 0 and moves nothing,
        # so lexicographic gain order decides
        cfg = default_scenario("eq", duration=1.0, steering_locked=True)
        spec = TuneSpec("throttle", "ise", {"kp": (0.001, 0.002), "ki": (0.0001, 0.0002)})
        results = run_grid_search(cfg, spec)
        assert results[0].score == 0.0
        assert all(r.score == 0.0 for r in results)
        assert results[0].params == {"kp": 0.001, "ki": 0.0001}

    def test_fuzzy_scale_search(self):
        cfg = replace(step_scenario(4.0), throttle_kind="fuzzy")
        spec = TuneSpec("throttle", "ise", {"output_scale": (0.5, 1.0)})
        results = run_grid_search(cfg, spec)
        assert len(results) == 2
        assert {r.params["output_scale"] for r in results} == {0.5, 1.0}

    def test_mode_mismatch_rejected(self):
        spec = TuneSpec("throttle", "itae", {"output_scale": (1.0,)})
        with pytest.raises(TuneError, match="fuzzy"):
            run_grid_search(step_scenario(), spec)

    def test_results_csv_names_candidates_by_evaluation_order(self):
        spec = TuneSpec("throttle", "itae", {"kp": (0.0004, 0.0012)})
        results = run_grid_search(step_scenario(4.0), spec)
        text = results_csv(spec, results)
        lines = text.splitlines()
        assert lines[0] == "rank,kp,itae,control_effort_tv,trace_file"
        assert len(lines) == 3
        for rank, r in enumerate(results, start=1):
            assert lines[rank].startswith(f"{rank},")
            assert lines[rank].endswith(candidate_filename(r))
