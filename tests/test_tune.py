import gc
import math
import re
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from followsim import (
    ScenarioConfig,
    ScenarioError,
    TuneError,
    TuneSpec,
    cli,
    default_scenario,
    load_gain_grid,
    load_scenario,
    objective_value,
    parse_scenario_text,
    read_trace_csv,
    run_grid_search,
    run_scenario,
    scale_output,
    simulate,
    tune,
)
from followsim.pid import MAX_GAIN
from followsim.traceio import trace_to_csv
from followsim.tune import FUZZY_GRID_KEYS, PID_GRID_KEYS, GridError, candidate_filename, results_csv

SCENARIOS = Path(__file__).parents[1] / "scenarios"


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

    def test_non_finite_grid_value_rejected(self):
        with pytest.raises(GridError, match="^grid for 'kp' has non-finite values$"):
            TuneSpec("throttle", "itae", {"kp": (1.0, math.nan)})

    def test_grid_at_the_candidate_cap_is_accepted(self):
        values = tuple(float(i) for i in range(100))
        assert tune.MAX_CANDIDATES == 10_000
        TuneSpec("throttle", "itae", {"kp": values, "ki": values})

    def test_grid_past_the_candidate_cap_fails_before_any_build(self, tmp_path, monkeypatch,
                                                                capsys):
        built = []
        monkeypatch.setattr(tune, "_candidate_config", lambda *args: built.append(args))
        grid = tmp_path / "big.grid"
        grid.write_text(f"kp = {', '.join(map(str, range(101)))}\n"
                        f"ki = {', '.join(map(str, range(100)))}\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["tune", "--scenario", str(SCENARIOS / "throttle_step.scn"), "--grid", str(grid),
                "--channel", "throttle", "--objective", "itae", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {grid}: grid has 10,100 candidates, more than the 10,000 cap\n"
        assert built == [] and not out.exists()


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

    def test_empty_item_names_the_line(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("ki = 0.1\nkp = 0.1,,0.2\n")
        with pytest.raises(TuneError, match=rf"^{re.escape(str(path))}: line 2: kp: expected a "
                           r"comma-separated number list, got '0.1,,0.2'$"):
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
    def test_singleton_grid_returns_candidate(self, tmp_path):
        spec = TuneSpec("throttle", "itae", {"kp": (0.0012,)})
        results = run_grid_search(step_scenario(), spec, tmp_path)
        assert len(results) == 1
        assert results[0].params == {"kp": 0.0012}

    def test_best_minimizes_objective_on_3x3x1_grid(self, tmp_path):
        spec = TuneSpec(
            "throttle", "itae",
            {"kp": (0.0004, 0.0012, 0.002), "ki": (0.0001, 0.0002, 0.0003), "kd": (0.0005,)},
        )
        base = step_scenario()
        results = run_grid_search(base, spec, tmp_path)
        assert len(results) == 9
        assert all(results[0].score <= r.score for r in results)
        for r in results:
            # each score is the objective of a fresh run of its candidate, bit for bit
            fresh = run_scenario(replace(base, throttle_pid=replace(base.throttle_pid, **r.params)))
            assert objective_value(fresh, "throttle", "itae", base.dt) == r.score
            # and its CSV is that run, to the 9 significant digits the CSV keeps
            written = read_trace_csv(tmp_path / candidate_filename(r)).records
            assert len(written) == len(fresh.records)
            for got, want in zip(written, fresh.records):
                assert got == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_single_run_archetype_tunes_its_plain_run(self, tmp_path, monkeypatch):
        # each candidate is the archetype's one plain run with its gains, and
        # the archetype is expanded once, however many candidates there are
        base = load_scenario(SCENARIOS / "lateral_offset_moving.scn")
        (plain,) = base.runs()
        expanded = []
        runs = ScenarioConfig.runs

        def counting(config):
            expanded.append(config.archetype)
            return runs(config)

        monkeypatch.setattr(ScenarioConfig, "runs", counting)
        spec = TuneSpec("steering", "itae", {"kp": (0.002, 0.004)})
        results = run_grid_search(base, spec, tmp_path)
        assert expanded.count("lateral_offset") == 1
        assert sorted(r.index for r in results) == [0, 1]
        written = {}
        for r in results:
            fresh = run_scenario(replace(plain, steering_pid=replace(plain.steering_pid, **r.params)))
            assert fresh.name == "lateral_offset_moving_lat_1m_v1"
            written[r.index] = (tmp_path / candidate_filename(r)).read_text(encoding="utf-8")
            assert written[r.index] == trace_to_csv(fresh)
        assert written[0] != written[1]  # the gains reach the run

    def test_equilibrium_ties_break_lexicographically(self, tmp_path):
        # zero error throughout: every candidate scores 0 and moves nothing,
        # so lexicographic gain order decides
        cfg = default_scenario("eq", duration=1.0, steering_locked=True)
        spec = TuneSpec("throttle", "ise", {"kp": (0.001, 0.002), "ki": (0.0001, 0.0002)})
        results = run_grid_search(cfg, spec, tmp_path)
        assert results[0].score == 0.0
        assert all(r.score == 0.0 for r in results)
        assert results[0].params == {"kp": 0.001, "ki": 0.0001}

    def test_fuzzy_scale_search(self, tmp_path):
        cfg = replace(step_scenario(4.0), throttle_kind="fuzzy")
        spec = TuneSpec("throttle", "ise", {"output_scale": (0.5, 1.0)})
        results = run_grid_search(cfg, spec, tmp_path)
        assert len(results) == 2
        assert {r.params["output_scale"] for r in results} == {0.5, 1.0}

    def test_mode_mismatch_rejected(self, tmp_path):
        spec = TuneSpec("throttle", "itae", {"output_scale": (1.0,)})
        with pytest.raises(TuneError, match="fuzzy"):
            run_grid_search(step_scenario(), spec, tmp_path)

    def test_results_csv_names_candidates_by_evaluation_order(self, tmp_path):
        spec = TuneSpec("throttle", "itae", {"kp": (0.0004, 0.0012)})
        results = run_grid_search(step_scenario(4.0), spec, tmp_path)
        text = results_csv(spec, results)
        lines = text.splitlines()
        assert lines[0] == "rank,kp,itae,control_effort_tv,trace_file"
        assert len(lines) == 3
        for rank, r in enumerate(results, start=1):
            assert lines[rank].startswith(f"{rank},")
            assert lines[rank].endswith(candidate_filename(r))

    def test_one_trace_in_memory(self, tmp_path, monkeypatch):
        # every trace a candidate made is gone before the next candidate runs
        refs = []

        def keeping(config):
            gc.collect()
            assert all(ref() is None for ref in refs), "an earlier candidate's trace is alive"
            traces = simulate.execute_archetype(config)
            refs.extend(weakref.ref(trace) for trace in traces)
            return traces

        monkeypatch.setattr(tune, "execute_archetype", keeping)
        spec = TuneSpec("throttle", "itae", {"kp": (0.0004, 0.0012, 0.002)})
        assert len(run_grid_search(step_scenario(2.0), spec, tmp_path)) == 3
        assert len(refs) == 3

    def test_one_candidate_config_held(self, tmp_path, monkeypatch):
        # the bytes held as the first candidate starts running do not grow
        # with the grid: a 40-value grid holds less than one fuzzy config more
        # than a 4-value grid does
        class Started(Exception):
            pass

        def first_run(config):
            gc.collect()  # empties the free lists, which hold freed blocks
            raise Started(tracemalloc.get_traced_memory()[0])

        def traced(run):
            tracemalloc.start()
            try:
                return run()
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(tune, "execute_archetype", first_run)
        base = replace(step_scenario(1.0), throttle_kind="fuzzy")

        def held_at_first_run(count):
            scales = tuple(0.5 + i / 40 for i in range(count))
            with pytest.raises(Started) as started:
                traced(lambda: run_grid_search(
                    base, TuneSpec("throttle", "itae", {"output_scale": scales}), tmp_path / str(count)))
            return started.value.args[0]

        one_config = traced(lambda: (scale_output(base.throttle_fuzzy, 2.0),
                                     tracemalloc.get_traced_memory()[0]))[1]
        assert one_config > 10_000  # the 1001-point grid and its output curves
        assert held_at_first_run(40) - held_at_first_run(4) < one_config

    def test_locked_channel_rejected_before_out(self, tmp_path):
        out = tmp_path / "out"
        spec = TuneSpec("steering", "itae", {"kp": (0.001, 0.01)})
        with pytest.raises(TuneError, match="locks the steering channel"):
            run_grid_search(step_scenario(), spec, out)
        assert not out.exists()

    def test_candidate_that_cannot_be_built_fails_before_out(self, tmp_path):
        # the last scale overflows the output universe: caught before any run
        base = parse_scenario_text(
            "controller.throttle.kind = fuzzy\nfuzzy.throttle.output_universe = 1e300\n")
        out = tmp_path / "out"
        spec = TuneSpec("throttle", "itae", {"output_scale": (1.0, 1e10)})
        with pytest.raises(TuneError, match=r"^throttle candidate output_scale=1e\+10: "):
            run_grid_search(base, spec, out)
        assert not out.exists()


# ---------------------------------------------------------------------------
# grid fuzzer: any grid file either fails with a TuneError or ScenarioError
# before --out exists, or tunes and writes every candidate

_ONE_RECORD = {
    kind: parse_scenario_text(
        f"stop.hold_time = 0.001\ncontroller.steering.kind = {kind}\n"
        f"controller.throttle.kind = {kind}\n")
    for kind in ("pid", "fuzzy")
}
_GAINS = ["0.001", "0.5", "2"]
_SCALES = _GAINS + ["2e6", "1e308"]  # scales have no bound; 1e308 overflows a universe
_WILD = ["0", "-1", "2e6", "-1e308", "1e308", "nan", "inf", "-inf"]


@st.composite
def grid_texts(draw):
    """A grid that loads: distinct keys of one mode, each with a sorted list
    of values the grid reader takes. Or a wild one: up to 3 lines of any
    keys, unknown ones too, each with up to 3 values, sorted or as drawn."""
    if draw(st.booleans()):
        keys, good = draw(st.sampled_from([(PID_GRID_KEYS, _GAINS), (FUZZY_GRID_KEYS, _SCALES)]))
        lines = [(key, sorted(draw(st.sets(st.sampled_from(good), min_size=1)), key=float))
                 for key in draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))]
    else:
        key = st.sampled_from(PID_GRID_KEYS + FUZZY_GRID_KEYS + ("kq", "scale"))
        values = st.lists(st.sampled_from(_GAINS + _WILD), max_size=3)
        lines = [(draw(key), draw(values)) for _ in range(draw(st.integers(0, 3)))]
        lines = [(k, sorted(set(v), key=float) if draw(st.booleans()) else v) for k, v in lines]
    return "".join(f"{key} = {', '.join(values)}\n" for key, values in lines)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=grid_texts())
def test_any_grid_fails_before_out_or_writes_every_candidate(tmp_path, text):
    path = tmp_path / "fuzz.grid"
    path.write_text(text, encoding="utf-8")
    for base in _ONE_RECORD.values():
        for channel in ("steering", "throttle"):
            with tempfile.TemporaryDirectory() as scratch:
                out = Path(scratch) / "out"
                try:
                    results = run_grid_search(base, TuneSpec(channel, "itae", load_gain_grid(path)), out)
                except (TuneError, ScenarioError):
                    assert not out.exists()
                    continue
                assert sorted(r.index for r in results) == list(range(len(results)))
                written = sorted(p.name for p in out.iterdir())
                assert written == sorted(map(candidate_filename, results)) + ["tune_results.csv"]
