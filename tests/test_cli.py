import argparse
import os
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from followsim import cli, simulate, tune
from followsim.cli import main
from followsim.scenario import (CHANNELS, COMMAND_SUFFIX_MAX_BYTES, FILE_NAME_MAX_BYTES,
                                ScenarioConfig, load_scenario, parse_scenario_text)
from followsim.traceio import read_trace_csv

SCENARIOS = Path(__file__).parents[1] / "scenarios"


def write_scenario(tmp_path, name, text):
    path = tmp_path / f"{name}.scn"
    path.write_text(text, encoding="utf-8")
    return str(path)


MOVING = (
    "archetype = lateral_offset\n"
    "lateral.offset = 1.0\n"
    "lateral.leader_speed = 1.0\n"
    "duration = 6\n"
)


STEPS = "archetype = step_response\nduration = 2\n"


def count_runs(monkeypatch) -> list:
    """Configs passed to execute_archetype by the CLI and tune from now on."""
    calls = []

    def counting(config):
        calls.append(config)
        return simulate.execute_archetype(config)

    for module in (cli, tune):
        monkeypatch.setattr(module, "execute_archetype", counting)
    return calls


class TestRun:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "basic", "duration = 2\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
        assert (out / "basic.csv").exists()
        assert (out / "basic.svg").exists()
        ET.parse(out / "basic.svg")
        assert re.fullmatch(r"basic: 50 records, stop=follower_stationary, "
                            r"loop cost \d+\.\d\d us/record, "
                            r"wrote \S+basic\.csv and \S+basic\.svg\n", capsys.readouterr().out)

    def test_unknown_key_fails_with_message(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "typo", "controler.steering.kind = pid\n")
        assert main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "controler.steering.kind" in err

    @pytest.mark.parametrize("key", ["camera.image_width", "camera.image_height"])
    def test_huge_integer_fails_at_load(self, tmp_path, capsys, key):
        scn = write_scenario(tmp_path, "huge", f"duration = 1\n{key} = {'4' * 400}\n")
        assert main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line 2: {key}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, key", [
        ("leader.kind = straight_line\nleader.speed = 1e308\nduration = 2\n", "leader.speed"),
        ("leader.kind = waypoint_path\nleader.start.x = -1e308\n"
         "leader.waypoints = -1e308 0; 1e308 0\n", "leader.waypoints"),
    ])
    def test_overflowing_leader_fails_at_load(self, tmp_path, capsys, text, key):
        scn = write_scenario(tmp_path, "far", text)
        assert main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
        assert f": {key}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_gains_fail_at_load(self, tmp_path, capsys):
        # kp*error - kd*derivative would be inf - inf: a NaN effort at record 2
        scn = write_scenario(
            tmp_path, "nan",
            "controller.steering.locked = true\nfollower.start.x = -4\n"
            "pid.throttle.kp = 1e308\npid.throttle.kd = 1e308\n",
        )
        assert main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {scn}: line 3: pid.throttle.kp: "
            "gain kp must be within +-1e+06, got 1e+308\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("controller.throttle.kind = fuzzy\nfuzzy.throttle.output_universe = 1e308\n",
         "fuzzy.throttle: bad output universe (-1e+308, 1e+308)"),
        ("fuzzy.steering.error_universe = 1e308\n",
         "fuzzy.steering: bad error universe (-1e+308, 1e+308)"),
        ("fuzzy.throttle.delta_universe = 1e308\n",
         "fuzzy.throttle: bad error_delta universe (-1e+308, 1e+308)"),
    ])
    def test_universe_wider_than_float_range_fails_at_load(self, tmp_path, capsys, text, message):
        # its span hi - lo overflows to inf, so no grid could be laid on it
        scn = write_scenario(tmp_path, "wide", text)
        assert main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {scn}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "nope.scn"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_override_repeatable(self, tmp_path):
        scn = write_scenario(tmp_path, "jit", "duration = 2\ncamera.jitter_px = 1.0\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--scenario", scn, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["run", "--scenario", scn, "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "jit.csv").read_bytes() == (out2 / "jit.csv").read_bytes()

    def test_step_archetype_writes_one_file_per_separation(self, tmp_path):
        scn = write_scenario(
            tmp_path, "steps",
            "archetype = step_response\nstep.separations = 2, 4\nduration = 3\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
        assert (out / "steps_sep_2m.csv").exists()
        assert (out / "steps_sep_4m.csv").exists()

    def test_step_archetype_with_twin_run_names_fails_before_writing(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "dup", "archetype = step_response\n"
                             "step.separations = 1.0000001, 1.0000002, 2\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", scn, "--out", str(out)]) == 1
        assert ("step.separations: step.separations 1.0000001, 1.0000002 share the run name "
                "'dup_sep_1m'") in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_writes_both_traces_and_report(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "cmp", MOVING)
        out = tmp_path / "out"
        assert main(["compare", "--scenario", scn, "--out", str(out)]) == 0
        stem = "cmp_lat_1m_v1"
        for suffix in ("_pid.csv", "_fuzzy.csv", "_pid.svg", "_fuzzy.svg", "_report.md"):
            assert (out / f"{stem}{suffix}").exists()
        stdout = capsys.readouterr().out
        assert "mean_op_count: pid" in stdout
        # the measured loop cost reaches stdout only, one line per family after the winners
        *_, pid_cost, fuzzy_cost, wrote = stdout.splitlines()
        assert re.fullmatch(r"pid loop cost: \d+\.\d\d us/record \(wall clock\)", pid_cost)
        assert re.fullmatch(r"fuzzy loop cost: \d+\.\d\d us/record \(wall clock\)", fuzzy_cost)
        assert wrote.startswith("wrote ")

    def test_report_surfaces_resource_gap(self, tmp_path):
        scn = write_scenario(tmp_path, "cmp", MOVING)
        out = tmp_path / "out"
        main(["compare", "--scenario", scn, "--out", str(out)])
        report = (out / "cmp_lat_1m_v1_report.md").read_text()
        assert "mean_op_count" in report
        assert "costs more per loop" in report

    def test_moving_leader_report_has_small_steady_state_error(self, tmp_path):
        scn = write_scenario(tmp_path, "cmp", MOVING.replace("duration = 6", "duration = 10"))
        out = tmp_path / "out"
        assert main(["compare", "--scenario", scn, "--out", str(out)]) == 0
        report = (out / "cmp_lat_1m_v1_report.md").read_text()
        row = next(line for line in report.splitlines() if "steady_state_error" in line)
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert abs(float(cells[2])) < 5.0  # pid column, pixels
        assert abs(float(cells[3])) < 5.0  # fuzzy column

    def test_multi_run_archetype_fails_before_running(self, tmp_path, capsys, monkeypatch):
        calls = count_runs(monkeypatch)
        scn = write_scenario(tmp_path, "steps", STEPS)
        out = tmp_path / "o"
        assert main(["compare", "--scenario", scn, "--out", str(out)]) == 1
        assert "compare needs a single-run scenario archetype" in capsys.readouterr().err
        assert not out.exists()
        assert len(calls) == 0

    def test_controllers_key_is_unknown(self, tmp_path, capsys):
        # every scenario defines both families, so there is no subset to pick
        scn = write_scenario(tmp_path, "pidonly", "controllers = pid\nduration = 2\n")
        assert main(["compare", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
        assert "line 1: controllers: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["duration = 0.06\n", "stop.hold_time = 0.001\n"])
    def test_short_run_compares(self, tmp_path, text):
        scn = write_scenario(tmp_path, "short", text)
        out = tmp_path / "o"
        assert main(["compare", "--scenario", scn, "--out", str(out)]) == 0
        assert (out / "short_report.md").exists()
        for family in ("pid", "fuzzy"):
            assert 1 <= len(read_trace_csv(out / f"short_{family}.csv").records) < 5

    def test_deterministic_across_invocations(self, tmp_path):
        scn = write_scenario(tmp_path, "det", MOVING + "seed = 3\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--scenario", scn, "--out", str(out1)]) == 0
        assert main(["compare", "--scenario", scn, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert names == [
            "det_lat_1m_v1_fuzzy.csv", "det_lat_1m_v1_fuzzy.svg",
            "det_lat_1m_v1_pid.csv", "det_lat_1m_v1_pid.svg",
            "det_lat_1m_v1_report.md",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def svg_texts(path: Path) -> set[str]:
    return {el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")}


class TestChannelChoice:
    """A command judges and plots the throttle channel when the scenario's
    runs lock the steering, and the steering channel otherwise."""

    @pytest.mark.parametrize("source, channel", [
        (SCENARIOS / "throttle_step.scn", "throttle"),
        (SCENARIOS / "s_curve.scn", "steering"),
        (SCENARIOS / "lateral_offset_moving.scn", "steering"),
        (SCENARIOS / "lateral_offset_stationary.scn", "steering"),
        (STEPS, "throttle"),
        ("controller.steering.locked = true\narchetype = step_response\n", "throttle"),
        ("controller.steering.locked = true\narchetype = lateral_offset\n", "steering"),
        ("duration = 2\n", "steering"),
    ])
    def test_channel_follows_the_steering_lock(self, source, channel):
        config = load_scenario(source) if isinstance(source, Path) else parse_scenario_text(source)
        assert cli._channel(config.runs()) == channel

    def test_throttle_step_run_and_compare_plot_and_judge_throttle(self, tmp_path):
        scn = str(SCENARIOS / "throttle_step.scn")
        out = tmp_path / "o"
        assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
        assert main(["compare", "--scenario", scn, "--out", str(out)]) == 0
        for name in ("throttle_step", "throttle_step_pid", "throttle_step_fuzzy"):
            texts = svg_texts(out / f"{name}.svg")
            assert {"area_error", "throttle_pwm"} <= texts
            assert not {"pixel_error_x", "steering_pwm"} & texts
        report = (out / "throttle_step_report.md").read_text()
        for metric in ("rise_time", "settling_time"):
            row = next(line for line in report.splitlines() if line.startswith(f"| {metric} "))
            cells = [c.strip() for c in row.strip("|").split("|")]
            assert all(float(c) > 0 for c in cells[2:4]), row  # pid and fuzzy columns


class TestRunConfigsBuiltOnce:
    """A command expands the scenario it runs into run configs once, beside
    the expansion that checks an archetype scenario as it is built."""

    @pytest.mark.parametrize("argv, archetype", [
        (["run"], "lateral_offset"),
        (["compare"], "lateral_offset"),
        (["sweep", "--separations", "1,2"], "step_response"),
    ], ids=["run", "compare", "sweep"])
    def test_each_command_expands_its_scenario_once(self, tmp_path, monkeypatch, argv, archetype):
        expanded = []
        runs = ScenarioConfig.runs

        def counting(config):
            expanded.append(config.archetype)
            return runs(config)

        monkeypatch.setattr(ScenarioConfig, "runs", counting)
        scn = write_scenario(tmp_path, "moving", MOVING.replace("duration = 6", "duration = 1"))
        assert main([argv[0], "--scenario", scn, *argv[1:], "--out", str(tmp_path / "o")]) == 0
        assert expanded.count(archetype) == 2


class TestTune:
    def test_tune_writes_results_and_candidates(self, tmp_path, capsys):
        scn = write_scenario(
            tmp_path, "step",
            "duration = 5\ncontroller.steering.locked = true\n"
            "follower.start.x = -3\nfollower.start.y = 0\n",
        )
        grid = tmp_path / "g.grid"
        grid.write_text("kp = 0.0006, 0.0012\nki = 0.0002\nkd = 0.0005\n")
        out = tmp_path / "t"
        assert main(["tune", "--scenario", scn, "--channel", "throttle",
                     "--grid", str(grid), "--objective", "itae", "--out", str(out)]) == 0
        assert (out / "tune_results.csv").exists()
        assert (out / "cand_000.csv").exists()
        assert (out / "cand_001.csv").exists()
        assert "best:" in capsys.readouterr().out

    def test_multi_run_archetype_fails_before_running(self, tmp_path, capsys, monkeypatch):
        calls = count_runs(monkeypatch)
        scn = write_scenario(tmp_path, "steps", STEPS)
        grid = tmp_path / "g.grid"
        grid.write_text("kp = 0.0006, 0.0012\n")
        out = tmp_path / "t"
        assert main(["tune", "--scenario", scn, "--channel", "throttle",
                     "--grid", str(grid), "--objective", "itae", "--out", str(out)]) == 1
        assert "tuning needs a single-run scenario archetype" in capsys.readouterr().err
        assert not out.exists()
        assert len(calls) == 0

    @pytest.mark.parametrize("objective", ["itae", "ise", "rms"])
    def test_one_record_run_tunes(self, tmp_path, capsys, objective):
        scn = write_scenario(tmp_path, "one", "stop.hold_time = 0.001\n")
        grid = tmp_path / "g.grid"
        grid.write_text("kp = 0.001, 0.002\n")
        out = tmp_path / "t"
        assert main(["tune", "--scenario", scn, "--channel", "throttle",
                     "--grid", str(grid), "--objective", objective, "--out", str(out)]) == 0
        assert len((out / "tune_results.csv").read_text().splitlines()) == 3
        assert len(read_trace_csv(out / "cand_000.csv").records) == 1

    def test_empty_grid_rejected(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "s", "duration = 2\n")
        grid = tmp_path / "g.grid"
        grid.write_text("# empty\n")
        assert main(["tune", "--scenario", scn, "--channel", "throttle",
                     "--grid", str(grid), "--objective", "itae",
                     "--out", str(tmp_path / "o")]) == 1
        assert "no gains" in capsys.readouterr().err

    def test_grid_error_names_the_grid_file(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "s", "duration = 2\n")
        grid = tmp_path / "g.grid"
        grid.write_text("kp = 0.002, 0.001\n")
        assert main(["tune", "--scenario", scn, "--channel", "throttle",
                     "--grid", str(grid), "--objective", "itae",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {grid}: line 1: kp: ")
        assert not (tmp_path / "o").exists()

    def test_locked_channel_fails_before_running(self, tmp_path, capsys, monkeypatch):
        # throttle_step locks the steering: its steering channel never moves
        calls = count_runs(monkeypatch)
        grid = tmp_path / "g.grid"
        grid.write_text("kp = 0.001, 0.01\n")
        out = tmp_path / "t"
        assert main(["tune", "--scenario", str(SCENARIOS / "throttle_step.scn"),
                     "--channel", "steering", "--grid", str(grid), "--objective", "itae",
                     "--out", str(out)]) == 1
        assert "locks the steering channel" in capsys.readouterr().err
        assert len(calls) == 0
        assert not out.exists()

    @pytest.mark.parametrize("universe, scales", [
        ("1e300", "1, 1e10"),  # the last candidate's universe overflows
        ("1", "0.5, 1e308"),  # a universe wider than float range
    ])
    def test_candidate_that_cannot_be_built_fails_before_running(
        self, tmp_path, capsys, monkeypatch, universe, scales
    ):
        calls = count_runs(monkeypatch)
        scn = write_scenario(tmp_path, "fz", "stop.hold_time = 0.001\ncontroller.throttle.kind = fuzzy\n"
                             f"fuzzy.throttle.output_universe = {universe}\n")
        grid = tmp_path / "g.grid"
        grid.write_text(f"output_scale = {scales}\n")
        out = tmp_path / "t"
        assert main(["tune", "--scenario", scn, "--channel", "throttle", "--grid", str(grid),
                     "--objective", "itae", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {grid}: throttle candidate output_scale=")
        assert len(calls) == 0
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("output_scale = -1, 1\n", "line 1: output_scale: scales must be positive, got '-1, 1'"),
        ("ki = 0.1\noutput_scale = 0, 1\n", "line 2: output_scale: scales must be positive"),
        ("kp = 1\noutput_scale = 1\n", "grid keys ('kp', 'output_scale') must be"),
        ("output_scale = 0.5, 1\n", "grid tunes a fuzzy channel but the throttle channel is 'pid'"),
    ])
    def test_every_grid_error_names_the_grid_file(self, tmp_path, capsys, text, message):
        scn = write_scenario(tmp_path, "s", "duration = 2\n")
        grid = tmp_path / "g.grid"
        grid.write_text(text)
        assert main(["tune", "--scenario", scn, "--channel", "throttle",
                     "--grid", str(grid), "--objective", "itae",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {grid}: {message}")
        assert not (tmp_path / "o").exists()


class TestSweep:
    def test_writes_traces_and_summary(self, tmp_path):
        scn = write_scenario(tmp_path, "sw", "duration = 4\n")
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", scn, "--separations", "1,2,4",
                     "--out", str(out)]) == 0
        for tag in ("1m", "2m", "4m"):
            assert (out / f"sw_sep_{tag}.csv").exists()
            assert (out / f"sw_sep_{tag}.svg").exists()
        summary = (out / "sw_sweep.md").read_text()
        assert summary.count("| ") >= 3
        # in-range separations produce real traces
        assert len(read_trace_csv(out / "sw_sep_4m.csv").records) > 10

    def test_bad_separations_rejected(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "sw", "duration = 2\n")
        assert main(["sweep", "--scenario", scn, "--separations", "1,two",
                     "--out", str(tmp_path / "o")]) == 1
        assert "separations" in capsys.readouterr().err

    @pytest.mark.parametrize("separations, message", [
        ("nan", "expected a finite number"), ("1,0.1", "min_range"),
        ("1,1", "step.separations 1.0, 1.0 share the run name 'sw_sep_1m'"),
        ("1,,2", "expected a comma-separated number list, got '1,,2'"),
    ], ids=["nan", "inside_min_range", "twin_names", "empty_item"])
    def test_invalid_separations_fail_before_writing(self, tmp_path, capsys,
                                                     separations, message):
        scn = write_scenario(tmp_path, "sw", "duration = 2\n")
        assert main(["sweep", "--scenario", scn, "--separations", separations,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --separations") and message in err
        assert not (tmp_path / "o").exists()

    def test_short_runs_sweep(self, tmp_path):
        scn = write_scenario(tmp_path, "short", "duration = 0.06\n")
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", scn, "--separations", "1,2",
                     "--out", str(out)]) == 0
        assert (out / "short_sweep.md").exists()
        assert len(read_trace_csv(out / "short_sep_2m.csv").records) < 5

    def test_zero_step_separation_reports_not_applicable(self, tmp_path):
        # a separation at the setpoint range has no step to traverse
        scn = write_scenario(tmp_path, "sw", "duration = 3\n")
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", scn, "--separations", "1.5",
                     "--out", str(out)]) == 0
        row = next(line for line in (out / "sw_sweep.md").read_text().splitlines()
                   if line.startswith("| 1.5"))
        assert "n/a" in row


@pytest.mark.parametrize("command", ["run", "compare", "sweep", "tune"])
def test_two_invocations_write_the_same_bytes(tmp_path, command):
    """Two invocations of a command with the same arguments write the same
    files, byte for byte, trace CSVs included; only the loop cost that run
    and compare print on stdout is wall clock."""
    scn = write_scenario(tmp_path, "det", "duration = 3\ncamera.jitter_px = 1.0\nseed = 5\n"
                                          "follower.start.x = -3\n")
    grid = tmp_path / "g.grid"
    grid.write_text("kp = 0.0006, 0.0012\nki = 0.0002\n")
    extra = {"sweep": ["--separations", "1,2"],
             "tune": ["--channel", "throttle", "--objective", "itae", "--grid", str(grid)]}
    trees = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main([command, "--scenario", scn, *extra.get(command, []), "--out", str(out)]) == 0
        trees.append({path.relative_to(out): path.read_bytes() for path in files_under(out)})
    assert trees[0] == trees[1]
    assert any(path.suffix == ".csv" for path in trees[0])


# a command's arguments after --scenario and before --out
COMMAND_ARGS = (["run"], ["compare"], ["sweep", "--separations", "1"])
# deep enough that a name of up to 12 characters cannot climb out of the fresh directory
OUT_DEPTH = 5


def files_under(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if path.is_file()}


class TestNameStaysInsideOut:
    """A scenario name starts every file name a command writes, so one that
    holds a path separator or a NUL fails at load, before --out exists; any
    other name, `.` and `..` included, writes only inside --out."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.one_of(st.sampled_from([".", "..", "../escaped", "a b", "s.curve", "..."]),
                          st.text("ab .-_/\\\0", min_size=1, max_size=12)),
           absolute=st.booleans())
    @example(name="../escaped", absolute=False)
    @example(name="esc/absolute", absolute=True)
    def test_every_new_file_lies_under_out(self, tmp_path, capsys, name, absolute):
        with tempfile.TemporaryDirectory(dir=tmp_path) as fresh:
            fresh = Path(fresh)
            if absolute:  # a path inside the fresh directory, so a miss stays in it
                name = f"{fresh}{os.sep}{name}"
            scn = write_scenario(fresh, "named", f"name = {name}\nduration = 0.1\n")
            out = fresh.joinpath(*["d"] * OUT_DEPTH, "out")
            stem = name.strip()  # the line reader strips the value
            rejected = not stem or bool({os.sep, os.altsep, "\0"} & set(stem))
            before = files_under(fresh)
            for args in COMMAND_ARGS:
                code = main(args[:1] + ["--scenario", scn] + args[1:] + ["--out", str(out)])
                err = capsys.readouterr().err
                assert code == (1 if rejected else 0), err
                if rejected:
                    assert "line 1: name: " in err
                    assert not out.exists()
            new_files = files_under(fresh) - before
            assert all(out in path.parents for path in new_files)
            assert all(len(os.fsencode(path.name)) <= FILE_NAME_MAX_BYTES for path in new_files)

    @pytest.mark.parametrize("args", COMMAND_ARGS, ids=lambda args: args[0])
    @pytest.mark.parametrize("name", ["../escaped", "/absolute"])
    def test_baseline_escapes_fail_before_out_exists(self, tmp_path, capsys, args, name):
        if name.startswith("/"):
            name = str(tmp_path / "esc" / "absolute")
        scn = write_scenario(tmp_path, "named", f"name = {name}\nduration = 0.1\n")
        out = tmp_path / "o"
        assert main(args[:1] + ["--scenario", scn] + args[1:] + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {scn}: line 1: name: name must be a file stem, with no path "
            f"separator or NUL, got {name!r}\n")
        assert not out.exists()
        assert files_under(tmp_path) == {Path(scn)}


class TestNameFitsAFileName:
    """Every file name a command writes is a run's name (the scenario name
    plus its archetype's suffix) plus at most COMMAND_SUFFIX_MAX_BYTES, so a
    run name that leaves no room for that within a file name fails at load,
    before --out exists."""

    @staticmethod
    def too_long(size: int) -> str:
        return (f"name, with its run's suffix if any, is {size} bytes in UTF-8, more than the "
                f"245 it may take: a command adds up to 10 bytes to it, and a file name holds "
                f"at most 255")

    @pytest.mark.parametrize("args", COMMAND_ARGS, ids=lambda args: args[0])
    def test_a_300_byte_name_fails_before_out_exists(self, tmp_path, capsys, args):
        scn = write_scenario(tmp_path, "named", f"name = {'a' * 300}\nduration = 0.1\n")
        out = tmp_path / "o"
        assert main(args[:1] + ["--scenario", scn] + args[1:] + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scn}: line 1: name: {self.too_long(300)}\n"
        assert not out.exists()
        assert files_under(tmp_path) == {Path(scn)}

    def test_a_name_at_the_limit_runs_compare_with_the_widest_suffix(self, tmp_path, capsys):
        # _tag's widest forms: 13 characters for a negative offset, 12 for a speed
        suffix = "_lat_m1p23457em300m_v1p23457e+300"
        name = "é" * 106  # two bytes per é in UTF-8
        assert len(name.encode()) + len(suffix) + COMMAND_SUFFIX_MAX_BYTES == FILE_NAME_MAX_BYTES
        scn = write_scenario(tmp_path, "named", (
            f"name = {name}\narchetype = lateral_offset\nlateral.offset = -1.23457e-300\n"
            "lateral.leader_speed = 1.23457e300\nduration = 0.1\n"))
        out = tmp_path / "o"
        assert main(["compare", "--scenario", scn, "--out", str(out)]) == 0, capsys.readouterr()
        stem = name + suffix
        assert {path.name for path in files_under(out)} == {
            f"{stem}_{family}.{ext}" for family in ("pid", "fuzzy") for ext in ("csv", "svg")
        } | {f"{stem}_report.md"}
        assert max(len(os.fsencode(path.name)) for path in files_under(out)) == 255

    def test_a_plain_name_may_take_245_bytes(self, tmp_path, capsys):
        name = "a" * 245
        scn = write_scenario(tmp_path, "named", f"name = {name}\nduration = 0.1\n")
        out = tmp_path / "o"
        assert main(["compare", "--scenario", scn, "--out", str(out)]) == 0, capsys.readouterr()
        assert {path.name for path in files_under(out)} == {
            f"{name}_{family}.{ext}" for family in ("pid", "fuzzy") for ext in ("csv", "svg")
        } | {f"{name}_report.md"}
        assert max(len(os.fsencode(path.name)) for path in files_under(out)) == 255
        capsys.readouterr()
        scn = write_scenario(tmp_path, "longer", f"name = {name}a\nduration = 0.1\n")
        out = tmp_path / "o2"
        assert main(["compare", "--scenario", scn, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scn}: line 1: name: {self.too_long(246)}\n"
        assert not out.exists()

    def test_separations_that_overflow_a_run_name_fail_before_out_exists(self, tmp_path, capsys):
        # a 240-byte name loads, and runs, but its `_sep_1m` run would take 247 bytes
        scn = write_scenario(tmp_path, "named", f"name = {'a' * 240}\nduration = 0.1\n")
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", scn, "--separations", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --separations '1': {self.too_long(247)}\n"
        assert not out.exists()
        assert main(["run", "--scenario", scn, "--out", str(out)]) == 0


class TestParserSurface:
    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("run", "compare", "tune", "sweep"):
            assert cmd in out

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--scenario", "--channel", "--grid", "--objective", "--out"):
            assert flag in out

    def test_tune_choices_come_from_their_tables(self):
        commands = next(action for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        choices = {action.dest: action.choices for action in commands.choices["tune"]._actions}
        assert choices["channel"] == CHANNELS
        assert choices["objective"] == tune.OBJECTIVES
