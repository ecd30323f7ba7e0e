import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from followsim.cli import main
from followsim.traceio import read_trace_csv


def write_scenario(tmp_path, name, text):
    path = tmp_path / f"{name}.scn"
    path.write_text(text, encoding="utf-8")
    return str(path)


def strip_loop_cost(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index("loop_cost_us")
    return [",".join(c for j, c in enumerate(line.split(",")) if j != idx) for line in lines]


MOVING = (
    "archetype = lateral_offset\n"
    "lateral.offset = 1.0\n"
    "lateral.leader_speed = 1.0\n"
    "duration = 6\n"
)


class TestRun:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "basic", "duration = 2\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
        assert (out / "basic.csv").exists()
        assert (out / "basic.svg").exists()
        ET.parse(out / "basic.svg")
        assert "basic" in capsys.readouterr().out

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

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "nope.scn"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_override_repeatable(self, tmp_path):
        scn = write_scenario(tmp_path, "jit", "duration = 2\ncamera.jitter_px = 1.0\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--scenario", scn, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["run", "--scenario", scn, "--out", str(out2), "--seed", "7"]) == 0
        assert strip_loop_cost(out1 / "jit.csv") == strip_loop_cost(out2 / "jit.csv")

    def test_step_archetype_writes_one_file_per_separation(self, tmp_path):
        scn = write_scenario(
            tmp_path, "steps",
            "archetype = step_response\nstep.separations = 2, 4\nduration = 3\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
        assert (out / "steps_sep_2m.csv").exists()
        assert (out / "steps_sep_4m.csv").exists()


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

    def test_missing_family_rejected(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "pidonly", "controllers = pid\nduration = 2\n")
        assert main(["compare", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
        assert "fuzzy" in capsys.readouterr().err

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
            if name.endswith(".csv"):
                assert strip_loop_cost(out1 / name) == strip_loop_cost(out2 / name)
            else:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


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

    def test_empty_grid_rejected(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "s", "duration = 2\n")
        grid = tmp_path / "g.grid"
        grid.write_text("# empty\n")
        assert main(["tune", "--scenario", scn, "--channel", "throttle",
                     "--grid", str(grid), "--objective", "itae",
                     "--out", str(tmp_path / "o")]) == 1
        assert "no gains" in capsys.readouterr().err


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
    ], ids=["nan", "inside_min_range"])
    def test_invalid_separations_fail_before_writing(self, tmp_path, capsys,
                                                     separations, message):
        scn = write_scenario(tmp_path, "sw", "duration = 2\n")
        assert main(["sweep", "--scenario", scn, "--separations", separations,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --separations") and message in err
        assert not (tmp_path / "o").exists()

    def test_zero_step_separation_reports_not_applicable(self, tmp_path):
        # a separation at the setpoint range has no step to traverse
        scn = write_scenario(tmp_path, "sw", "duration = 3\n")
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", scn, "--separations", "1.5",
                     "--out", str(out)]) == 0
        row = next(line for line in (out / "sw_sweep.md").read_text().splitlines()
                   if line.startswith("| 1.5"))
        assert "n/a" in row


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
