import math

import pytest

from conftest import make_record
from followsim import Trace, compare, format_report, write_report
from followsim.metrics import METRIC_FIELDS


def tie_report():
    t = Trace("same", [make_record(0.1 * k, pixel_error_x=5.0) for k in range(10)])
    return compare(t, t)


def mixed_report():
    a = Trace("s", [make_record(0.1 * k, pixel_error_x=1.0, op_count=10) for k in range(10)])
    b = Trace("s", [make_record(0.1 * k, pixel_error_x=50.0, op_count=9000) for k in range(10)])
    return compare(a, b)


def op_report(pid_ops, fuzzy_ops):
    """A report on two flat traces whose only difference is their op count."""
    pid, fuzzy = (Trace("s", [make_record(0.1 * k, op_count=ops) for k in range(10)])
                  for ops in (pid_ops, fuzzy_ops))
    return compare(pid, fuzzy)


def parse_table(text):
    rows = {}
    for line in text.splitlines():
        if line.startswith("|") and not line.startswith("|--") and "metric" not in line:
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    return rows


class TestFormatReport:
    def test_one_row_per_metric(self):
        rows = parse_table(format_report(mixed_report()))
        assert set(rows) == set(METRIC_FIELDS)
        assert len(rows) == len(METRIC_FIELDS)

    def test_all_tie_report(self):
        rows = parse_table(format_report(tie_report()))
        for metric, cells in rows.items():
            if cells[3] != "n/a":  # step metrics are n/a without a step
                assert cells[3] == "tie"

    def test_numeric_cells_round_trip_at_printed_precision(self):
        report = mixed_report()
        rows = parse_table(format_report(report))
        for metric in METRIC_FIELDS:
            for col, metrics in ((1, report.pid), (2, report.fuzzy)):
                cell = rows[metric][col]
                value = getattr(metrics, metric)
                if cell == "n/a":
                    assert math.isnan(value)
                else:
                    assert format(float(cell), ".6g") == format(value, ".6g")

    def test_notes_rendered(self):
        text = format_report(mixed_report())
        assert "costs more per loop" in text

    def test_note_leaves_out_the_ratio_when_pid_costs_nothing(self):
        text = format_report(op_report(0, 700))
        assert text.endswith("|\n\n- fuzzy control costs more per loop: 700 vs 0 float ops\n")

    @pytest.mark.parametrize("pid_ops, fuzzy_ops", [(10, 10), (700, 10), (0, 0)])
    def test_no_note_unless_fuzzy_costs_more(self, pid_ops, fuzzy_ops):
        text = format_report(op_report(pid_ops, fuzzy_ops))
        assert "costs more" not in text
        assert text.endswith(" |\n")  # the table's mean_op_count row ends the report

    def test_written_file_matches_format(self, tmp_path):
        report = mixed_report()
        path = tmp_path / "report.md"
        write_report(report, path)
        assert path.read_text(encoding="utf-8") == format_report(report)

    def test_title_names_scenario(self):
        assert "Controller comparison: s" in format_report(mixed_report())
