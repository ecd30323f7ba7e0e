import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_record
from followsim import (Trace, TraceFormatError, TraceRecord, default_scenario, read_trace_csv,
                       run_scenario, write_trace_csv)
from followsim import traceio
from followsim.traceio import CSV_COLUMNS, trace_to_csv

README = Path(__file__).parents[1] / "README.md"

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)

record_strategy = st.builds(
    make_record,
    t=finite,
    pixel_error_x=finite,
    area_error=finite,
    steering_pwm=st.floats(0, 180),
    throttle_pwm=st.floats(0, 180),
    lateral_dev_m=finite,
    follow_dist_m=finite,
    detected=st.booleans(),
    op_count=st.integers(0, 10**9),
)

# every float the writer can meet, the ones `finite` leaves out included
any_float = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)
special_record_strategy = st.builds(TraceRecord, **{
    **dict.fromkeys(CSV_COLUMNS, any_float),
    "detected": st.booleans(),
    "op_count": st.integers(0, 2**63),
})


def frozen_trace_to_csv(trace: Trace) -> str:
    """The cell-by-cell writer as it stood before the one-template row."""

    def format_value(column, value):
        if column == "detected":
            return "1" if value else "0"
        if column == "op_count":
            return str(int(value))
        return format(float(value), ".9g")

    lines = [",".join(CSV_COLUMNS)]
    for record in trace.records:
        lines.append(",".join(format_value(c, getattr(record, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


class TestWriteRead:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(Trace("t", []), path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace_csv(Trace("empty", []), path)
        back = read_trace_csv(path)
        assert back.name == "empty"
        assert back.records == []

    def test_lf_line_endings_and_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(Trace("t", [make_record(0.0), make_record(0.02)]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")

    def test_nine_significant_digits(self):
        record = make_record(1.0 / 3.0, pixel_error_x=123456.789123)
        text = trace_to_csv(Trace("p", [record]))
        row = text.splitlines()[1].split(",")
        assert row[0] == "0.333333333"
        assert row[6] == "123456.789"

    @given(records=st.lists(record_strategy, max_size=5))
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_fixpoint(self, tmp_path, records):
        path = tmp_path / "rt.csv"
        trace = Trace("rt", records)
        write_trace_csv(trace, path)
        once = path.read_bytes()
        write_trace_csv(read_trace_csv(path), path)
        assert path.read_bytes() == once

    @given(records=st.lists(special_record_strategy, max_size=5))
    @settings(max_examples=300)
    def test_matches_cell_by_cell_writer(self, records):
        trace = Trace("w", records)
        assert trace_to_csv(trace) == frozen_trace_to_csv(trace)

    @pytest.mark.parametrize("records", [0, 1, 6, 7, 8, 20])
    def test_file_is_trace_to_csv_bytes_across_write_blocks(self, tmp_path, monkeypatch, records):
        # blocks of 7 rows: none, a part of one, one less than, exactly and
        # one past a block, and a last block of 6
        monkeypatch.setattr(traceio, "_ROWS_PER_WRITE", 7)
        trace = Trace("b", [make_record(0.02 * k, pixel_error_x=-0.0, op_count=k)
                            for k in range(records)])
        path = tmp_path / "b.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == trace_to_csv(trace).encode("utf-8")

    def test_readme_schema_block_is_the_header(self):
        section = README.read_text(encoding="utf-8").split("## Trace CSV schema", 1)[1]
        block = section.split("```", 2)[1]
        assert "".join(block.split()) == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == TraceRecord._fields

    def test_loop_cost_does_not_survive_the_round_trip(self, tmp_path):
        path = tmp_path / "run.csv"
        trace = run_scenario(default_scenario("run", duration=1.0))
        write_trace_csv(trace, path)
        assert trace.loop_cost_ns > 0
        assert read_trace_csv(path).loop_cost_ns == 0

    def test_round_trip_preserves_fields_to_precision(self, tmp_path):
        path = tmp_path / "rt.csv"
        trace = Trace("rt", [make_record(0.02 * k, pixel_error_x=k * 0.1,
                                         area_error=-k * 7.3, op_count=k)
                             for k in range(20)])
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        for a, b in zip(trace.records, back.records):
            assert b.t == pytest.approx(a.t, rel=1e-8)
            assert b.pixel_error_x == pytest.approx(a.pixel_error_x, rel=1e-8)
            assert b.detected == a.detected
            assert b.op_count == a.op_count


class TestStrictParsing:
    def write_and_mangle(self, tmp_path, mangle):
        path = tmp_path / "m.csv"
        write_trace_csv(Trace("m", [make_record(0.0), make_record(0.02)]), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mangle(lines)) + "\n")
        return path

    def test_permuted_header_names_offender(self, tmp_path):
        def swap(lines):
            header = lines[0].split(",")
            header[0], header[1] = header[1], header[0]
            return [",".join(header)] + lines[1:]

        path = self.write_and_mangle(tmp_path, swap)
        with pytest.raises(TraceFormatError, match="expected 't', found 'leader_x'"):
            read_trace_csv(path)

    def test_missing_column_reports_count(self, tmp_path):
        def drop(lines):
            return [",".join(lines[0].split(",")[:-1])] + lines[1:]

        def old_header(lines):
            # the header of a file written before 0.2.0, with its wall-clock column
            return [lines[0].replace(",op_count", ",loop_cost_us,op_count")] + lines[1:]

        for mangle, found in ((drop, 13), (old_header, 15)):
            path = self.write_and_mangle(tmp_path, mangle)
            with pytest.raises(TraceFormatError,
                               match=f"^line 1: expected 14 columns, found {found}$"):
                read_trace_csv(path)

    def test_bad_cell_reports_line(self, tmp_path):
        def corrupt(lines):
            cells = lines[2].split(",")
            cells[6] = "not-a-number"
            lines[2] = ",".join(cells)
            return lines

        path = self.write_and_mangle(tmp_path, corrupt)
        with pytest.raises(TraceFormatError, match="line 3.*pixel_error_x"):
            read_trace_csv(path)

    def test_short_row_reports_line(self, tmp_path):
        def truncate(lines):
            lines[1] = ",".join(lines[1].split(",")[:5])
            return lines

        path = self.write_and_mangle(tmp_path, truncate)
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace_csv(path)

    def test_bad_detected_flag_rejected(self, tmp_path):
        def corrupt(lines):
            cells = lines[1].split(",")
            cells[12] = "maybe"
            lines[1] = ",".join(cells)
            return lines

        path = self.write_and_mangle(tmp_path, corrupt)
        with pytest.raises(TraceFormatError, match="detected"):
            read_trace_csv(path)

    def test_blank_line_between_rows_skipped(self, tmp_path):
        records = [make_record(0.0), make_record(0.02, pixel_error_x=3.5)]
        path = tmp_path / "gap.csv"
        write_trace_csv(Trace("gap", records), path)
        header, first, second = path.read_text().splitlines()
        path.write_text(f"{header}\n{first}\n \n{second}\n")
        assert read_trace_csv(path) == Trace("gap", records)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "void.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            read_trace_csv(path)
