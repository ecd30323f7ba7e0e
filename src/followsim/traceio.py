"""Trace persistence: the fixed-schema CSV used by every command.

Floats are written with 9 significant digits, LF line endings, UTF-8. The
reader is strict about the header (name and order) so schema drift or a
hand-mangled file fails loudly with the offending column or line.
"""
from __future__ import annotations

from pathlib import Path

from .simulate import Trace, TraceRecord

CSV_COLUMNS = TraceRecord._fields
# one record is one row: a TraceRecord is a tuple in column order
_ROW = ",".join(
    "%d" if column in ("detected", "op_count") else "%.9g" for column in CSV_COLUMNS
) + "\n"
# rows formatted and written together: about 1 MB of text
_ROWS_PER_WRITE = 16384

class TraceFormatError(ValueError):
    pass


def trace_to_csv(trace: Trace) -> str:
    return ",".join(CSV_COLUMNS) + "\n" + "".join(_ROW % r for r in trace.records)


def write_trace_csv(trace: Trace, path) -> None:
    """Write the bytes of trace_to_csv a block of rows at a time, so that the
    text held at once stays about one block long however long the trace.
    The header goes out with the first block, so a trace of one block (or
    none) is one write, as one string was."""
    records = trace.records
    text = ",".join(CSV_COLUMNS) + "\n"
    with open(path, "wb") as f:
        for lo in range(0, len(records) or 1, _ROWS_PER_WRITE):
            block = records[lo:lo + _ROWS_PER_WRITE]
            f.write((text + "".join(_ROW % r for r in block)).encode("utf-8"))
            text = ""


def _parse_cell(column: str, raw: str, lineno: int):
    try:
        if column == "detected":
            if raw not in ("0", "1"):
                raise ValueError
            return raw == "1"
        if column == "op_count":
            return int(raw)
        return float(raw)
    except ValueError:
        raise TraceFormatError(
            f"line {lineno}: column {column!r}: cannot parse {raw!r}"
        ) from None


def read_trace_csv(path) -> Trace:
    """Read a trace back; the name is the file stem (config does not persist)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise TraceFormatError("line 1: empty file, expected a header row")

    header = [cell.strip() for cell in lines[0].split(",")]
    if len(header) != len(CSV_COLUMNS):
        raise TraceFormatError(
            f"line 1: expected {len(CSV_COLUMNS)} columns, found {len(header)}"
        )
    for i, (expected, found) in enumerate(zip(CSV_COLUMNS, header)):
        if expected != found:
            raise TraceFormatError(
                f"line 1: column {i + 1}: expected {expected!r}, found {found!r}"
            )

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise TraceFormatError(
                f"line {lineno}: expected {len(CSV_COLUMNS)} cells, found {len(cells)}"
            )
        records.append(TraceRecord(*(
            _parse_cell(column, cell.strip(), lineno)
            for column, cell in zip(CSV_COLUMNS, cells)
        )))
    return Trace(path.stem, records)
