"""Trace persistence: the fixed-schema CSV used by every command.

Floats are written with 9 significant digits, LF line endings, UTF-8. The
reader is strict about the header (name and order) so schema drift or a
hand-mangled file fails loudly with the offending column or line.
"""
from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .simulate import Trace, TraceRecord

CSV_COLUMNS = tuple(f.name for f in fields(TraceRecord))

class TraceFormatError(ValueError):
    pass


def _format_value(column: str, value) -> str:
    if column == "detected":
        return "1" if value else "0"
    if column == "op_count":
        return str(int(value))
    return format(float(value), ".9g")


def trace_to_csv(trace: Trace) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for record in trace.records:
        lines.append(
            ",".join(_format_value(c, getattr(record, c)) for c in CSV_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: Trace, path) -> None:
    Path(path).write_bytes(trace_to_csv(trace).encode("utf-8"))


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
        values = {
            column: _parse_cell(column, cell.strip(), lineno)
            for column, cell in zip(CSV_COLUMNS, cells)
        }
        records.append(TraceRecord(**values))
    return Trace(path.stem, records)
