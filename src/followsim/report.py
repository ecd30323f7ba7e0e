"""Markdown rendering of a ComparisonReport: one row per metric."""
from __future__ import annotations

import math
from pathlib import Path

from .metrics import METRIC_FIELDS, ComparisonReport

_UNITS = {
    "rise_time": "s",
    "settling_time": "s",
    "overshoot": "%",
    "steady_state_error": "signal",
    "rms_error": "signal",
    "control_effort_tv": "pwm",
    "mean_op_count": "ops",
}


def _cell(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "n/a"
    return format(value, ".6g")


def format_report(report: ComparisonReport) -> str:
    lines = [
        f"# Controller comparison: {report.scenario}",
        "",
        "| metric | unit | pid | fuzzy | winner | margin |",
        "|---|---|---|---|---|---|",
    ]
    for metric, pid, fuzzy in zip(METRIC_FIELDS, report.pid, report.fuzzy):
        lines.append(
            "| {m} | {u} | {p} | {f} | {w} | {g} |".format(
                m=metric,
                u=_UNITS[metric],
                p=_cell(pid),
                f=_cell(fuzzy),
                w=report.winners[metric],
                g=_cell(report.margins[metric]),
            )
        )
    if report.notes:
        lines.append("")
        for note in report.notes:
            lines.append(f"- {note}")
    return "\n".join(lines) + "\n"


def write_report(report: ComparisonReport, path) -> None:
    Path(path).write_text(format_report(report), encoding="utf-8")
