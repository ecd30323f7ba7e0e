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
    pid_ops, fuzzy_ops = report.pid.mean_op_count, report.fuzzy.mean_op_count
    if fuzzy_ops > pid_ops:
        ratio = f" ({fuzzy_ops / pid_ops:.0f}x)" if pid_ops else ""
        lines += ["", f"- fuzzy control costs more per loop: "
                      f"{fuzzy_ops:.0f} vs {pid_ops:.0f} float ops{ratio}"]
    return "\n".join(lines) + "\n"


def write_report(report: ComparisonReport, path) -> None:
    Path(path).write_text(format_report(report), encoding="utf-8")
