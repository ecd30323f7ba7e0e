"""Standalone SVG time-series plots of one control channel.

Dual-axis layout: time runs along the horizontal axis, the channel's error
column uses the left axis, and its PWM command sits on a fixed 0-180 right
axis. Output is plain SVG built with ElementTree, so the file is well-formed
XML with no external references and each polyline has exactly one point per
trace record. A polyline point gets the float operations of `_Scale.__call__`,
each record's x coordinate is formatted once for both polylines, and one
format call fills each polyline's points.
"""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from operator import attrgetter
from pathlib import Path

from .actuation import PWM_MAX
from .metrics import channel_columns
from .simulate import Trace

SVG_NS = "http://www.w3.org/2000/svg"

_ERROR_COLOR, _COMMAND_COLOR = "#1f6fb2", "#d1495b"

_WIDTH, _HEIGHT = 840, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 70, 40, 50


def _axis_range(values: list[float]) -> tuple[float, float]:
    if not all(map(math.isfinite, values)):  # min and max pass over a NaN past the first
        raise ValueError("cannot plot non-finite values")
    lo = min(values)
    hi = max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0  # 0 for lo = 0 and for a tiny subnormal lo
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Scale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)

    def each(self, values) -> list[float]:
        """self(v) for each of values, by the same float operations."""
        lo, span = self.lo, self.hi - self.lo
        out_lo, out_span = self.out_lo, self.out_hi - self.out_lo
        return [out_lo + (v - lo) / span * out_span for v in values]

    def ticks(self, n: int = 5) -> list[float]:
        return [self.lo + i * (self.hi - self.lo) / (n - 1) for i in range(n)]


def _text(parent, x, y, content, size=12, anchor="middle", rotate=None, color="#333"):
    attrs = {
        "x": f"{x:.2f}",
        "y": f"{y:.2f}",
        "font-size": str(size),
        "font-family": "sans-serif",
        "text-anchor": anchor,
        "fill": color,
    }
    if rotate is not None:
        attrs["transform"] = f"rotate({rotate:g} {x:.2f} {y:.2f})"
    el = ET.SubElement(parent, "text", attrs)
    el.text = content
    return el


def _line(parent, x1, y1, x2, y2):
    ET.SubElement(
        parent,
        "line",
        {
            "x1": f"{x1:.2f}", "y1": f"{y1:.2f}",
            "x2": f"{x2:.2f}", "y2": f"{y2:.2f}",
            "stroke": "#333", "stroke-width": "1",
        },
    )


def write_plot_svg(trace: Trace, channel: str, path) -> None:
    """Plot a control channel, steering or throttle, against time into an SVG
    file: its error column on the left axis, its PWM command on the right."""
    error, command = channel_columns(channel)

    records = trace.records
    ts = list(map(attrgetter("t"), records))
    errors = list(map(float, map(attrgetter(error), records)))
    commands = list(map(float, map(attrgetter(command), records)))
    if not all(0.0 <= v <= PWM_MAX for v in commands):  # false for a NaN too
        raise ValueError(f"cannot plot {command} values outside [0, {PWM_MAX:g}]")

    svg = ET.Element(
        "svg",
        {
            "xmlns": SVG_NS,
            "width": str(_WIDTH),
            "height": str(_HEIGHT),
            "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
        },
    )
    ET.SubElement(
        svg, "rect",
        {"x": "0", "y": "0", "width": str(_WIDTH), "height": str(_HEIGHT), "fill": "white"},
    )

    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T  # y grows downward in SVG

    x_scale = _Scale(*(_axis_range(ts) if ts else (0.0, 1.0)), x0, x1)
    left_scale = _Scale(*(_axis_range(errors) if errors else (0.0, 1.0)), y0, y1)
    right_scale = _Scale(0.0, PWM_MAX, y0, y1)

    # frame and ticks
    _line(svg, x0, y0, x1, y0)
    _line(svg, x0, y0, x0, y1)
    _line(svg, x1, y0, x1, y1)
    for t in x_scale.ticks():
        px = x_scale(t)
        _line(svg, px, y0, px, y0 + 5)
        _text(svg, px, y0 + 18, f"{t:.4g}")
    for v in left_scale.ticks():
        py = left_scale(v)
        _line(svg, x0 - 5, py, x0, py)
        _text(svg, x0 - 10, py + 4, f"{v:.4g}", anchor="end")
    for v in right_scale.ticks():
        py = right_scale(v)
        _line(svg, x1, py, x1 + 5, py)
        _text(svg, x1 + 10, py + 4, f"{v:.4g}", anchor="start")

    _text(svg, (x0 + x1) / 2, _HEIGHT - 12, "time (s)", size=13)
    _text(svg, 18, (y0 + y1) / 2, error, size=13, rotate=-90)
    _text(svg, _WIDTH - 16, (y0 + y1) / 2, "PWM", size=13, rotate=90)
    _text(svg, (x0 + x1) / 2, 22, trace.name, size=14)

    # each record's x text, then its y value, in turn: both polylines share the x texts
    points = [None] * (2 * len(ts))
    points[::2] = ["%.2f" % px for px in x_scale.each(ts)]
    for i, (ch, values, scale, color) in enumerate((
        (error, errors, left_scale, _ERROR_COLOR),
        (command, commands, right_scale, _COMMAND_COLOR),
    )):
        if len(ts) >= 2:
            points[1::2] = scale.each(values)
            text = " ".join(["%s,%.2f"] * len(ts)) % tuple(points)
            ET.SubElement(svg, "polyline", {"points": text, "fill": "none", "stroke": color,
                                            "stroke-width": "1.5"})
        else:
            for px, py in zip(map(x_scale, ts), map(scale, values)):
                ET.SubElement(svg, "circle",
                              {"cx": f"{px:.2f}", "cy": f"{py:.2f}", "r": "3", "fill": color})
        _text(svg, x1 - 8, y1 + 16 + 16 * i, ch, anchor="end", color=color)

    ET.ElementTree(svg).write(Path(path), encoding="utf-8", xml_declaration=True)
