import math
import xml.etree.ElementTree as ET
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_record, unknown_channel
from followsim import Trace, write_plot_svg
from followsim.metrics import CHANNEL_COLUMNS
from followsim.svgplot import (_HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH,
                               SVG_NS, _axis_range, _Scale, _text)

SVG = "{http://www.w3.org/2000/svg}"


def small_trace(n=50):
    return Trace("plotme", [
        make_record(0.02 * k, pixel_error_x=40.0 - k, steering_pwm=90.0 + k / 2.0)
        for k in range(n)
    ])


class TestWritePlotSvg:
    def test_valid_xml_with_one_polyline_per_channel(self, tmp_path):
        path = tmp_path / "p.svg"
        write_plot_svg(small_trace(), "steering", path)
        root = ET.parse(path).getroot()
        assert root.tag == f"{SVG}svg"
        polylines = root.findall(f"{SVG}polyline")
        assert len(polylines) == 2

    def test_polyline_point_count_equals_record_count(self, tmp_path):
        n = 37
        path = tmp_path / "p.svg"
        write_plot_svg(small_trace(n), "steering", path)
        for polyline in ET.parse(path).getroot().findall(f"{SVG}polyline"):
            assert len(polyline.attrib["points"].split()) == n

    def test_single_record_degenerates_to_points(self, tmp_path):
        path = tmp_path / "single.svg"
        write_plot_svg(small_trace(1), "steering", path)
        root = ET.parse(path).getroot()
        assert not root.findall(f"{SVG}polyline")
        assert len(root.findall(f"{SVG}circle")) == 2

    def test_empty_trace_still_valid(self, tmp_path):
        path = tmp_path / "empty.svg"
        write_plot_svg(Trace("empty", []), "steering", path)
        root = ET.parse(path).getroot()
        assert not root.findall(f"{SVG}polyline")

    def test_flat_subnormal_range_still_valid(self, tmp_path):
        # a tenth of 5e-324 underflows to 0, so the axis pads by 1 as at 0
        assert _axis_range([5e-324]) == (-1.0, 1.0)
        path = tmp_path / "tiny.svg"
        write_plot_svg(Trace("tiny", [make_record(5e-324, pixel_error_x=5e-324)]),
                       "steering", path)
        root = ET.parse(path).getroot()
        assert len(root.findall(f"{SVG}circle")) == 2

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_error_rejected(self, tmp_path, at):
        # min() and max() skip a NaN that is not the first value
        trace = Trace("nan", [make_record(0.02 * k, pixel_error_x=math.nan if k == at else 1.0)
                              for k in range(3)])
        with pytest.raises(ValueError, match="^cannot plot non-finite values$"):
            write_plot_svg(trace, "steering", tmp_path / "nan.svg")

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 180.5, -1.0])
    def test_command_outside_its_axis_rejected(self, tmp_path, at, bad):
        trace = Trace("pwm", [make_record(0.02 * k, throttle_pwm=bad if k == at else 180.0)
                              for k in range(3)])
        message = r"^cannot plot throttle_pwm values outside \[0, 180\]$"
        with pytest.raises(ValueError, match=message):
            write_plot_svg(trace, "throttle", tmp_path / "pwm.svg")
        assert not (tmp_path / "pwm.svg").exists()
        write_plot_svg(trace, "steering", tmp_path / "pwm.svg")  # a column it does not draw

    def test_unknown_channel_rejected(self, tmp_path):
        for value in ("pixel_error_y", "", "Throttle", []):
            with pytest.raises(ValueError, match=unknown_channel(value)):
                write_plot_svg(small_trace(), value, tmp_path / "x.svg")

    @pytest.mark.parametrize("channels", [
        ["pixel_error_x"],
        ["steering_pwm"],
        ["pixel_error_x", "throttle_pwm"],
        ["steering_pwm", "pixel_error_x"],
        ["throttle_pwm", "area_error"],
        ["pixel_error_x", "steering_pwm", "area_error", "throttle_pwm"],
        ["pixel_error_x", "steering_pwm"],
        ("area_error", "throttle_pwm"),
    ])
    def test_only_one_channel_pair_plots(self, tmp_path, channels):
        # a channel plots by its name alone: a column or a list of columns,
        # even a channel's own (error, command) pair, names no channel
        with pytest.raises(ValueError, match=unknown_channel(channels)):
            write_plot_svg(small_trace(), channels, tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()

    def test_no_external_references(self, tmp_path):
        path = tmp_path / "p.svg"
        write_plot_svg(small_trace(), "steering", path)
        text = path.read_text()
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "href" not in text

    def test_dual_axis_layout(self, tmp_path):
        # pwm channel present: right axis labeled PWM; error on the left axis
        path = tmp_path / "p.svg"
        write_plot_svg(small_trace(), "steering", path)
        texts = [el.text for el in ET.parse(path).getroot().findall(f"{SVG}text")]
        assert "PWM" in texts
        assert "pixel_error_x" in texts
        assert "time (s)" in texts


@settings(max_examples=200)
@given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20),
       out=st.sampled_from([(_MARGIN_L, _WIDTH - _MARGIN_R), (_HEIGHT - _MARGIN_B, _MARGIN_T)]))
def test_each_places_points_with_the_bits_of_one_call_per_point(values, out):
    # a polyline point rounds to 0.01 px, which seldom shows a change of op order
    scale = _Scale(*_axis_range(values), *out)
    assert [y.hex() for y in scale.each(values)] == [scale(v).hex() for v in values]


# ---------------------------------------------------------------------------
# frozen reference: the multi-column plotter as it stood before the plot took
# exactly one channel pair, restricted to the columns a pair can name, with
# its axis range from before a flat range whose pad underflows got a pad of 1

_FROZEN_PWM_CHANNELS = ("steering_pwm", "throttle_pwm")
_FROZEN_COLORS = ("#1f6fb2", "#d1495b", "#3c8d40", "#8d5fb2", "#c67c1d", "#46969b")


def _frozen_axis_range(values):
    lo = min(values)
    hi = max(values)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cannot plot non-finite values")
    if lo == hi:
        pad = 1.0 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _frozen_line(parent, x1, y1, x2, y2, color="#888", width=1.0):
    ET.SubElement(parent, "line", {"x1": f"{x1:.2f}", "y1": f"{y1:.2f}", "x2": f"{x2:.2f}",
                                   "y2": f"{y2:.2f}", "stroke": color, "stroke-width": f"{width:g}"})


def frozen_write_plot_svg(trace, channels, path) -> None:
    channels = list(channels)
    records = trace.records
    ts = [r.t for r in records]
    series = {ch: [float(getattr(r, ch)) for r in records] for ch in channels}
    left = [ch for ch in channels if ch not in _FROZEN_PWM_CHANNELS]
    right = [ch for ch in channels if ch in _FROZEN_PWM_CHANNELS]

    svg = ET.Element("svg", {"xmlns": SVG_NS, "width": str(_WIDTH), "height": str(_HEIGHT),
                             "viewBox": f"0 0 {_WIDTH} {_HEIGHT}"})
    ET.SubElement(svg, "rect", {"x": "0", "y": "0", "width": str(_WIDTH),
                                "height": str(_HEIGHT), "fill": "white"})
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    t_lo, t_hi = _frozen_axis_range(ts) if ts else (0.0, 1.0)
    x_scale = _Scale(t_lo, t_hi, x0, x1)
    left_values = [v for ch in left for v in series[ch]]
    left_scale = _Scale(*(_frozen_axis_range(left_values) if left_values else (0.0, 1.0)), y0, y1)
    right_scale = _Scale(0.0, 180.0, y0, y1)

    _frozen_line(svg, x0, y0, x1, y0, color="#333")
    _frozen_line(svg, x0, y0, x0, y1, color="#333")
    if right:
        _frozen_line(svg, x1, y0, x1, y1, color="#333")
    for t in x_scale.ticks():
        px = x_scale(t)
        _frozen_line(svg, px, y0, px, y0 + 5, color="#333")
        _text(svg, px, y0 + 18, f"{t:.4g}")
    for v in left_scale.ticks():
        py = left_scale(v)
        _frozen_line(svg, x0 - 5, py, x0, py, color="#333")
        _text(svg, x0 - 10, py + 4, f"{v:.4g}", anchor="end")
    if right:
        for v in right_scale.ticks():
            py = right_scale(v)
            _frozen_line(svg, x1, py, x1 + 5, py, color="#333")
            _text(svg, x1 + 10, py + 4, f"{v:.4g}", anchor="start")
    _text(svg, (x0 + x1) / 2, _HEIGHT - 12, "time (s)", size=13)
    if left:
        _text(svg, 18, (y0 + y1) / 2, ", ".join(left), size=13, rotate=-90)
    if right:
        _text(svg, _WIDTH - 16, (y0 + y1) / 2, "PWM", size=13, rotate=90)
    _text(svg, (x0 + x1) / 2, 22, trace.name, size=14)

    for i, ch in enumerate(channels):
        color = _FROZEN_COLORS[i % len(_FROZEN_COLORS)]
        scale = right_scale if ch in _FROZEN_PWM_CHANNELS else left_scale
        points = [(x_scale(t), scale(v)) for t, v in zip(ts, series[ch])]
        if len(points) >= 2:
            ET.SubElement(svg, "polyline", {
                "points": " ".join(f"{px:.2f},{py:.2f}" for px, py in points),
                "fill": "none", "stroke": color, "stroke-width": "1.5",
            })
        else:
            for px, py in points:
                ET.SubElement(svg, "circle",
                              {"cx": f"{px:.2f}", "cy": f"{py:.2f}", "r": "3", "fill": color})
        _text(svg, x1 - 8, y1 + 16 + 16 * i, ch, anchor="end", color=color)
    ET.ElementTree(svg).write(Path(path), encoding="utf-8", xml_declaration=True)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
# a title that XML escapes, and text past ASCII
_ESCAPED_NAME = 'a & b <c> "d" éß 直線'


@st.composite
def plotted_cases(draw):
    """A channel, and a trace of 0, 1 or up to 300 records with increasing
    times, any finite values in the channel's error column and PWM commands
    in 0-180; the other channel's columns keep their defaults, so that a long
    trace fits in the draws hypothesis allows one example."""
    channel = draw(st.sampled_from(sorted(CHANNEL_COLUMNS)))
    error, command = CHANNEL_COLUMNS[channel]
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 300)))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    ts = accumulate(steps, initial=draw(st.floats(0.0, 100.0)))
    pwm = st.floats(0.0, 180.0)
    records = [make_record(t, **{error: draw(_finite), command: draw(pwm)})
               for t, _ in zip(ts, steps)]
    return Trace(draw(st.sampled_from(["plot", "s_curve_path_pid", _ESCAPED_NAME])), records), channel


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=plotted_cases())
@example(case=(Trace("empty", []), "throttle"))
@example(case=(Trace("flat", [make_record(0.02 * k) for k in range(5)]), "steering"))
@example(case=(Trace("two", [make_record(0.5, area_error=-3.0, throttle_pwm=0.0),
                             make_record(0.52, area_error=4.5, throttle_pwm=180.0)]), "throttle"))
@example(case=(Trace("flat_error", [make_record(0.02 * k, pixel_error_x=-12.5, steering_pwm=90.0 + k)
                                    for k in range(7)]), "steering"))
@example(case=(Trace(_ESCAPED_NAME, [make_record(0.02 * k, pixel_error_x=float(k * k))
                                     for k in range(4)]), "steering"))
def test_plot_is_byte_identical_to_frozen_multi_column_plotter(tmp_path, case):
    # the frozen plotter places every point through _Scale.__call__, one at a time
    trace, channel = case
    try:
        frozen_write_plot_svg(trace, CHANNEL_COLUMNS[channel], tmp_path / "want.svg")
    except ZeroDivisionError:
        # a flat range at a value so small that a tenth of it underflows to 0:
        # the frozen plotter pads it by nothing and divides by a zero span
        assume(False)
    write_plot_svg(trace, channel, tmp_path / "got.svg")
    assert (tmp_path / "got.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()
