"""Two-input Mamdani fuzzy controller.

FuzzyConfig samples every output set once on a fixed uniform grid over the
output universe; fuzzy_step then grades (error, error rate), clips each fired
rule's output curve (min/max inference) and returns the aggregate's centroid.
Everything is built from triangular/trapezoidal sets; the default layout is the
textbook workhorse: five 50%-overlap triangles per variable and a 25-rule
diagonal table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_LABELS = ("NL", "NS", "Z", "PS", "PL")
MIN_GRID_POINTS = 201
# caps the memory and per-step work of one output grid (100x the default)
MAX_GRID_POINTS = 100_001
# centroid discretization error is first order in grid spacing when a clipped
# set rides the universe edge; 1001 points keeps it a few 1e-4 of the span
DEFAULT_GRID_POINTS = 1001


class FuzzyError(ValueError):
    pass


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular (3 breakpoints) or trapezoidal (4) set over one universe."""

    breakpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(b) for b in self.breakpoints)
        if len(pts) not in (3, 4):
            raise FuzzyError("breakpoints must have 3 (triangle) or 4 (trapezoid) values")
        if any(not math.isfinite(b) for b in pts):
            raise FuzzyError("non-finite breakpoint")
        if any(b1 < b0 for b0, b1 in zip(pts, pts[1:])):
            raise FuzzyError("breakpoints must be non-decreasing")
        object.__setattr__(self, "breakpoints", pts)

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """The grade of every grid point x, in [0, 1]: 0 outside [a, c], 1 on
        the core [lo, hi] (a triangle's peak), else (x - a) / (lo - a) rising
        and (c - x) / (c - hi) falling, so zero-width edges act as steps.
        _fired's branches and IEEE operations, so its bits."""
        x = np.asarray(grid, dtype=float)
        a, *core, c = self.breakpoints  # a triangle's core is its peak
        lo, hi = core[0], core[-1]
        with np.errstate(all="ignore"):
            grade = np.where(x < lo, (x - a) / (lo - a), (c - x) / (c - hi))
        grade[(lo <= x) & (x <= hi)] = 1.0
        grade[(x < a) | (x > c)] = 0.0
        return grade

    def scaled(self, k: float) -> "MembershipFunction":
        return MembershipFunction(tuple(k * b for b in self.breakpoints))


def _check_coverage(name: str, table, universe: tuple[float, float]) -> None:
    """Raise unless every point of the universe has a positive grade in some
    (index, a, lo, hi, c) set of the table.

    A set is positive on its open support (a, c) plus its closed core, so
    coverage can only change at a breakpoint. Probing every breakpoint inside
    the universe, both universe ends, and one point between each neighboring
    pair therefore sweeps the whole universe exactly.
    """
    lo, hi = universe
    points = sorted({lo, hi, *(b for _, *bs in table for b in bs if lo < b < hi)})
    probes = points + [0.5 * p + 0.5 * q for p, q in zip(points, points[1:])]
    for x in probes:
        if not _fired(universe, table, x):
            raise FuzzyError(f"{name} sets leave {x:g} uncovered")


@dataclass(frozen=True)
class FuzzyConfig:
    error_sets: dict[str, MembershipFunction]
    delta_sets: dict[str, MembershipFunction]
    output_sets: dict[str, MembershipFunction]
    rules: dict[tuple[str, str], str]
    error_universe: tuple[float, float]
    delta_universe: tuple[float, float]
    output_universe: tuple[float, float]
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        for name, universe in (
            ("error", self.error_universe),
            ("error_delta", self.delta_universe),
            ("output", self.output_universe),
        ):
            lo, hi = universe
            if not (lo < hi and math.isfinite(hi - lo)):
                raise FuzzyError(f"bad {name} universe {universe!r}")
        if not MIN_GRID_POINTS <= self.grid_points <= MAX_GRID_POINTS:
            raise FuzzyError(f"grid_points must be in [{MIN_GRID_POINTS}, {MAX_GRID_POINTS}]")
        if not math.isfinite(self.grid_points * max(map(abs, self.output_universe))):
            raise FuzzyError(f"output universe {self.output_universe!r} overflows the centroid sum")
        if not self.error_sets or not self.delta_sets or not self.output_sets:
            raise FuzzyError("every variable needs at least one set")
        # each variable's sets as (set index, a, lo, hi, c), which the coverage
        # checks read; the input ones, the output grid and the rule table are
        # the read-only per-step tables. A rule table cell, indexed by (error
        # set index, delta set index), is the rule's output label, the support
        # slice of that label's curve on the grid, and the curve's view over it
        error_table, delta_table, output_table = (
            tuple((i, *mf.breakpoints[:2], *mf.breakpoints[-2:])
                  for i, mf in enumerate(sets.values()))
            for sets in (self.error_sets, self.delta_sets, self.output_sets))
        _check_coverage("error", error_table, self.error_universe)
        _check_coverage("error_delta", delta_table, self.delta_universe)
        _check_coverage("output", output_table, self.output_universe)
        object.__setattr__(self, "error_table", error_table)
        object.__setattr__(self, "delta_table", delta_table)
        grid = np.linspace(*self.output_universe, self.grid_points)
        grid.flags.writeable = False
        object.__setattr__(self, "output_grid", grid)
        cells = {}
        for label, mf in self.output_sets.items():
            curve = mf.on_grid(grid)
            curve.flags.writeable = False
            nonzero = np.flatnonzero(curve)
            if not nonzero.size:
                raise FuzzyError(f"output set {label} has no positive sample on the output grid")
            span = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
            cells[label] = (label, span, curve[span])

        expected = {(e, d) for e in self.error_sets for d in self.delta_sets}
        if set(self.rules) != expected:
            missing = sorted(expected - set(self.rules))
            extra = sorted(set(self.rules) - expected)
            raise FuzzyError(f"rule table not total: missing {missing}, extra {extra}")
        for out in self.rules.values():
            if out not in self.output_sets:
                raise FuzzyError(f"rule output {out!r} is not an output set")
        rule_table = tuple(tuple(cells[self.rules[e, d]] for d in self.delta_sets)
                           for e in self.error_sets)
        object.__setattr__(self, "rule_table", rule_table)


def _fired(universe: tuple[float, float], table, x: float) -> list[tuple[int, float]]:
    """Clamp x to the universe (the bits of min(max(x, lo), hi)), then give the
    (index, grade) of each (index, a, lo, hi, c) set that grades it above 0,
    by on_grid's formula."""
    lo, hi = universe
    x = lo if x < lo else hi if x > hi else x
    fired = []
    for index, a, lo, hi, c in table:
        if a <= x <= c:
            grade = 1.0 if lo <= x <= hi else (x - a) / (lo - a) if x < lo else (c - x) / (c - hi)
            if grade > 0.0:
                fired.append((index, grade))
    return fired


def fuzzy_step(config: FuzzyConfig, error: float, error_delta: float) -> float:
    """Crisp controller output for one (error, error rate) sample.

    Each input is clamped to its universe and graded in every set. A rule
    fires with strength min(error grade, delta grade) and clips its output
    curve there; the clipped curves are max-aggregated, and the output is the
    aggregate's weighted-mean centroid over the grid, clamped into the output
    universe, which the rounded quotient can miss by an ulp. Only positive
    grades fire (at most 4 of the default 25 rules, whose sets overlap by
    half), and config.rule_table gives each fired (error set, delta set) pair
    its output label, support slice and curve in one lookup. Each output label
    clips once at its largest strength (max_r min(curve, s_r) == min(curve,
    max_r s_r)) and only over its support. The first label clips straight
    into the zero aggregate: no curve sample is negative or -0.0 and every
    strength is positive, so max(+0.0, min(curve, s)) is min(curve, s). The
    sum and dot stay full-grid, as a sliced reduction would change the bits.
    The sum is positive for any config FuzzyConfig built, as its tables are
    read-only: coverage is checked exactly, so some rule fires with a positive
    strength, and its label's support slice is positive throughout.
    """
    if not (math.isfinite(error) and math.isfinite(error_delta)):
        name = "error_delta" if math.isfinite(error) else "error"
        raise FuzzyError(f"non-finite controller input {name}")
    e_fired = _fired(config.error_universe, config.error_table, error)
    d_fired = _fired(config.delta_universe, config.delta_table, error_delta)
    clips: dict[str, list] = {}  # output label -> [strength, span, curve]
    for i, e_grade in e_fired:
        row = config.rule_table[i]
        for j, d_grade in d_fired:
            label, span, curve = row[j]
            strength = d_grade if d_grade < e_grade else e_grade  # min(e_grade, d_grade)
            clip = clips.get(label)
            if clip is None:
                clips[label] = [strength, span, curve]
            elif strength > clip[0]:
                clip[0] = strength
    aggregate = np.zeros(config.grid_points)
    rest = iter(clips.values())
    strength, span, curve = next(rest)  # some rule fires: both inputs are covered
    np.minimum(curve, strength, out=aggregate[span])
    for strength, span, curve in rest:
        seg = aggregate[span]
        np.maximum(seg, np.minimum(curve, strength), out=seg)
    out = float(config.output_grid.dot(aggregate) / np.add.reduce(aggregate))
    # the bits of min(max(x, lo), hi)
    lo, hi = config.output_universe
    return lo if out < lo else hi if out > hi else out


def _scaled_output(sets: dict[str, MembershipFunction], universe: tuple[float, float], k: float):
    """Output sets and output universe scaled by k > 0."""
    if k <= 0:
        raise FuzzyError("scale factor must be positive")
    return {label: mf.scaled(k) for label, mf in sets.items()}, tuple(k * u for u in universe)


def scale_output(config: FuzzyConfig, k: float) -> FuzzyConfig:
    """Scale the output universe and every output set by k > 0 (tuning knob)."""
    output_sets, output_universe = _scaled_output(config.output_sets, config.output_universe, k)
    return replace(config, output_sets=output_sets, output_universe=output_universe)


def _five_triangles(span: float) -> dict[str, MembershipFunction]:
    half = span / 2.0
    centers = (-span, -half, 0.0, half, span)
    return {
        label: MembershipFunction((c - half, c, c + half))
        for label, c in zip(DEFAULT_LABELS, centers)
    }


def default_fuzzy_config(
    error_span: float,
    delta_span: float,
    output_span: float = 1.0,
    grid_points: int = DEFAULT_GRID_POINTS,
    *,
    sets: dict[tuple[str, str], MembershipFunction] | None = None,
    rules: dict[tuple[str, str], str] | None = None,
    output_scale: float | None = None,
) -> FuzzyConfig:
    """Symmetric 5x5 controller over [-span, span] universes: five triangles per
    variable and the diagonal rule table (output = clamp(error + delta - 2) by
    label index). `sets` replaces (var, label) sets of var error, delta or output,
    `rules` replaces (E, D) cells, then output_scale scales the output; built once."""
    spans = {"error": error_span, "delta": delta_span, "output": output_span}
    if min(spans.values()) <= 0:
        raise FuzzyError("universe spans must be positive")
    var_sets = {var: _five_triangles(span) for var, span in spans.items()}
    table = {(e, d): DEFAULT_LABELS[min(max(i + j - 2, 0), 4)]
             for i, e in enumerate(DEFAULT_LABELS) for j, d in enumerate(DEFAULT_LABELS)}
    for (var, label), mf in (sets or {}).items():
        if label not in var_sets.get(var, ()):
            raise FuzzyError(f"no {var} set {label!r} to replace")
        var_sets[var][label] = mf
    for cell, out in (rules or {}).items():
        if cell not in table:
            raise FuzzyError(f"no rule cell {cell!r}")
        table[cell] = out
    output_sets, output_universe = var_sets["output"], (-output_span, output_span)
    if output_scale is not None:
        output_sets, output_universe = _scaled_output(output_sets, output_universe, output_scale)
    return FuzzyConfig(
        error_sets=var_sets["error"], delta_sets=var_sets["delta"], output_sets=output_sets,
        rules=table, error_universe=(-error_span, error_span),
        delta_universe=(-delta_span, delta_span), output_universe=output_universe,
        grid_points=grid_points,
    )

