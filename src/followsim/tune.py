"""Exhaustive grid-search tuning of one control channel.

The grid file is read by the scenario file's line reader: `kp = 0.5, 1, 2`
lines for a PID channel or a single `output_scale = ...` line for a fuzzy
channel (the one structural knob exposed: scaling the output universe).
Every candidate runs the scenario once; candidates are ranked by the chosen
objective with ties broken by lower steering/throttle total variation, then
by gain order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .fuzzy import scale_output
from .metrics import CHANNEL_COLUMNS, objective_value, trace_metrics
from .pid import MAX_GAIN
from .scenario import ScenarioConfig, ScenarioError, _parse_float_list, _read_sections
from .simulate import Trace, execute_archetype

OBJECTIVES = ("itae", "ise", "rms")
PID_GRID_KEYS = ("kp", "ki", "kd")
FUZZY_GRID_KEYS = ("output_scale",)


class TuneError(ValueError):
    pass


@dataclass(frozen=True)
class TuneSpec:
    channel: str
    objective: str
    grid: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        if self.channel not in CHANNEL_COLUMNS:
            raise TuneError(f"unknown channel {self.channel!r}")
        if self.objective not in OBJECTIVES:
            raise TuneError(f"unknown objective {self.objective!r}")
        if not self.grid:
            raise TuneError("empty tuning grid")
        keys = tuple(sorted(self.grid))
        if not (set(keys) <= set(PID_GRID_KEYS) or set(keys) <= set(FUZZY_GRID_KEYS)):
            raise TuneError(
                f"grid keys {keys} must be kp/ki/kd (pid) or output_scale (fuzzy)"
            )
        for key, values in self.grid.items():
            if not values:
                raise TuneError(f"grid for {key!r} is empty")
            if any(not math.isfinite(v) for v in values):
                raise TuneError(f"grid for {key!r} has non-finite values")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise TuneError(f"grid for {key!r} must be strictly ascending")

    @property
    def mode(self) -> str:
        return "pid" if set(self.grid) <= set(PID_GRID_KEYS) else "fuzzy"

    @property
    def ordered_keys(self) -> tuple[str, ...]:
        base = PID_GRID_KEYS if self.mode == "pid" else FUZZY_GRID_KEYS
        return tuple(k for k in base if k in self.grid)


def _parse_grid_values(raw: str) -> tuple[float, ...]:
    values = _parse_float_list(raw)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ScenarioError(f"values must be strictly ascending, got {raw!r}")
    return values


def _parse_gain_values(raw: str) -> tuple[float, ...]:
    values = _parse_grid_values(raw)
    if not all(abs(v) <= MAX_GAIN for v in values):
        raise ScenarioError(f"gains must be within +-{MAX_GAIN:g}, got {raw!r}")
    return values


# grid key -> its _read_sections entry: a strictly ascending list of finite
# numbers, within +-MAX_GAIN for a PID gain
_GRID_ENTRIES = {key: (_parse_gain_values, "", key) for key in PID_GRID_KEYS}
_GRID_ENTRIES.update({key: (_parse_grid_values, "", key) for key in FUZZY_GRID_KEYS})


def load_gain_grid(path) -> dict[str, tuple[float, ...]]:
    text = Path(path).read_text(encoding="utf-8")
    try:
        sections, _ = _read_sections(text, _GRID_ENTRIES.get)
    except ScenarioError as exc:
        raise TuneError(f"{path}: {exc}") from None
    grid = sections[""]
    if not grid:
        raise TuneError(f"{path}: grid file defines no gains")
    return grid


@dataclass(frozen=True)
class TuneResult:
    index: int  # evaluation order; candidate trace files are numbered with it
    params: dict[str, float]
    score: float
    control_effort_tv: float
    trace: Trace


def _candidate_config(base: ScenarioConfig, spec: TuneSpec, params: dict[str, float]) -> ScenarioConfig:
    kind = getattr(base, f"{spec.channel}_kind")
    if spec.mode == "pid":
        if kind != "pid":
            raise TuneError(
                f"grid tunes pid gains but the {spec.channel} channel is {kind!r}"
            )
        attr = f"{spec.channel}_pid"
        return replace(base, **{attr: replace(getattr(base, attr), **params)})
    if kind != "fuzzy":
        raise TuneError(
            f"grid tunes the fuzzy output scale but the {spec.channel} channel is {kind!r}"
        )
    attr = f"{spec.channel}_fuzzy"
    return replace(base, **{attr: scale_output(getattr(base, attr), params["output_scale"])})


def run_grid_search(base: ScenarioConfig, spec: TuneSpec) -> list[TuneResult]:
    """Evaluate every grid point; returns results ranked best-first."""
    if len(base.runs()) != 1:
        raise TuneError("tuning needs a single-run scenario archetype")
    signal = CHANNEL_COLUMNS[spec.channel][0]
    keys = spec.ordered_keys
    results = []
    for index, combo in enumerate(itertools.product(*(spec.grid[k] for k in keys))):
        params = dict(zip(keys, combo))
        config = _candidate_config(base, spec, params)
        (trace,) = execute_archetype(config)
        score = objective_value(trace, signal, spec.objective, base.dt)
        tv = trace_metrics(trace, signal).control_effort_tv
        results.append(TuneResult(index, params, score, tv, trace))
    results.sort(
        key=lambda r: (r.score, r.control_effort_tv, tuple(r.params[k] for k in keys))
    )
    return results


def candidate_filename(result: TuneResult) -> str:
    return f"cand_{result.index:03d}.csv"


def results_csv(spec: TuneSpec, results: list[TuneResult]) -> str:
    keys = spec.ordered_keys
    lines = [",".join(("rank",) + keys + (spec.objective, "control_effort_tv", "trace_file"))]
    for rank, r in enumerate(results, start=1):
        cells = [str(rank)]
        cells += [format(r.params[k], ".9g") for k in keys]
        cells += [format(r.score, ".9g"), format(r.control_effort_tv, ".9g")]
        cells.append(candidate_filename(r))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
