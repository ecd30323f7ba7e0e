"""Exhaustive grid-search tuning of one control channel.

The grid file is read by the scenario file's line reader: `kp = 0.5, 1, 2`
lines for a PID channel or a single `output_scale = ...` line for a fuzzy
channel (the one structural knob exposed: scaling the output universe).
Every check runs before any candidate does and before the output directory
exists. Then every candidate runs the scenario once and its trace is written
as it is scored; candidates are ranked by the chosen objective with ties
broken by lower steering/throttle total variation, then by gain order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .fuzzy import scale_output
from .metrics import control_effort_tv, objective_value
from .pid import MAX_GAIN
from .scenario import CHANNELS, ScenarioConfig, ScenarioError, _parse_float_list, _read_sections
from .simulate import execute_archetype
from .traceio import write_trace_csv

OBJECTIVES = ("itae", "ise", "rms")
PID_GRID_KEYS = ("kp", "ki", "kd")
FUZZY_GRID_KEYS = ("output_scale",)
MAX_CANDIDATES = 10_000  # bounds a search in time (README)


class TuneError(ValueError):
    pass


class GridError(TuneError):
    """A grid that cannot be searched against its scenario; cmd_tune names the grid file."""


@dataclass(frozen=True)
class TuneSpec:
    channel: str
    objective: str
    grid: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise TuneError(f"unknown channel {self.channel!r}")
        if self.objective not in OBJECTIVES:
            raise TuneError(f"unknown objective {self.objective!r}")
        if not self.grid:
            raise GridError("empty tuning grid")
        keys = tuple(sorted(self.grid))
        if not (set(keys) <= set(PID_GRID_KEYS) or set(keys) <= set(FUZZY_GRID_KEYS)):
            raise GridError(
                f"grid keys {keys} must be kp/ki/kd (pid) or output_scale (fuzzy)"
            )
        for key, values in self.grid.items():
            if not values:
                raise GridError(f"grid for {key!r} is empty")
            if any(not math.isfinite(v) for v in values):
                raise GridError(f"grid for {key!r} has non-finite values")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise GridError(f"grid for {key!r} must be strictly ascending")
        count = math.prod(map(len, self.grid.values()))
        if count > MAX_CANDIDATES:
            raise GridError(f"grid has {count:,} candidates, more than the {MAX_CANDIDATES:,} cap")

    @property
    def mode(self) -> str:
        return "pid" if set(self.grid) <= set(PID_GRID_KEYS) else "fuzzy"

    @property
    def ordered_keys(self) -> tuple[str, ...]:
        base = PID_GRID_KEYS if self.mode == "pid" else FUZZY_GRID_KEYS
        return tuple(k for k in base if k in self.grid)


def _grid_parser(ok, rule: str):
    """A grid line's parser: a strictly ascending list of finite numbers that all pass ok."""
    def parse(raw: str) -> tuple[float, ...]:
        values = _parse_float_list(raw)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ScenarioError(f"values must be strictly ascending, got {raw!r}")
        if not all(map(ok, values)):
            raise ScenarioError(f"{rule}, got {raw!r}")
        return values
    return parse


# grid key -> its _read_sections entry
_GAINS = _grid_parser(lambda v: abs(v) <= MAX_GAIN, f"gains must be within +-{MAX_GAIN:g}")
_SCALES = _grid_parser(lambda v: v > 0, "scales must be positive")
_GRID_ENTRIES = {key: (_GAINS, "", key) for key in PID_GRID_KEYS}
_GRID_ENTRIES.update({key: (_SCALES, "", key) for key in FUZZY_GRID_KEYS})


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


def _candidate_config(base: ScenarioConfig, spec: TuneSpec, params: dict[str, float]) -> ScenarioConfig:
    attr = f"{spec.channel}_{spec.mode}"  # throttle_pid, steering_fuzzy, ...
    try:
        if spec.mode == "pid":
            return replace(base, **{attr: replace(getattr(base, attr), **params)})
        return replace(base, **{attr: scale_output(getattr(base, attr), params["output_scale"])})
    except ValueError as exc:
        gains = " ".join(f"{k}={v:g}" for k, v in params.items())
        raise GridError(f"{spec.channel} candidate {gains}: {exc}") from None


def run_grid_search(base: ScenarioConfig, spec: TuneSpec, out) -> list[TuneResult]:
    """Check everything before out exists, then run, score and write each
    candidate in turn; write the ranking and return the results best-first."""
    base, *others = base.runs()  # every candidate is this plain run with its gains
    if others:
        raise TuneError("tuning needs a single-run scenario archetype")
    if spec.channel == "steering" and base.steering_locked:
        raise TuneError("the scenario locks the steering channel, so it has nothing to tune")
    kind = getattr(base, f"{spec.channel}_kind")
    if kind != spec.mode:
        raise GridError(f"grid tunes a {spec.mode} channel but the {spec.channel} "
                        f"channel is {kind!r}")
    keys = spec.ordered_keys
    grid = [dict(zip(keys, combo)) for combo in itertools.product(*(spec.grid[k] for k in keys))]
    for params in grid:  # checked before out exists; built again to run, so one is held
        _candidate_config(base, spec, params)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for index, params in enumerate(grid):
        (trace,) = execute_archetype(_candidate_config(base, spec, params))
        results.append(TuneResult(index, params,
                                  objective_value(trace, spec.channel, spec.objective, base.dt),
                                  control_effort_tv(trace, spec.channel)))
        write_trace_csv(trace, out / candidate_filename(results[-1]))
        del trace  # so the next run starts with no trace held
    results.sort(key=lambda r: (r.score, r.control_effort_tv, tuple(r.params[k] for k in keys)))
    (out / "tune_results.csv").write_text(results_csv(spec, results), encoding="utf-8")
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
