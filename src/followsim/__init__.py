"""Deterministic simulation lab for vision-guided leader-follower control.

A scripted leader, a bicycle-model follower, and a virtual color-tracking
camera close the loop through interchangeable PID and Mamdani fuzzy
controllers, so the two families can be benchmarked side by side on the same
experiments (throttle step responses, lateral-offset steering tests, path
following) with reproducible traces, metrics, and plots.
"""

from types import ModuleType as _ModuleType

from .actuation import PID_STEP_OPS, ChannelController, count_fuzzy_ops, effort_to_pwm, pwm_to_actuation
from .fuzzy import (
    FuzzyConfig,
    FuzzyError,
    MembershipFunction,
    default_fuzzy_config,
    fuzzy_step,
    scale_output,
)
from .metrics import ComparisonReport, MetricSet, compare, objective_value, trace_metrics
from .pid import PidConfig, PidState, pid_step
from .report import format_report, write_report
from .scenario import ScenarioConfig, ScenarioError, default_scenario, load_scenario, parse_scenario_text
from .sensor import (
    CameraIntrinsics,
    SensorReading,
    TargetPanel,
    area_at_range,
    observe,
    range_for_area,
)
from .simulate import Trace, TraceRecord, execute_archetype, run_scenario
from .svgplot import write_plot_svg
from .traceio import CSV_COLUMNS, TraceFormatError, read_trace_csv, write_trace_csv
from .tune import TuneError, TuneSpec, load_gain_grid, run_grid_search
from .world import (
    LeaderScript,
    VehicleParams,
    VehicleState,
    integrate_bicycle,
    lateral_deviation,
    leader_pose,
    normalize_angle,
    step_bicycle,
)

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.2.0"
