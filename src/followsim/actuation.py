"""Servo-style command plumbing shared by both controller families.

Controller efforts are normalized to roughly +-1 and mapped onto the hobby
servo scale: 0..180 with 90 neutral. Above 90 steers right / drives forward,
below 90 steers left; throttle below neutral just coasts to a stop because
the vehicles never reverse.

The op model, the basis of the per-loop resource metric `op_count`, lives
here. An op is one float + - * / or one comparison of a clamp, min or max,
counted per call whatever the gains and however the code is written. The
constants model the paper's embedded controllers, in which every fuzzy rule
clips the whole output grid; they are not a count of this package's code.
"""
from __future__ import annotations

import math

from .fuzzy import FuzzyConfig, fuzzy_step
from .pid import PidConfig, PidState, pid_step
from .world import VehicleParams

NEUTRAL_PWM = 90.0
PWM_MAX = 180.0
CHANNEL_GAIN = 90.0  # pwm per unit effort: effort +-1 spans the full scale

# op-model costs: one pid_step call, one set grade, and the non-controller
# arithmetic in one channel update
PID_STEP_OPS = 16
_TRI_EVAL_OPS = 7
_TRAP_EVAL_OPS = 9
_PWM_MAP_OPS = 2
_EXP_FILTER_OPS = 4
_DELTA_OPS = 2


def count_fuzzy_ops(config: FuzzyConfig) -> int:
    """Ops per fuzzy_step: fuzzification grades every input set, each rule
    costs one min plus a grid-wide clip and max, and the centroid costs one
    multiply-accumulate pair per grid point plus the final divide."""
    ops = 0
    for mf in list(config.error_sets.values()) + list(config.delta_sets.values()):
        ops += _TRI_EVAL_OPS if len(mf.breakpoints) == 3 else _TRAP_EVAL_OPS
    ops += len(config.rules) * (1 + 2 * config.grid_points)
    ops += 3 * config.grid_points + 1
    return ops


def effort_to_pwm(effort: float) -> float:
    """Map effort to a servo command about 90 neutral, clamped to [0, 180].

    +-inf saturates; NaN would pass the clamp, so it is rejected here.
    """
    if math.isnan(effort):
        raise ValueError("controller effort is NaN")
    pwm = NEUTRAL_PWM + CHANNEL_GAIN * effort
    # the bits of min(max(x, lo), hi)
    return 0.0 if pwm < 0.0 else PWM_MAX if pwm > PWM_MAX else pwm


def pwm_to_actuation(
    steering_pwm: float, throttle_pwm: float, params: VehicleParams
) -> tuple[float, float]:
    """Servo commands -> (steer angle, speed command). Below-neutral throttle coasts."""
    steer = params.max_steer_angle * (steering_pwm - NEUTRAL_PWM) / NEUTRAL_PWM
    drive = throttle_pwm - NEUTRAL_PWM
    speed = params.max_speed * (drive if drive > 0.0 else 0.0) / NEUTRAL_PWM  # max(0.0, drive)
    return steer, speed


class ChannelController:
    """One control channel: the controller its config selects plus an optional
    output filter.

    A PidConfig runs pid_step and a FuzzyConfig runs fuzzy_step; `kind` names
    that family. The channel holds all of its state as plain values. `state`
    is the core's value state, stepped by the pure functions: a PidState for
    pid, the previous error for fuzzy. Both need a previous sample, so it is
    None until the first update seeds it from the current one and neither
    controller kicks on startup. With a filter, `alpha` is its weight and
    `filtered` its previous output, starting from 0.0. The per-update op cost
    is fixed by the config, so it is worked out once here.
    """

    def __init__(self, config: PidConfig | FuzzyConfig, filter_alpha: float | None = None) -> None:
        if isinstance(config, PidConfig):
            self.kind, ops = "pid", PID_STEP_OPS
        elif isinstance(config, FuzzyConfig):
            self.kind, ops = "fuzzy", count_fuzzy_ops(config) + _DELTA_OPS
        else:
            raise ValueError(f"a channel runs a PidConfig or a FuzzyConfig, "
                             f"not a {type(config).__name__}")
        self.config = config
        if filter_alpha is not None and not 0 < filter_alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = filter_alpha
        self.filtered = 0.0
        self.state: PidState | float | None = None
        self.ops_per_step = ops + _PWM_MAP_OPS + (0 if filter_alpha is None else _EXP_FILTER_OPS)

    def update(self, error: float, measurement: float, dt: float) -> float:
        """One control update; returns the channel's PWM command."""
        state = self.state
        if self.kind == "pid":
            if state is None:
                state = PidState(prev_measurement=measurement)
            effort, self.state = pid_step(self.config, state, error, measurement, dt)
        else:
            prev = error if state is None else state
            effort = fuzzy_step(self.config, error, (error - prev) / dt)
            self.state = error
        if self.alpha is not None:
            effort = self.alpha * effort + (1.0 - self.alpha) * self.filtered
            self.filtered = effort
        return effort_to_pwm(effort)
