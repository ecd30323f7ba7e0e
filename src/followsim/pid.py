"""Discrete positional PID with clamping anti-windup.

The derivative acts on the measurement (not the error) and is low-pass
filtered, which avoids the kick a setpoint step would otherwise inject.
State is a value passed in and returned, so controller instances are just
(config, state) pairs and are trivially independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


# bound on |kp|, |ki|, |kd|: such a gain already saturates a +-1 effort on a
# millionth of a pixel of error, and kp*error - kd*rate cannot overflow to NaN
# while |error| and |rate| stay below MAX_SIGNAL, which the camera bounds
MAX_GAIN = 1e6
MAX_SIGNAL = 1e302


@dataclass(frozen=True)
class PidConfig:
    kp: float
    ki: float
    kd: float
    output_limit: float = 1.0
    integral_limit: float = 0.5
    derivative_filter_alpha: float = 1.0

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd"):
            value = getattr(self, name)
            if not abs(value) <= MAX_GAIN:  # also false for NaN
                raise ValueError(f"gain {name} must be within +-{MAX_GAIN:g}, got {value!r}")
        if not self.output_limit > 0:  # also true for NaN
            raise ValueError("output_limit must be positive")
        if not 0 < self.integral_limit <= self.output_limit:
            raise ValueError("integral_limit must be in (0, output_limit]")
        if not 0 < self.derivative_filter_alpha <= 1:
            raise ValueError("derivative_filter_alpha must be in (0, 1]")


class PidState(NamedTuple):
    integral: float = 0.0
    prev_measurement: float = 0.0
    filtered_derivative: float = 0.0


def pid_step(
    config: PidConfig,
    state: PidState,
    error: float,
    measurement: float,
    dt: float,
) -> tuple[float, PidState]:
    """One controller update; returns (effort, next state).

    effort = kp*error + ki*integral - kd*filtered_d(measurement), saturated to
    +-output_limit. The integral is clamped so its contribution stays within
    +-integral_limit; when ki == 0 no integration happens at all.
    """
    if not math.isfinite(error + measurement + dt):  # finite only if every term is
        for name, value in (("error", error), ("measurement", measurement), ("dt", dt)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite controller input {name}")
    if dt <= 0:
        raise ValueError("dt must be positive")

    integral, prev_measurement, prev_d = state
    if config.ki != 0.0:
        integral += error * dt
        bound = config.integral_limit / abs(config.ki)
        # the bits of min(max(x, lo), hi)
        integral = -bound if integral < -bound else bound if integral > bound else integral

    raw_d = (measurement - prev_measurement) / dt
    alpha = config.derivative_filter_alpha
    filtered_d = alpha * raw_d + (1.0 - alpha) * prev_d

    effort = config.kp * error + config.ki * integral - config.kd * filtered_d
    limit = config.output_limit
    effort = -limit if effort < -limit else limit if effort > limit else effort  # ditto
    return effort, tuple.__new__(PidState, (integral, measurement, filtered_d))

