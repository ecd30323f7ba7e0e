"""Virtual color-tracking camera.

Replaces the physical Pixy: the geometric relation between the follower and
the colored panel on the leader's tail is converted into the same
bounding-box quantities the real camera streams (centroid pixels, box width,
height, and area). Projection is planar: only the horizontal axis carries
geometry; the vertical centroid is pinned to the image center and box height
comes from range alone.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .world import VehicleState


@dataclass(frozen=True)
class CameraIntrinsics:
    """The follower's pinhole camera. `focal_px` and `step_table`, what observe
    reads, are built from the fields at first use, outside equality, hashing and repr."""

    image_width: int = 320
    image_height: int = 200
    horizontal_fov: float = math.radians(75.0)
    frame_rate: float = 50.0
    min_range: float = 0.3
    max_range: float = 20.0
    jitter_px: float = 0.0

    def __post_init__(self) -> None:
        if self.image_width <= 0 or self.image_width % 2 != 0:
            raise ValueError("image_width must be a positive even integer")
        if not self.image_height > 0:
            raise ValueError("image_height must be positive")
        if not 0.0 < self.horizontal_fov < math.pi:
            raise ValueError("horizontal_fov must be in (0, pi)")
        if not 0.0 < self.frame_rate < math.inf:
            raise ValueError("frame_rate must be positive and finite")
        if not 0.0 < self.min_range < self.max_range:
            raise ValueError("need 0 < min_range < max_range")
        if not self.jitter_px >= 0:
            raise ValueError("jitter_px must be non-negative")
        if not math.isfinite(self.focal_px) or self.focal_px <= 0:
            raise ValueError("horizontal_fov gives a degenerate focal length")

    @cached_property
    def focal_px(self) -> float:
        return (self.image_width / 2.0) / math.tan(self.horizontal_fov / 2.0)

    @cached_property
    def step_table(self) -> tuple:
        """Ranges, half FOV, focal_px, half width, width, height, centre y, jitter."""
        return (self.min_range, self.max_range, self.horizontal_fov / 2.0, self.focal_px,
                self.image_width / 2.0, float(self.image_width), float(self.image_height),
                self.image_height / 2.0, self.jitter_px)


@dataclass(frozen=True)
class TargetPanel:
    """Flat colored panel on the leader's rear, facing backward along -heading.
    `step_table`, what observe reads, is built as the camera's is."""

    width: float = 0.2159   # 8.5 inch
    height: float = 0.2794  # 11 inch
    rear_offset: float = 0.0  # panel center distance behind the leader reference point

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError("width must be positive")
        if not self.height > 0:
            raise ValueError("height must be positive")
        if not self.rear_offset >= 0:
            raise ValueError("rear_offset must be non-negative")

    @cached_property
    def step_table(self) -> tuple:
        return self.rear_offset, self.width, self.height


class SensorReading(NamedTuple):
    """One bounding-box report: centroid pixels, box size, timestamp; the area
    is the box's width times its height."""

    x_px: float
    y_px: float
    width_px: float
    height_px: float
    t: float

    @property
    def area_px2(self) -> float:
        return self.width_px * self.height_px


def observe(
    camera: CameraIntrinsics,
    follower: VehicleState,
    leader: VehicleState,
    panel: TargetPanel,
    t: float,
    rng: random.Random | None = None,
) -> SensorReading | None:
    """Project the leader's panel into the follower's camera.

    Returns None when there is nothing to detect: panel center outside the
    horizontal field of view, range outside [min_range, max_range], or the
    panel presenting (near) edge-on or its front face.
    """
    near, far, half_fov, f_px, half_w, w_max, h_max, y_px, jitter = camera.step_table
    rear, width, height = panel.step_table
    fx, fy, fh, _ = follower
    lx, ly, lh, _ = leader
    hx = math.cos(fh)
    hy = math.sin(fh)
    px = lx - rear * math.cos(lh)
    py = ly - rear * math.sin(lh)
    rel_x, rel_y = px - fx, py - fy

    rng_dist = math.hypot(rel_x, rel_y)
    if not near <= rng_dist <= far:
        return None

    forward = rel_x * hx + rel_y * hy
    left = -rel_x * hy + rel_y * hx
    if forward <= 0.0:
        return None
    bearing = math.atan2(left, forward)
    if abs(bearing) >= half_fov:
        return None

    # foreshortening from the relative yaw between view axis and panel facing
    aspect = math.remainder(fh - lh, math.tau)
    aspect = -math.pi if aspect == math.pi else aspect  # normalize_angle, inlined
    facing = math.cos(aspect)
    if facing <= 1e-9:
        return None

    # image x grows toward positive bearing so that positive pixel error,
    # positive effort, PWM > 90, and positive steer angle all point the same way
    x_px = half_w + f_px * (left / forward)
    width_px = f_px * width * facing / rng_dist
    height_px = f_px * height / rng_dist

    if rng is not None and jitter > 0.0:
        x_px += rng.uniform(-jitter, jitter)
        width_px += rng.uniform(-jitter, jitter)
        height_px += rng.uniform(-jitter, jitter)

    # the bits of min(max(x, lo), hi), with lo = 0.0
    x_px = 0.0 if x_px < 0.0 else w_max if x_px > w_max else x_px
    width_px = 0.0 if width_px < 0.0 else w_max if width_px > w_max else width_px
    height_px = 0.0 if height_px < 0.0 else h_max if height_px > h_max else height_px
    return tuple.__new__(SensorReading, (x_px, y_px, width_px, height_px, t))


def pixel_error_x(reading: SensorReading, camera: CameraIntrinsics) -> float:
    """Horizontal centroid offset from frame center, signed toward the side
    that an above-neutral (PWM > 90) steering command turns into."""
    return reading.x_px - camera.image_width / 2.0


def area_error(reading: SensorReading, setpoint_area: float) -> float:
    """Signed area error; positive = target too small = too far = speed up."""
    if setpoint_area <= 0:
        raise ValueError("setpoint_area must be positive")
    return setpoint_area - reading.area_px2


def area_at_range(camera: CameraIntrinsics, panel: TargetPanel, distance: float) -> float:
    """Box area of a head-on panel at the given range (no clamping)."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    width_px = camera.focal_px * panel.width / distance
    height_px = camera.focal_px * panel.height / distance
    return width_px * height_px


def range_for_area(camera: CameraIntrinsics, panel: TargetPanel, area: float) -> float:
    """Head-on range that produces the given box area (inverse of area_at_range)."""
    if area <= 0:
        raise ValueError("area must be positive")
    return camera.focal_px * math.sqrt(panel.width * panel.height / area)
