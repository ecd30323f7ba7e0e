"""Scenario definitions: defaults, validation, and the flat key=value file format.

A scenario file is plain text, one `dotted.key = value` per line, `#` comment
lines, and every key optional: an unset key keeps its default from
default_scenario, unknown keys are an error so typos cannot silently change
an experiment. SCENARIO_KEYS is the key table; the README documents it.
"""
from __future__ import annotations

import math
import os
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .fuzzy import (DEFAULT_LABELS, MAX_GRID_POINTS, MIN_GRID_POINTS, FuzzyConfig, FuzzyError,
                    MembershipFunction, default_fuzzy_config)
from .pid import PidConfig
from .sensor import CameraIntrinsics, TargetPanel, area_at_range, range_for_area
from .world import (MAX_PHYSICS_DT, LeaderScript, VehicleParams, VehicleState, leader_pose,
                    place_behind)

ARCHETYPES = ("scenario", "step_response", "lateral_offset", "path_follow")
CONTROLLER_KINDS = ("pid", "fuzzy")
LOST_TARGET_POLICIES = ("hold", "stop")
CHANNELS = ("steering", "throttle")

# head-on range the default setpoint area corresponds to
DEFAULT_FOLLOW_RANGE = 1.5
# default half-span of the steering error-rate universe, px/s
DEFAULT_STEERING_DELTA_SPAN = 600.0

DEFAULT_STEERING_PID = PidConfig(
    kp=0.015, ki=0.002, kd=0.0015,
    output_limit=1.0, integral_limit=0.2, derivative_filter_alpha=0.4,
)
DEFAULT_THROTTLE_PID = PidConfig(
    kp=0.0012, ki=0.0003, kd=0.0005,
    output_limit=1.0, integral_limit=0.1, derivative_filter_alpha=0.4,
)
DEFAULT_FUZZY_FILTER_ALPHA = 0.3
# runaway guard on duration * camera.frame_rate: a kept record costs about
# 530 bytes of RSS. A PID run at the guard behind a straight-line leader
# peaked at 536 MB, and writing its 70 MB CSV a block of rows at a time
# raised no peak (measured with Python 3.11 on x86-64 Linux)
MAX_RECORDS = 1e6
# runaway guard on a run's RK4 sub-steps, records * sub-steps per record: the
# record guard at the shipped 50 Hz, whose 20 ms frames take 10 sub-steps each
MAX_SUB_STEPS = 1e7


class ScenarioError(ValueError):
    pass


def _tag(value: float) -> str:
    """A number as it appears in a trace name: 2.5 -> 2p5, -0.8 -> m0p8."""
    return f"{value:g}".replace(".", "p").replace("-", "m")


# the longest file name a common file system holds, in bytes
FILE_NAME_MAX_BYTES = 255
# the most bytes a command adds to a run's name: compare's `_fuzzy.csv` or `_report.md`
COMMAND_SUFFIX_MAX_BYTES = len("_fuzzy.csv")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    leader: LeaderScript
    follower_start: VehicleState
    camera: CameraIntrinsics
    panel: TargetPanel
    setpoint_area: float
    steering_fuzzy: FuzzyConfig
    throttle_fuzzy: FuzzyConfig
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    archetype: str = "scenario"
    duration: float = 20.0
    seed: int = 0
    steering_kind: str = "pid"
    throttle_kind: str = "pid"
    steering_locked: bool = False
    steering_pid: PidConfig = DEFAULT_STEERING_PID
    throttle_pid: PidConfig = DEFAULT_THROTTLE_PID
    steering_filter: float | str | None = "auto"
    throttle_filter: float | str | None = "auto"
    lost_target_policy: str = "hold"
    stop_speed_eps: float = 0.01
    stop_hold_time: float = 1.0
    lateral_offset: float = 1.0
    lateral_leader_speed: float = 1.0
    step_separations: tuple[float, ...] = (1.0, 2.0, 4.0)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must not be empty")
        if {os.sep, os.altsep, "\0"} & set(self.name):  # each output file name starts with it
            raise ScenarioError(f"name must be a file stem, with no path separator or NUL, "
                                f"got {self.name!r}")
        size = len(os.fsencode(self.name))  # a run's name carries its archetype's suffix
        if size + COMMAND_SUFFIX_MAX_BYTES > FILE_NAME_MAX_BYTES:
            raise ScenarioError(f"name, with its run's suffix if any, is {size} bytes in UTF-8, "
                                f"more than the {FILE_NAME_MAX_BYTES - COMMAND_SUFFIX_MAX_BYTES} "
                                f"it may take: a command adds up to {COMMAND_SUFFIX_MAX_BYTES} "
                                f"bytes to it, and a file name holds at most {FILE_NAME_MAX_BYTES}")
        if self.archetype not in ARCHETYPES:
            raise ScenarioError(f"unknown archetype {self.archetype!r}")
        if not self.duration >= self.dt:
            raise ScenarioError("duration must be at least 1 / camera.frame_rate")
        if self.duration * self.camera.frame_rate > MAX_RECORDS:
            raise ScenarioError(f"duration * camera.frame_rate exceeds the "
                                f"{MAX_RECORDS:,.0f}-record runaway guard")
        # unrounded, so that a frame of more than 2e305 s reads inf, not an OverflowError
        per_record = self.dt / MAX_PHYSICS_DT
        if per_record > MAX_SUB_STEPS or self.n_records * self.sub_steps > MAX_SUB_STEPS:
            raise ScenarioError(f"duration and camera.frame_rate give {self.n_records:,} records "
                                f"of {per_record:.3g} physics sub-steps of "
                                f"{MAX_PHYSICS_DT * 1e3:g} ms, past the "
                                f"{MAX_SUB_STEPS:,.0f}-sub-step runaway guard")
        if self.setpoint_area <= 0:
            raise ScenarioError("setpoint_area must be positive")
        if not math.isfinite(self.follow_range):
            raise ScenarioError(f"setpoint_area {self.setpoint_area:g} puts the follow range "
                                "past float range")
        for key, kind in (("steering", self.steering_kind), ("throttle", self.throttle_kind)):
            if kind not in CONTROLLER_KINDS:
                raise ScenarioError(f"controller.{key}.kind must be pid or fuzzy, got {kind!r}")
        if self.lost_target_policy not in LOST_TARGET_POLICIES:
            raise ScenarioError(f"lost_target.policy must be hold or stop, "
                                f"got {self.lost_target_policy!r}")
        if not self.stop_speed_eps >= 0:
            raise ScenarioError("stop.speed_eps must be non-negative")
        if not self.stop_hold_time > 0:
            raise ScenarioError("stop.hold_time must be positive")
        for setting, key in ((self.steering_filter, "steering"), (self.throttle_filter, "throttle")):
            if setting is None or setting == "auto":
                continue
            if isinstance(setting, str) or not 0 < setting <= 1:
                raise ScenarioError(f"filter.{key}.alpha must be auto, none, or in (0, 1]")
        if any(s <= 0 or not math.isfinite(s) for s in self.step_separations):
            raise ScenarioError("step.separations must be positive")
        if self.archetype == "step_response":
            if not self.step_separations:
                raise ScenarioError("step.separations needs at least one separation")
            for sep in self.step_separations:
                if sep <= self.camera.min_range:
                    raise ScenarioError(f"step.separations {sep:g} m is inside "
                                        f"camera.min_range {self.camera.min_range:g} m")
                if sep > self.camera.max_range:
                    raise ScenarioError(f"step.separations {sep:g} m is beyond camera.max_range "
                                        f"{self.camera.max_range:g} m: undetectable at start")
        if self.archetype == "lateral_offset":
            if self.lateral_offset == 0.0 or not math.isfinite(self.lateral_offset):
                raise ScenarioError("lateral.offset must be finite and non-zero")
            if not 0.0 <= self.lateral_leader_speed < math.inf:
                raise ScenarioError("lateral.leader_speed must be finite and at least 0")
        if self.archetype == "path_follow" and self.leader.kind == "stationary":
            raise ScenarioError("leader.kind must be straight_line or waypoint_path "
                                "for archetype path_follow, not stationary")
        if self.archetype != "scenario":
            # each run checks itself as it is built, so it fails here, not mid-run
            names = [run.name for run in self.runs()]
            # runs write files named after themselves; only step_response has more than one
            if len(set(names)) < len(names):
                twin = next(name for name in names if names.count(name) > 1)
                seps = [sep for sep, name in zip(self.step_separations, names) if name == twin]
                raise ScenarioError(f"step.separations {', '.join(map(repr, seps))} share the "
                                    f"run name {twin!r}: runs must have distinct names")
            return
        if not 0.0 <= self.follower_start.speed <= self.vehicle.max_speed:
            raise ScenarioError("follower.start.speed must be in [0, vehicle.max_speed]")
        # leader speeds are never negative: a pose finite at duration is finite all run
        end = leader_pose(self.leader, self.duration)
        if not (math.isfinite(end.x) and math.isfinite(end.y)):
            raise ScenarioError("leader.speed or lateral.leader_speed moves the leader to a "
                                f"non-finite position by duration {self.duration:g} s")
        # the follower travels at most max_speed * duration; six times that
        # is the margin the turn-rate check leaves
        start, max_speed = self.follower_start, self.vehicle.max_speed
        if not math.isfinite(max(abs(start.x), abs(start.y)) + 6.0 * max_speed * self.duration):
            raise ScenarioError(f"vehicle.max_speed {max_speed:g} m/s over duration "
                                f"{self.duration:g} s can drive the follower past float range")

    def runs(self) -> tuple[ScenarioConfig, ...]:
        """The plain (archetype "scenario") configs this archetype expands to,
        one per trace. Every other archetype ignores follower_start: it parks
        the follower `gap` behind a reference pose, `offset` to its left."""
        if self.archetype == "scenario":
            return (self,)
        start = self.leader.start
        parked = LeaderScript(kind="stationary", start=start)
        # (name suffix, leader, reference pose, gap, offset, steering locked)
        if self.archetype == "step_response":
            rows = [(f"_sep_{_tag(sep)}m", parked, start, sep, 0.0, True)
                    for sep in self.step_separations]
        elif self.archetype == "lateral_offset":
            offset, speed = self.lateral_offset, self.lateral_leader_speed
            leader = parked if speed == 0.0 else LeaderScript(
                kind="straight_line", start=start, speed_profile=speed
            )
            rows = [(f"_lat_{_tag(offset)}m_v{_tag(speed)}", leader, start,
                     self.follow_range, offset, False)]
        else:  # path_follow: behind the start of the path's first leg
            reference = start
            if self.leader.kind == "waypoint_path":
                (x, y), _, _, heading = self.leader.segments[0]
                reference = VehicleState(x, y, heading)
            rows = [("_path", self.leader, reference, self.follow_range, 0.0, False)]
        return tuple(
            replace(self, name=self.name + suffix, archetype="scenario", leader=leader,
                    follower_start=place_behind(reference, gap, offset), steering_locked=locked)
            for suffix, leader, reference, gap, offset, locked in rows
        )

    def controller(self, channel: str) -> tuple[PidConfig | FuzzyConfig, float | None]:
        """The config a channel's kind selects and its filter weight, with
        `auto` resolved for that kind: ChannelController's arguments."""
        kind, setting = getattr(self, f"{channel}_kind"), getattr(self, f"{channel}_filter")
        if setting == "auto":
            setting = DEFAULT_FUZZY_FILTER_ALPHA if kind == "fuzzy" else None
        return getattr(self, f"{channel}_{kind}"), setting

    @property
    def dt(self) -> float:
        """Control period, s: one camera frame, since control runs at frame rate."""
        return 1.0 / self.camera.frame_rate

    @property
    def n_records(self) -> int:
        """Records of a run that does not stop early: one per control period."""
        return int(self.duration / self.dt + 1e-9)

    @property
    def sub_steps(self) -> int:
        """RK4 sub-steps per record, each at most MAX_PHYSICS_DT long."""
        return max(1, math.ceil(self.dt / MAX_PHYSICS_DT - 1e-12))

    @property
    def follow_range(self) -> float:
        """Head-on range at which the box area equals the setpoint."""
        return range_for_area(self.camera, self.panel, self.setpoint_area)


def default_scenario(
    name: str = "default",
    *,
    follower: dict[str, float] | None = None,
    fuzzy: dict[str, dict[str, object]] | None = None,
    **overrides,
) -> ScenarioConfig:
    """Fully-populated scenario: stationary leader at the origin, follower
    parked at the setpoint range directly behind it.

    Keyword overrides replace ScenarioConfig fields. This is the one place
    that holds the defaults of the fields ScenarioConfig requires: camera,
    panel, setpoint_area, both fuzzy controllers (over universe spans derived
    from the camera and setpoint) and the follower start pose, which is
    placed the setpoint range behind the leader's start. `follower` maps
    VehicleState fields to values that override those of that placed pose.
    `fuzzy` maps a channel to default_fuzzy_config keyword arguments (sets,
    rules, spans, grid_points, output_scale) that replace its defaults.
    """
    camera = overrides.setdefault("camera", CameraIntrinsics())
    panel = overrides.setdefault("panel", TargetPanel())
    if "setpoint_area" not in overrides:
        area = overrides["setpoint_area"] = area_at_range(camera, panel, DEFAULT_FOLLOW_RANGE)
        if not 0 < area < math.inf:
            raise ScenarioError(f"panel.width, panel.height, camera.image_width and camera."
                                f"horizontal_fov_deg give a default setpoint_area of {area:g}")
    setpoint_area = overrides["setpoint_area"]
    if setpoint_area <= 0:  # before the follower range and fuzzy spans derive from it
        raise ScenarioError("setpoint_area must be positive")
    leader = overrides.setdefault("leader", LeaderScript())
    if "follower_start" not in overrides:
        gap = range_for_area(camera, panel, setpoint_area)
        placed = place_behind(leader.start, gap)._asdict()
        overrides["follower_start"] = VehicleState(**{**placed, **(follower or {})})
    spans = {
        "steering": (camera.image_width / 2.0, DEFAULT_STEERING_DELTA_SPAN),
        "throttle": (setpoint_area, 2.0 * setpoint_area),
    }
    for channel, (error_span, delta_span) in spans.items():
        if f"{channel}_fuzzy" not in overrides:
            given = (fuzzy or {}).get(channel, {})
            args = {"error_span": error_span, "delta_span": delta_span, **given}
            # a universe is [-span, span], so twice each span must be finite
            derived = [args[key] for key in ("error_span", "delta_span") if key not in given]
            if channel == "throttle" and not math.isfinite(2.0 * max(derived, default=0.0)):
                raise ScenarioError(f"setpoint_area {setpoint_area:g} makes a throttle universe "
                                    "too wide for a float: they span 1 and 2 setpoint areas")
            try:
                overrides[f"{channel}_fuzzy"] = default_fuzzy_config(**args)
            except FuzzyError as exc:
                raise ScenarioError(f"fuzzy.{channel}: {exc}") from None
    return ScenarioConfig(name=name, **overrides)


# ---------------------------------------------------------------------------
# scenario file parsing


def _parse_float(raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ScenarioError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ScenarioError(f"expected a finite number, got {raw!r}")
    return v


def _parse_int(raw: str) -> int:
    try:
        v = int(raw)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {raw!r}") from None
    if abs(v) > sys.float_info.max:
        raise ScenarioError("integer out of range")
    return v


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ScenarioError(f"expected true/false, got {raw!r}")


def _parse_float_list(raw: str) -> tuple[float, ...]:
    items = [item.strip() for item in raw.split(",")]
    if not all(items):
        raise ScenarioError(f"expected a comma-separated number list, got {raw!r}")
    return tuple(_parse_float(item) for item in items)


def _parse_degrees(raw: str) -> float:
    return math.radians(_parse_float(raw))


def _parse_speed_profile(raw: str):
    if ":" not in raw:
        return _parse_float(raw)
    pairs = []
    for item in raw.split(","):
        t_str, _, v_str = item.partition(":")
        pairs.append((_parse_float(t_str.strip()), _parse_float(v_str.strip())))
    return tuple(pairs)


def _parse_waypoints(raw: str) -> tuple[tuple[float, float], ...]:
    points = []
    for chunk in raw.split(";"):
        parts = chunk.split()
        if len(parts) != 2:
            raise ScenarioError(f"waypoint {chunk.strip()!r} is not 'x y'")
        points.append((_parse_float(parts[0]), _parse_float(parts[1])))
    return tuple(points)


def _parse_filter(raw: str):
    lowered = raw.lower()
    if lowered == "auto":
        return "auto"
    if lowered in ("none", "off"):
        return None
    return _parse_float(raw)


def _parse_membership(raw: str) -> MembershipFunction:
    try:
        return MembershipFunction(_parse_float_list(raw))
    except FuzzyError as exc:
        raise ScenarioError(str(exc)) from None


def _parse_label(raw: str) -> str:
    if raw not in DEFAULT_LABELS:
        raise ScenarioError(f"expected one of {' '.join(DEFAULT_LABELS)}, got {raw!r}")
    return raw


# the fuzzy.<ch> scalars' parsers; default_fuzzy_config repeats their checks for Python callers
def _parse_positive(raw: str) -> float:
    v = _parse_float(raw)
    if v <= 0:
        raise ScenarioError(f"expected a positive number, got {raw!r}")
    return v


def _parse_grid_points(raw: str) -> int:
    n = _parse_int(raw)
    if not MIN_GRID_POINTS <= n <= MAX_GRID_POINTS:
        raise ScenarioError(f"grid_points must be in [{MIN_GRID_POINTS}, {MAX_GRID_POINTS}]")
    return n


def _field_keys(section: str, cls) -> dict[str, tuple]:
    """`<section>.<field>` entries for every float field of a dataclass."""
    return {f"{section}.{f.name}": (_parse_float, section, f.name)
            for f in fields(cls) if f.type == "float"}


# key -> (parser, section, field). Section "" holds ScenarioConfig fields;
# every other section builds one dataclass (see parse_scenario_text).
SCENARIO_KEYS: dict[str, tuple] = {
    "name": (str, "", "name"),
    "archetype": (str, "", "archetype"),
    "seed": (_parse_int, "", "seed"),
    "duration": (_parse_float, "", "duration"),
    "setpoint_area": (_parse_float, "", "setpoint_area"),
    "lost_target.policy": (str, "", "lost_target_policy"),
    "stop.speed_eps": (_parse_float, "", "stop_speed_eps"),
    "stop.hold_time": (_parse_float, "", "stop_hold_time"),
    "lateral.offset": (_parse_float, "", "lateral_offset"),
    "lateral.leader_speed": (_parse_float, "", "lateral_leader_speed"),
    "step.separations": (_parse_float_list, "", "step_separations"),
    "controller.steering.kind": (str, "", "steering_kind"),
    "controller.throttle.kind": (str, "", "throttle_kind"),
    "controller.steering.locked": (_parse_bool, "", "steering_locked"),
    "filter.steering.alpha": (_parse_filter, "", "steering_filter"),
    "filter.throttle.alpha": (_parse_filter, "", "throttle_filter"),
    "leader.kind": (str, "leader", "kind"),
    "leader.speed": (_parse_speed_profile, "leader", "speed_profile"),
    "leader.waypoints": (_parse_waypoints, "leader", "waypoints"),
    "leader.start.x": (_parse_float, "leader.start", "x"),
    "leader.start.y": (_parse_float, "leader.start", "y"),
    "leader.start.heading": (_parse_float, "leader.start", "heading"),
    "follower.start.x": (_parse_float, "follower.start", "x"),
    "follower.start.y": (_parse_float, "follower.start", "y"),
    "follower.start.heading": (_parse_float, "follower.start", "heading"),
    "follower.start.speed": (_parse_float, "follower.start", "speed"),
    "camera.image_width": (_parse_int, "camera", "image_width"),
    "camera.image_height": (_parse_int, "camera", "image_height"),
    "camera.horizontal_fov_deg": (_parse_degrees, "camera", "horizontal_fov"),
    "camera.frame_rate": (_parse_float, "camera", "frame_rate"),
    "camera.min_range": (_parse_float, "camera", "min_range"),
    "camera.max_range": (_parse_float, "camera", "max_range"),
    "camera.jitter_px": (_parse_float, "camera", "jitter_px"),
    **_field_keys("vehicle", VehicleParams),
    **_field_keys("panel", TargetPanel),
}
for _ch in CHANNELS:
    SCENARIO_KEYS.update(_field_keys(f"pid.{_ch}", PidConfig))
    # each fuzzy.<ch> scalar sets the default_fuzzy_config argument it names
    _fz = f"fuzzy.{_ch}"
    SCENARIO_KEYS.update({
        f"{_fz}.error_universe": (_parse_positive, _fz, "error_span"),
        f"{_fz}.delta_universe": (_parse_positive, _fz, "delta_span"),
        f"{_fz}.output_universe": (_parse_positive, _fz, "output_span"),
        f"{_fz}.grid_points": (_parse_grid_points, _fz, "grid_points"),
        f"{_fz}.output_scale": (_parse_positive, _fz, "output_scale"),
    })


def _scenario_entry(key: str):
    """SCENARIO_KEYS entry of a key, else the entry of a
    `fuzzy.<ch>.set.<var>.<LABEL>` key (field (var, LABEL) of section
    fuzzy.<ch>.sets) or a `fuzzy.<ch>.rule.<E>.<D>` key (field (E, D) of
    section fuzzy.<ch>.rules); None for any other key."""
    if key in SCENARIO_KEYS:
        return SCENARIO_KEYS[key]
    parts = key.split(".")
    if len(parts) != 5 or parts[0] != "fuzzy" or parts[1] not in CHANNELS:
        return None
    _, channel, kind, a, b = parts
    if kind == "set" and a in ("error", "delta", "output"):
        if b not in DEFAULT_LABELS:
            raise ScenarioError(f"unknown set label {b!r}")
        return _parse_membership, f"fuzzy.{channel}.sets", (a, b)
    if kind == "rule":
        if a not in DEFAULT_LABELS or b not in DEFAULT_LABELS:
            raise ScenarioError(f"no rule cell ({a}, {b})")
        return _parse_label, f"fuzzy.{channel}.rules", (a, b)
    return None


# (section, field) -> (line number, key) of every key a scenario text sets
KeyLines = dict[tuple[str, object], tuple[int, str]]


def _read_sections(
    text: str, entry_for=_scenario_entry
) -> tuple[dict[str, dict[str, object]], KeyLines]:
    """Section -> {field: value}, holding only the keys the text sets, and
    where each of those keys was set. entry_for maps a key to its
    (parser, section, field) entry, None for an unknown key."""
    sections: dict[str, dict[str, object]] = defaultdict(dict)
    lines: KeyLines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        try:
            entry = entry_for(key)
            if entry is None:
                raise ScenarioError("unknown key")
            parser, section, name = entry
            if (section, name) in lines:
                raise ScenarioError(f"duplicate key (first set on line {lines[section, name][0]})")
            sections[section][name] = parser(raw)
        except ScenarioError as exc:
            raise ScenarioError(f"line {lineno}: {key}: {exc}") from None
        lines[section, name] = (lineno, key)
    return sections, lines


def _located(exc: ValueError, lines: KeyLines, section: str) -> ScenarioError:
    """A validation error raised while building `section`, prefixed with the
    line and key of the set key that its message names first: a key of
    `section` by field or by key, any other by key. A message that names
    none of them is passed on unprefixed."""
    message = str(exc)
    named = []
    for (sec, name), (lineno, key) in lines.items():
        words = rf"{re.escape(name)}|{re.escape(key)}" if sec == section else re.escape(key)
        found = re.search(rf"\b({words})\b", message)
        if found:
            named.append((found.start(), lineno, key))
    if not named:
        return ScenarioError(message)
    _, lineno, key = min(named)
    return ScenarioError(f"line {lineno}: {key}: {message}")


def parse_scenario_text(text: str, default_name: str = "scenario") -> ScenarioConfig:
    """Build each section's dataclass from the keys the text sets and hand
    them to default_scenario. A validation error names the line and key it
    comes from (see _located)."""
    sections, lines = _read_sections(text)

    def build(section: str, make):
        try:
            return make(**sections[section])
        except ValueError as exc:
            raise _located(exc, lines, section) from None

    top = sections[""]
    leader_start = VehicleState(**sections["leader.start"])
    built = {
        "camera": build("camera", CameraIntrinsics),
        "panel": build("panel", TargetPanel),
        "vehicle": build("vehicle", VehicleParams),
        "leader": build("leader", partial(LeaderScript, start=leader_start)),
        "steering_pid": build("pid.steering", partial(replace, DEFAULT_STEERING_PID)),
        "throttle_pid": build("pid.throttle", partial(replace, DEFAULT_THROTTLE_PID)),
    }
    try:
        return default_scenario(
            top.pop("name", default_name),
            follower=sections["follower.start"],
            fuzzy={ch: {**sections[f"fuzzy.{ch}"], "sets": sections[f"fuzzy.{ch}.sets"],
                        "rules": sections[f"fuzzy.{ch}.rules"]} for ch in CHANNELS},
            **built,
            **top,
        )
    except ValueError as exc:  # the fuzzy sections' errors already name their channel
        raise _located(exc, lines, "") from None


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        return parse_scenario_text(text, default_name=path.stem)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
