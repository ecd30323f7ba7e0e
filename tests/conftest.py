import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

from followsim import PidConfig, TraceRecord, default_scenario

# Tier-1 draws the same examples on every run and checkout: no example database
# replays one machine's failures, and no deadline lets host speed decide a
# verdict. `pytest --hypothesis-profile=deep` draws fresh examples (1000 where a
# test sets no count) and keeps its failures in a database of its own.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, print_blob=True)
settings.register_profile(
    "deep", derandomize=False, deadline=None, print_blob=True, max_examples=1000,
    database=DirectoryBasedExampleDatabase(Path(__file__).parents[1] / ".hypothesis" / "deep"))
settings.load_profile("tier1")


# pixel error below which a steering run counts as aligned (the paper's figs. 5 and 6)
STEADY_STATE_PX = 5.0


@pytest.fixture
def base_scenario():
    return default_scenario("testbase")


def unknown_channel(value) -> str:
    """The message, as a full-match regex, of every function that takes a
    control channel when it is given a value that names none."""
    return f"^unknown channel {re.escape(repr(value))}, expected steering or throttle$"


def overflowing_pid_config(config: PidConfig) -> PidConfig:
    """A copy of config with kp = kd = 1e308, forced past PidConfig's gain
    bound: no loader accepts such gains, so a test of the runner's NaN-effort
    guard has to force them in. kp*error and kd*derivative then overflow to
    infinities of one sign, and their difference is NaN. The copy's step
    table is built at its first use, after the gains are forced, so
    pid_step reads the forced gains."""
    forced = replace(config)
    object.__setattr__(forced, "kp", 1e308)
    object.__setattr__(forced, "kd", 1e308)
    kp, _, kd, *_ = forced.step_table
    assert kp == kd == 1e308
    return forced


def make_record(t, **overrides) -> TraceRecord:
    """Synthetic record with every field defaulted; handy for metric tests."""
    values = dict(
        t=t,
        leader_x=0.0,
        leader_y=0.0,
        follower_x=0.0,
        follower_y=0.0,
        follower_heading=0.0,
        pixel_error_x=0.0,
        area_error=0.0,
        steering_pwm=90.0,
        throttle_pwm=90.0,
        lateral_dev_m=0.0,
        follow_dist_m=0.0,
        detected=True,
        op_count=10,
    )
    values.update(overrides)
    return TraceRecord(**values)
