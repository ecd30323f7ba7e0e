"""The benchmark's span tracer wraps followsim functions by module and name
(bench/trace.py, LAYERS). Installing it here makes a renamed or moved traced
function, such as ChannelController.update, fail the suite instead of
silently dropping a layer from `bench/run.py --trace 1`; and a per-record
layer that leaves the record path, which the tracer would read as 0 calls
without an error, fails it too."""
import importlib.util
import sys
from pathlib import Path

import pytest

import followsim.cli  # noqa: F401  imports every module the tracer patches
from followsim import LeaderScript, default_scenario, run_scenario

TRACE_PY = Path(__file__).parents[1] / "bench" / "trace.py"


def load_bench_trace():
    # by file path: `import trace` would find the standard library module
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_objects(layers) -> list:
    """What each (span, module, attribute) layer currently points at."""
    objects = []
    for _, module, attr in layers:
        owner = sys.modules[f"followsim.{module}"]
        *cls, name = attr.split(".")
        if cls:
            owner = vars(owner)[cls[0]]
        objects.append(vars(owner)[name])
    return objects


def test_tracer_installs_on_every_layer_and_uninstalls():
    bench_trace = load_bench_trace()
    originals = traced_objects(bench_trace.LAYERS)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        wrapped = traced_objects(bench_trace.LAYERS)
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(a is o for a, o in zip(traced_objects(bench_trace.LAYERS), originals))


@pytest.mark.parametrize("family", ["pid", "fuzzy"])
def test_each_per_record_layer_is_called_once_per_record_it_serves(family):
    # a waypoint leader that turns out of view: every record senses, and
    # only the records that detect the panel run both channels
    leader = LeaderScript("waypoint_path", speed_profile=1.5, waypoints=((1.0, 0.0), (1.0, 3.0)))
    config = default_scenario("traced", leader=leader, duration=3.0,
                              steering_kind=family, throttle_kind=family)
    bench_trace = load_bench_trace()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        trace = run_scenario(config)
    finally:
        tracer.uninstall()
    calls = {name: layer["calls"] for name, layer in tracer.layer_totals()[0].items()}
    detected = sum(record.detected for record in trace.records)
    assert 0 < detected < len(trace.records)
    assert calls["sensor.observe"] == len(trace.records)
    assert calls[f"{family}.{family}_step"] == calls["actuation.update"] == 2 * detected
