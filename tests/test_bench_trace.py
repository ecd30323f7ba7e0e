"""The benchmark's span tracer wraps followsim functions by module and name
(bench/trace.py, LAYERS). Installing it here makes a renamed or moved traced
function, such as ChannelController.update, fail the suite instead of
silently dropping a layer from `bench/run.py --trace 1`."""
import importlib.util
import sys
from pathlib import Path

import followsim.cli  # noqa: F401  imports every module the tracer patches

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
