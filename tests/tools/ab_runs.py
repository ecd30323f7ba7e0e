"""Run two followsim checkouts side by side in one process: same traces, and
how much faster one runs than the other, run for run.

Usage, from the repo root:

    python tests/tools/ab_runs.py A_CHECKOUT [B_CHECKOUT] [--rounds N] [--workload W ...]

B defaults to this checkout. Each checkout's src/followsim is copied into a
temporary directory as its own package (followsim_a, followsim_b), and both
are imported into this process. The workloads are lists of plain runs:

- compare: every shipped scenario (scenarios/*.scn) under both controller
  families, as `followsim compare` runs them
- tune_pid: every candidate of scenarios/throttle_grid.grid on
  scenarios/throttle_step.scn, as `followsim tune --channel throttle` builds it
- tune_fuzzy: every candidate of tests/data/output_scale.grid on
  tests/data/throttle_step_fuzzy.scn

Each round runs every run once per side, back to back, with the side that
goes first alternating from run to run and round to round, and times each
`execute_archetype` call. A run's speedup in a round is A's time over B's.
The first round only warms up; it is checked but not timed. Every trace
of every round must be the same on both sides, every float compared with
float.hex, or the tool stops with an AssertionError naming the run. So both
checkouts must write the same trace schema. The report gives, per workload,
the median and quartiles of the per-run speedups and of each side's total
time per round.

The tune workloads are also timed as whole commands: each round runs
`run_grid_search` once per side, each into its own temporary directory,
with the side that goes first alternating from round to round. So a
candidate's CSV write and scoring count as well as its run. Both sides must
write a byte-identical tune_results.csv and the same candidate traces, read
back with read_trace_csv and compared as above. The report gives the median
and quartiles of the per-command speedups.

With --layers the tool times layers instead: it records every call of
observe, pid_step, fuzzy_step and integrate_bicycle (one a record) and of
track_deviations (one a block of records) that one pass of each workload's
runs makes in A, replays those calls in A and in B, and gives each layer's
median us per call over the rounds, untraced. The replay loop's own cost,
some 0.1 us a call, is in both sides' numbers. Each side gets the arguments
rebuilt from its own types (a numpy array as a copy), and every result must
have the same bits on both sides, each float of a tuple or a list compared
with float.hex. Observe draws from its rng only under jitter, so an rng
passed without jitter is replayed as None, and one passed with jitter as a
fresh rng in the state the call saw.

Uses only the standard library and what followsim needs (numpy). Pytest
never collects this file.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import itertools
import random
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("compare", "tune_pid", "tune_fuzzy")
# tune workload -> (scenario, grid), searched on the throttle channel by itae
TUNE_INPUTS = {
    "tune_pid": ("scenarios/throttle_step.scn", "scenarios/throttle_grid.grid"),
    "tune_fuzzy": ("tests/data/throttle_step_fuzzy.scn", "tests/data/output_scale.grid"),
}
# layer that --layers replays -> the module that defines it
LAYERS = {"observe": "sensor", "pid_step": "pid", "fuzzy_step": "fuzzy",
          "integrate_bicycle": "world", "track_deviations": "world"}


def import_copy(checkout: Path, name: str, into: Path):
    """Import checkout/src/followsim as the package `name`; its imports are
    relative, so the copy runs as it is."""
    shutil.copytree(checkout / "src" / "followsim", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def tune_search(pkg, workload: str) -> tuple:
    """(tune module, base config, spec) of a tune workload, built by pkg itself."""
    scenario, grid = TUNE_INPUTS[workload]
    tune = importlib.import_module(f"{pkg.__name__}.tune")
    base = pkg.load_scenario(ROOT / scenario)
    return tune, base, tune.TuneSpec("throttle", "itae", tune.load_gain_grid(ROOT / grid))


def workload_runs(pkg, workload: str) -> list[tuple[str, object]]:
    """(label, plain config) of each run of a workload, built by pkg itself."""
    if workload == "compare":
        runs = []
        for path in sorted((ROOT / "scenarios").glob("*.scn")):
            config = pkg.load_scenario(path)
            for family in ("pid", "fuzzy"):
                variant = replace(config, steering_kind=family, throttle_kind=family)
                runs += [(f"{path.stem}/{run.name}/{family}", run) for run in variant.runs()]
        return runs
    tune, base, spec = tune_search(pkg, workload)
    keys = spec.ordered_keys
    runs = []
    for combo in itertools.product(*(spec.grid[k] for k in keys)):
        params = dict(zip(keys, combo))
        (run,) = tune._candidate_config(base, spec, params).runs()
        runs.append((" ".join(f"{k}={v:g}" for k, v in params.items()), run))
    return runs


def trace_bits(trace) -> tuple:
    """A trace as comparable values: each float by its hex."""
    rows = tuple(tuple(v.hex() if isinstance(v, float) else v for v in record)
                 for record in trace.records)
    return trace.name, trace.stop_reason, rows


def timed(pkg, config) -> tuple[float, object]:
    start = time.perf_counter()
    (trace,) = pkg.execute_archetype(config)
    return time.perf_counter() - start, trace


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, median, q3


def run_workload(a, b, workload: str, rounds: int) -> dict:
    runs_a, runs_b = workload_runs(a, workload), workload_runs(b, workload)
    assert [label for label, _ in runs_a] == [label for label, _ in runs_b], workload
    speedups, totals_a, totals_b = [], [], []
    for round_no in range(rounds + 1):
        total_a = total_b = 0.0
        for i, ((label, config_a), (_, config_b)) in enumerate(zip(runs_a, runs_b)):
            gc.collect()
            if (round_no + i) % 2:
                time_a, trace_a = timed(a, config_a)
                time_b, trace_b = timed(b, config_b)
            else:
                time_b, trace_b = timed(b, config_b)
                time_a, trace_a = timed(a, config_a)
            assert trace_bits(trace_a) == trace_bits(trace_b), f"{workload}: {label}: traces differ"
            if round_no:  # round 0 warms up
                speedups.append(time_a / time_b)
                total_a += time_a
                total_b += time_b
        if round_no:
            totals_a.append(total_a)
            totals_b.append(total_b)
    return {"runs": len(runs_a), "speedup": quartiles(speedups),
            "a_s": quartiles(totals_a), "b_s": quartiles(totals_b)}


def timed_search(search: tuple, out: Path) -> float:
    tune, base, spec = search
    start = time.perf_counter()
    tune.run_grid_search(base, spec, out)
    return time.perf_counter() - start


def search_outputs(pkg, out: Path) -> tuple:
    """A search's output directory as comparable values: tune_results.csv's
    bytes and the bits of each candidate trace, read back."""
    traceio = importlib.import_module(f"{pkg.__name__}.traceio")
    candidates = tuple((path.name, trace_bits(traceio.read_trace_csv(path)))
                       for path in sorted(out.glob("cand_*.csv")))
    return (out / "tune_results.csv").read_bytes(), candidates


def run_tune_command(a, b, workload: str, rounds: int, tmp: Path) -> dict:
    search_a, search_b = tune_search(a, workload), tune_search(b, workload)
    speedups = []
    for round_no in range(rounds + 1):
        out_a, out_b = tmp / f"{workload}_a", tmp / f"{workload}_b"
        gc.collect()
        if round_no % 2:
            time_a = timed_search(search_a, out_a)
            time_b = timed_search(search_b, out_b)
        else:
            time_b = timed_search(search_b, out_b)
            time_a = timed_search(search_a, out_a)
        outputs = search_outputs(a, out_a)
        assert outputs == search_outputs(b, out_b), f"{workload} command: outputs differ"
        shutil.rmtree(out_a)
        shutil.rmtree(out_b)
        if round_no:  # round 0 warms up
            speedups.append(time_a / time_b)
    return {"candidates": len(outputs[1]), "speedup": quartiles(speedups)}


class RngState(tuple):
    """The state of an rng as observe found it, for a fresh rng per replay."""

    def fresh(self) -> random.Random:
        rng = random.Random()
        rng.setstate(tuple(self))
        return rng


def layer_function(pkg, layer: str):
    return getattr(importlib.import_module(f"{pkg.__name__}.{LAYERS[layer]}"), layer)


def record_layer_calls(pkg, workload: str) -> dict[str, list[tuple]]:
    """Each layer's calls, as (args, kwargs), in one pass of a workload's runs."""
    calls = {layer: [] for layer in LAYERS}
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == pkg.__name__]
    patched = []
    for layer in LAYERS:
        original = layer_function(pkg, layer)

        def recorder(*args, _fn=original, _log=calls[layer], _layer=layer, **kwargs):
            if _layer == "observe":
                args, rng = args[:5], (args[5:] or [kwargs.pop("rng", None)])[0]
                if rng is not None and args[0].jitter_px:
                    kwargs = {"rng": RngState(rng.getstate())}
            _log.append((args, kwargs))
            return _fn(*args, **kwargs) if _layer != "observe" else _fn(*args, rng=rng)

        for namespace in modules:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, recorder)
                    patched.append((namespace, key, original))
    try:
        for _, config in workload_runs(pkg, workload):
            pkg.execute_archetype(config)
    finally:
        for namespace, key, original in patched:
            setattr(namespace, key, original)
    return calls


def rebuilt(value, pkg, memo: dict):
    """A recorded argument rebuilt from pkg's own types, with the same bits:
    dataclasses from their init fields, named tuples field by field, numpy
    arrays as copies."""
    if value is None or isinstance(value, (float, int, str, RngState)):
        return value
    if isinstance(value, np.ndarray):
        return value.copy()
    if id(value) in memo:
        return memo[id(value)][1]
    cls = type(value)
    if cls.__module__.split(".")[0] != "builtins":
        module = importlib.import_module(f"{pkg.__name__}.{cls.__module__.rsplit('.', 1)[1]}")
        cls = getattr(module, cls.__name__)
    if dataclasses.is_dataclass(value):
        out = cls(**{f.name: rebuilt(getattr(value, f.name), pkg, memo)
                     for f in dataclasses.fields(value) if f.init})
    elif isinstance(value, dict):
        out = {rebuilt(k, pkg, memo): rebuilt(v, pkg, memo) for k, v in value.items()}
    elif isinstance(value, (tuple, list)):
        out = tuple.__new__(cls, (rebuilt(v, pkg, memo) for v in value)) if isinstance(
            value, tuple) else [rebuilt(v, pkg, memo) for v in value]
    else:
        raise TypeError(f"cannot rebuild a {cls.__name__}")
    memo[id(value)] = (value, out)  # holds value, so that its id stays its own
    return out


def value_bits(value):
    """A result as comparable values: each float by its hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(value_bits(v) for v in value)
    return value


def with_fresh_rngs(calls: list[tuple]) -> list[tuple]:
    return [(args, {k: v.fresh() if isinstance(v, RngState) else v for k, v in kwargs.items()})
            for args, kwargs in calls]


def run_layers(a, b, workload: str, rounds: int) -> dict:
    """Per layer: calls, and each side's median us per call over the rounds."""
    recorded = record_layer_calls(a, workload)
    result = {}
    for layer, calls in recorded.items():
        if not calls:
            continue
        sides = []
        for pkg in (a, b):
            memo = {}
            sides.append((layer_function(pkg, layer),
                          [(rebuilt(args, pkg, memo), rebuilt(kwargs, pkg, memo))
                           for args, kwargs in calls]))
        (fn_a, calls_a), (fn_b, calls_b) = sides
        for i, ((args_a, kw_a), (args_b, kw_b)) in enumerate(zip(with_fresh_rngs(calls_a),
                                                                 with_fresh_rngs(calls_b))):
            assert value_bits(fn_a(*args_a, **kw_a)) == value_bits(fn_b(*args_b, **kw_b)), (
                f"{workload}: {layer} call {i}: results differ")
        per_call = ([], [])
        for round_no in range(rounds):
            for side in ((0, 1) if round_no % 2 else (1, 0)):
                fn, batch = sides[side]
                batch = with_fresh_rngs(batch)
                gc.collect()
                start = time.perf_counter()
                for args, kwargs in batch:
                    fn(*args, **kwargs)
                per_call[side].append((time.perf_counter() - start) / len(batch) * 1e6)
        result[layer] = (len(calls), *(statistics.median(us) for us in per_call))
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("b", type=Path, nargs="?", default=ROOT, help="checkout B (default: here)")
    parser.add_argument("--rounds", type=int, default=5, help="timed rounds (default 5)")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--layers", action="store_true",
                        help="replay A's per-record layer calls in both instead")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        a = import_copy(args.a.resolve(), "followsim_a", Path(tmp))
        b = import_copy(args.b.resolve(), "followsim_b", Path(tmp))
        if args.layers:
            print(f"A = {args.a.resolve()}\nB = {args.b.resolve()}\n{args.rounds} rounds of "
                  f"A's recorded calls; median us per call, and A over B")
            for workload in args.workload or WORKLOADS:
                for layer, (n, us_a, us_b) in run_layers(a, b, workload, args.rounds).items():
                    print(f"{workload} {layer}: {n} calls, results identical; "
                          f"A {us_a:.3f} us, B {us_b:.3f} us, {us_a / us_b:.3f}x")
            return 0
        print(f"A = {args.a.resolve()}\nB = {args.b.resolve()}\n"
              f"{args.rounds} timed rounds; speedup = A time / B time per run; "
              f"median [q1, q3]")
        for workload in args.workload or WORKLOADS:
            result = run_workload(a, b, workload, args.rounds)
            q1, med, q3 = result["speedup"]
            print(f"{workload}: {result['runs']} runs, traces identical; "
                  f"speedup {med:.3f} [{q1:.3f}, {q3:.3f}]; per round "
                  f"A {result['a_s'][1] * 1e3:.1f} ms, B {result['b_s'][1] * 1e3:.1f} ms")
            if workload in TUNE_INPUTS:
                result = run_tune_command(a, b, workload, args.rounds, Path(tmp))
                q1, med, q3 = result["speedup"]
                print(f"{workload} command: {result['candidates']} candidates, outputs "
                      f"identical; speedup {med:.3f} [{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
