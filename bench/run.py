"""followsim benchmark: seeded batch workloads through the followsim CLI.

Usage, from the root of a followsim checkout:

    python3 bench/run.py --workload compare_path --seed 1 --seconds 30 --trace 0

One process and one thread run the workload's CLI commands in-process as a
closed loop with one caller: each iteration runs every command once, checks
the outputs, and the next iteration starts when the last one is done.
Iterations repeat until ``--seconds`` have passed (at least three). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics of
untraced iterations; ``--trace 1`` alternates untraced and traced iterations
and reports the per-layer metrics of the traced ones. The line before it
holds the environment and the raw, unscaled figures. Inputs, outputs and the
span dump of the last traced iteration go to ``.bench_run/<workload>/``.
See bench/README.md for the metrics and the host-speed scaling.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # one thread: keep numpy's BLAS pool from starting

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
from trace import SPAN_NAMES, Tracer, followsim_modules, replace_everywhere  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402

MIN_ITERATIONS = 3
SETUP_SAMPLES = 20  # spread evenly over the run
GOLDEN = Path(__file__).resolve().parent / "golden.json"

# The host's speed drifts by up to 2x, switching within a second and also
# for tens of seconds (shared vCPUs). So the run reads the host's speed with a
# fixed loop that does not use followsim, every READING_INTERVAL_S during a
# command (from a SIGALRM timer) and between commands, and divides the work
# between two readings by their mean slowdown: times are reported at the
# speed where that loop takes REFERENCE_LOOP_S.
REFERENCE_LOOP_S = 0.005
REFERENCE_REPEATS = 3
READING_INTERVAL_S = 0.25


def reference_loop() -> float:
    x = 0.0
    for i in range(20000):
        x = math.sin(x + i * 1e-3) * 0.5 + math.sqrt(i)
    return x


class HostClock:
    """Host-speed readings along the run, as (start, end, slowdown), where
    the slowdown is the loop's median time over REFERENCE_LOOP_S."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float, float]] = []
        self.periodic = True  # whether commands take timed readings

    def read(self) -> None:
        start = time.perf_counter()
        times = []
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
        self.readings.append((start, time.perf_counter(), statistics.median(times) / REFERENCE_LOOP_S))

    @contextlib.contextmanager
    def command(self):
        """Readings every READING_INTERVAL_S inside the block when periodic,
        and one after it."""
        if self.periodic:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.read())
            signal.setitimer(signal.ITIMER_REAL, READING_INTERVAL_S, READING_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.read()

    def seconds(self, a: float, b: float, scaled: bool = True) -> float:
        """Work time in [a, b] outside readings, divided by the host
        slowdown unless ``scaled`` is false. Needs readings before a and after b."""
        total = 0.0
        first = max(bisect.bisect_right(self.readings, (a,)) - 1, 0)
        pairs = zip(self.readings[first:], self.readings[first + 1:])
        for (_, gap_start, s0), (gap_end, _, s1) in pairs:
            if gap_start >= b:
                break
            overlap = min(b, gap_end) - max(a, gap_start)
            if overlap > 0:
                total += overlap / ((s0 + s1) / 2) if scaled else overlap
        return total


def import_followsim():
    """A fresh import of the package and its CLI (numpy stays imported)."""
    for key in [k for k in sys.modules if k.split(".")[0] == "followsim"]:
        del sys.modules[key]
    import followsim
    import followsim.cli  # noqa: F401

    return followsim


def build_configs(fs, inputs: Path, commands) -> list:
    """Load every scenario and grid file the commands read and build the
    configs the CLI derives from them; returns one config per command."""
    configs = []
    for command in commands:
        config = fs.load_scenario(inputs / command.scenario)
        if command.kind == "compare":
            for family in ("pid", "fuzzy"):
                replace(config, steering_kind=family, throttle_kind=family)
        else:
            fs.TuneSpec("throttle", "itae", fs.load_gain_grid(inputs / command.grid))
        configs.append(config)
    return configs


def time_setup(host: HostClock, inputs: Path, commands, count: int) -> list[tuple[float, float]]:
    """``count`` set-up samples, each a fresh import plus config builds, as
    (start, end) with a host reading on either side. The modules in use
    before the call are back in sys.modules after it."""
    if count <= 0:
        return []
    in_use = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "followsim"}
    samples = []
    host.read()
    for _ in range(count):
        t0 = time.perf_counter()
        build_configs(import_followsim(), inputs, commands)
        samples.append((t0, time.perf_counter()))
        host.read()
    for key in [k for k in sys.modules if k.split(".")[0] == "followsim"]:
        del sys.modules[key]
    sys.modules.update(in_use)
    gc.collect()  # free the samples' modules now, so memory does not depend on the sample count
    return samples


class RunnerClock:
    """Times every execute_archetype call the CLI and tune make: the runner
    time behind records_per_s and record_cost_growth."""

    def __init__(self, fs) -> None:
        self.runs: list[tuple[float, float, int]] = []  # (start, end, records) per call
        original = fs.simulate.execute_archetype

        def timed(config):
            t0 = time.perf_counter()
            traces = original(config)
            self.runs.append((t0, time.perf_counter(), sum(len(t.records) for t in traces)))
            return traces

        replace_everywhere(original, timed, followsim_modules())


@dataclass
class CommandRun:
    label: str
    start: float
    end: float
    runs: list  # RunnerClock entries made during the command
    problems: list


def run_iteration(fs, host, clock, commands, inputs: Path, out_root: Path, references: dict):
    for command in commands:
        shutil.rmtree(out_root / command.label, ignore_errors=True)
    done = []
    host.read()
    for command in commands:
        clock.runs.clear()
        problems = []
        with host.command():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = fs.cli.main(command.argv(inputs, out_root / command.label))
                if code != 0:
                    problems.append(f"exit code {code}")
            except Exception as exc:  # a failed run is counted, not fatal
                problems.append(f"raised {exc!r}")
            end = time.perf_counter()
        done.append(CommandRun(command.label, start, end, list(clock.runs), problems))
    for command, run in zip(commands, done):
        if not run.problems:
            reference = references.get(command.label)
            if reference is None:
                run.problems.append("no stored reference for this input variant")
            else:
                run.problems += check.check_command(command, out_root / command.label,
                                                    reference, fs)
        for problem in run.problems[:3]:
            print(f"FAILED {command.label}: {problem}", file=sys.stderr)
    return done


def growth_probe(fs, host: HostClock, config) -> list[CommandRun]:
    """The scenario at full and quarter length, timed as two runner calls."""
    probes = []
    for label, cfg in (("probe_full", config),
                       ("probe_quarter", replace(config, duration=config.duration / 4))):
        with host.command():
            start = time.perf_counter()
            records = sum(len(t.records) for t in fs.execute_archetype(cfg))
            end = time.perf_counter()
        probes.append(CommandRun(label, start, end, [(start, end, records)], []))
    return probes


def summarize(iterations: list[list[CommandRun]], host: HostClock, growth_pair,
              scaled: bool) -> dict[str, float]:
    """End-to-end metrics as medians over iterations; times at baseline host
    speed unless ``scaled`` is false."""
    def seconds(a, b):
        return host.seconds(a, b, scaled)

    rows = []
    for runs in iterations:
        by_label = {run.label: run for run in runs}
        timed = [run for run in runs if not run.label.startswith("probe_")]
        calls = [call for run in timed for call in run.runs]
        wall = sum(seconds(run.start, run.end) for run in timed)

        def per_record(label):
            runs = by_label[label].runs
            return sum(seconds(a, b) for a, b, _ in runs) / sum(n for _, _, n in runs)

        rows.append({
            "wall_s": wall,
            "records_per_s": sum(n for _, _, n in calls) / sum(seconds(a, b) for a, b, _ in calls),
            "candidates_per_s": len(calls) / wall,
            "record_cost_growth": per_record(growth_pair[0]) / per_record(growth_pair[1]),
        })
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def per_layer(tracer: Tracer, wall: float) -> dict[str, float]:
    layers, root_s = tracer.layer_totals()
    values = {}
    for name in SPAN_NAMES:
        layer = layers[name]
        values[f"{name}.calls"] = layer["calls"]
        values[f"{name}.self_s"] = layer["self_s"]
        values[f"{name}.us_per_call"] = (layer["incl_s"] / layer["calls"] * 1e6
                                         if layer["calls"] else 0.0)
    counts = tracer.counts
    observe_calls = layers["sensor.observe"]["calls"]
    values["world.lateral_deviation.points"] = counts["world.lateral_deviation"]
    values["sensor.observe.hit_ratio"] = counts["sensor.observe"] / observe_calls if observe_calls else 0.0
    values["simulate.run_scenario.records"] = counts["simulate.run_scenario"]
    values["traceio.write_trace_csv.bytes"] = counts["traceio.write_trace_csv"]
    values["svgplot.write_plot_svg.bytes"] = counts["svgplot.write_plot_svg"]
    values["tune.run_grid_search.candidates"] = counts["tune.run_grid_search"]
    values["trace.accounted_frac"] = root_s / wall
    return values


UNITS = {
    "setup_s": "s", "wall_s": "s", "records_per_s": "1/s", "candidates_per_s": "1/s",
    "record_cost_growth": "ratio", "peak_rss_mb": "MB",
}
SUFFIX_UNITS = {
    "calls": "count", "self_s": "s", "us_per_call": "us", "points": "count", "records": "count",
    "candidates": "count", "bytes": "bytes", "hit_ratio": "ratio", "overhead_frac": "ratio",
    "accounted_frac": "ratio", "unstable_frac": "ratio", "failed_frac": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS.get(name) or SUFFIX_UNITS[name.rsplit(".", 1)[-1]]


def unstable_frac(reports: dict[str, list[bytes]]) -> float:
    """Share of compare reports whose bytes differ from the first report of
    the same command in this run (the wall-clock mean_loop_cost row)."""
    total = sum(len(r) for r in reports.values())
    differing = sum(sum(b != r[0] for b in r) for r in reports.values())
    return differing / total if total else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "followsim" / "__init__.py").is_file():
        print("error: run from the root of a followsim checkout (no src/followsim here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy

    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    references = json.loads(GOLDEN.read_text())[workload.name][variant]
    work = root / ".bench_run" / workload.name
    inputs, out_root = work / "inputs", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    inputs.mkdir(parents=True)
    files, commands = workload.generate(args.seed)
    for name, text in files.items():
        (inputs / name).write_text(text, encoding="utf-8")

    fs = import_followsim()
    configs = build_configs(fs, inputs, commands)
    host = HostClock()
    clock = RunnerClock(fs)
    tracer = Tracer()
    growth_pair = workload.growth_pair or ("probe_full", "probe_quarter")
    samples, layer_rows, setup_samples = [], [], []
    walls = {False: [], True: []}  # scaled iteration wall times, untraced and traced
    reports: dict[str, list[bytes]] = {}
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.clear()
            tracer.install()
        host.periodic = not traced  # keep readings out of the traced spans
        try:
            done = run_iteration(fs, host, clock, commands, inputs, out_root, references)
        finally:
            tracer.uninstall()
        attempted += len(done)
        failed += sum(1 for run in done if run.problems)
        walls[traced].append(sum(host.seconds(run.start, run.end) for run in done))
        for run in done:
            for report in (out_root / run.label).glob("*_report.md"):
                reports.setdefault(run.label, []).append(report.read_bytes())
        if traced:
            layer_rows.append(per_layer(tracer, sum(run.end - run.start for run in done)))
        elif not args.trace:
            if not workload.growth_pair:
                done += growth_probe(fs, host, configs[0])
            samples.append(done)
        share = min(1.0, (time.perf_counter() - started) / args.seconds)
        if not args.trace:  # setup_s is an end-to-end metric only
            setup_samples += time_setup(host, inputs, commands,
                                        round(share * SETUP_SAMPLES) - len(setup_samples))
        iterations = min(len(w) for w in walls.values()) if args.trace else len(walls[False])
        if iterations >= MIN_ITERATIONS and share >= 1.0:
            break
    if not args.trace:
        setup_samples += time_setup(host, inputs, commands, SETUP_SAMPLES - len(setup_samples))

    env = {
        "workload": workload.name, "seed": args.seed, "variant": variant,
        "iterations": len(walls[False]), "traced_iterations": len(walls[True]),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "host_readings": len(host.readings),
        "median_host_slowdown": statistics.median(r[2] for r in host.readings),
        "report.unstable_frac": unstable_frac(reports),
    }
    if args.trace:
        tracer.write_spans(work / "spans.csv")
        metrics = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                          / statistics.median(walls[False]) - 1.0)
        metrics["report.unstable_frac"] = unstable_frac(reports)
        metrics["check.failed_frac"] = failed / attempted
    else:
        metrics = summarize(samples, host, growth_pair, scaled=True)
        metrics["setup_s"] = statistics.median(host.seconds(a, b) for a, b in setup_samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env["unscaled"] = summarize(samples, host, growth_pair, scaled=False)
        env["unscaled"]["setup_s"] = statistics.median(b - a for a, b in setup_samples)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
