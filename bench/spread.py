"""Run-to-run spread and agreement of the end-to-end metrics.

Usage, from the root of a followsim checkout:

    python3 bench/spread.py

Runs ``bench/run.py --trace 0`` once per seed (1 to 10) and workload, one
run at a time, and repeats the whole set twice. For each workload and
metric it prints, per set, the median and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, and how far the second set's median is from the first set's,
as a share of it. A spread or a drift beyond the metric's bound in
BENCHMARK.json is flagged. Raw results go to ``.bench_run/spread.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


SEEDS = range(1, 11)
SETS = 2


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    results = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    ok = True
    for s in range(SETS):
        for w in WORKLOADS:
            for seed in SEEDS:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
                if proc.returncode != 0:
                    print(f"set {s + 1} {w} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"set {s + 1} {w} seed {seed}: outputs FAILED the check\n{proc.stderr}")
                    ok = False
                results[w][s].append(result)
                print(f"set {s + 1} {w} seed {seed}: {time.perf_counter() - t0:.1f} s",
                      file=sys.stderr, flush=True)
    out = Path(".bench_run")
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(results, indent=1))

    for w in WORKLOADS:
        print(f"\n{w}")
        for metric, bound in bounds.items():
            cells, meds = [], []
            for runs in results[w]:
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                flag = "" if spread <= bound else " OVER"
                ok &= not flag
                cells.append(f"median {med:.6g} spread {spread:.3f}{flag}")
            for med in meds[1:]:
                worse = (med - meds[0]) / meds[0] * (1 if better[metric] == "lower" else -1)
                flag = " OVER" if worse > bound else ""
                ok &= not flag
                cells.append(f"drift {worse:+.3f}{flag}")
            print(f"  {metric:20s} bound {bound:<5g} " + " | ".join(cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
