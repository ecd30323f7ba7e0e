"""Regenerate bench/golden.json, the stored reference outputs per input variant.

Usage, from the root of a followsim checkout:

    python3 bench/make_golden.py

Runs every command of every workload once for each of the VARIANTS input
variants and stores the reference digests (see check.py). Refuses to store
a reference whose lateral_dev_m column disagrees with the independent
polyline reference. Regenerate only when a change is meant to alter the
outputs, and say which column moved and why.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run
from check import lateral_problems, reference_of
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    fs = run.import_followsim()
    work = Path.cwd() / ".bench_run" / "golden"
    golden = {}
    for name, workload in WORKLOADS.items():
        golden[name] = []
        for variant in range(VARIANTS):
            shutil.rmtree(work, ignore_errors=True)
            inputs = work / "inputs"
            inputs.mkdir(parents=True)
            files, commands = workload.generate(variant)
            for file_name, text in files.items():
                (inputs / file_name).write_text(text, encoding="utf-8")
            entry = {}
            for command in commands:
                out = work / command.label
                with contextlib.redirect_stdout(io.StringIO()):
                    if fs.cli.main(command.argv(inputs, out)) != 0:
                        raise SystemExit(f"{name} variant {variant}: {command.label} failed")
                for csv in out.glob("*.csv"):
                    if csv.name == "tune_results.csv":
                        continue
                    problems = lateral_problems(csv.read_text(encoding="utf-8"), command.leader)
                    if problems:
                        raise SystemExit(f"{name} variant {variant}: {csv.name}: {problems[0]}")
                entry[command.label] = reference_of(command, out)
            golden[name].append(entry)
            print(f"{name} variant {variant}: ok", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
