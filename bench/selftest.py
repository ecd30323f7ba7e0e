"""Self-test of the benchmark's inputs and output checks.

Usage, from the root of a followsim checkout:

    python3 bench/selftest.py

1. Seed 0 reproduces the shipped ``scenarios/`` files byte for byte.
2. One iteration of compare_path and tune_pid_step at seed 0 passes every
   check (failed share 0).
3. Each corruption below, made to one file of that output, raises the
   failed share of the iteration; the file is restored afterwards.

Exits non-zero if any of these does not hold. That two sets of runs of the
same code agree is shown by ``bench/spread.py``.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from check import check_command
from workloads import WORKLOADS


def _replace_cell(path: Path, column: str, row: int, new) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    header = lines[0].split(",")
    cells = lines[row].split(",")
    i = header.index(column)
    cells[i] = new(cells[i])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def _flip_winner(path: Path, metric: str) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    for n, line in enumerate(lines):
        if line.startswith(f"| {metric} |"):
            cells = line.split("|")
            cells[5] = " fuzzy " if cells[5].strip() == "pid" else " pid "
            lines[n] = "|".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def _first(out: Path, pattern: str) -> Path:
    return sorted(out.glob(pattern))[0]


CORRUPTIONS = {
    "compare_path": [
        ("one follower_x cell of a trace CSV", "moving", "*_pid.csv",
         lambda p: _replace_cell(p, "follower_x", 7, lambda v: format(float(v) + 1e-6, ".9g"))),
        ("one op_count cell of a trace CSV", "s_curve", "*_fuzzy.csv",
         lambda p: _replace_cell(p, "op_count", 3, lambda v: str(int(v) + 1))),
        ("one lateral_dev_m cell by 5 cm", "quarter", "*_fuzzy.csv",
         lambda p: _replace_cell(p, "lateral_dev_m", 20, lambda v: format(float(v) + 0.05, ".9g"))),
        ("one unparsable cell", "moving", "*_fuzzy.csv",
         lambda p: _replace_cell(p, "area_error", 2, lambda v: "x")),
        ("one report winner flipped", "moving", "*_report.md",
         lambda p: _flip_winner(p, "rise_time")),
    ],
    "tune_pid_step": [
        ("one area_error cell of a candidate CSV", "tune", "cand_0*.csv",
         lambda p: _replace_cell(p, "area_error", 9, lambda v: format(float(v) * 1.001, ".9g"))),
        ("one rank swapped in tune_results.csv", "tune", "tune_results.csv",
         lambda p: p.write_text(p.read_text().replace("\n1,", "\n0,", 1))),
        ("a candidate CSV deleted", "tune", "cand_07*.csv", lambda p: p.unlink()),
    ],
}


def failed_share(fs, commands, out_root: Path, references) -> float:
    failed = sum(bool(check_command(c, out_root / c.label, references[c.label], fs)) for c in commands)
    return failed / len(commands)


def main() -> int:
    root = Path.cwd()
    ok = True
    for name in ("compare_path", "tune_pid_step"):
        files, _ = WORKLOADS[name].generate(0)
        for file_name, text in files.items():
            shipped = root / "scenarios" / file_name
            if file_name.endswith("_quarter.scn"):  # generated copy, not shipped
                continue
            same = shipped.read_text(encoding="utf-8") == text
            ok &= same
            print(f"seed 0 {file_name}: {'matches' if same else 'DIFFERS from'} scenarios/{file_name}")

    sys.path.insert(0, str(root / "src"))
    fs = run.import_followsim()
    clock = run.RunnerClock(fs)
    host = run.HostClock()
    golden = json.loads(run.GOLDEN.read_text())
    for name, corruptions in CORRUPTIONS.items():
        work = root / ".bench_run" / "selftest" / name
        shutil.rmtree(work, ignore_errors=True)
        inputs, out_root = work / "inputs", work / "out"
        inputs.mkdir(parents=True)
        files, commands = WORKLOADS[name].generate(0)
        for file_name, text in files.items():
            (inputs / file_name).write_text(text, encoding="utf-8")
        references = golden[name][0]
        done = run.run_iteration(fs, host, clock, commands, inputs, out_root, references)
        clean = sum(bool(r.problems) for r in done) / len(done)
        ok &= clean == 0.0
        print(f"{name}: failed share of a clean iteration {clean:g}")
        for what, label, pattern, corrupt in corruptions:
            path = _first(out_root / label, pattern)
            saved = path.read_bytes()
            corrupt(path)
            share = failed_share(fs, commands, out_root, references)
            path.write_bytes(saved)
            ok &= share > clean
            print(f"{name}: {what}: failed share {clean:g} -> {share:g}")
        ok &= failed_share(fs, commands, out_root, references) == clean
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
