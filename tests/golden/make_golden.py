"""Regenerate tests/golden/hashes.json, the golden corpus of followsim outputs.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

Runs `followsim compare` on every shipped scenario, `followsim tune` of
scenarios/throttle_grid.grid on scenarios/throttle_step.scn (PID gains, once
per objective: itae, ise and rms) and of tests/data/output_scale.grid on
tests/data/throttle_step_fuzzy.scn (fuzzy output scale, itae), and `followsim sweep --separations 1,2,4` on
scenarios/throttle_step.scn, then stores the SHA-256 of:

- every file each compare and the sweep write: the trace CSVs, the plot
  SVGs (two per compare, one per sweep separation), the compare reports
  and the sweep summary;
- each column of every trace CSV on its own, its cells in record order,
  under the label `<file label>#<column>`;
- each `tune_results.csv`.

Before it rewrites the file, it prints each label whose hash changed, was
added or was removed. tests/test_golden.py recomputes the same hashes and
compares; on a mismatch it names the trace columns that moved. Regenerate
only when a change is meant to alter the outputs, and say in CHANGES.md
which column moved and why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from followsim import cli

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = ROOT / "scenarios"
DATA = ROOT / "tests" / "data"
HASHES = Path(__file__).resolve().parent / "hashes.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _is_trace(path: Path) -> bool:
    return path.suffix == ".csv" and path.name != "tune_results.csv"


def _column_hashes(text: str) -> dict[str, str]:
    """Column -> hash of its cells in record order, for every column of a trace CSV."""
    header, *rows = [line.split(",") for line in text.split("\n") if line]
    return {column: _sha256("\n".join(row[i] for row in rows)) for i, column in enumerate(header)}


def moved_columns(stored: dict[str, str], got: dict[str, str]) -> dict[str, list[str]]:
    """Trace CSV label -> the columns whose hash differs, for each CSV with one."""
    moved: dict[str, list[str]] = {}
    for label in sorted(stored):
        if "#" in label and got.get(label) != stored[label]:
            file_label, column = label.split("#")
            moved.setdefault(file_label, []).append(column)
    return moved


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"followsim {' '.join(argv)} failed")


def compute_hashes() -> dict[str, str]:
    """Output label -> SHA-256 of its text, for the whole corpus."""
    hashes = {}

    def store(out: Path, paths) -> None:
        for path in paths:
            label, text = f"{out.name}/{path.name}", path.read_text(encoding="utf-8")
            hashes[label] = _sha256(text)
            if _is_trace(path):
                for column, digest in _column_hashes(text).items():
                    hashes[f"{label}#{column}"] = digest

    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIOS.glob("*.scn")):
            out = Path(tmp) / f"compare_{scenario.stem}"
            _run(["compare", "--scenario", str(scenario), "--out", str(out)])
            store(out, sorted(out.iterdir()))
        for label, scenario, grid, objective in (
            ("throttle_step", SCENARIOS / "throttle_step.scn", SCENARIOS / "throttle_grid.grid", "itae"),
            ("throttle_step_ise", SCENARIOS / "throttle_step.scn", SCENARIOS / "throttle_grid.grid", "ise"),
            ("throttle_step_rms", SCENARIOS / "throttle_step.scn", SCENARIOS / "throttle_grid.grid", "rms"),
            ("throttle_step_fuzzy", DATA / "throttle_step_fuzzy.scn", DATA / "output_scale.grid", "itae"),
        ):
            out = Path(tmp) / f"tune_{label}"
            _run(["tune", "--scenario", str(scenario), "--grid", str(grid),
                  "--channel", "throttle", "--objective", objective, "--out", str(out)])
            store(out, [out / "tune_results.csv"])
        out = Path(tmp) / "sweep_throttle_step"
        _run(["sweep", "--scenario", str(SCENARIOS / "throttle_step.scn"),
              "--separations", "1,2,4", "--out", str(out)])
        store(out, sorted(out.iterdir()))
    return hashes


def main() -> int:
    old = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    new = compute_hashes()
    for label in sorted(old.keys() | new.keys()):
        if label not in new:
            print(f"removed {label}")
        elif label not in old:
            print(f"added {label}")
        elif old[label] != new[label]:
            print(f"changed {label}")
    HASHES.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HASHES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
