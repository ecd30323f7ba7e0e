"""Regenerate tests/golden/hashes.json, the golden corpus of followsim outputs.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

Runs `followsim compare` on every shipped scenario and `followsim tune` of
scenarios/throttle_grid.grid on scenarios/throttle_step.scn, then stores the
SHA-256 of:

- every trace CSV, with the wall-clock `loop_cost_us` column blanked;
- every compare report;
- `tune_results.csv`.

tests/test_golden.py recomputes the same hashes and compares. Regenerate only
when a change is meant to alter the outputs, and say in CHANGES.md which
column moved and why.
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
HASHES = Path(__file__).resolve().parent / "hashes.json"


def _blank_loop_cost(text: str) -> str:
    lines = text.split("\n")
    col = lines[0].split(",").index("loop_cost_us")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) > col:
            cells[col] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def _canonical(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv" and path.name != "tune_results.csv":
        return _blank_loop_cost(text)
    return text


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"followsim {' '.join(argv)} failed")


def compute_hashes() -> dict[str, str]:
    """Output label -> SHA-256 of its canonical text, for the whole corpus."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIOS.glob("*.scn")):
            out = Path(tmp) / f"compare_{scenario.stem}"
            _run(["compare", "--scenario", str(scenario), "--out", str(out)])
            for path in sorted(out.glob("*.csv")) + sorted(out.glob("*_report.md")):
                hashes[f"{out.name}/{path.name}"] = hashlib.sha256(
                    _canonical(path).encode("utf-8")
                ).hexdigest()
        out = Path(tmp) / "tune_throttle_step"
        _run(["tune", "--scenario", str(SCENARIOS / "throttle_step.scn"),
              "--grid", str(SCENARIOS / "throttle_grid.grid"), "--channel", "throttle",
              "--objective", "itae", "--out", str(out)])
        hashes[f"{out.name}/tune_results.csv"] = hashlib.sha256(
            _canonical(out / "tune_results.csv").encode("utf-8")
        ).hexdigest()
    return hashes


def main() -> int:
    HASHES.write_text(json.dumps(compute_hashes(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {HASHES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
