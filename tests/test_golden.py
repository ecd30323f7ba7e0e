"""Golden corpus: the shipped scenarios' outputs stay byte-identical.

Hashes live in tests/golden/hashes.json; tests/golden/make_golden.py
regenerates them and documents what each hash covers.
"""
import importlib.util
import json
from pathlib import Path

from followsim import simulate

GOLDEN = Path(__file__).parent / "golden"


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_mismatch(make_golden) -> str:
    """Recompute the corpus: '' when it matches, else the files that differ
    and, per trace CSV, the columns that moved."""
    stored = json.loads((GOLDEN / "hashes.json").read_text())
    got = make_golden.compute_hashes()
    assert sorted(got) == sorted(stored)
    changed = sorted(label for label in stored if "#" not in label and got[label] != stored[label])
    if not changed:
        return ""
    moved = make_golden.moved_columns(stored, got)
    return (f"outputs differ from the golden corpus: {changed}; columns that moved: "
            + "; ".join(f"{label}: {', '.join(columns)}" for label, columns in moved.items()))


def test_outputs_match_golden_hashes():
    mismatch = golden_mismatch(_make_golden())
    assert not mismatch, mismatch


def test_a_perturbed_column_is_named_and_no_other(monkeypatch):
    real = simulate.lateral_deviation
    monkeypatch.setattr(simulate, "lateral_deviation", lambda f, track: real(f, track) + 1e-3)
    moved = golden_mismatch(_make_golden()).split("columns that moved: ", 1)[1]
    traces = [label for label in json.loads((GOLDEN / "hashes.json").read_text())
              if label.endswith(".csv") and not label.endswith("tune_results.csv")]
    assert moved == "; ".join(f"{label}: lateral_dev_m" for label in sorted(traces))
