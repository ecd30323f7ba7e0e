"""Golden corpus: the shipped scenarios' outputs stay byte-identical.

Hashes live in tests/golden/hashes.json; tests/golden/make_golden.py
regenerates them and documents what each hash covers.
"""
import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden_hashes():
    stored = json.loads((GOLDEN / "hashes.json").read_text())
    got = _make_golden().compute_hashes()
    assert sorted(got) == sorted(stored)
    changed = sorted(label for label in stored if got[label] != stored[label])
    assert not changed, f"outputs differ from the golden corpus: {changed}"
