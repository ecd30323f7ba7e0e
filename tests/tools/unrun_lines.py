"""List the executable lines of src/followsim that a pytest run never reaches.

Usage, from the repo root:

    python tests/tools/unrun_lines.py [pytest arguments]

It runs pytest in this process under a stdlib `sys.settrace` line probe that
traces only frames whose code lives in src/followsim, then prints each
executable line that no test reached as `path:line: source`, a count per
file and a total. The report is printed whatever the suite's exit status:
the tracer slows every traced call, so a test that asserts on wall-clock
time may fail under it. Code that runs in child processes is not traced.
The file name does not match pytest's `test_*.py` pattern, so the suite
never collects it.
"""
from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "followsim"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in any code object of a source file.
    A function's own first line is left out: it is the `def` (or decorator)
    line, which runs in the enclosing code, not as a line of the function."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line is not None}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def probe(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None  # no line events for code outside the package
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(probe)
    sys.settrace(probe)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = sorted(executable_lines(path) - hits[str(path)])
        if not unrun:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        for line in unrun:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        print(f"{rel}: {len(unrun)} unrun")
        total += len(unrun)
    print(f"total: {total} unrun executable lines (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
