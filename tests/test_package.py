import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import followsim

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


def test_all_exports_no_modules():
    modules = [name for name in followsim.__all__ if isinstance(getattr(followsim, name), ModuleType)]
    assert modules == []


def test_all_names_resolve():
    assert "run_scenario" in followsim.__all__
    for name in followsim.__all__:
        assert hasattr(followsim, name)


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "mean_op_count" in capsys.readouterr().out


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "followsim"}
    outside = []
    for path in sorted((ROOT / "src" / "followsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import is one of the package's own modules
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_version_is_the_declared_one():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["version"] == followsim.__version__
