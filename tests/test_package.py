from pathlib import Path
from types import ModuleType

import followsim

README = Path(__file__).parents[1] / "README.md"


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
