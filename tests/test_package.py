import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import settings

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


def test_tier1_draws_the_same_examples_on_every_run(pytestconfig):
    """The tier-1 profile is derandomized, keeps no example database and sets
    no deadline, and a run that picks no other profile loads it."""
    tier1 = settings.get_profile("tier1")
    assert (tier1.derandomize, tier1.database, tier1.deadline, tier1.print_blob) == (
        True, None, None, True)
    if pytestconfig.getoption("hypothesis_profile") is None:
        loaded = settings()
        assert (loaded.derandomize, loaded.database, loaded.deadline) == (True, None, None)


# what tests/reference.py may import from followsim: config and record types,
# the stop reason and the op model
REFERENCE_IMPORTS = {
    "CameraIntrinsics", "FuzzyConfig", "LeaderScript", "MembershipFunction", "PidConfig", "PidState",
    "ScenarioConfig", "SensorReading", "TargetPanel", "Trace", "TraceRecord", "VehicleParams",
    "VehicleState", "STOP_REASON_STATIONARY", "PID_STEP_OPS", "count_fuzzy_ops", "_DELTA_OPS",
    "_EXP_FILTER_OPS", "_PWM_MAP_OPS"}
# the library's step tables, caches, derived properties and methods
LIVE_ATTRIBUTES = {
    "step_table", "rule_table", "error_table", "delta_table", "output_grid", "track", "segments",
    "focal_px", "follow_range", "dt", "n_records", "sub_steps", "on_grid", "runs", "controller"}


def reference_leaks(source: str) -> list[str]:
    """Each name a model's source imports from followsim beyond
    REFERENCE_IMPORTS, and each LIVE_ATTRIBUTES name it reads by attribute."""
    leaks = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            leaks += [alias.name for alias in node.names if alias.name.startswith("followsim")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("followsim"):
            leaks += [alias.name for alias in node.names if alias.name not in REFERENCE_IMPORTS]
        elif isinstance(node, ast.Attribute) and node.attr in LIVE_ATTRIBUTES:
            leaks.append(f".{node.attr}")
    return leaks


def test_reference_model_reads_config_fields_only():
    """The reference model shares no code with the library but its types,
    the stop reason and the op model, so a check against it is independent."""
    assert reference_leaks((ROOT / "tests" / "reference.py").read_text(encoding="utf-8")) == []
    leaky = "import followsim.world\nfrom followsim.sensor import observe\nk = config.sub_steps\n"
    assert reference_leaks(leaky) == ["followsim.world", "observe", ".sub_steps"]
