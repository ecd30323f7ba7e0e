from types import ModuleType

import followsim


def test_all_exports_no_modules():
    modules = [name for name in followsim.__all__ if isinstance(getattr(followsim, name), ModuleType)]
    assert modules == []


def test_all_names_resolve():
    assert "run_scenario" in followsim.__all__
    for name in followsim.__all__:
        assert hasattr(followsim, name)
