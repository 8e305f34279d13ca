"""Smoke tests for the scripts in demos/: their imports resolve, the quick ones run."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# 03 and 04 run for several seconds to half a minute, so only their imports are checked.
QUICK = ("01_range_and_radius.py", "02_reverse_bounds.py")


def test_every_demo_is_found():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == [
        "01_range_and_radius.py",
        "02_reverse_bounds.py",
        "03_ensemble_sweep.py",
        "04_extremal_search.py",
    ]


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
        assert not missing, f"{path.name}: {node.module} has no {missing}"


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, tmp_path, monkeypatch, capsys):
    # 01 writes range_boundary.csv and .svg into its working directory.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
