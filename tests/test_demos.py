"""Smoke tests for the scripts in demos/ and the README quickstart, and the public API they pin."""

import ast
import importlib
import importlib.util
import json
import re
import runpy
from pathlib import Path

import pytest

import numrad

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
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


def readme_quickstart() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs(capsys):
    exec(compile(readme_quickstart(), "README.md quickstart", "exec"), {})
    out = capsys.readouterr().out
    assert "T2_2 True" in out


def test_top_level_exports_exactly_what_demos_and_readme_import():
    sources = [p.read_text() for p in sorted(DEMOS.glob("*.py"))] + [readme_quickstart()]
    used = {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "numrad"
        for alias in node.names
    }
    assert sorted(numrad.__all__) == sorted(used)
    assert all(hasattr(numrad, name) for name in numrad.__all__)


def test_benchmark_layer_functions_stay_traced():
    # perfbench's tracer wraps the functions in each module's __all__ (cli
    # has none, so its names without a leading underscore); a per-layer
    # metric <layer>.<function>.<stat> must name one of them, or one of the
    # tracer's named groups.
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    groups = {"extremal.gen": tracer.GEN, "extremal.search": tracer.SEARCH}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = set()
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in tracer.LAYERS:
            named.update(groups.get(f"{parts[0]}.{parts[1]}", [f"{parts[0]}.{parts[1]}"]))
    assert "bounds.check_sector_hypothesis" in named and "extremal.ginibre" in named
    for full in sorted(named):
        layer, name = full.split(".")
        module = importlib.import_module(f"numrad.{layer}")
        assert name in tracer.public_functions(module), full
        assert name in getattr(module, "__all__", [name]), full
