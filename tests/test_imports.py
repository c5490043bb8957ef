"""Import hygiene of the library: every import sits at module top, and every
submodule imports on its own, so no module relies on an import cycle being
broken at call time."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "flexconn").glob("*.py") if p.stem != "__init__")


def _function_level_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield f"{path.name}:{node.lineno} in {fn.name}"


def test_no_import_inside_a_function():
    found = [hit for path in sorted((SRC / "flexconn").glob("*.py"))
             for hit in _function_level_imports(path)]
    assert found == []


@pytest.mark.parametrize("module", MODULES)
def test_submodule_imports_first(module):
    # a bare package object stands in for flexconn/__init__.py, which would
    # otherwise import every submodule in its own fixed order first
    code = ("import sys, types; pkg = types.ModuleType('flexconn'); "
            f"pkg.__path__ = [{str(SRC / 'flexconn')!r}]; sys.modules['flexconn'] = pkg; "
            f"import flexconn.{module}")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
