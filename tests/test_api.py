"""The import surface: every exported name resolves and star-imports work."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bibranch

MODULES = sorted(m.name for m in pkgutil.iter_modules(bibranch.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_and_star_imports(name):
    mod = importlib.import_module(f"bibranch.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"bibranch.{name}.__all__ names missing attributes: {missing}"
    exec(f"from bibranch.{name} import *", {})


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(bibranch.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"bibranch.{node.module}").__all__
        for alias in node.names:
            assert alias.name in exported, f"{alias.name} is not in bibranch.{node.module}.__all__"


def test_package_import_leaves_scipy_out():
    # the piece solver is the package's own, and scipy.special is imported
    # where Gamma and the incomplete gamma function are first evaluated;
    # importing scipy would more than double the import time
    src = str(Path(bibranch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import bibranch, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True, timeout=120)
