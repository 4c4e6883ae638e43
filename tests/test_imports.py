"""The package's import footprint: what `import gsdpg` costs every run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gsdpg

PACKAGE = Path(gsdpg.__file__).resolve().parent

# scipy subpackages the solver does not need; each adds tens of milliseconds
UNNEEDED = {"scipy.optimize", "scipy.special", "scipy.integrate",
            "scipy.interpolate", "scipy.stats"}


def test_fresh_import_loads_no_unneeded_scipy():
    code = "import sys, gsdpg, gsdpg.cli; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "gsdpg.cli" in out
    loaded = {".".join(m.split(".")[:2]) for m in out}
    assert not loaded & UNNEEDED


def test_no_deferred_imports():
    """Imports sit at module level, and no module resolves names lazily."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        nested = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
        assert not nested, f"{path.name}: import inside a block at lines {nested}"
        assert not [node for node in tree.body if isinstance(node, ast.FunctionDef)
                    and node.name == "__getattr__"], f"{path.name}: module __getattr__"
