"""The package's import footprint: what `import gsdpg` costs every run."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import gsdpg

PACKAGE = Path(gsdpg.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

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


def root_imports(source):
    """Names a Python source imports ``from gsdpg``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "gsdpg" and not node.level
            for alias in node.names}


def test_all_names_resolve():
    for name in gsdpg.__all__:
        assert getattr(gsdpg, name) is not None, name


def test_demo_and_readme_imports_are_exported():
    readme = (ROOT / "README.md").read_text()
    usage = re.search(r"## Library usage\n+```python\n(.*?)```", readme, re.S).group(1)
    sources = {"README.md": usage}
    sources.update({p.name: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))})
    assert len(sources) > 1
    for name, source in sources.items():
        missing = root_imports(source) - set(gsdpg.__all__)
        assert not missing, f"{name} imports {sorted(missing)} from gsdpg outside __all__"


def test_no_unused_import_waivers():
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            assert "noqa: F401" not in line, f"{path.name}:{lineno}"


def test_no_unused_imports():
    """Every name a module imports is used in it, or listed in its ``__all__``."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used |= set(ast.literal_eval(node.value))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                assert name in used, f"{path.name}:{node.lineno}: {name} is never used"
