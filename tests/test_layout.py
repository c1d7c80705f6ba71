"""Static checks on the package layout: modules use only each other's public
names, every ``__all__`` entry exists in its module, every module-level
import is used, the package namespace re-exports only public names, and
nothing in the package imports scipy (only numpy is a run-time dependency)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sidecool"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_sidecool(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "sidecool"


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to sidecool modules, as in ``from . import fitting``."""
    return {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and _is_sidecool(node)
        and node.module in (None, "sidecool")
        for a in node.names
    }


def _private_uses(tree: ast.Module) -> list[str]:
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_sidecool(node):
            uses += [
                f"line {node.lineno}: imports {a.name}"
                for a in node.names
                if _private(a.name)
            ]
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            uses.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return uses


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return names


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports that are neither referenced nor in ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_all_entries(tree))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            unused += [
                f"line {node.lineno}: {a.asname or a.name}"
                for a in node.names
                if (a.asname or a.name).split(".")[0] not in used
            ]
    return unused


def _scipy_imports(tree: ast.Module) -> list[str]:
    """Imports, at any depth, of scipy or one of its submodules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        found += [
            f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] == "scipy"
        ]
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_other_modules(path):
    assert _private_uses(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    tree = _parse(path)
    missing = [name for name in _all_entries(tree) if name not in _top_level_names(tree)]
    assert missing == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_module_level_imports_are_used(path):
    assert _unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert _scipy_imports(_parse(path)) == []


def test_cli_import_loads_no_scipy():
    """A fresh interpreter that imports the CLI has no scipy module loaded."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sidecool.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "[]"


def test_package_namespace_names_are_public():
    """Every name sidecool/__init__.py imports from a submodule is in that
    submodule's __all__."""
    missing = []
    for node in _parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = _all_entries(_parse(PACKAGE / f"{node.module}.py"))
            missing += [
                f"{node.module}.{a.name}" for a in node.names if a.name not in exported
            ]
    assert missing == []


def test_checks_catch_violations():
    """The checks flag a private cross-module read, a private import, a
    stale __all__ entry, an unused import and a scipy import."""
    tree = ast.parse(
        "from . import fitting\n"
        "from .physics import _sideband_response\n"
        "__all__ = ['gone']\n"
        "x = fitting._a3_slope\n"
        "y = fitting.__name__\n"
        "import os.path\n"
        "import numpy as np\n"
        "z = np.pi\n"
    )
    assert _private_uses(tree) == [
        "line 2: imports _sideband_response",
        "line 4: reads fitting._a3_slope",
    ]
    assert _all_entries(tree) == ["gone"]
    assert "gone" not in _top_level_names(tree)
    assert _unused_imports(tree) == ["line 2: _sideband_response", "line 6: os.path"]
    assert _unused_imports(ast.parse("import os\n__all__ = ['os']\n")) == []
    assert _scipy_imports(
        ast.parse(
            "import numpy, scipy.stats\n"
            "from .physics import hbar\n"
            "def f():\n"
            "    from scipy.constants import k\n"
        )
    ) == ["line 1: scipy.stats", "line 4: scipy.constants"]
