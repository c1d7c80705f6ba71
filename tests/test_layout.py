"""Static checks on the package layout: modules use only each other's public
names, every ``__all__`` entry exists in its module, every module-level
import is used, the package namespace re-exports only public names, nothing
in the package imports scipy (only numpy is a run-time dependency), and
nothing calls a numpy function that imports numpy.ma."""

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


# np.median and np.nanmedian import numpy.ma in their NaN check, np.percentile
# and np.quantile through np.unique; each CLI process would pay for it.
NUMPY_MA_CALLS = ("median", "percentile", "quantile", "nanmedian", "unique")


def _numpy_ma_calls(tree: ast.Module) -> list[str]:
    """Calls of NUMPY_MA_CALLS as attributes of np or numpy."""
    return [
        f"line {node.lineno}: {node.func.value.id}.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and node.func.attr in NUMPY_MA_CALLS
    ]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_ma_calls(path):
    assert _numpy_ma_calls(_parse(path)) == []


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


def test_cli_commands_load_no_numpy_ma(tmp_path):
    """synth, fit-peak --plot-data and cooling-curve --plot-data, run through
    cli.main in a fresh interpreter, leave numpy.ma unloaded."""
    script = f"""
import math, sys, warnings
from sidecool import cli, dataio, physics, spectra
warnings.simplefilter("ignore")
two_pi = 2.0 * math.pi
d = {str(tmp_path)!r}
dataio.save_config(dataio.ExperimentConfig(
    cavity=physics.CavitySpec(kappa=two_pi * 204e3, detuning=-two_pi * 480e3),
    modes=[physics.MechMode(omega_m=two_pi * 256e3, q_factor=1.18e7, temperature=300.0)],
    detection=spectra.DetectionConfig(probe_kappa=two_pi * 204e3),
    noise=physics.LaserNoise(s_phi_phi=2.2e-2 / 256e3**2),
    calibration_tone=spectra.CalibrationTone(frequency_hz=340e3, power_hz2=10.0),
    g0=two_pi * 2.1,
), d + "/config.json")
cfg = ["--config", d + "/config.json"]
assert cli.main(["synth", *cfg, "--seed", "7", "--out-dir", d, "--points", "3",
                 "--f-step-hz", "50", "--floor", "3.5e-3"]) == 0
frags = [f"{{d}}/frag_{{i}}.json" for i in range(3)]
for i, frag in enumerate(frags):
    assert cli.main(["fit-peak", *cfg, "--spectrum", f"{{d}}/spectrum_{{i:03d}}.csv",
                     "--out", frag, "--plot-data", f"{{d}}/plot_{{i}}.tsv"]) == 0
assert cli.main(["cooling-curve", *cfg, *frags, "--out", d + "/report.json",
                 "--plot-data", d + "/curve.tsv"]) == 0
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curve.tsv").exists()
    assert proc.stdout.strip() == "False"


def test_unregistered_marker_fails_collection(tmp_path):
    """Under the project's pytest configuration a mistyped marker is an
    error, so a slow test cannot run silently in the fast tier."""
    root = PACKAGE.parent.parent
    (tmp_path / "pyproject.toml").write_text((root / "pyproject.toml").read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_typo.py").write_text(
        "import pytest\n\n\n@pytest.mark.slwo\ndef test_typo():\n    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "'slwo' not found in `markers`" in proc.stdout


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
    stale __all__ entry, an unused import, a scipy import and a call of a
    numpy function that imports numpy.ma."""
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
    assert _numpy_ma_calls(
        ast.parse(
            "import numpy as np\n"
            "a = np.median(x) + np.percentile(x, 10)\n"
            "b = np.partition(x, 3)\n"
            "def f(x):\n"
            "    return numpy.quantile(x, 0.1), np.nanmedian(x), np.unique(x)\n"
            "c = x.median()\n"
        )
    ) == [
        "line 2: np.median",
        "line 2: np.percentile",
        "line 5: numpy.quantile",
        "line 5: np.nanmedian",
        "line 5: np.unique",
    ]
