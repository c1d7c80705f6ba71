"""Static checks on the package layout: modules use only each other's public
names and import only modules of lower layers, every ``__all__`` entry
exists in its module, every module-level import is used, the package
namespace re-exports only public names, nothing in the package imports
scipy (only numpy is a run-time dependency), nothing calls a numpy function
that imports numpy.ma, and no module keeps mutable state in a module-level
list, dict or set; every name the benchmark tracer patches exists where it
patches it; and the package's version is the one pyproject.toml declares."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sidecool"
TRACING = PACKAGE.parent.parent / "bench" / "tracing.py"
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


# Intra-package imports run down this list: each module imports only the
# modules before it, so the records in report can be built by fitting and
# read by cli without an import cycle.
LAYERS = ("physics", "spectra", "dataio", "report", "fitting", "cli")


def _layer_violations(tree: ast.Module, module: str) -> list[str]:
    """Imports, at any depth, of sidecool modules that do not come before
    module in LAYERS; ``import sidecool`` counts as the package itself."""
    allowed = LAYERS[: LAYERS.index(module)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [
                a.name.split(".")[1] if "." in a.name else a.name
                for a in node.names
                if a.name.split(".")[0] == "sidecool"
            ]
        elif isinstance(node, ast.ImportFrom) and _is_sidecool(node):
            if node.module in (None, "sidecool"):
                names = [a.name for a in node.names]
            else:
                names = [node.module.split(".")[-1]]
        else:
            continue
        found += [f"line {node.lineno}: imports {n}" for n in names if n not in allowed]
    return found


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


MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _mutable_globals(tree: ast.Module) -> list[str]:
    """Module-level names, other than __all__, bound to a list, dict or set
    display or comprehension."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
            node.value, MUTABLE_DISPLAYS
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                f"line {node.lineno}: {n.id}"
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and n.id != "__all__"
            ]
    return found


def _missing_tracer_targets(tree: ast.Module) -> list[str]:
    """Entries (owner, attr, span) of the module's TARGETS whose attr is not
    in vars(owner); each owner is a sidecool module or a name in one."""
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    missing = []
    for entry in targets.elts:
        owner_name, attr = ast.unparse(entry.elts[0]), entry.elts[1].value
        module, *path = owner_name.split(".")
        owner = importlib.import_module(f"sidecool.{module}")
        for name in path:
            owner = getattr(owner, name)
        if attr not in vars(owner):
            missing.append(f"{owner_name}.{attr}")
    return missing


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_other_modules(path):
    assert _private_uses(_parse(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_imports_follow_the_layers(path):
    assert _layer_violations(_parse(path), path.stem) == []


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_mutable_state(path):
    assert _mutable_globals(_parse(path)) == []


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


def test_tracer_targets_exist():
    """Every name bench/tracing.py patches is bound in its owner's namespace,
    so a source change cannot break a traced benchmark run with a KeyError.
    The tracer is parsed, not imported."""
    tree = _parse(TRACING)
    assert _missing_tracer_targets(tree) == []


def test_tool_version_matches_pyproject():
    """report.TOOL_VERSION, written into every report and manifest, is the
    version pyproject.toml declares. The file is read with a regex, not
    tomllib, so that Python 3.10 runs this too."""
    from sidecool import report

    text = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert declared is not None
    assert report.TOOL_VERSION == declared.group(1)


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
    """The checks flag a private cross-module read, a private import, an
    import of a module of the same or a higher layer, a stale __all__
    entry, an unused import, a scipy import, a call of a numpy function
    that imports numpy.ma, a module-level list, dict or set and a tracer
    target that is gone."""
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
    assert _layer_violations(tree, "spectra") == ["line 1: imports fitting"]
    assert _layer_violations(
        ast.parse(
            "from . import dataio, cli\n"
            "from .fitting import nlls_fit\n"
            "from .physics import hbar\n"
            "import numpy, sidecool.spectra, sidecool\n"
            "def f():\n"
            "    from sidecool.report import FitReport\n"
        ),
        "report",
    ) == [
        "line 1: imports cli",
        "line 2: imports fitting",
        "line 4: imports sidecool",
        "line 6: imports report",
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
    assert _mutable_globals(
        ast.parse(
            "__all__ = ['f']\n"
            "_MEMO: list = []\n"
            "TABLE = {1: 2}\n"
            "SEEN = {x for x in y}\n"
            "COLUMNS = ('n', 'flag')\n"
            "LIMIT = frozenset({1})\n"
            "def f():\n"
            "    cache = []\n"
        )
    ) == ["line 2: _MEMO", "line 3: TABLE", "line 4: SEEN"]
    assert _missing_tracer_targets(
        ast.parse(
            "TARGETS = (\n"
            "    (fitting, 'analyze_peak', 'a'),\n"
            "    (fitting, 'one_pass', 'b'),\n"
            "    (report.FitReport, 'load', 'c'),\n"
            "    (report.FitReport, 'peaks', 'd'),\n"
            ")\n"
        )
    ) == ["fitting.one_pass", "report.FitReport.peaks"]
