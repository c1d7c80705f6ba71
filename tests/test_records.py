"""The JSON records the CLI writes: a config, fit-peak fragments and a
cooling-curve report come back byte for byte through load -> save, and a
copy corrupted in one place is either still usable or rejected with one
error line."""

import contextlib
import copy
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidecool as sc
from sidecool import cli, dataio, report
from sidecool.dataio import ExperimentConfig
from sidecool.spectra import CalibrationTone, DetectionConfig

TWO_PI = 2.0 * math.pi
N_FRAGMENTS = 4


def _main(argv) -> tuple[int, str]:
    """cli.main's exit code and standard error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A directory with config.json, written by save_config, and
    frag_<k>.json and report.json, written by fit-peak and cooling-curve
    from a synthesized campaign."""
    d = tmp_path_factory.mktemp("written")
    config = ExperimentConfig(
        cavity=sc.CavitySpec(
            kappa=TWO_PI * 204e3, detuning=-TWO_PI * 480e3,
            cavity_length=48e-3, laser_frequency=281.76e12,
        ),
        modes=[sc.MechMode(omega_m=TWO_PI * 256e3, q_factor=1.18e7, label="(0,1)")],
        detection=DetectionConfig(probe_kappa=TWO_PI * 204e3),
        noise=sc.LaserNoise(s_phi_phi=2.2e-2 / 256e3**2),
        calibration_tone=CalibrationTone(frequency_hz=340e3, power_hz2=10.0),
        g0=TWO_PI * 2.1,
    )
    dataio.save_config(config, d / "config.json")
    cfg = ["--config", str(d / "config.json")]
    argv = ["synth", *cfg, "--seed", "7", "--out-dir", str(d / "camp"),
            "--points", str(N_FRAGMENTS), "--f-step-hz", "50", "--floor", "3.5e-3"]
    assert _main(argv)[0] == 0
    for k in range(N_FRAGMENTS):
        argv = ["fit-peak", *cfg, "--spectrum", str(d / "camp" / f"spectrum_{k:03d}.csv"),
                "--out", str(d / f"frag_{k}.json")]
        assert _main(argv)[0] == 0
    fragments = [str(d / f"frag_{k}.json") for k in range(N_FRAGMENTS)]
    assert _main(["cooling-curve", *cfg, *fragments, "--out", str(d / "report.json")])[0] == 0
    return d


@pytest.mark.parametrize(
    "name, load, save",
    [
        ("config.json", dataio.load_config, dataio.save_config),
        ("frag_0.json", report.FitReport.load, report.FitReport.save),
        ("report.json", report.FitReport.load, report.FitReport.save),
    ],
)
def test_written_records_are_fixed_points(written, tmp_path, name, load, save):
    save(load(written / name), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (written / name).read_bytes()


def _paths(doc, path=()):
    """The path, a tuple of keys and indices, of every value in doc that is
    not inside a list of numbers: a matrix or a window is one value."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list) and all(isinstance(item, dict) for item in doc):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, path + (key,))


# what happens at the chosen path: the value goes, or takes one of these
CORRUPTIONS = ("delete", math.nan, None, "text", [])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_record_fails_cleanly(written, data):
    """One key of the config or of a fragment deleted, or one value set to
    NaN, null, a string or a list: predict and cooling-curve exit 0, or
    exit 1 with exactly one error line; no exception leaves cli.main."""
    name = data.draw(
        st.sampled_from(["config.json"] + [f"frag_{k}.json" for k in range(N_FRAGMENTS)])
    )
    doc = json.loads((written / name).read_text())
    path = data.draw(st.sampled_from([p for p in _paths(doc) if p]))
    corruption = data.draw(st.sampled_from(CORRUPTIONS))
    doc = copy.deepcopy(doc)
    *keys, last = path
    parent = doc
    for key in keys:
        parent = parent[key]
    if corruption == "delete":
        del parent[last]
    else:
        parent[last] = copy.deepcopy(corruption)
    bad = written / "corrupted.json"
    bad.write_text(json.dumps(doc))

    files = {f"frag_{k}.json": str(written / f"frag_{k}.json") for k in range(N_FRAGMENTS)}
    config = str(written / "config.json")
    if name == "config.json":
        config = str(bad)
    else:
        files[name] = str(bad)
    runs = [["cooling-curve", "--config", config, *files.values(),
             "--out", str(written / "out.json")]]
    if name == "config.json":
        runs.append(["predict", "--config", config, "--sweep", "gamma-opt",
                     "--min", "200", "--max", "50e3", "--points", "5"])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = _main(argv)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert (code, len(errors)) in ((0, 0), (1, 1)), (path, corruption, argv[0], err)
        if code == 1:
            assert err.splitlines() == errors, err
