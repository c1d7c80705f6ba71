"""End-to-end exercises of the command-line interface, run in-process."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import sidecool as sc
from sidecool import cli, dataio, fitting, report, spectra
from sidecool.dataio import ExperimentConfig
from sidecool.spectra import CalibrationTone

from conftest import peak_record, run_campaign

TWO_PI = 2.0 * math.pi


@pytest.fixture
def config_path(tmp_path, cavity, mode01, mode02, detection):
    cfg = ExperimentConfig(
        cavity=cavity,
        modes=[mode01, mode02],
        detection=detection,
        noise=sc.LaserNoise(s_phi_phi=2.2e-2 / 256e3**2),
        calibration_tone=CalibrationTone(frequency_hz=340e3, power_hz2=10.0),
        g0=TWO_PI * 2.1,
    )
    path = tmp_path / "config.json"
    dataio.save_config(cfg, path)
    return str(path)


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(argv)


def _synth(config_path, out_dir, extra=()):
    return _run(
        [
            "synth",
            "--config", config_path,
            "--seed", "7",
            "--out-dir", str(out_dir),
            "--points", "4",
            "--n-averages", "150",
            "--f-step-hz", "50",
            "--floor", "3.5e-3",
            *extra,
        ]
    )


def test_synth_writes_manifest_and_spectra(tmp_path, config_path):
    out = tmp_path / "camp"
    assert _synth(config_path, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]) == 4
    assert len(manifest["truth"]) == 4
    assert manifest["seed"] == 7
    spec = dataio.read_spectrum(out / manifest["files"][0])
    assert spec.n_averages == 150
    # calibration tone present on the grid
    idx = int(round((340e3 - spec.f_start) / spec.f_step))
    assert spec.values[idx] > 10 * np.median(spec.values)


def test_synth_is_seed_reproducible(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _synth(config_path, a) == 0
    assert _synth(config_path, b) == 0
    fa = json.loads((a / "manifest.json").read_text())["files"][0]
    va = dataio.read_spectrum(a / fa).values
    vb = dataio.read_spectrum(b / fa).values
    assert np.array_equal(va, vb)


@pytest.mark.parametrize(
    "option, value",
    [("--f-step-hz", "0"), ("--f-step-hz", "-50"), ("--points", "0"), ("--raw-scale", "0")],
)
def test_synth_bad_input_gives_one_error_line(tmp_path, config_path, capsys, option, value):
    out = tmp_path / "camp"
    assert _synth(config_path, out, extra=[option, value]) == 1
    assert option in _one_error_line(capsys)
    assert not (out / "manifest.json").exists()


def test_full_pipeline_recovers_truth(tmp_path, config_path):
    """synth -> fit-peak x N -> cooling-curve reproduces the generating
    parameters within the reported uncertainties."""
    out = tmp_path / "camp"
    assert (
        _run(
            [
                "synth", "--config", config_path, "--seed", "3",
                "--out-dir", str(out), "--points", "8",
                "--n-averages", "200", "--f-step-hz", "50",
                "--floor", "3.5e-3",
            ]
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    frags = []
    for i, name in enumerate(manifest["files"]):
        frag = out / f"frag_{i}.json"
        code = _run(
            [
                "fit-peak", "--config", config_path,
                "--spectrum", str(out / name),
                "--out", str(frag),
                "--plot-data", str(out / f"plot_{i}.tsv"),
            ]
        )
        assert code == 0
        frags.append(str(frag))

    plot = (out / "plot_0.tsv").read_text().splitlines()
    assert plot[0].split("\t") == [
        "frequency_hz", "data", "fit", "residual"
    ]
    assert len(plot) > 100

    final = out / "report.json"
    code = _run(
        [
            "cooling-curve", "--config", config_path, *frags,
            "--out", str(final),
            "--plot-data", str(out / "curve.tsv"),
        ]
    )
    assert code == 0

    rep = report.FitReport.load(final)
    truth = manifest["truth"]
    assert rep.cooling.g0_hz == pytest.approx(2.1, rel=0.05)
    n_min_true = truth[0]["n_min"] if "n_min" in truth[0] else None
    assert rep.discrimination.classification == "phase-dominated"
    assert rep.noise.s_nu_nu == pytest.approx(2.2e-2, rel=0.1)
    assert rep.t_eff_k > 0
    assert rep.q_eff > 0
    assert len(rep.peaks) == 8
    assert (out / "curve.tsv").read_text().startswith("gamma_eff_hz")


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def _flat_spectrum(tmp_path):
    flat = spectra.Spectrum(
        f_start=156e3, f_step=50.0, values=np.full(4001, 3.5e-3),
        units=spectra.SpectrumUnits.HZ2_PER_HZ, n_averages=100,
    )
    idx = int(round((340e3 - 156e3) / 50.0))
    flat.values[idx] += 10.0 / 50.0  # tone so calibration succeeds
    path = tmp_path / "flat.csv"
    dataio.write_spectrum(flat, path)
    return path


def test_fit_peak_fails_cleanly_without_peak(tmp_path, config_path, capsys):
    path = _flat_spectrum(tmp_path)
    code = _run(
        [
            "fit-peak", "--config", config_path,
            "--spectrum", str(path), "--out", str(tmp_path / "frag.json"),
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_fit_peak_reports_degenerate_fit(tmp_path, config_path, capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise fitting.DegenerateFitError("singular normal matrix")

    monkeypatch.setattr(fitting, "analyze_peak", degenerate)
    code = _run(
        [
            "fit-peak", "--config", config_path,
            "--spectrum", str(_flat_spectrum(tmp_path)),
            "--out", str(tmp_path / "frag.json"),
        ]
    )
    assert code == 1
    assert "singular" in _one_error_line(capsys)


@pytest.mark.parametrize("index", ["5", "-1"])
@pytest.mark.parametrize("command", ["synth", "fit-peak", "cooling-curve", "predict"])
def test_mode_index_out_of_range(tmp_path, config_path, capsys, command, index):
    args = {
        "synth": ["--seed", "1", "--out-dir", str(tmp_path / "camp")],
        "fit-peak": ["--spectrum", str(tmp_path / "s.csv"), "--out", str(tmp_path / "f.json")],
        "cooling-curve": [str(tmp_path / f"{k}.json") for k in "abc"]
        + ["--out", str(tmp_path / "r.json")],
        "predict": ["--sweep", "gamma-opt", "--min", "200", "--max", "50e3"],
    }[command]
    code = _run([command, "--config", config_path, f"--mode-index={index}", *args])
    assert code == 1
    line = _one_error_line(capsys)
    assert f"mode index {index}" in line and "0 to 1" in line


def test_cooling_curve_reports_undetermined_a3_slope(tmp_path, config_path, mode01, capsys):
    """Every fragment with an infinite a3 sigma leaves the a3 slope undetermined."""
    n_th = sc.thermal_occupation(mode01)
    b1 = 2 * 2.1**2 * mode01.gamma_m * n_th
    frags = []
    for k, gamma in enumerate(TWO_PI * np.geomspace(1e3, 10e3, 4)):
        path = tmp_path / f"frag_{k}.json"
        peak = peak_record(gamma, b1 / gamma + 0.13 * gamma, a3_sigma=math.inf)
        report.FitReport(peaks=[peak]).save(path)
        frags.append(str(path))
    code = _run(
        ["cooling-curve", "--config", config_path, *frags, "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert "a3 slope" in _one_error_line(capsys)
    assert not (tmp_path / "r.json").exists()


def test_cooling_curve_requires_three_fragments(tmp_path, config_path, capsys):
    code = _run(
        [
            "cooling-curve", "--config", config_path,
            str(tmp_path / "a.json"), str(tmp_path / "b.json"),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 1
    assert "3" in capsys.readouterr().err


def _bad_input_argv(case, tmp_path, config_path):
    """argv for one malformed input; every case writes to tmp_path/out.json."""
    out = ["--out", str(tmp_path / "out.json")]
    if case == "missing-spectrum":
        return ["fit-peak", "--config", config_path,
                "--spectrum", str(tmp_path / "missing.csv"), *out]
    if case == "one-column-spectrum":
        path = tmp_path / "one.csv"
        path.write_text("# units=hz2_per_hz\n# n_averages=10\n"
                        "# f_start=1000.0\n# f_step=50.0\n"
                        "frequency_hz,psd\n1000\n1050\n")
        return ["fit-peak", "--config", config_path, "--spectrum", str(path), *out]
    if case in ("spectrum-nan-f-step", "spectrum-bad-units"):
        path = tmp_path / "header.csv"
        f_step, units = ("nan", "hz2_per_hz") if case == "spectrum-nan-f-step" else ("50.0", "volts")
        path.write_text(f"# units={units}\n# n_averages=10\n"
                        f"# f_start=1000.0\n# f_step={f_step}\n"
                        "frequency_hz,psd\n1000,1.0\n1050,1.0\n")
        return ["fit-peak", "--config", config_path, "--spectrum", str(path), *out]
    if case == "truncated-fragment":
        doc = report.FitReport(peaks=[peak_record(TWO_PI * 1e3, 1.0)]).to_dict()
        path = tmp_path / "frag.json"
        path.write_text(json.dumps(doc)[:200])
        return ["cooling-curve", "--config", config_path, *[str(path)] * 3, *out]
    if case == "fragment-missing-key":
        path = tmp_path / "frag.json"
        path.write_text(json.dumps({"peaks": [{}]}))
        return ["cooling-curve", "--config", config_path, *[str(path)] * 3, *out]
    if case == "fragment-bad-covariance":
        doc = report.FitReport(peaks=[peak_record(TWO_PI * 1e3, 1.0)]).to_dict()
        doc["peaks"][0]["covariance"] = [[1.0]]
        path = tmp_path / "frag.json"
        path.write_text(json.dumps(doc))
        return ["cooling-curve", "--config", config_path, *[str(path)] * 3, *out]
    if case in ("fragment-nan-sigma", "fragment-nan-a3", "fragment-nan-a3-sigma"):
        paths = []
        for k, gamma in enumerate(TWO_PI * np.geomspace(1e3, 10e3, 3)):
            peak = peak_record(gamma, 1e3 / gamma + gamma)
            doc = report.FitReport(peaks=[peak]).to_dict()
            if k == 0 and case == "fragment-nan-sigma":
                doc["peaks"][0]["a_eff_sigma_hz2"] = math.nan
            elif k == 0 and case == "fragment-nan-a3":
                doc["peaks"][0]["coeffs"]["a3_hz2"] = math.nan
            elif k == 0:
                doc["peaks"][0]["covariance"][3][3] = math.nan
            paths.append(tmp_path / f"frag_{k}.json")
            paths[-1].write_text(json.dumps(doc))
        return ["cooling-curve", "--config", config_path, *map(str, paths), *out]
    if case == "config-missing-key":
        doc = json.loads(Path(config_path).read_text())
        del doc["modes"][0]["frequency_hz"]
        path = tmp_path / "bad_config.json"
        path.write_text(json.dumps(doc))
        return ["fit-peak", "--config", str(path),
                "--spectrum", str(tmp_path / "s.csv"), *out]
    assert case == "missing-config"
    return ["fit-peak", "--config", str(tmp_path / "missing.json"),
            "--spectrum", str(tmp_path / "s.csv"), *out]


@pytest.mark.parametrize(
    "case",
    [
        "missing-spectrum",
        "one-column-spectrum",
        "spectrum-nan-f-step",
        "spectrum-bad-units",
        "truncated-fragment",
        "fragment-missing-key",
        "fragment-bad-covariance",
        "fragment-nan-sigma",
        "fragment-nan-a3",
        "fragment-nan-a3-sigma",
        "config-missing-key",
        "missing-config",
    ],
)
def test_bad_input_gives_one_error_line(tmp_path, config_path, capsys, case):
    code = _run(_bad_input_argv(case, tmp_path, config_path))
    assert code == 1
    line = _one_error_line(capsys)
    named = {
        "one-column-spectrum": [f"{tmp_path / 'one.csv'}:6", "expected two columns"],
        "spectrum-nan-f-step": [str(tmp_path / "header.csv"), "f_step"],
        "spectrum-bad-units": [str(tmp_path / "header.csv"), "units", "'volts'"],
        "truncated-fragment": [str(tmp_path / "frag.json")],
        "fragment-missing-key": [str(tmp_path / "frag.json"), "'coeffs'"],
        "fragment-bad-covariance": [str(tmp_path / "frag.json"), "covariance must be 6x6"],
        "fragment-nan-sigma": ["a_eff sigmas must be positive"],
        "fragment-nan-a3": ["non-finite a3"],
        "fragment-nan-a3-sigma": ["NaN sigma"],
        "config-missing-key": [str(tmp_path / "bad_config.json"), "'frequency_hz'"],
    }
    for text in named.get(case, []):
        assert text in line
    assert not (tmp_path / "out.json").exists()


def test_cooling_curve_matches_analyze_campaign(
    tmp_path, config_path, cavity, mode01, detection, phase_noise
):
    """The in-memory pipeline and fit-peak fragments fed to cooling-curve
    give the same physics; only the Hz <-> rad/s round trip differs."""
    result, _ = run_campaign(
        mode01, cavity, detection, phase_noise, g0=TWO_PI * 2.1, seed=0, floor=3.5e-3
    )
    frags = []
    for k, peak in enumerate(result.peaks):
        path = tmp_path / f"frag_{k}.json"
        report.FitReport(peaks=[peak]).save(path)
        frags.append(str(path))
    final = tmp_path / "report.json"
    assert _run(["cooling-curve", "--config", config_path, *frags, "--out", str(final)]) == 0
    rep = report.FitReport.load(final)

    def close(value):
        return pytest.approx(value, rel=1e-12, abs=0)

    for name in ("g0", "g0_sigma", "n_min", "n_min_sigma", "gamma_min", "gamma_min_sigma"):
        assert getattr(rep.cooling, name) == close(getattr(result.cooling, name)), name
    for name in ("s_nu_nu", "s_nu_nu_sigma", "s_phi_phi", "s_eps_eps"):
        assert getattr(rep.noise, name) == close(getattr(result.noise, name)), name
    assert rep.noise.dominant == result.noise.dominant
    assert rep.discrimination.classification == result.discrimination.classification
    assert rep.discrimination.classification == "phase-dominated"


def test_predict_detuning_sweep_flags_unstable(tmp_path, config_path):
    out = tmp_path / "sweep.tsv"
    code = _run(
        [
            "predict", "--config", config_path,
            "--sweep", "detuning", "--min=-600e3", "--max", "100e3",
            "--points", "15", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    assert "n_min" in header and "flag" in header
    flags = [ln.split("\t")[-1] for ln in lines[1:]]
    assert "unstable" in flags  # blue-detuned rows
    assert flags.count("ok") > 5  # red-detuned rows are fine
    # red-detuned n_min values are finite and positive
    i_nmin = header.index("n_min")
    good = [float(ln.split("\t")[i_nmin]) for ln in lines[1:]
            if ln.split("\t")[-1] == "ok"]
    assert all(v > 0 for v in good)


def test_predict_gamma_opt_sweep_has_minimum(tmp_path, config_path):
    out = tmp_path / "gsweep.tsv"
    code = _run(
        [
            "predict", "--config", config_path,
            "--sweep", "gamma-opt", "--min", "200", "--max", "50e3",
            "--points", "40", "--log", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    i_neff = header.index("n_eff")
    n_eff = np.array([float(ln.split("\t")[i_neff]) for ln in lines[1:]])
    # interior minimum: the optimum damping lies inside the sweep
    i_min = int(np.argmin(n_eff))
    assert 0 < i_min < n_eff.size - 1


def test_convert_round_trip(capsys, config_path):
    assert _run(
        ["convert", "--quantity", "snn-to-sphiphi", "--value", "2.2e-2",
         "--frequency-hz", "256e3"]
    ) == 0
    s_phi = float(capsys.readouterr().out.strip())
    assert s_phi == pytest.approx(2.2e-2 / 256e3**2, rel=1e-12, abs=0)

    assert _run(
        ["convert", "--quantity", "snn-to-sll", "--value", "1e-2",
         "--config", config_path]
    ) == 0
    s_ll = float(capsys.readouterr().out.strip())
    assert s_ll == pytest.approx(2.902e-34, rel=1e-3, abs=0)


def test_convert_requires_frequency(capsys):
    code = _run(["convert", "--quantity", "snn-to-sphiphi", "--value", "1e-2"])
    assert code == 1
    assert "frequency" in capsys.readouterr().err.lower()
