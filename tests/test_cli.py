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

from conftest import peak_record, published_cavity, run_campaign, spiked_tail_spectrum

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
    """synth on a 4-point default grid, or on the grid extra gives with
    --gamma-opt-hz, which --points may not join."""
    points = [] if "--gamma-opt-hz" in extra else ["--points", "4"]
    return _run(
        [
            "synth",
            "--config", config_path,
            "--seed", "7",
            "--out-dir", str(out_dir),
            *points,
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


def test_synth_raw_scale_scales_values_and_tags_them_raw(tmp_path, config_path):
    """--raw-scale multiplies every value of the same draw and tags the
    spectra raw_volts2; the manifest records the scale."""
    plain, scaled = tmp_path / "plain", tmp_path / "scaled"
    assert _synth(config_path, plain) == 0
    assert _synth(config_path, scaled, extra=["--raw-scale", "2.5"]) == 0
    manifest = json.loads((scaled / "manifest.json").read_text())
    assert manifest["raw_scale"] == 2.5
    for name in manifest["files"]:
        a = dataio.read_spectrum(plain / name)
        b = dataio.read_spectrum(scaled / name)
        assert a.units is spectra.SpectrumUnits.HZ2_PER_HZ
        assert b.units is spectra.SpectrumUnits.RAW
        assert np.array_equal(b.values, 2.5 * a.values)


def _config_without(config_path, tmp_path, key) -> str:
    """A copy of the config at config_path without its top-level key."""
    doc = json.loads(Path(config_path).read_text())
    del doc[key]
    path = tmp_path / f"config_without_{key}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "option, value",
    [
        ("--f-step-hz", "0"),
        ("--f-step-hz", "-50"),
        ("--f-step-hz", "inf"),
        ("--f-step-hz", "1e-9"),  # 2e14 bins: numpy refuses the 1.4 PiB grid at once
        ("--points", "0"),
        ("--raw-scale", "0"),
        ("--raw-scale", "inf"),  # refused before the output directory is made
        ("--f-start-hz", "nan"),
        ("--f-start-hz", "inf"),
        ("--f-stop-hz", "nan"),
        ("--floor", "nan"),
        ("--floor", "-0.001"),
        ("--tail-amplitude", "nan"),
        ("--beat-center-hz", "nan"),
        ("--beat-amplitude", "nan"),
        ("--beat-amplitude", "inf"),
        ("--gamma-opt-hz", "1000,nan,3000"),
        ("--gamma-opt-hz", "1000,-500,3000"),  # an unstable drive point
        ("--gamma-opt-hz", "200e3"),  # past the spring's static limit, about 153 kHz
        ("--n-averages", "0"),
        ("--n-averages", "abc"),  # argparse's own refusals end the same way
        ("--gamma-opt-hz", "1000,abc"),
        ("--f-start-hz", "400e3"),  # above the default stop, 356 kHz
        ("--f-stop-hz", "300e3"),  # below the config's 340 kHz tone
        ("--points", "12 --gamma-opt-hz 1000,2000"),  # --points sizes only the default grid
    ],
)
def test_synth_bad_input_gives_one_error_line(tmp_path, config_path, capsys, option, value):
    """The error line names the option and comes before any log line or file.
    A value with spaces is split into several arguments."""
    out = tmp_path / "camp"
    assert _synth(config_path, out, extra=[option, *value.split()]) == 1
    assert option in _one_error_line(capsys)
    assert not out.exists()


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


def test_fit_peak_rejects_a_one_bin_width(tmp_path, config_path, capsys):
    """A spectrum whose only feature in the search window is a one-bin spike
    fits a width on its lower bound: fit-peak exits 1 with one error line
    and writes no fragment. The config has no calibration tone, so the
    spectrum is fitted as written."""
    config = _config_without(config_path, tmp_path, "calibration_tone")
    path = tmp_path / "spiked.csv"
    dataio.write_spectrum(spiked_tail_spectrum(), path)
    code = _run(
        [
            "fit-peak", "--config", config,
            "--spectrum", str(path), "--out", str(tmp_path / "frag.json"),
        ]
    )
    assert code == 1
    assert "lower bound of one bin" in _one_error_line(capsys)
    assert not (tmp_path / "frag.json").exists()


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


def test_fit_peak_without_calibration_tone(tmp_path, config_path):
    """With no tone in the config, synth adds none and fit-peak fits the
    spectrum as read, with no exclusion window: its fragment holds the peak
    that analyze_peak gives in memory."""
    config = _config_without(config_path, tmp_path, "calibration_tone")
    out, frag = tmp_path / "camp", tmp_path / "frag.json"
    assert _synth(config, out, extra=["--gamma-opt-hz", "2000"]) == 0
    assert "calibration_tone" not in json.loads((out / "manifest.json").read_text())["config"]
    spectrum = out / "spectrum_000.csv"
    argv = ["fit-peak", "--config", config, "--spectrum", str(spectrum), "--out", str(frag)]
    assert _run([*argv, "--window-hz", "226e3", "286e3"]) == 0
    cfg = dataio.load_config(config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want, _ = fitting.analyze_peak(
            dataio.read_spectrum(spectrum), cfg.mode(0), cfg.cavity, cfg.detection,
            search_window=(226e3, 286e3),
        )
    got = json.loads(frag.read_text())["peaks"]
    assert got == report.FitReport(peaks=[want]).to_dict()["peaks"]


def test_fit_peak_onto_a_directory_leaves_no_temporary_file(tmp_path, config_path, capsys):
    """An --out that names a directory fails at the rename of the finished
    fragment: fit-peak exits 1 with one error line naming it, and the
    temporary file written beside it is removed."""
    config = _config_without(config_path, tmp_path, "calibration_tone")
    camp, taken = tmp_path / "camp", tmp_path / "taken"
    assert _synth(config, camp, extra=["--gamma-opt-hz", "2000"]) == 0
    taken.mkdir()
    capsys.readouterr()
    argv = ["fit-peak", "--config", config, "--spectrum", str(camp / "spectrum_000.csv")]
    assert _run([*argv, "--out", str(taken)]) == 1
    assert str(taken) in _one_error_line(capsys)
    assert list(tmp_path.glob("*.tmp")) == [] and list(taken.iterdir()) == []


def test_synth_raises_a_floor_below_the_dispersive_dip(tmp_path, config_path, capsys):
    """A --floor that the peak's dispersive dip would take below zero is
    raised to 1.3 times the deepest dip over the drive grid, with one log
    line, and the manifest records the floor the spectra were drawn with."""
    out = tmp_path / "camp"
    assert _synth(config_path, out, extra=["--floor", "1e-7"]) == 0
    assert "raising PSD floor to 0.00342 Hz^2/Hz" in capsys.readouterr().err
    floor = json.loads((out / "manifest.json").read_text())["floor"]
    assert f"{floor:.3g}" == "0.00342"


def test_synth_default_grid_needs_laser_noise(tmp_path, config_path, capsys):
    """The default drive grid spans the optimum gamma_min, which a config
    without laser noise has not got: without --gamma-opt-hz synth exits 1
    with one error line and writes nothing."""
    out = tmp_path / "camp"
    assert _synth(_config_without(config_path, tmp_path, "noise"), out) == 1
    assert "error: cannot build default drive grid: " in _one_error_line(capsys)
    assert not out.exists()


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


# case -> (where the bad value goes in the config document, the value, and
# the text the error line shows for the field and the value)
_BAD_CONFIG_VALUES = {
    "config-zero-q": (("modes", 0, "q_factor"), 0, ["q_factor", "got 0"]),
    "config-zero-gamma": (("modes", 0, "gamma_hz"), 0, ["gamma_m", "got 0.0"]),
    "config-nan-q": (("modes", 0, "q_factor"), math.nan, ["q_factor", "got nan"]),
    "config-nan-temperature": (
        ("modes", 0, "temperature_k"), math.nan, ["temperature", "got nan"]
    ),
    "config-nan-phase-noise": (
        ("noise", "s_phi_phi_rad2_per_hz"), math.nan, ["s_phi_phi", "got nan"]
    ),
    "config-nan-g0": (("g0_hz",), math.nan, ["g0_hz", "got nan"]),
    "config-nan-probe-kappa": (
        ("detection", "probe_kappa_hz"), math.nan, ["probe_kappa", "got nan"]
    ),
    "config-zero-probe-kappa": (
        ("detection", "probe_kappa_hz"), 0, ["probe_kappa", "got 0.0"]
    ),
    "config-nan-tone": (
        ("calibration_tone", "frequency_hz"), math.nan, ["tone frequency_hz", "got nan"]
    ),
    "config-nan-length": (("cavity", "length_m"), math.nan, ["cavity_length", "got nan"]),
    "config-unknown-mode-key": (
        ("modes", 0, "temperatur_k"), 300.0, ["modes has unknown key 'temperatur_k'"]
    ),
    "config-unknown-key": (("g0_hz_",), 2.1, ["has unknown key 'g0_hz_'"]),
    "config-input-transmission": (
        ("cavity", "input_transmission_ppm"), 20.0,
        ["cavity has unknown key 'input_transmission_ppm'"],
    ),
    "config-string-temperature": (
        ("modes", 0, "temperature_k"), "300", ["temperature_k must be a number", "'300'"]
    ),
    "config-section-not-object": (("detection",), [], ["detection must be an object"]),
}


def _cooling_record(covariance) -> dict:
    """A cooling_curve section, as a report stores it, with the given covariance."""
    cooling = fitting.CoolingCurveResult(
        b1=1.0, b2=1.0, covariance=np.asarray(covariance), reduced_chi2=1.0, g0=1.0,
        g0_sigma=0.1, n_min=1.0, n_min_sigma=0.1, gamma_min=1.0, gamma_min_sigma=0.1,
        n_points=3,
    )
    return report.FitReport(cooling=cooling).to_dict()["cooling_curve"]


# case -> (where the bad value goes in the first of three fragments, the
# value, and the text the error line shows for the field and the value)
_BAD_FRAGMENT_VALUES = {
    # mode index 1's sideband angle, in fragments fitted for mode index 0
    "fragment-other-sideband-angle": (
        ("peaks", 0, "theta_rad"),
        sc.sideband_angle(published_cavity(), TWO_PI * 593e3),
        ["peak 0: sideband angle 0.74", "is not the mode's -1.28"],
    ),
    "fragment-infinite-gamma-eff": (
        ("peaks", 0, "coeffs", "gamma_eff_hz"), math.inf,
        ["gamma_eff must be positive and finite"],
    ),
    "fragment-list-a-eff": (
        ("peaks", 0, "a_eff_hz2"), [1.0], ["a_eff_hz2 must be a number", "[1.0]"]
    ),
    "fragment-null-a-eff": (("peaks", 0, "a_eff_hz2"), None, ["a_eff_hz2 must be a number"]),
    "fragment-list-a-eff-sigma": (
        ("peaks", 0, "a_eff_sigma_hz2"), [1.0], ["a_eff_sigma_hz2 must be a number"]
    ),
    "fragment-null-a-eff-sigma": (
        ("peaks", 0, "a_eff_sigma_hz2"), None, ["a_eff_sigma_hz2 must be a number"]
    ),
    "fragment-null-a3": (("peaks", 0, "coeffs", "a3_hz2"), None, ["a3_hz2 must be a number"]),
    "fragment-bool-a3": (("peaks", 0, "coeffs", "a3_hz2"), True, ["a3_hz2 must be a number"]),
    "fragment-string-theta": (("peaks", 0, "theta_rad"), "0.5", ["theta_rad must be a number"]),
    "fragment-one-entry-window": (
        ("peaks", 0, "window_hz"), [226e3], ["window_hz must be a pair of numbers"]
    ),
    "fragment-float-count": (("peaks", 0, "n_points"), 1200.0, ["n_points must be an integer"]),
    "fragment-3x3-cooling-covariance": (
        ("cooling_curve",), _cooling_record(np.eye(3)), ["covariance must be 2x2"]
    ),
    "fragment-text-cooling-covariance": (
        ("cooling_curve",), _cooling_record([["1", "0"], ["0", "1"]]), ["covariance must be 2x2"]
    ),
}


def _set(doc, where, value):
    """doc with value put at the path where, a tuple of keys and indices."""
    *keys, last = where
    section = doc
    for key in keys:
        section = section[key]
    section[last] = value
    return doc


# case -> (predict's sweep options, and the texts its error line shows: the
# option and its rule); each sweep is rejected before any point is computed
_BAD_PREDICT_OPTIONS = {
    "predict-nan-min": (
        ["--sweep", "gamma-opt", "--min", "nan", "--max", "50e3"],
        ["argument --min: must be finite"],
    ),
    "predict-nan-max": (
        ["--sweep", "detuning", "--min=-600e3", "--max", "nan"],
        ["argument --max: must be finite"],
    ),
    "predict-zero-points": (
        ["--sweep", "gamma-opt", "--min", "200", "--max", "50e3", "--points", "0"],
        ["argument --points: must be at least 1"],
    ),
    "predict-zero-q-min": (
        ["--sweep", "quality-factor", "--min", "0", "--max", "1e7", "--points", "3"],
        ["--min must be positive", "quality-factor"],
    ),
    "predict-negative-gamma-opt-min": (
        ["--sweep", "gamma-opt", "--min=-100", "--max", "50e3"],
        ["--min must not be negative", "gamma-opt"],
    ),
    "predict-log-zero-min": (
        ["--sweep", "gamma-opt", "--min", "0", "--max", "50e3", "--log"],
        ["--min must be positive with --log"],
    ),
    "predict-max-equal-to-min": (
        ["--sweep", "gamma-opt", "--min", "500", "--max", "500"],
        ["--max must exceed --min"],
    ),
    "predict-max-below-min": (
        ["--sweep", "gamma-opt", "--min", "500", "--max", "200"],
        ["--max must exceed --min"],
    ),
    "predict-log-negative-min": (
        ["--sweep", "detuning", "--min=-600e3", "--max=-100e3", "--log"],
        ["--min must be positive with --log"],
    ),
}

# case -> the sweep options of a predict run on a config without a noise
# section: both sweeps evaluate each row at gamma_min, which needs laser noise
_SWEEPS_WITHOUT_NOISE = {
    "predict-detuning-without-noise": ["--sweep", "detuning", "--min=-600e3", "--max=-100e3"],
    "predict-quality-factor-without-noise": [
        "--sweep", "quality-factor", "--min", "1e6", "--max", "1e8"
    ],
}

# case -> fit-peak's two --window-hz values
_BAD_WINDOWS = {
    "fit-peak-infinite-window": ["226e3", "inf"],
    "fit-peak-nan-window": ["nan", "nan"],
    "fit-peak-reversed-window": ["286e3", "226e3"],
}


# case -> (convert's options, and the texts its error line shows)
_BAD_CONVERT_OPTIONS = {
    "convert-nan-value": (
        ["--value", "nan", "--frequency-hz", "256e3"], ["argument --value: must be finite"]
    ),
    "convert-negative-value": (
        ["--value=-1", "--frequency-hz", "256e3"],
        ["argument --value: must be finite and not negative"],
    ),
    "convert-infinite-frequency": (
        ["--value", "2.2e-2", "--frequency-hz", "inf"],
        ["argument --frequency-hz: must be positive"],
    ),
    "convert-sphiphi-with-config": (
        ["--value", "1e-2", "--frequency-hz", "5", "--config", "/nonexistent.json"],
        ["--config plays no part in --quantity snn-to-sphiphi"],
    ),
}


# case -> (the whole argv, and the texts its error line shows): argparse's
# own refusals, which come before any file is read
_BAD_ARGUMENTS = {
    "fit-peak-without-spectrum-or-out": (
        ["fit-peak", "--config", "config.json"],
        ["the following arguments are required: --spectrum, --out"],
    ),
    "predict-bogus-sweep": (
        ["predict", "--config", "config.json", "--sweep", "bogus", "--min", "1", "--max", "2"],
        ["argument --sweep: invalid choice: 'bogus'"],
    ),
    "unknown-option": (
        ["convert", "--quantity", "snn-to-sphiphi", "--value", "1", "--bogus", "2"],
        ["unrecognized arguments: --bogus 2"],
    ),
    "no-command": ([], ["the following arguments are required: command"]),
}


def _bad_input_argv(case, tmp_path, config_path):
    """argv for one malformed input; every case writes to tmp_path/out.json."""
    out = ["--out", str(tmp_path / "out.json")]
    if case in _BAD_CONFIG_VALUES:
        where, value, _ = _BAD_CONFIG_VALUES[case]
        doc = _set(json.loads(Path(config_path).read_text()), where, value)
        path = tmp_path / "bad_config.json"
        path.write_text(json.dumps(doc))
        return ["predict", "--config", str(path),
                "--sweep", "gamma-opt", "--min", "200", "--max", "50e3", *out]
    if case in _BAD_PREDICT_OPTIONS:
        return ["predict", "--config", config_path, *_BAD_PREDICT_OPTIONS[case][0], *out]
    if case in _SWEEPS_WITHOUT_NOISE:
        return ["predict", "--config", _config_without(config_path, tmp_path, "noise"),
                *_SWEEPS_WITHOUT_NOISE[case], *out]
    if case in _BAD_WINDOWS:
        return ["fit-peak", "--config", config_path, "--spectrum", str(_flat_spectrum(tmp_path)),
                "--window-hz", *_BAD_WINDOWS[case], *out]
    if case == "synth-without-g0":
        return ["synth", "--config", _config_without(config_path, tmp_path, "g0_hz"),
                "--seed", "1", "--out-dir", str(tmp_path / "out.json")]
    if case == "predict-without-g0":
        return ["predict", "--config", _config_without(config_path, tmp_path, "g0_hz"),
                "--sweep", "gamma-opt", "--min", "200", "--max", "50e3", *out]
    if case in _BAD_ARGUMENTS:
        return _BAD_ARGUMENTS[case][0]
    if case in _BAD_CONVERT_OPTIONS:
        return ["convert", "--quantity", "snn-to-sphiphi", *_BAD_CONVERT_OPTIONS[case][0]]
    if case == "fit-peak-raw-units":
        path = tmp_path / "raw.csv"
        path.write_text("# units=raw_volts2\n# n_averages=10\n"
                        "# f_start=1000.0\n# f_step=50.0\n"
                        "frequency_hz,psd\n1000,1.0\n1050,1.0\n")
        return ["fit-peak", "--config", _config_without(config_path, tmp_path, "calibration_tone"),
                "--spectrum", str(path), *out]
    if case == "convert-sll-without-config":
        return ["convert", "--quantity", "snn-to-sll", "--value", "1e-2"]
    if case == "convert-sll-with-frequency":
        return ["convert", "--quantity", "snn-to-sll", "--value", "1e-2",
                "--frequency-hz", "5", "--config", config_path]
    if case == "cooling-curve-repeated-fragment":
        frags = _fragments(tmp_path, [
            peak_record(gamma, 1e3 / gamma + gamma) for gamma in TWO_PI * np.array([1e3, 4e3])
        ])
        return ["cooling-curve", "--config", config_path, frags[0], *frags, *out]
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
    if case in _BAD_FRAGMENT_VALUES or case in (
        "fragment-nan-sigma", "fragment-nan-a3", "fragment-nan-a3-sigma"
    ):
        paths = []
        for k, gamma in enumerate(TWO_PI * np.geomspace(1e3, 10e3, 3)):
            peak = peak_record(gamma, 1e3 / gamma + gamma)
            doc = report.FitReport(peaks=[peak]).to_dict()
            if k == 0 and case in _BAD_FRAGMENT_VALUES:
                where, value, _ = _BAD_FRAGMENT_VALUES[case]
                _set(doc, where, value)
            elif k == 0 and case == "fragment-nan-sigma":
                doc["peaks"][0]["a_eff_sigma_hz2"] = math.nan
            elif k == 0 and case == "fragment-nan-a3":
                doc["peaks"][0]["coeffs"]["a3_hz2"] = math.nan
            elif k == 0:
                doc["peaks"][0]["covariance"][2][2] = math.nan
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
        "fit-peak-raw-units",
        "truncated-fragment",
        "fragment-missing-key",
        "fragment-bad-covariance",
        "fragment-nan-sigma",
        "fragment-nan-a3",
        "fragment-nan-a3-sigma",
        "config-missing-key",
        "missing-config",
        "synth-without-g0",
        "predict-without-g0",
        "convert-sll-without-config",
        "convert-sll-with-frequency",
        "cooling-curve-repeated-fragment",
        *_BAD_CONFIG_VALUES,
        *_BAD_FRAGMENT_VALUES,
        *_BAD_PREDICT_OPTIONS,
        *_BAD_CONVERT_OPTIONS,
        *_BAD_ARGUMENTS,
        *_SWEEPS_WITHOUT_NOISE,
        *_BAD_WINDOWS,
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
        "fit-peak-raw-units": [str(tmp_path / "raw.csv"), "'raw_volts2'", "calibration_tone"],
        "truncated-fragment": [str(tmp_path / "frag.json")],
        "fragment-missing-key": [str(tmp_path / "frag.json"), "'coeffs'"],
        "fragment-bad-covariance": [str(tmp_path / "frag.json"), "covariance must be 5x5"],
        "fragment-nan-sigma": [
            str(tmp_path / "frag_0.json"), "a_eff sigma must be positive, got nan"
        ],
        "fragment-nan-a3": [str(tmp_path / "frag_0.json"), "a3 must be finite, got nan"],
        "fragment-nan-a3-sigma": [str(tmp_path / "frag_0.json"), "a3 sigma must not be NaN"],
        "config-missing-key": [str(tmp_path / "bad_config.json"), "'frequency_hz'"],
        "synth-without-g0": ["config must provide g0_hz for synthesis"],
        "predict-without-g0": ["config must provide g0_hz for predictions"],
        "convert-sll-without-config": ["--config", "is required"],
        "convert-sll-with-frequency": ["--frequency-hz plays no part in --quantity snn-to-sll"],
        "cooling-curve-repeated-fragment": [
            f"{tmp_path / 'frag_0.json'} peak 0 and {tmp_path / 'frag_0.json'} peak 0",
            "equal coeffs",
        ],
    }
    for bad, (_, _, texts) in _BAD_CONFIG_VALUES.items():
        named[bad] = [str(tmp_path / "bad_config.json"), *texts]
    for bad, (_, _, texts) in _BAD_FRAGMENT_VALUES.items():
        named[bad] = [str(tmp_path / "frag_0.json"), *texts]
    for bad, (_, texts) in (
        *_BAD_PREDICT_OPTIONS.items(), *_BAD_CONVERT_OPTIONS.items(), *_BAD_ARGUMENTS.items()
    ):
        named[bad] = texts
    for bad, options in _SWEEPS_WITHOUT_NOISE.items():
        named[bad] = [f"--sweep {options[1]}", "noise section"]
    for bad in _BAD_WINDOWS:
        named[bad] = ["--window-hz", "needs finite bounds, low < high"]
    for text in named.get(case, []):
        assert text in line
    assert not (tmp_path / "out.json").exists()


def _fragments(tmp_path, peaks) -> list[str]:
    """One fit-peak fragment per peak, written under tmp_path."""
    frags = []
    for k, peak in enumerate(peaks):
        path = tmp_path / f"frag_{k}.json"
        report.FitReport(peaks=[peak]).save(path)
        frags.append(str(path))
    return frags


def test_cooling_curve_matches_analyze_campaign(
    tmp_path, config_path, cavity, mode01, detection, phase_noise
):
    """The in-memory pipeline and fit-peak fragments fed to cooling-curve
    give the same physics; only the Hz <-> rad/s round trip differs."""
    result, _ = run_campaign(
        mode01, cavity, detection, phase_noise, g0=TWO_PI * 2.1, seed=0, floor=3.5e-3
    )
    frags = _fragments(tmp_path, result.peaks)
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


# a fit-peak fragment as tool version 0.4.0 wrote it, from fit_peak: its
# fitted slope a1 gives the 6x6 covariance a non-zero second row and column
FRAGMENT_0_4_0 = """{
  "tool_version": "0.4.0",
  "peaks": [{
    "coeffs": {"a0": 0.005002525940612081, "a1": -1.0200803990062699e-10,
               "a2_hz2": 3694.1837033881816, "a3_hz2": -1387.3640215261287,
               "omega_eff_hz": 250960.6142271558, "gamma_eff_hz": 3002.995809149658},
    "covariance": [
      [1.0247309789027995e-10, -1.7369922618504476e-16, -5.693345893962149e-05,
       9.453954507022589e-07, 0.00020506047651653282, -0.0004004012679666354],
      [-1.736992261850446e-16, 3.414176507076798e-21, 1.936647717885234e-10,
       -3.075803444052282e-10, 3.724257245835939e-10, 3.283211563184515e-09],
      [-5.693345893962153e-05, 1.9366477178852403e-10, 626.4384563861541,
       -35.20918752920939, -647.8661810861508, -1419.8828999490704],
      [9.453954507022623e-07, -3.075803444052282e-10, -35.2091875292093,
       87.17923757139056, -176.2503614318101, -857.3929749673879],
      [0.000205060476516533, 3.724257245835934e-10, -647.8661810861514,
       -176.25036143181012, 6824.472218276363, -153.268469798044],
      [-0.00040040126796663547, 3.283211563184512e-09, -1419.8828999490709,
       -857.3929749673877, -153.26846979804532, 28537.48538664435]
    ],
    "reduced_chi2": 1.0154667355612539,
    "a_eff_hz2": 4107.571764301643, "a_eff_sigma_hz2": 25.5961110883973,
    "lorentzian_preferred": false, "theta_rad": -1.281206132011992,
    "window_hz": [200000.0, 300000.0], "n_points": 2001, "n_excluded": 0
  }],
  "provenance": {"spectrum": "spectrum_000.csv", "config": "config.json"}
}
"""


def test_cooling_curve_reads_tool_version_0_4_0_fragments(tmp_path, config_path):
    """A 0.4.0 peak loads without its a1 and with its 6x6 covariance less row
    and column 1, the marginal covariance of the other five; cooling-curve
    on three such fragments writes the same report as on their re-saves,
    which carry neither a1 nor the sixth row, apart from provenance."""
    legacy, resaved = [], []
    for k, gamma in enumerate(TWO_PI * np.geomspace(1e3, 10e3, 3)):
        doc = json.loads(FRAGMENT_0_4_0)
        doc["peaks"][0]["coeffs"]["gamma_eff_hz"] = gamma / TWO_PI
        doc["peaks"][0]["a_eff_hz2"] = 1e3 / gamma + gamma
        legacy.append(tmp_path / f"legacy_{k}.json")
        legacy[-1].write_text(json.dumps(doc))
        frag = report.FitReport.load(legacy[-1])
        cov, kept = np.array(doc["peaks"][0]["covariance"]), [0, 2, 3, 4, 5]
        assert np.array_equal(frag.peaks[0].covariance, cov[np.ix_(kept, kept)])
        resaved.append(tmp_path / f"resaved_{k}.json")
        frag.save(resaved[-1])
        saved = json.loads(resaved[-1].read_text())
        assert saved["tool_version"] == report.TOOL_VERSION
        assert "a1" not in saved["peaks"][0]["coeffs"]
        assert np.shape(saved["peaks"][0]["covariance"]) == (5, 5)
    reports = []
    for name, frags in (("legacy", legacy), ("resaved", resaved)):
        out = tmp_path / f"{name}_report.json"
        assert _run(["cooling-curve", "--config", config_path, *map(str, frags),
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
        del reports[-1]["provenance"]
    assert reports[0] == reports[1]


def test_cooling_curve_plot_gives_occupancies(
    tmp_path, config_path, cavity, mode01, detection, phase_noise
):
    """a_eff = g^2 (2 n_eff + 1), so the plot's n_eff column is
    a_eff / (2 g^2) - 1/2, and its fit column is the fitted curve's
    occupancy, with the same half phonon taken off."""
    result, _ = run_campaign(
        mode01, cavity, detection, phase_noise, g0=TWO_PI * 2.1, seed=0, floor=3.5e-3
    )
    frags = _fragments(tmp_path, result.peaks)
    final, plot = tmp_path / "report.json", tmp_path / "curve.tsv"
    argv = ["cooling-curve", "--config", config_path, *frags]
    assert _run([*argv, "--out", str(final), "--plot-data", str(plot)]) == 0
    rep = report.FitReport.load(final)
    c, g_hz2 = rep.cooling, rep.cooling.g0_hz**2
    rows = np.loadtxt(plot, skiprows=1)
    peaks = sorted(rep.peaks, key=lambda p: p.coeffs.gamma_eff)
    assert rows.shape == (len(peaks), 5)
    for row, peak in zip(rows, peaks):
        gamma = peak.coeffs.gamma_eff
        assert row[1] == pytest.approx(peak.a_eff / (2 * g_hz2) - 0.5, rel=1e-12, abs=0)
        fitted = (c.b1 / gamma + c.b2 * gamma) / (2 * g_hz2) - 0.5
        assert row[3] == pytest.approx(fitted, rel=1e-12, abs=0)


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


def test_predict_gamma_opt_sweep_flags_the_spring_instability(tmp_path, config_path):
    """Rows past the drive where the optical spring takes omega_eff to 0
    (about 153 kHz) are flagged unstable, with NaN values; the row below it
    is ok."""
    out = tmp_path / "gsweep.tsv"
    code = _run(
        [
            "predict", "--config", config_path,
            "--sweep", "gamma-opt", "--min", "50e3", "--max", "400e3",
            "--points", "4", "--out", str(out),
        ]
    )
    assert code == 0
    header, *rows = [ln.split("\t") for ln in out.read_text().splitlines()]
    assert [row[-1] for row in rows] == ["ok", "unstable", "unstable", "unstable"]
    i_neff = header.index("n_eff")
    assert float(rows[0][i_neff]) > 0
    assert all(row[i_neff] == "nan" for row in rows[1:])


def test_predict_quality_factor_sweep_scales_n_min(tmp_path, config_path):
    """The minimum occupancy scales as 1/sqrt(Q): n_min sqrt(Q) is the same
    on every row of a quality-factor sweep."""
    out = tmp_path / "qsweep.tsv"
    code = _run(
        [
            "predict", "--config", config_path,
            "--sweep", "quality-factor", "--min", "1e6", "--max", "1e8",
            "--points", "5", "--log", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    assert len(rows) == 5 and all(r[-1] == "ok" for r in rows)
    i_nmin = header.index("n_min")
    scaled = np.array([float(r[i_nmin]) * math.sqrt(float(r[0])) for r in rows])
    assert np.max(np.abs(scaled / scaled[0] - 1.0)) < 1e-8


def test_predict_without_noise_section(tmp_path, config_path):
    """Without laser noise nothing limits the cooling: n_min and gamma_min
    are NaN, and n_eff falls on every row of a gamma-opt sweep with no
    excess heating."""
    out = tmp_path / "sweep.tsv"
    code = _run(
        [
            "predict", "--config", _config_without(config_path, tmp_path, "noise"),
            "--sweep", "gamma-opt", "--min", "200", "--max", "50e3",
            "--points", "5", "--out", str(out),
        ]
    )
    assert code == 0
    header, *rows = [ln.split("\t") for ln in out.read_text().splitlines()]
    column = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    assert column["n_min"] == column["gamma_min_hz"] == ["nan"] * 5
    assert column["n_exc"] == ["0"] * 5 and column["flag"] == ["ok"] * 5
    n_eff = np.array(column["n_eff"], dtype=float)
    assert np.all(np.isfinite(n_eff)) and np.all(np.diff(n_eff) < 0)


def test_convert_round_trip(capsys, config_path):
    """Each forward conversion gives the expected value, and its inverse
    quantity takes that value back to the input."""

    def convert(quantity, value, *where):
        assert _run(["convert", "--quantity", quantity, "--value", repr(value), *where]) == 0
        return float(capsys.readouterr().out.strip())

    where = ("--frequency-hz", "256e3")
    s_phi = convert("snn-to-sphiphi", 2.2e-2, *where)
    assert s_phi == pytest.approx(2.2e-2 / 256e3**2, rel=1e-12, abs=0)
    assert convert("sphiphi-to-snn", s_phi, *where) == pytest.approx(2.2e-2, rel=1e-12, abs=0)

    where = ("--config", config_path)
    s_ll = convert("snn-to-sll", 1e-2, *where)
    assert s_ll == pytest.approx(2.902e-34, rel=1e-3, abs=0)
    assert convert("sll-to-snn", s_ll, *where) == pytest.approx(1e-2, rel=1e-12, abs=0)


def test_convert_requires_frequency(capsys):
    code = _run(["convert", "--quantity", "snn-to-sphiphi", "--value", "1e-2"])
    assert code == 1
    assert "frequency" in capsys.readouterr().err.lower()
