import json
import math

import numpy as np
import pytest

import sidecool as sc
from sidecool import dataio, spectra
from sidecool.dataio import (
    ExperimentConfig,
    MissingHeaderError,
    NonFiniteValueError,
    NonUniformGridError,
    SpectrumFormatError,
    ToneNotFoundError,
)
from sidecool.spectra import CalibrationTone, DetectionConfig, Spectrum, SpectrumUnits

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# spectrum files
# ---------------------------------------------------------------------------


def _spectrum():
    rng = np.random.default_rng(0)
    return Spectrum(
        f_start=156e3,
        f_step=50.0,
        values=rng.uniform(1e-3, 1.0, 200),
        units=SpectrumUnits.HZ2_PER_HZ,
        n_averages=37,
        metadata={"gamma_opt_hz": 1.5e3, "label": "(0,1)"},
    )


def test_spectrum_round_trip_is_exact(tmp_path):
    original = _spectrum()
    path = tmp_path / "s.csv"
    dataio.write_spectrum(original, path)
    back = dataio.read_spectrum(path)
    assert back.f_start == original.f_start
    assert back.f_step == original.f_step
    assert np.array_equal(back.values, original.values)
    assert back.units == original.units
    assert back.n_averages == original.n_averages
    assert back.metadata["gamma_opt_hz"] == 1.5e3
    assert back.metadata["label"] == "(0,1)"


def test_legacy_headerless_file_warns_and_tags_raw(tmp_path):
    path = tmp_path / "legacy.dat"
    path.write_text("100.0 2.0\n110.0 3.0\n120.0 4.0\n")
    with pytest.warns(UserWarning, match="legacy"):
        spec = dataio.read_spectrum(path)
    assert spec.units == SpectrumUnits.RAW
    assert spec.f_start == 100.0 and spec.f_step == 10.0
    assert np.array_equal(spec.values, [2.0, 3.0, 4.0])


def test_missing_header_keys_raise(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# units = hz2_per_hz\n100.0,2.0\n110.0,3.0\n")
    with pytest.raises(MissingHeaderError):
        dataio.read_spectrum(path)


def test_non_finite_value_names_the_line(tmp_path):
    path = tmp_path / "nan.dat"
    path.write_text("100.0 2.0\n110.0 nan\n120.0 4.0\n")
    with pytest.raises(NonFiniteValueError, match=":2"):
        dataio.read_spectrum(path)


def test_non_uniform_grid_names_the_offender(tmp_path):
    path = tmp_path / "grid.dat"
    path.write_text(
        "# units = hz2_per_hz\n# n_averages = 1\n# f_start = 100.0\n"
        "# f_step = 10.0\n100.0 2.0\n110.0 3.0\n121.0 4.0\n130.0 5.0\n"
    )
    with pytest.raises(NonUniformGridError, match="121"):
        dataio.read_spectrum(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.dat"
    path.write_text("# sidecool-spectrum v1\n")
    with pytest.raises(SpectrumFormatError, match="no data"):
        dataio.read_spectrum(path)


_HEADER = "# units=hz2_per_hz\n# n_averages=10\n# f_start=100.0\n# f_step=10.0\n"


@pytest.mark.parametrize(
    "rows, line, message",
    [
        ("100.0,2.0\n110.0,3.0,9.0\n120.0,4.0\n", 6, "expected two columns"),
        ("100.0,2.0\n110.0\n120.0,4.0\n", 6, "expected two columns"),
        # 3 + 1 cells: an even count, so the cells would reshape into pairs
        ("100.0,2.0\n110.0,3.0,9.0\n120.0\n130.0,5.0\n", 6, "expected two columns"),
        ("100.0,2.0\n110.0\n120.0,3.0,9.0\n130.0,5.0\n", 6, "expected two columns"),
        ("100.0,2.0\n110.0,abc\n120.0,4.0\n", 6, "non-numeric value"),
        # the first bad row is named, whatever is wrong with a later one
        ("100.0,x\n110.0\n", 5, "non-numeric value"),
        ("100.0\n110.0,x\n", 5, "expected two columns"),
    ],
    ids=[
        "three-columns",
        "one-column",
        "three-then-one",
        "one-then-three",
        "non-numeric",
        "non-numeric-first",
        "columns-first",
    ],
)
def test_malformed_row_names_its_line(tmp_path, rows, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(_HEADER + rows)
    with pytest.raises(SpectrumFormatError) as info:
        dataio.read_spectrum(path)
    assert type(info.value) is SpectrumFormatError
    assert str(info.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("f_step", "nan", "f_step must be positive and finite"),
        ("f_step", "inf", "f_step must be positive and finite"),
        ("f_step", "-inf", "f_step must be positive and finite"),
        ("f_start", "nan", "f_start must be finite"),
        ("f_start", "-inf", "f_start must be finite"),
        ("n_averages", "0", "n_averages must be at least 1"),
        ("units", "volts", "invalid units 'volts'"),
        ("n_averages", "200.0", "invalid n_averages '200.0'"),
        ("f_step", "fifty", "invalid f_step 'fifty'"),
        ("f_start", "", "invalid f_start ''"),
    ],
)
def test_bad_header_value_names_the_file_and_key(tmp_path, key, value, message):
    path = tmp_path / "header.csv"
    fields = {"units": "hz2_per_hz", "n_averages": "10", "f_start": "100.0",
              "f_step": "10.0", key: value}
    header = "".join(f"# {k}={v}\n" for k, v in fields.items())
    path.write_text(header + "100.0,2.0\n110.0,3.0\n")
    with pytest.raises(SpectrumFormatError) as info:
        dataio.read_spectrum(path)
    assert type(info.value) is SpectrumFormatError
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "f_start, f_step",
    [(math.nan, 10.0), (math.inf, 10.0), (100.0, math.nan), (100.0, math.inf), (100.0, 0.0)],
)
def test_spectrum_rejects_a_non_finite_grid(f_start, f_step):
    with pytest.raises(ValueError, match="f_st"):
        Spectrum(f_start=f_start, f_step=f_step, values=np.ones(4))


def test_whitespace_separated_rows_are_read(tmp_path):
    path = tmp_path / "ws.csv"
    path.write_text(_HEADER + "100.0 2.0\n110.0\t3.0\n120.0,  4.0\n 130.0   5.0 \n")
    spec = dataio.read_spectrum(path)
    assert np.array_equal(spec.values, [2.0, 3.0, 4.0, 5.0])
    assert spec.values.flags.c_contiguous


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "out.txt"
    dataio.atomic_write_text(path, "first")
    dataio.atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# tone calibration
# ---------------------------------------------------------------------------


def test_calibrate_with_tone_recovers_scale():
    """A raw spectrum distorted by an unknown gain is rescaled so the tone
    carries its known power again."""
    rng = np.random.default_rng(1)
    floor = 5e-3
    values = np.full(2001, floor) * rng.chisquare(400, 2001) / 400
    model = Spectrum(f_start=300e3, f_step=25.0, values=values)
    tone = CalibrationTone(frequency_hz=315e3, power_hz2=10.0)
    idx = int(round((315e3 - 300e3) / 25.0))
    values[idx] += tone.power_hz2 / 25.0
    raw = Spectrum(
        f_start=300e3, f_step=25.0, values=values * 7.3e4,
        units=SpectrumUnits.RAW, n_averages=200,
    )
    cal = dataio.calibrate_with_tone(raw, tone.frequency_hz, tone.power_hz2)
    assert cal.units == SpectrumUnits.HZ2_PER_HZ
    assert cal.metadata["calibration_scale"] == pytest.approx(1.0 / 7.3e4, rel=1e-2)
    off_tone = np.delete(cal.values, np.arange(idx - 4, idx + 5))
    assert np.median(off_tone) == pytest.approx(floor, rel=2e-2)


def test_calibrate_with_tone_requires_visible_tone():
    flat = Spectrum(f_start=300e3, f_step=25.0, values=np.full(500, 1.0))
    with pytest.raises(ToneNotFoundError, match="below 10x"):
        dataio.calibrate_with_tone(flat, 305e3, 10.0)
    with pytest.raises(ToneNotFoundError, match="outside"):
        dataio.calibrate_with_tone(flat, 1e6, 10.0)


# ---------------------------------------------------------------------------
# unit conversions
# ---------------------------------------------------------------------------


def test_phase_frequency_noise_round_trip():
    omega = TWO_PI * 256e3
    s_phi = dataio.convert_frequency_noise(2.2e-2, omega)
    assert s_phi == pytest.approx(2.2e-2 / 256e3**2, rel=1e-12, abs=0)
    assert dataio.convert_phase_noise(s_phi, omega) == pytest.approx(2.2e-2, rel=1e-12)


def test_length_noise_conversion_frozen_value(cavity):
    # 48 mm cavity probed at 281.76 THz: S_nunu = 1e-2 Hz^2/Hz maps to
    # S_LL = (L_c/nu_L)^2 S_nunu ~ 2.9e-34 m^2/Hz
    s_ll = dataio.convert_snn_sll(1e-2, cavity)
    assert s_ll == pytest.approx(2.902e-34, rel=1e-3, abs=0)
    assert dataio.convert_sll_snn(s_ll, cavity) == pytest.approx(1e-2, rel=1e-12)


def test_length_conversion_requires_geometry():
    bare = sc.CavitySpec(kappa=TWO_PI * 204e3, detuning=-TWO_PI * 480e3)
    with pytest.raises(ValueError, match="required"):
        dataio.convert_snn_sll(2.2e-2, bare)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _config(cavity, mode01, mode02, detection):
    return ExperimentConfig(
        cavity=cavity,
        modes=[mode01, mode02],
        detection=detection,
        noise=sc.LaserNoise(s_phi_phi=2.2e-2 / 256e3**2, s_eps_eps=1.6e-14),
        calibration_tone=CalibrationTone(frequency_hz=340e3, power_hz2=10.0),
        g0=TWO_PI * 2.1,
    )


def test_config_round_trip(tmp_path, cavity, mode01, mode02, detection):
    cfg = _config(cavity, mode01, mode02, detection)
    path = tmp_path / "config.json"
    dataio.save_config(cfg, path)
    back = dataio.load_config(path)
    assert back.cavity.kappa == pytest.approx(cfg.cavity.kappa, rel=1e-12)
    assert back.cavity.detuning == pytest.approx(cfg.cavity.detuning, rel=1e-12)
    assert back.cavity.cavity_length == cfg.cavity.cavity_length
    assert len(back.modes) == 2
    assert back.mode(1).omega_m == pytest.approx(TWO_PI * 593e3, rel=1e-12)
    assert back.mode(0).q_factor == 1.18e7
    assert back.detection.probe_kappa == pytest.approx(detection.probe_kappa, rel=1e-12)
    assert back.noise.s_eps_eps == 1.6e-14
    assert back.calibration_tone.power_hz2 == 10.0
    assert back.g0 == pytest.approx(TWO_PI * 2.1, rel=1e-12)


def test_config_missing_section_rejected(tmp_path, cavity, mode01, mode02, detection):
    cfg = _config(cavity, mode01, mode02, detection)
    d = dataio.config_to_dict(cfg)
    del d["detection"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="detection"):
        dataio.load_config(path)


def test_config_optional_fields_default(tmp_path, cavity, mode01, mode02, detection):
    cfg = _config(cavity, mode01, mode02, detection)
    d = dataio.config_to_dict(cfg)
    for key in ("noise", "calibration_tone", "g0_hz"):
        d.pop(key, None)
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(d))
    back = dataio.load_config(path)
    assert back.noise is None or back.noise.is_zero
    assert back.calibration_tone is None
    assert back.g0 is None
