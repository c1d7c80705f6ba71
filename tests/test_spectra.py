import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import sidecool as sc
from sidecool import spectra
from sidecool.physics import DriveField, LaserNoise
from sidecool.spectra import (
    BackgroundModel,
    CalibrationTone,
    DetectionConfig,
    LineshapeCoeffs,
    Spectrum,
    SpectrumUnits,
)

from _oracles import pdh_filter

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def _order_stat_samples():
    """Arrays of sizes 1-64 and 4001: distinct values, ties with negatives,
    signed zeros, and NaN among values."""
    rng = np.random.default_rng(20261018)
    for n in [*range(1, 65), 4001]:
        yield rng.normal(size=n)
        yield rng.integers(-3, 4, size=n).astype(float)
        yield np.where(rng.random(n) < 0.5, -0.0, 0.0)
        with_nan = rng.normal(size=n)
        with_nan[rng.random(n) < 0.2] = np.nan
        with_nan[rng.integers(n)] = np.nan
        yield with_nan


def test_median_matches_numpy_bit_for_bit():
    checked = 0
    for x in _order_stat_samples():
        before = x.copy()
        ours = spectra.median(x)
        assert type(ours) is float
        assert np.float64(ours).tobytes() == np.float64(np.median(x)).tobytes(), x
        assert np.array_equal(x, before, equal_nan=True)  # input untouched
        checked += 1
    assert checked == 65 * 4


# ---------------------------------------------------------------------------
# detection filter
# ---------------------------------------------------------------------------


@given(f=st.floats(-2e6, 2e6), kappa=st.floats(40e3, 600e3))
def test_pdh_filter_reduces_to_single_pole(f, kappa):
    det = DetectionConfig(probe_kappa=TWO_PI * kappa)
    omega = TWO_PI * f
    c = spectra.detection_filter_c(omega, det)
    assert complex(c) == pytest.approx(complex(pdh_filter(omega, TWO_PI * kappa)), rel=1e-12, abs=1e-15)


@given(f=st.floats(-2e6, 2e6), kappa=st.floats(40e3, 600e3))
def test_pdh_amplitude_leak_vanishes(f, kappa):
    det = DetectionConfig(probe_kappa=TWO_PI * kappa)
    d = spectra.amplitude_leak_d(TWO_PI * f, det)
    assert abs(complex(d)) < 1e-12


def test_detuned_probe_has_amplitude_leak():
    det = DetectionConfig(probe_kappa=TWO_PI * 204e3, probe_detuning=TWO_PI * 30e3)
    assert abs(complex(spectra.amplitude_leak_d(TWO_PI * 100e3, det))) > 1e-3


# ---------------------------------------------------------------------------
# lineshapes
# ---------------------------------------------------------------------------


def test_lorentzian_half_area_per_lobe():
    omega0, gamma = TWO_PI * 256e3, TWO_PI * 500.0
    f = np.linspace(236e3, 276e3, 400001)
    area = np.trapezoid(spectra._lineshapes(TWO_PI * f, omega0, gamma)[0], f)
    assert area == pytest.approx(0.5, rel=2e-2)


def test_dispersive_shape_odd_about_peak():
    """Odd up to the mirrored negative-frequency resonance, whose local
    contribution is bounded by ~1/Omega."""
    omega0, gamma = TWO_PI * 256e3, TWO_PI * 500.0
    delta = TWO_PI * np.linspace(10.0, 5e3, 100)
    up = spectra._lineshapes(omega0 + delta, omega0, gamma)[1]
    down = spectra._lineshapes(omega0 - delta, omega0, gamma)[1]
    assert np.all(np.abs(up + down) < 1.5 / omega0)


# ---------------------------------------------------------------------------
# model coefficients
# ---------------------------------------------------------------------------


def test_effective_area_equals_occupancy_weight(cavity, mode01, phase_noise):
    """a2 + a3/tan(theta) collapses to g^2 (2 n_eff + 1) (g in Hz)."""
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 3e3)
    coeffs, budget = spectra.model_coefficients(mode01, cavity, drive, phase_noise)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    a_eff = coeffs.a2 + coeffs.a3 / math.tan(theta)
    assert a_eff == pytest.approx(2.1**2 * (2 * budget.n_eff + 1), rel=1e-12)


def test_amplitude_noise_has_no_dispersive_weight(cavity, mode01):
    """Amplitude noise heats the mode but is uncorrelated with the detected
    phase quadrature, so it contributes no dispersive component."""
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 3e3)
    amp_only = LaserNoise(s_eps_eps=1e-13)
    coeffs, budget = spectra.model_coefficients(mode01, cavity, drive, amp_only)
    assert coeffs.a3 == 0.0
    assert budget.n_exc > 0


def test_phase_noise_dispersive_weight_sign(cavity, mode01, phase_noise):
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 3e3)
    coeffs, _ = spectra.model_coefficients(mode01, cavity, drive, phase_noise)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    assert coeffs.a3 != 0.0
    assert np.sign(coeffs.a3) == np.sign(math.cos(theta) * math.sin(theta))


# ---------------------------------------------------------------------------
# forward model spectrum
# ---------------------------------------------------------------------------


def _model(cavity, mode, detection, noise, gamma_opt_hz, floor, **kw):
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * gamma_opt_hz)
    return spectra.output_psd(
        f_start=156e3, f_step=50.0, n_bins=4001, mode=mode, cavity=cavity,
        drive=drive, noise=noise, detection=detection, floor=floor, **kw,
    )


@pytest.mark.parametrize("detuning_hz", [0.0, -480e3])
def test_undriven_point_is_the_thermal_peak(cavity, mode01, phase_noise, detuning_hz):
    """At gamma_opt = 0 no sideband response enters, also at Delta = 0,
    where the sideband angle is undefined: the spring leaves Omega_m, the
    mode sits at n_th, and the lineshape is a Lorentzian of weight
    g^2 (2 n_th + 1)."""
    cavity = dataclasses.replace(cavity, detuning=TWO_PI * detuning_hz)
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=0.0)
    g_hz, n_th = drive.g0 / TWO_PI, sc.thermal_occupation(mode01)
    if detuning_hz == 0.0:
        with pytest.raises(ValueError, match="undefined"):
            sc.sideband_angle(cavity, mode01.omega_m)
    assert sc.spring_shift(cavity, mode01, drive) == mode01.omega_m
    assert sc.effective_occupancy(mode01, cavity, drive, phase_noise).n_eff == n_th
    coeffs, _ = spectra.model_coefficients(mode01, cavity, drive, phase_noise)
    assert coeffs.a3 == 0.0
    assert coeffs.a2 == pytest.approx(g_hz**2 * (2 * n_th + 1), rel=1e-15)


def test_output_psd_warns_outside_weak_coupling(cavity, mode01, detection):
    """gamma_opt/2pi = 30 kHz is more than a tenth of kappa/2pi = 204 kHz."""
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 30e3)
    with pytest.warns(UserWarning, match="weak-coupling lineshape is inaccurate"):
        spectra.output_psd(
            f_start=156e3, f_step=50.0, n_bins=4001, mode=mode01, cavity=cavity,
            drive=drive, noise=LaserNoise(), detection=detection, floor=5e-3,
        )


def test_output_psd_rejects_nonpositive_model(cavity, mode01, phase_noise, detection):
    with pytest.raises(ValueError, match="not positive"):
        _model(cavity, mode01, detection, phase_noise, 9e3, floor=1e-6)


def test_output_psd_metadata_and_peak_location(cavity, mode01, phase_noise, detection):
    model = _model(cavity, mode01, detection, phase_noise, 3e3, floor=5e-3)
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 3e3)
    _, budget = spectra.model_coefficients(mode01, cavity, drive, phase_noise)
    omega_eff_hz, gamma_eff_hz = budget.omega_eff / TWO_PI, budget.gamma_eff / TWO_PI
    f_peak = model.frequencies[np.argmax(model.values)]
    # the dispersive component pulls the maximum off resonance by O(gamma)
    assert f_peak == pytest.approx(omega_eff_hz, abs=0.2 * gamma_eff_hz)
    assert gamma_eff_hz == pytest.approx(mode01.gamma_m / TWO_PI + 3e3, rel=1e-6)


def test_zero_background_is_no_background(cavity, mode01, phase_noise, detection):
    """A background whose tail and beat amplitudes are 0 adds nothing: the
    model PSD equals the one without a background bit for bit, and both are
    tagged Hz^2/Hz."""
    empty = BackgroundModel(
        tail_amplitude=0.0, beat_center=301e3, beat_width=2e3, beat_amplitude=0.0
    )
    bare = _model(cavity, mode01, detection, phase_noise, 3e3, floor=5e-3)
    zero = _model(cavity, mode01, detection, phase_noise, 3e3, floor=5e-3, background=empty)
    assert zero.values.tobytes() == bare.values.tobytes()
    assert zero.units is bare.units is SpectrumUnits.HZ2_PER_HZ


def test_output_psd_warns_on_coarse_grid(cavity, mode01, phase_noise, detection):
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 200.0)
    with pytest.warns(UserWarning, match="bins per effective width"):
        spectra.output_psd(
            f_start=156e3, f_step=50.0, n_bins=4001, mode=mode01, cavity=cavity,
            drive=drive, noise=phase_noise, detection=detection, floor=5e-3,
        )


def test_background_evaluation_components():
    bg = BackgroundModel(
        tail_offset=1.0, tail_amplitude=4e10, tail_exponent=2.0,
        beat_center=300e3, beat_width=2e3, beat_amplitude=5.0,
    )
    f = np.array([200e3, 300e3])
    vals = spectra.evaluate_background(bg, f)
    beat_tail = 5.0 * 1e3**2 / ((200e3 - 300e3) ** 2 + 1e3**2)
    assert vals[0] == pytest.approx(1.0 + 4e10 / 200e3**2 + beat_tail, rel=1e-12)
    assert vals[1] == pytest.approx(1.0 + 4e10 / 300e3**2 + 5.0, rel=1e-12)


# ---------------------------------------------------------------------------
# synthesis statistics
# ---------------------------------------------------------------------------


def test_synthesis_is_seed_reproducible(cavity, mode01, phase_noise, detection):
    model = _model(cavity, mode01, detection, phase_noise, 3e3, floor=5e-3)
    a = spectra.synthesize_measured_spectrum(model, n_averages=50, seed=123)
    b = spectra.synthesize_measured_spectrum(model, n_averages=50, seed=123)
    c = spectra.synthesize_measured_spectrum(model, n_averages=50, seed=124)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_synthesis_mean_and_variance(cavity, mode01, phase_noise, detection):
    model = _model(cavity, mode01, detection, phase_noise, 3e3, floor=5e-3)
    m = 100
    noisy = spectra.synthesize_measured_spectrum(model, n_averages=m, seed=7)
    ratio = noisy.values / model.values
    assert ratio.mean() == pytest.approx(1.0, abs=5e-3)
    assert ratio.std() == pytest.approx(1.0 / math.sqrt(m), rel=0.05)


@pytest.mark.parametrize("m", [1, 10, 100])
def test_periodogram_bins_follow_scaled_chi_squared(m):
    flat = Spectrum(
        f_start=1e5, f_step=10.0, values=np.full(20000, 3.0),
        units=SpectrumUnits.HZ2_PER_HZ,
    )
    noisy = spectra.synthesize_measured_spectrum(flat, n_averages=m, seed=m)
    # bin / model ~ chi^2_{2M} / 2M
    stat = stats.kstest(noisy.values / 3.0, stats.chi2(df=2 * m, scale=1.0 / (2 * m)).cdf)
    assert stat.pvalue > 0.01


def test_calibration_tone_is_coherent(cavity, mode01, phase_noise, detection):
    """The tone rides on top of the noise realization, not through it."""
    model = _model(cavity, mode01, detection, phase_noise, 3e3, floor=5e-3)
    tone = CalibrationTone(frequency_hz=340e3, power_hz2=10.0)
    plain = spectra.synthesize_measured_spectrum(model, n_averages=50, seed=9)
    with_tone = spectra.synthesize_measured_spectrum(model, n_averages=50, seed=9, tone=tone)
    diff = with_tone.values - plain.values
    idx = int(round((340e3 - model.f_start) / model.f_step))
    assert diff[idx] == pytest.approx(10.0 / model.f_step, rel=1e-12)
    diff[idx] = 0.0
    assert np.all(diff == 0.0)


def test_campaign_truth_records_effective_area(cavity, mode01, phase_noise, detection):
    grid = TWO_PI * np.array([1e3, 2e3])
    specs, truth = spectra.synthesize_campaign(
        mode=mode01, cavity=cavity, g0=TWO_PI * 2.1, gamma_opt_grid=grid,
        noise=phase_noise, detection=detection,
        f_start=156e3, f_step=50.0, n_bins=4001,
        n_averages=100, seed=5, floor=5e-3,
    )
    assert len(specs) == len(truth) == 2
    for t, gamma_opt in zip(truth, grid):
        assert t["a_eff_hz2"] == pytest.approx(
            t["a2_hz2"] + t["a3_hz2"] / math.tan(
                sc.sideband_angle(cavity, mode01.omega_m)
            ),
            rel=1e-10,
        )
        # the truth is the forward model's own coefficients at that drive
        # point, bit for bit
        drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=float(gamma_opt))
        coeffs, budget = spectra.model_coefficients(mode01, cavity, drive, phase_noise)
        assert (
            t["n_eff"], t["gamma_eff_hz"], t["omega_eff_hz"], t["a2_hz2"], t["a3_hz2"]
        ) == (
            budget.n_eff, budget.gamma_eff / TWO_PI, budget.omega_eff / TWO_PI,
            coeffs.a2, coeffs.a3,
        )
    # more cooling lowers the occupancy
    assert truth[1]["n_eff"] < truth[0]["n_eff"]


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_spectrum_window_slice_bounds():
    s = Spectrum(f_start=100.0, f_step=10.0, values=np.arange(10.0))
    sl = s.window_slice(115.0, 155.0)
    assert np.array_equal(s.frequencies[sl], [120.0, 130.0, 140.0, 150.0])
    with pytest.raises(ValueError, match="outside the grid"):
        s.window_slice(500.0, 600.0)
    for bounds in [(115.0, math.inf), (math.nan, math.nan), (155.0, 115.0)]:
        with pytest.raises(ValueError, match="needs finite bounds, low < high"):
            s.window_slice(*bounds)


def test_spectrum_is_a_frozen_value():
    """A Spectrum changes only through dataclasses.replace, which checks the
    new fields again."""
    s = Spectrum(f_start=100.0, f_step=10.0, values=np.arange(10.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.units = SpectrumUnits.HZ2_PER_HZ
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(s, values=np.full(10, np.nan))


def test_lineshape_coeffs_round_trip():
    c = LineshapeCoeffs(a0=0.1, a2=5.0, a3=-1.0,
                        omega_eff=TWO_PI * 256e3, gamma_eff=TWO_PI * 1e3)
    assert LineshapeCoeffs.from_array(c.as_array()) == c
