import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

import sidecool as sc
from sidecool import fitting, report
from sidecool.fitting import (
    CoolingCurveResult,
    NoiseDiscrimination,
    NoiseExtraction,
    PeakFitResult,
    summarize_peaks,
)
from sidecool.report import FitReport, effective_temperature
from sidecool.spectra import LineshapeCoeffs

from conftest import peak_record, run_campaign

TWO_PI = 2.0 * math.pi


def test_effective_temperature_definition():
    omega = TWO_PI * 256e3
    assert effective_temperature(120.0, omega) == pytest.approx(
        120.0 * hbar * omega / k_B, rel=1e-12
    )
    # frozen values used in the acceptance suite
    assert effective_temperature(120.0, TWO_PI * 256e3) == pytest.approx(
        1.4743e-3, rel=1e-4
    )
    assert effective_temperature(104.0, TWO_PI * 593e3) == pytest.approx(
        2.9598e-3, rel=1e-4
    )


def test_report_round_trip_with_nan_fraction(tmp_path):
    rep = FitReport(
        discrimination=NoiseDiscrimination(
            classification="phase-dominated",
            ratio=-1.83,
            ratio_sigma=0.05,
            expected_phase_ratio=-1.827,
            amplitude_fraction=float("nan"),
        ),
        t_eff_k=1.5e-3,
        q_eff=46.0,
        provenance={"config": "config.json"},
    )
    path = tmp_path / "report.json"
    rep.save(path)
    back = FitReport.load(path)
    assert back.discrimination.classification == "phase-dominated"
    assert math.isnan(back.discrimination.amplitude_fraction)
    assert back.t_eff_k == rep.t_eff_k
    assert back.q_eff == rep.q_eff
    assert back.provenance == rep.provenance
    assert back.cooling is None and back.noise is None and back.peaks == []


# fields held in rad/s and written in Hz: loading one gives back
# TWO_PI * (x / TWO_PI), which can differ from x in the last bit
_RAD_PER_S = {"omega_eff", "gamma_eff", "g0", "g0_sigma", "gamma_min", "gamma_min_sigma"}


def _assert_same(want, got, where="report"):
    """got equals want bit for bit, recursing into dataclasses, arrays,
    lists and tuples; scalars must match in type and repr, so NaN matches
    NaN and 0.0 does not match -0.0."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            value = getattr(want, f.name)
            if f.name in _RAD_PER_S:
                value = TWO_PI * (value / TWO_PI)
            _assert_same(value, getattr(got, f.name), f"{where}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (w, g) in enumerate(zip(want, got)):
            _assert_same(w, g, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and repr(got) == repr(want), where


def _peak(rng):
    half = rng.normal(size=(5, 5))
    omega_eff = float(rng.uniform(TWO_PI * 250e3, TWO_PI * 260e3))
    gamma_eff = float(rng.uniform(TWO_PI * 1e3, TWO_PI * 1e4))
    return PeakFitResult(
        coeffs=LineshapeCoeffs(*(float(v) for v in rng.normal(size=3)), omega_eff, gamma_eff),
        covariance=half @ half.T,
        reduced_chi2=float(rng.uniform(0.5, 2.0)),
        a_eff=float(rng.uniform(1e3, 1e5)),
        a_eff_sigma=float(rng.uniform(1.0, 1e3)),
        lorentzian_preferred=True,
        theta=float(rng.uniform(0.0, 1.0)),
        window=(float(omega_eff / TWO_PI - 31e3), float(omega_eff / TWO_PI + 29e3)),
        n_points=1187,
        n_excluded=13,
    )


def test_report_with_every_record_round_trips_bit_for_bit(tmp_path):
    """Peaks with a 5x5 covariance and a window, a cooling curve with
    annotations, a discrimination with no ratio and a NaN fraction, the
    noise PSDs, T_eff, Q_eff and provenance all survive save -> load, field
    by field; values held in rad/s come back through their Hz value."""
    rng = np.random.default_rng(17)
    half = rng.normal(size=(2, 2))
    rep = FitReport(
        peaks=[_peak(rng), _peak(rng)],
        cooling=CoolingCurveResult(
            b1=1.2345678e7, b2=3.4567e-2, covariance=half @ half.T,
            reduced_chi2=1.3, g0=TWO_PI * 2.1003, g0_sigma=0.0123,
            n_min=451.7, n_min_sigma=12.3, gamma_min=TWO_PI * 2348.1,
            gamma_min_sigma=101.7, n_points=12,
            annotations=["1 point(s) with gamma_eff < 10 gamma_m: marginal"],
        ),
        discrimination=NoiseDiscrimination(
            classification="indeterminate", ratio=None, ratio_sigma=None,
            expected_phase_ratio=-1.8270, amplitude_fraction=float("nan"),
        ),
        noise=NoiseExtraction(
            s_phi_phi=3.357e-13, s_phi_phi_sigma=1.1e-14, s_phi_phi_is_limit=False,
            s_eps_eps=1.0e-13, s_eps_eps_sigma=4.2e-15, s_eps_eps_is_limit=True,
            s_nu_nu=2.2e-2, s_nu_nu_sigma=7.3e-4, dominant="phase",
        ),
        t_eff_k=1.4743e-3,
        q_eff=46.01,
        provenance={"config": "config.json", "fragments": ["a.json", "b.json"]},
    )
    path = tmp_path / "report.json"
    rep.save(path)
    _assert_same(rep, FitReport.load(path))


def test_report_with_lorentzian_only_fields_loads(tmp_path, mode01, cavity):
    """Fragments from tool version 0.1.0 carry the fields of the former
    a3 = 0 comparison fit. They load with those fields ignored, whatever
    their shape, and give the same physics as fragments without them."""
    current, legacy = [], []
    for k, gamma in enumerate(TWO_PI * np.geomspace(1e3, 10e3, 4)):
        doc = FitReport(peaks=[peak_record(gamma, 1e3 / gamma + gamma)]).to_dict()
        current.append(FitReport.from_dict(doc))
        doc["tool_version"] = "0.1.0"
        doc["peaks"][0].update(
            lorentzian_coeffs=doc["peaks"][0]["coeffs"],
            lorentzian_covariance=[[1.0]],
            lorentzian_reduced_chi2=1.0,
        )
        path = tmp_path / f"frag_{k}.json"
        path.write_text(json.dumps(doc))
        legacy.append(FitReport.load(path))

    def physics(fragments):
        peaks = [p for frag in fragments for p in frag.peaks]
        return summarize_peaks(peaks, mode01, cavity).to_dict()

    loaded = physics(legacy)
    assert loaded == physics(current)
    assert not any(k.startswith("lorentzian_") and k != "lorentzian_preferred"
                   for p in loaded["peaks"] for k in p)


def test_campaign_report_carries_the_physics_and_round_trips(
    tmp_path, cavity, mode01, detection, phase_noise
):
    """The FitReport that analyze_campaign returns holds T_eff at n_min,
    Q_eff = Omega_m / Gamma_min and the a3 slope with its sigma, writes the
    slope keys, and survives save -> load -> save byte for byte."""
    rep, _ = run_campaign(
        mode01, cavity, detection, phase_noise, g0=TWO_PI * 2.1, seed=0, floor=3.5e-3
    )
    assert rep.t_eff_k == effective_temperature(rep.cooling.n_min, mode01.omega_m)
    assert rep.q_eff == mode01.omega_m / rep.cooling.gamma_min
    disc = rep.discrimination
    assert (disc.a3_slope, disc.a3_slope_sigma) == fitting._a3_slope(rep.peaks)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    rep.save(first)
    FitReport.load(first).save(second)
    assert second.read_bytes() == first.read_bytes()
    saved = json.loads(first.read_text())["noise_discrimination"]
    assert saved["a3_slope_hz2_s_per_rad"] == disc.a3_slope
    assert saved["a3_slope_sigma_hz2_s_per_rad"] == disc.a3_slope_sigma > 0


# a report as tool version 0.3.0 wrote it, with its peaks left out: its
# noise_discrimination has no a3 slope keys
REPORT_0_3_0 = """{
  "tool_version": "0.3.0",
  "peaks": [],
  "provenance": {"config": "config.json", "fragments": ["f0.json", "f1.json", "f2.json"]},
  "cooling_curve": {
    "b1_hz2_rad_per_s": 28892017.8658648, "b2_hz2_s_per_rad": 0.1366251895339858,
    "covariance": [[225580202683.05432, -247.38337226598642],
                   [-247.3833722659865, 1.2488882802112154e-06]],
    "reduced_chi2": 2.9945303321533614,
    "g0_hz": 2.083294920839186, "g0_sigma_hz": 0.017123533032494285,
    "n_min": 457.77578498930507, "n_min_sigma": 4.9223320133205615,
    "gamma_min_hz": 2314.428029413048, "gamma_min_sigma_hz": 24.886382275489794,
    "n_points": 4, "annotations": []
  },
  "noise_discrimination": {
    "classification": "phase-dominated",
    "ratio": -1.8445475209770472, "ratio_sigma": 0.016615050983785806,
    "expected_phase_ratio": -1.827024018882064, "amplitude_fraction": 0.0
  },
  "laser_noise": {
    "s_phi_phi_rad2_per_hz": 3.3999622245159997e-13,
    "s_phi_phi_sigma_rad2_per_hz": 2.7810263862097442e-15,
    "s_phi_phi_is_limit": false,
    "s_eps_eps_per_hz": 8.750487141143559e-14,
    "s_eps_eps_sigma_per_hz": 7.157531179680549e-16,
    "s_eps_eps_is_limit": true,
    "s_nu_nu_hz2_per_hz": 0.02228199243458805,
    "s_nu_nu_sigma_hz2_per_hz": 0.00018225734524664175,
    "dominant": "phase"
  },
  "t_eff_k": 0.00562426179907765,
  "q_eff": 110.61048204852712
}
"""


def test_report_from_tool_version_0_3_0_loads_without_a3_slope(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(REPORT_0_3_0)
    rep = FitReport.load(path)
    disc = rep.discrimination
    assert disc.a3_slope is None and disc.a3_slope_sigma is None
    assert disc.classification == "phase-dominated"
    assert rep.cooling.n_min == 457.77578498930507
    assert rep.noise.dominant == "phase" and rep.q_eff == 110.61048204852712
    assert "a3_slope_hz2_s_per_rad" not in rep.to_dict()["noise_discrimination"]


def test_peak_at_another_sideband_angle_is_rejected(cavity, mode01, mode02):
    """Peaks fitted for mode (0,1) do not make a campaign of mode (0,2): the
    error names the peak and both angles."""
    peaks = [peak_record(g, 1e3 / g + g) for g in TWO_PI * np.geomspace(1e3, 10e3, 4)]
    theta_01 = sc.sideband_angle(cavity, mode01.omega_m)
    theta_02 = sc.sideband_angle(cavity, mode02.omega_m)
    assert summarize_peaks(peaks, mode01, cavity).discrimination is not None
    with pytest.raises(ValueError) as err:
        summarize_peaks(peaks, mode02, cavity)
    assert "peak 0" in str(err.value)
    assert repr(theta_01) in str(err.value) and repr(theta_02) in str(err.value)
    peaks[2] = dataclasses.replace(peaks[2], theta=theta_01 + 2e-9)
    with pytest.raises(ValueError, match="peak 2"):
        summarize_peaks(peaks, mode01, cavity)


def _cooling_peaks(theta, a3_slope):
    """Six peak records fitted at theta on a_eff = 3e7/Gamma + 0.13 Gamma,
    with a_eff alternately 0.5 % high and low, and a3 = a3_slope Gamma."""
    peaks = []
    for k, gamma in enumerate(TWO_PI * np.geomspace(1e3, 10e3, 6)):
        peak = peak_record(gamma, (3e7 / gamma + 0.13 * gamma) * (1.0 + 0.005 * (-1) ** k))
        coeffs = dataclasses.replace(peak.coeffs, a3=a3_slope * gamma)
        peaks.append(dataclasses.replace(peak, coeffs=coeffs, theta=theta))
    return peaks


def test_mixed_campaign_reports_both_psds_as_limits(tmp_path, cavity, mode01):
    """An a3 slope that phase noise alone would give with 70 % of the fitted
    b2 leaves 30 % to amplitude noise: the campaign is mixed, names no
    dominant source, reports both PSDs as limits, and its report keeps
    dominant: null through save and load."""
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    peaks = _cooling_peaks(theta, 0.7 * 0.13 * math.sin(2.0 * theta))
    rep = summarize_peaks(peaks, mode01, cavity)
    assert rep.discrimination.classification == "mixed"
    assert rep.discrimination.amplitude_fraction == pytest.approx(0.3, abs=0.05)
    assert rep.noise.dominant is None
    assert rep.noise.s_phi_phi_is_limit and rep.noise.s_eps_eps_is_limit
    path = tmp_path / "report.json"
    rep.save(path)
    assert json.loads(path.read_text())["laser_noise"]["dominant"] is None
    back = FitReport.load(path)
    assert back.discrimination.classification == "mixed"
    assert back.noise == rep.noise


def test_campaign_near_zero_sin_2theta_is_indeterminate(mode01):
    """At Delta = -Omega_m in a 20 kHz cavity |sin 2 theta| is 0.039, below
    0.05, so a3 carries no information on the noise type: the campaign ends
    indeterminate, with no expected phase ratio, and both PSDs as limits."""
    cavity = sc.CavitySpec(kappa=TWO_PI * 20e3, detuning=-mode01.omega_m)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    assert abs(math.sin(2.0 * theta)) < 0.05
    rep = summarize_peaks(_cooling_peaks(theta, 0.0), mode01, cavity)
    disc = rep.discrimination
    assert disc.classification == "indeterminate"
    assert disc.ratio is None and disc.expected_phase_ratio is None
    assert math.isnan(disc.amplitude_fraction)
    assert rep.noise.dominant is None
    assert rep.noise.s_phi_phi_is_limit and rep.noise.s_eps_eps_is_limit


def test_one_peak_fit_counted_twice_is_rejected(cavity, mode01):
    """Two peaks with equal coeffs are one fit entered twice, which would
    make the cooling-curve fit exact and its rescaled sigmas zero: the error
    names both, by label or by index."""
    peaks = [peak_record(g, 1e3 / g + g) for g in TWO_PI * np.geomspace(1e3, 10e3, 3)]
    peaks.insert(2, peaks[0])
    with pytest.raises(ValueError, match="peak 0 and peak 2 are one peak fit"):
        summarize_peaks(peaks, mode01, cavity)
    labels = ["frag_000.json", "frag_001.json", "frag_000.json again", "frag_002.json"]
    with pytest.raises(ValueError, match="frag_000.json and frag_000.json again"):
        summarize_peaks(peaks, mode01, cavity, labels)
