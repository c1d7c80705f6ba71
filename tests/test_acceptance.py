"""Acceptance suite: one numbered, independently checkable criterion per test.

Each test prints a single ``CRITERION n PASS/FAIL`` line to the real stdout
(bypassing capture) so the verdicts are visible in any pytest run.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

import sidecool as sc
from sidecool import dataio, fitting, report, spectra
from sidecool.physics import CavitySpec, DriveField, LaserNoise, MechMode
from sidecool.spectra import DetectionConfig, Spectrum, SpectrumUnits

from conftest import run_campaign
from _oracles import excess_occupancy_unsimplified, pdh_filter

TWO_PI = 2.0 * math.pi


def _verdict(capsys, n: int, ok: bool, text: str) -> None:
    line = f"CRITERION {n:2d} {'PASS' if ok else 'FAIL'}: {text}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_detection_filter_single_pole_identity(capsys):
    """On-resonance probe with quadrature detection reduces to a single-pole
    low-pass filter with no amplitude leak."""
    rng = np.random.default_rng(101)
    worst_c = 0.0
    worst_d = 0.0
    for _ in range(200):
        kappa = TWO_PI * rng.uniform(2e4, 1e6)
        omega = TWO_PI * rng.uniform(-2e6, 2e6)
        det = DetectionConfig(probe_kappa=kappa)
        c = complex(spectra.detection_filter_c(omega, det))
        ref = complex(pdh_filter(omega, kappa))
        worst_c = max(worst_c, abs(c - ref) / abs(ref))
        worst_d = max(worst_d, abs(complex(spectra.amplitude_leak_d(omega, det))))
    _verdict(
        capsys,
        1,
        worst_c < 1e-12 and worst_d < 1e-12,
        f"C(w) matches (k/2)/(k/2 - iw) to {worst_c:.2e} and |D| <= "
        f"{worst_d:.2e} over 200 randomized draws",
    )


def test_criterion_02_sideband_angle_regression(capsys, cavity):
    theta = sc.sideband_angle(cavity, TWO_PI * 256e3)
    val = 1.0 / math.sin(2 * theta)
    _verdict(
        capsys,
        2,
        abs(val - (-1.84)) < 0.02,
        f"1/sin(2 theta) = {val:.4f} at kappa/2pi = 204 kHz, "
        "Delta/2pi = -480 kHz, mode at 256 kHz (target -1.84 +- 0.02)",
    )


def test_criterion_03_excess_occupancy_forms_agree(capsys):
    """The simplified excess-occupancy expression equals the full
    susceptibility-product form over randomized red-detuned parameter sets."""
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        cavity = CavitySpec(
            kappa=TWO_PI * rng.uniform(4e4, 6e5),
            detuning=-TWO_PI * rng.uniform(8e4, 9e5),
        )
        omega_m = TWO_PI * rng.uniform(8e4, 9e5)
        g0 = TWO_PI * rng.uniform(0.5, 5.0)
        flux = 10 ** rng.uniform(12, 16)
        s_phi = 10 ** rng.uniform(-15, -11)
        s_eps = 10 ** rng.uniform(-16, -12)
        ref, gamma_opt = excess_occupancy_unsimplified(
            cavity, omega_m, g0, flux, s_phi, s_eps
        )
        val = sc.excess_occupancy(
            gamma_opt,
            g0,
            omega_m,
            sc.sideband_angle(cavity, omega_m),
            sc.amplitude_factor(cavity, omega_m),
            LaserNoise(s_phi_phi=s_phi, s_eps_eps=s_eps),
        )
        worst = max(worst, abs(val - ref) / abs(ref))
    _verdict(
        capsys,
        3,
        worst < 1e-10,
        f"both n_exc forms agree to {worst:.2e} over 1000 randomized "
        "red-detuned parameter sets",
    )


def test_criterion_04_fitted_area_equals_occupancy(capsys, cavity, mode01, detection, phase_noise):
    """Fitting the noiseless model spectrum with the pipeline's analyze_peak
    returns an effective peak weight equal to g^2 (2 n_eff + 1) across
    effective widths."""
    worst = 0.0
    for width_hz in (1.2e3, 2.7e3, 9e3):
        drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * width_hz - mode01.gamma_m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = spectra.output_psd(
                f_start=156e3, f_step=25.0, n_bins=8001, mode=mode01,
                cavity=cavity, drive=drive, noise=phase_noise,
                detection=detection, floor=5e-3,
            )
            res, _ = fitting.analyze_peak(
                model, mode01, cavity, detection, (200e3, 300e3)
            )
        _, budget = spectra.model_coefficients(mode01, cavity, drive, phase_noise)
        expected = 2.1**2 * (2 * budget.n_eff + 1)
        worst = max(worst, abs(res.a_eff - expected) / expected)
    _verdict(
        capsys,
        4,
        worst < 1e-4,
        f"fitted a_eff matches g^2 (2 n_eff + 1) to {worst:.2e} for "
        "effective widths of 1.2, 2.7 and 9 kHz",
    )


def test_criterion_05_published_minimum_occupancies(capsys, cavity, mode01, mode02):
    # (a) fundamental mode limited by phase noise
    phase = LaserNoise(s_phi_phi=2.2e-2 / 256e3**2)
    n_a, g_a = sc.min_occupancy(mode01, cavity, TWO_PI * 2.1, phase)
    ok_a = abs(n_a - 450) < 45 and abs(g_a / TWO_PI - 2.35e3) < 235

    # (b) second mode limited by amplitude noise
    amp = LaserNoise(s_eps_eps=1.6e-14)
    n_b, g_b = sc.min_occupancy(mode02, cavity, TWO_PI * 1.74, amp)
    ok_b = abs(n_b - 104) < 10.4 and abs(g_b / TWO_PI - 13e3) < 2.6e3

    # (c) inverting the published occupancies returns the published PSDs:
    # n_min scales as the square root of the noise coupling, so the implied
    # PSD is the reference PSD times the squared occupancy ratio.
    s_nu_implied = 2.2e-2 * (450.0 / n_a) ** 2
    s_eps_implied = 1.6e-14 * (104.0 / n_b) ** 2
    ok_c = abs(s_nu_implied - 2.2e-2) < 0.4e-2 and abs(s_eps_implied - 1.6e-14) < 0.2e-14

    _verdict(
        capsys,
        5,
        ok_a and ok_b and ok_c,
        f"n_min = {n_a:.0f} (450 +- 10%), gamma_min/2pi = {g_a / TWO_PI:.0f} Hz; "
        f"n_min = {n_b:.0f} (104 +- 10%), gamma_min/2pi = {g_b / TWO_PI:.0f} Hz; "
        f"implied PSDs {s_nu_implied:.3g} Hz^2/Hz and {s_eps_implied:.3g} /Hz "
        "inside the quoted errors",
    )


def test_criterion_06_cross_detuning_prediction(capsys, mode01):
    near = CavitySpec(kappa=TWO_PI * 204e3, detuning=-TWO_PI * 150e3)
    phase = LaserNoise(s_phi_phi=2.2e-2 / 256e3**2)
    n_min, _ = sc.min_occupancy(mode01, near, TWO_PI * 2.6, phase)
    _verdict(
        capsys,
        6,
        100 <= n_min <= 160,
        f"n_min = {n_min:.1f} at Delta/2pi = -150 kHz, g0/2pi = 2.6 Hz "
        "(reported 120 +- 70)",
    )


def test_criterion_07_effective_temperature_and_q(capsys):
    t1 = report.effective_temperature(120.0, TWO_PI * 256e3)
    t2 = report.effective_temperature(104.0, TWO_PI * 593e3)
    ok_t = abs(t1 - 1.5e-3) < 0.05 * 1.5e-3 and abs(t2 - 3.0e-3) < 0.05 * 3.0e-3

    mode02 = MechMode(omega_m=TWO_PI * 593e3, q_factor=0.92e7, temperature=300.0)
    cavity = CavitySpec(kappa=TWO_PI * 204e3, detuning=-TWO_PI * 480e3)
    _, gamma_min = sc.min_occupancy(
        mode02, cavity, TWO_PI * 1.74, LaserNoise(s_eps_eps=1.6e-14)
    )
    q_eff = mode02.omega_m / gamma_min
    _verdict(
        capsys,
        7,
        ok_t and 30 <= q_eff <= 50,
        f"T_eff = {t1 * 1e3:.3f} mK (1.5 +- 5%) and {t2 * 1e3:.3f} mK "
        f"(3.0 +- 5%); Q_eff = {q_eff:.1f} at the optimum (30..50)",
    )


@pytest.mark.slow
def test_criterion_08_end_to_end_recovery(capsys, cavity, mode01, detection, phase_noise):
    """Synthetic campaigns are inverted back to their generating parameters
    within the propagated uncertainties."""
    g0 = TWO_PI * 2.1
    n_ok = 0
    n_total = 50
    for seed in range(n_total):
        try:
            res, ref = run_campaign(
                mode01, cavity, detection, phase_noise, g0=g0,
                seed=seed, floor=3.5e-3,
            )
        except (fitting.FitConvergenceError, fitting.PeakNotFoundError):
            continue
        c = res.cooling
        ok = (
            abs(c.g0 - g0) < 3 * c.g0_sigma
            and abs(c.n_min - ref["n_min"]) < 3 * c.n_min_sigma
            and abs(c.gamma_min - ref["gamma_min"]) < 3 * c.gamma_min_sigma
            and res.discrimination.classification == "phase-dominated"
            and abs(res.noise.s_nu_nu - 2.2e-2) < 3 * res.noise.s_nu_nu_sigma
        )
        n_ok += ok
    _verdict(
        capsys,
        8,
        n_ok >= 0.95 * n_total,
        f"{n_ok}/{n_total} campaigns recover g0, n_min, gamma_min and the "
        "dominant noise PSD within 3 sigma",
    )


@pytest.mark.slow
def test_criterion_09_noise_discrimination(capsys, cavity, mode01, detection):
    phase = LaserNoise(s_phi_phi=2.2e-2 / 256e3**2)
    amp = LaserNoise(s_eps_eps=1e-13)
    n_phase = 0
    n_amp = 0
    n_trials = 20
    for seed in range(n_trials):
        res, _ = run_campaign(
            mode01, cavity, detection, phase, g0=TWO_PI * 2.1,
            seed=seed, floor=3.5e-3,
        )
        n_phase += res.discrimination.classification == "phase-dominated"
    for seed in range(1000, 1000 + n_trials):
        res, _ = run_campaign(
            mode01, cavity, detection, amp, g0=TWO_PI * 2.1,
            seed=seed, floor=1e-4,
        )
        n_amp += res.discrimination.classification == "amplitude-dominated"
    _verdict(
        capsys,
        9,
        n_phase >= 19 and n_amp >= 19,
        f"{n_phase}/{n_trials} phase-only and {n_amp}/{n_trials} "
        "amplitude-only campaigns classified correctly",
    )


def test_criterion_10_periodogram_statistics(capsys):
    pvals = {}
    for m in (1, 10, 100):
        flat = Spectrum(
            f_start=1e5, f_step=10.0, values=np.full(20000, 3.0),
            units=SpectrumUnits.HZ2_PER_HZ,
        )
        noisy = spectra.synthesize_measured_spectrum(flat, n_averages=m, seed=1000 + m)
        stat = stats.kstest(
            noisy.values / 3.0, stats.chi2(df=2 * m, scale=1.0 / (2 * m)).cdf
        )
        pvals[m] = stat.pvalue
    _verdict(
        capsys,
        10,
        all(p > 0.01 for p in pvals.values()),
        "bin statistics consistent with scaled chi^2_2M "
        + ", ".join(f"(M={m}: p={p:.3f})" for m, p in pvals.items()),
    )


def test_criterion_11_documented_discrepancies(capsys, cavity, mode01):
    # The phase-to-quadrature projection penalty 1/|cos theta| grows when the
    # drive is detuned far below the optimum Delta = -Omega_m.  This toolkit
    # computes a ratio near 3.43 between the -480 kHz operating point and the
    # optimum; the originally reported value of 4.4 is not reproduced by the
    # model and the computed number is asserted here instead.
    theta_far = sc.sideband_angle(cavity, mode01.omega_m)
    theta_opt = sc.sideband_angle(
        CavitySpec(kappa=TWO_PI * 204e3, detuning=-mode01.omega_m), mode01.omega_m
    )
    ratio = abs(math.cos(theta_opt)) / abs(math.cos(theta_far))
    ok_ratio = 3.4 <= ratio <= 3.5

    # Equivalent cavity-length noise for S_nunu = 1e-2 Hz^2/Hz in a 48 mm
    # cavity at 281.76 THz.  The stated conversion gives 2.9e-34 m^2/Hz; the
    # originally reported 6e-34 m^2/Hz is a factor ~2 above it (consistent
    # with a PSD-sidedness convention), so the computed value is frozen here.
    s_ll = dataio.convert_snn_sll(1e-2, cavity)
    ok_sll = abs(s_ll - 2.902e-34) < 0.01e-34

    _verdict(
        capsys,
        11,
        ok_ratio and ok_sll,
        f"projection-penalty ratio = {ratio:.3f} (reported 4.4 not "
        f"reproduced); S_LL = {s_ll:.3e} m^2/Hz (reported 6e-34 not "
        "reproduced)",
    )
