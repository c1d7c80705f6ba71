import math
import warnings

import numpy as np
import pytest

import sidecool as sc
from sidecool import fitting, spectra

TWO_PI = 2.0 * math.pi


def published_cavity():
    """The published cavity at the main cooling detuning."""
    return sc.CavitySpec(
        kappa=TWO_PI * 204e3,
        detuning=-TWO_PI * 480e3,
        cavity_length=48e-3,
        laser_frequency=281.76e12,
    )


@pytest.fixture
def cavity():
    return published_cavity()


@pytest.fixture
def mode01():
    return sc.MechMode(
        omega_m=TWO_PI * 256e3, q_factor=1.18e7, temperature=300.0, label="(0,1)"
    )


@pytest.fixture
def mode02():
    return sc.MechMode(
        omega_m=TWO_PI * 593e3, q_factor=0.92e7, temperature=300.0, label="(0,2)"
    )


@pytest.fixture
def detection():
    return spectra.DetectionConfig(probe_kappa=TWO_PI * 204e3)


@pytest.fixture
def phase_noise():
    # S_nunu = 2.2e-2 Hz^2/Hz at 256 kHz expressed as a phase PSD
    return sc.LaserNoise(s_phi_phi=2.2e-2 / (256e3) ** 2)


def campaign_spectra(
    mode,
    cavity,
    detection,
    noise,
    g0,
    seed,
    floor,
    n_powers=12,
    n_averages=200,
    tone=None,
):
    """Synthesize one full cooling campaign on one 4001-bin grid: its
    spectra, the truth of each, and the search window."""
    _, gamma_min = sc.min_occupancy(mode, cavity, g0, noise)
    grid = np.geomspace(0.5 * gamma_min, 4.0 * gamma_min, n_powers)
    mode_f = mode.omega_m / TWO_PI
    background = spectra.BackgroundModel(
        tail_offset=0.0,
        tail_amplitude=floor * mode_f**2,
        tail_exponent=2.0,
        beat_center=mode_f + 45e3,
        beat_width=2e3,
        beat_amplitude=200.0 * floor,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        specs, truth = spectra.synthesize_campaign(
            mode=mode,
            cavity=cavity,
            g0=g0,
            gamma_opt_grid=grid,
            noise=noise,
            detection=detection,
            f_start=mode_f - 100e3,
            f_step=50.0,
            n_bins=4001,
            n_averages=n_averages,
            seed=seed,
            floor=floor,
            background=background,
            tone=tone,
        )
    return specs, truth, (mode_f - 30e3, mode_f + 30e3)


def run_campaign(mode, cavity, detection, noise, g0, seed, floor, **kwargs):
    """Synthesize and invert one full cooling campaign in memory; kwargs go
    to campaign_spectra."""
    n_min, gamma_min = sc.min_occupancy(mode, cavity, g0, noise)
    specs, truth, window = campaign_spectra(
        mode, cavity, detection, noise, g0, seed, floor, **kwargs
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = fitting.analyze_campaign(
            specs, mode, cavity, detection, search_window=window
        )
    return result, {"n_min": n_min, "gamma_min": gamma_min, "truth": truth}


def peak_record(gamma_eff, a_eff, a3_sigma=1.0):
    """A PeakFitResult carrying only what the cooling-curve stage reads,
    fitted at mode (0,1)'s sideband angle in the cavity fixture."""
    coeffs = spectra.LineshapeCoeffs(
        a0=0.0, a2=a_eff, a3=0.0,
        omega_eff=TWO_PI * 256e3, gamma_eff=gamma_eff,
    )
    return fitting.PeakFitResult(
        coeffs=coeffs,
        covariance=np.diag([1.0, 1.0, a3_sigma**2, 1.0, 1.0]),
        reduced_chi2=1.0,
        a_eff=a_eff,
        a_eff_sigma=0.01 * a_eff,
        lorentzian_preferred=False,
        theta=sc.sideband_angle(published_cavity(), TWO_PI * 256e3),
        window=(226e3, 286e3),
        n_points=1200,
        n_excluded=0,
    )
