import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import hbar, k as k_B

import sidecool as sc
from sidecool.physics import (
    CavitySpec,
    DriveField,
    InstabilityError,
    LaserNoise,
    MechMode,
)

from _oracles import excess_occupancy_unsimplified

TWO_PI = 2.0 * math.pi

detunings = st.floats(min_value=-900e3, max_value=-80e3)
kappas = st.floats(min_value=40e3, max_value=600e3)
mech_freqs = st.floats(min_value=80e3, max_value=900e3)


def make_cavity(kappa_hz, detuning_hz):
    return CavitySpec(kappa=TWO_PI * kappa_hz, detuning=TWO_PI * detuning_hz)


# ---------------------------------------------------------------------------
# dataclass validation
# ---------------------------------------------------------------------------


def test_mech_mode_fills_missing_width():
    m = MechMode(omega_m=TWO_PI * 256e3, q_factor=1.18e7, temperature=300.0)
    assert m.gamma_m == pytest.approx(m.omega_m / 1.18e7)
    m2 = MechMode(omega_m=TWO_PI * 256e3, gamma_m=m.gamma_m, temperature=300.0)
    assert m2.q_factor == pytest.approx(1.18e7)


def test_mech_mode_rejects_inconsistent_width_and_q():
    with pytest.raises(ValueError):
        MechMode(
            omega_m=TWO_PI * 256e3, gamma_m=1.0, q_factor=1e7, temperature=300.0
        )


def test_drive_field_is_g0_and_gamma_opt():
    assert [f.name for f in fields(DriveField)] == ["g0", "gamma_opt"]
    with pytest.raises(TypeError):
        DriveField(g0=TWO_PI * 2.1)
    with pytest.raises(ValueError, match="g0"):
        DriveField(g0=0.0, gamma_opt=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma_opt must be finite"):
            DriveField(g0=TWO_PI * 2.1, gamma_opt=bad)


def test_cavity_rejects_nonpositive_kappa():
    with pytest.raises(ValueError):
        CavitySpec(kappa=0.0, detuning=-1.0)


# ---------------------------------------------------------------------------
# susceptibilities
# ---------------------------------------------------------------------------


def test_chi_c_published_example(cavity):
    # at the mechanical frequency the response is suppressed and rotated
    val = sc.chi_c(TWO_PI * 256e3, cavity)
    # independent recomputation from the definition
    expected = 1.0 / (-1j * TWO_PI * (256e3 - 480e3) + TWO_PI * 102e3)
    assert val == pytest.approx(expected)


@given(kappa=kappas, detuning=detunings, f=st.floats(-1e6, 1e6))
def test_chi_c_detuning_reflection(kappa, detuning, f):
    """chi_c(-w) at detuning -Delta equals chi_c*(w) at Delta."""
    c1 = sc.chi_c(TWO_PI * f, make_cavity(kappa, detuning))
    c2 = sc.chi_c(-TWO_PI * f, make_cavity(kappa, -detuning))
    assert c2 == pytest.approx(np.conj(c1), rel=1e-12, abs=0)


@given(kappa=kappas, detuning=detunings, om=mech_freqs)
def test_red_detuning_damps_and_blue_antidamps(kappa, detuning, om):
    """Optical damping has the sign of cos(theta): positive at red detuning.
    Mirroring the detuning negates the sideband response, damping and
    spring alike, so theta moves by pi."""
    theta_red = sc.sideband_angle(make_cavity(kappa, detuning), TWO_PI * om)
    theta_blue = sc.sideband_angle(make_cavity(kappa, -detuning), TWO_PI * om)
    assert math.cos(theta_red) > 0
    assert abs(theta_blue - theta_red) == pytest.approx(math.pi, rel=1e-12)


def test_thermal_occupation_matches_direct_ratio(mode01):
    expected = k_B * 300.0 / (hbar * TWO_PI * 256e3)
    assert sc.thermal_occupation(mode01) == pytest.approx(expected, rel=1e-12)
    assert sc.thermal_occupation(mode01) == pytest.approx(2.4418e7, rel=1e-4)


def test_constants_equal_scipy_values_exactly():
    assert sc.physics.hbar == hbar
    assert sc.physics.k_B == k_B


@pytest.mark.parametrize(
    "f_hz, temperature", [(256e3, 300.0), (593e3, 300.0), (1.2e6, 4.2), (80e3, 0.05)]
)
def test_occupancy_and_temperature_match_scipy_expressions_exactly(f_hz, temperature):
    mode = MechMode(omega_m=TWO_PI * f_hz, q_factor=1e7, temperature=temperature)
    n_th = sc.thermal_occupation(mode)
    assert n_th == k_B * temperature / (hbar * mode.omega_m)
    assert sc.report.effective_temperature(n_th, mode.omega_m) == (
        n_th * hbar * mode.omega_m / k_B
    )


# ---------------------------------------------------------------------------
# occupancy budget
# ---------------------------------------------------------------------------


def test_backaction_floor_at_optimal_detuning():
    cavity = make_cavity(204e3, -256e3)
    assert sc.backaction_occupancy(cavity, TWO_PI * 256e3) == pytest.approx(
        0.039688, rel=1e-3
    )


def test_backaction_rejects_blue_detuning():
    with pytest.raises(ValueError):
        sc.backaction_occupancy(make_cavity(204e3, 100e3), TWO_PI * 256e3)


@settings(max_examples=200)
@given(kappa=kappas, detuning=detunings, om=mech_freqs,
       flux=st.floats(1e12, 1e16),
       s_phi=st.floats(1e-15, 1e-11), s_eps=st.floats(1e-16, 1e-12))
def test_excess_occupancy_matches_susceptibility_product_form(
    kappa, detuning, om, flux, s_phi, s_eps
):
    cavity = make_cavity(kappa, detuning)
    omega_m = TWO_PI * om
    g0 = TWO_PI * 2.0
    ref, gamma_opt = excess_occupancy_unsimplified(
        cavity, omega_m, g0, flux, s_phi, s_eps
    )
    theta = sc.sideband_angle(cavity, omega_m)
    a_fac = sc.amplitude_factor(cavity, omega_m)
    val = sc.excess_occupancy(
        gamma_opt, g0, omega_m, theta, a_fac,
        LaserNoise(s_phi_phi=s_phi, s_eps_eps=s_eps),
    )
    assert val == pytest.approx(ref, rel=1e-10)


def test_effective_occupancy_budget_sums(cavity, mode01, phase_noise):
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 2e3)
    b = sc.effective_occupancy(mode01, cavity, drive, phase_noise)
    assert b.gamma_eff == pytest.approx(mode01.gamma_m + b.gamma_opt)
    recomposed = (mode01.gamma_m / b.gamma_eff) * b.n_th + (
        b.gamma_opt / b.gamma_eff
    ) * (b.n_ba + b.n_exc)
    assert b.n_eff == pytest.approx(recomposed, rel=1e-12)
    assert b.n_exc == pytest.approx(b.n_exc_phase + b.n_exc_amplitude, rel=1e-12)
    # phase noise only: nothing in the amplitude channel
    assert b.n_exc_amplitude == 0.0
    # optical spring shifts the resonance
    assert b.omega_eff != mode01.omega_m


def test_instability_raises_for_strong_blue_drive(mode01):
    blue = make_cavity(204e3, +480e3)
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=-2.0 * mode01.gamma_m)
    with pytest.raises(InstabilityError, match="anti-damped"):
        sc.effective_occupancy(mode01, blue, drive, LaserNoise())


@pytest.mark.parametrize(
    "detuning_hz, sign",
    [(0.0, 1.0), (+480e3, 1.0), (-480e3, -1.0)],
    ids=["zero-detuning", "damping-at-blue", "antidamping-at-red"],
)
def test_drive_without_a_power_raises(mode01, detuning_hz, sign):
    """A gamma_opt that no drive power gives at this detuning (any at
    Delta = 0, or the sign of the other side) raises ValueError, not
    ZeroDivisionError. Its size stays below Gamma_m, so the total width is
    positive and effective_occupancy gets as far as the spring."""
    cavity = make_cavity(204e3, detuning_hz)
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=0.5 * sign * mode01.gamma_m)
    with pytest.raises(ValueError, match="no drive power"):
        sc.spring_shift(cavity, mode01, drive)
    with pytest.raises(ValueError, match="no drive power"):
        sc.effective_occupancy(mode01, cavity, drive, LaserNoise())


def test_spring_instability_raises(cavity, mode01, phase_noise):
    """The weak-coupling spring shift is (gamma_opt / 2) tan(theta); past the
    drive -2 Omega_m / tan(theta), where it takes omega_eff to zero, there
    is no steady state. For mode (0,1) at the published detuning that limit
    is about 153 kHz."""
    g0 = TWO_PI * 2.1

    def budget(gamma_opt_hz):
        drive = DriveField(g0=g0, gamma_opt=TWO_PI * gamma_opt_hz)
        return sc.effective_occupancy(mode01, cavity, drive, phase_noise)

    theta = sc.sideband_angle(cavity, mode01.omega_m)
    limit_hz = -2.0 * mode01.omega_m / math.tan(theta) / TWO_PI
    assert 150e3 < limit_hz < 156e3
    assert budget(0.99 * limit_hz).omega_eff > 0
    for gamma_opt_hz in (1.01 * limit_hz, 200e3):
        with pytest.raises(InstabilityError, match="omega_eff"):
            budget(gamma_opt_hz)


@settings(max_examples=100)
@given(kappa=kappas, detuning=detunings, om=mech_freqs,
       s_phi=st.floats(1e-15, 1e-11))
def test_min_occupancy_width_product_identity(kappa, detuning, om, s_phi):
    """n_min * gamma_min == 2 Gamma_m n_th independent of the noise level."""
    cavity = make_cavity(kappa, detuning)
    mode = MechMode(omega_m=TWO_PI * om, q_factor=1e7, temperature=300.0)
    noise = LaserNoise(s_phi_phi=s_phi)
    n_min, gamma_min = sc.min_occupancy(mode, cavity, TWO_PI * 2.0, noise)
    assert n_min * gamma_min == pytest.approx(
        2.0 * mode.gamma_m * sc.thermal_occupation(mode), rel=1e-10
    )


def test_min_occupancy_rejects_zero_noise(cavity, mode01):
    with pytest.raises(ValueError):
        sc.min_occupancy(mode01, cavity, TWO_PI * 2.1, LaserNoise())


def test_min_occupancy_optimum_is_a_minimum(cavity, mode01, phase_noise):
    """Occupancies at drives off the optimal width are strictly larger."""
    g0 = TWO_PI * 2.1
    n_min, gamma_min = sc.min_occupancy(mode01, cavity, g0, phase_noise)

    def occupancy_at(gamma_opt):
        b = sc.effective_occupancy(
            mode01, cavity, DriveField(g0=g0, gamma_opt=gamma_opt), phase_noise
        )
        # drop the backaction floor, which the closed form neglects
        return b.n_eff - (b.gamma_opt / b.gamma_eff) * b.n_ba

    at_opt = occupancy_at(gamma_min)
    assert at_opt == pytest.approx(n_min, rel=1e-3)
    assert occupancy_at(0.5 * gamma_min) > at_opt
    assert occupancy_at(2.0 * gamma_min) > at_opt


def test_sideband_angle_and_amplitude_factor_regressions(cavity):
    # frozen values for the published geometry
    theta = sc.sideband_angle(cavity, TWO_PI * 256e3)
    assert 1.0 / math.sin(2 * theta) == pytest.approx(-1.827, abs=2e-3)
    assert sc.amplitude_factor(cavity, TWO_PI * 593e3) == pytest.approx(1.183, abs=2e-3)


def test_readme_library_quick_start_runs():
    """README's "Quick start (library)" block runs as written and gives a
    finite, positive occupancy at the optimal drive."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    n_eff = namespace["budget"].n_eff
    assert math.isfinite(n_eff) and n_eff > 0
