"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own simplified closed forms: the
excess-occupancy oracle works directly with products of cavity
susceptibilities, and the occupancy oracle re-derives the budget from its
definition. Keep them dumb and literal.
"""

from __future__ import annotations

import math

import numpy as np

from sidecool.physics import CavitySpec, chi_c
from sidecool.spectra import detection_filter_c

TWO_PI = 2.0 * math.pi


def sideband_response(cavity: CavitySpec, omega_m: float) -> complex:
    return chi_c(omega_m, cavity) - np.conj(chi_c(-omega_m, cavity))


def excess_occupancy_unsimplified(
    cavity: CavitySpec,
    omega_m: float,
    g0: float,
    flux: float,
    s_phi_phi: float,
    s_eps_eps: float,
) -> tuple[float, float]:
    """Excess occupancy written in terms of susceptibility products.

    Returns (n_exc, gamma_opt). flux is the input photon flux.
    """
    c0 = chi_c(0.0, cavity)
    cp = chi_c(omega_m, cavity)
    cm = chi_c(-omega_m, cavity)
    m_minus = np.conj(c0) * cp - c0 * np.conj(cm)
    m_plus = np.conj(c0) * cp + c0 * np.conj(cm)
    n_cav = cavity.kappa * abs(c0) ** 2 * flux
    gamma_opt = 2.0 * g0**2 * n_cav * sideband_response(cavity, omega_m).real
    n_exc = (
        cavity.kappa**2
        * g0**2
        * flux**2
        / gamma_opt
        * (abs(m_minus) ** 2 * s_phi_phi + abs(m_plus) ** 2 * s_eps_eps)
    )
    return float(n_exc), float(gamma_opt)


def pdh_filter(omega, kappa: float):
    """Single-pole cavity filter (kappa/2) / (kappa/2 - i w)."""
    return (kappa / 2.0) / (kappa / 2.0 - 1j * np.asarray(omega))


def lorentzian_area_f(a2: float, gamma_eff: float) -> float:
    """Area over f (Hz) of a2 * L for a narrow peak: just a2."""
    return a2 * 1.0


def weighted_line_fit(x: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """Straight 2-parameter weighted least squares y = p0*x0 + p1*x1 via
    numpy lstsq on whitened columns; returns (params, covariance)."""
    a = np.column_stack([x[0], x[1]]) / sigma[:, None]
    b = y / sigma
    params, *_ = np.linalg.lstsq(a, b, rcond=None)
    cov = np.linalg.inv(a.T @ a)
    return params, cov


def peak_model_reference(f, coeffs, detection):
    """The five-parameter peak model written out term by term, with |C|^2
    evaluated on every call: the arithmetic spectra.peak_model replaced."""
    w = TWO_PI * np.asarray(f, dtype=float)
    c_sq = np.abs(detection_filter_c(w, detection)) ** 2
    half = coeffs.gamma_eff / 2.0
    chi_p = 1.0 / ((w - coeffs.omega_eff) ** 2 + half**2)
    chi_m = 1.0 / ((-w - coeffs.omega_eff) ** 2 + half**2)
    lorentzian = half * (chi_p + chi_m)
    dispersive = (w - coeffs.omega_eff) * chi_p + (-w - coeffs.omega_eff) * chi_m
    return coeffs.a0 + c_sq * (coeffs.a2 * lorentzian + coeffs.a3 * dispersive)


def lineshape_jacobian_reference(w, c_sq, params):
    """The four Jacobian rows of spectra.PeakGrid.model at params = (a2, a3,
    omega_eff, gamma_eff), each derivative of L and D written out term by
    term from the lobe terms, squares included, with no identity between
    them."""
    a2, a3, omega_eff, gamma_eff = params
    half = gamma_eff / 2.0
    u_p = w - omega_eff
    u_m = -w - omega_eff
    q_p = 1.0 / (u_p**2 + half**2)
    q_m = 1.0 / (u_m**2 + half**2)
    lorentzian = half * (q_p + q_m)
    dispersive = u_p * q_p + u_m * q_m
    q_p2, q_m2 = q_p**2, q_m**2
    u_q2 = u_p * q_p2 + u_m * q_m2
    dl_domega = 2.0 * half * u_q2
    dd_domega = 2.0 * (u_p**2 * q_p2 + u_m**2 * q_m2) - (q_p + q_m)
    dl_dgamma = 0.5 * (q_p + q_m) - half**2 * (q_p2 + q_m2)
    dd_dgamma = -half * u_q2
    return np.array(
        [
            c_sq * lorentzian,
            c_sq * dispersive,
            c_sq * (a2 * dl_domega + a3 * dd_domega),
            c_sq * (a2 * dl_dgamma + a3 * dd_dgamma),
        ]
    )


def background_jacobian_reference(f, params):
    """The six Jacobian rows of the tail + beat model of
    spectra.BackgroundModel.on_grid on the grid f (Hz), at params = (offset,
    tail amplitude at the pivot sqrt(f[0] f[-1]), exponent, beat centre,
    beat width, beat amplitude), with the tail power taken as x ** -e."""
    offset, amp, exponent, center, width, beat = params
    x = f / math.sqrt(f[0] * f[-1])
    power = x ** (-exponent)
    half = width / 2.0
    d = f - center
    den = d**2 + half**2
    return np.array(
        [
            np.ones_like(f),
            power,
            -amp * power * np.log(x),
            beat * 2.0 * d * half**2 / den**2,
            beat * half * d**2 / den**2,
            half**2 / den,
        ]
    )
