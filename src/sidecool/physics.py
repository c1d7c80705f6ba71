"""Closed-form cavity optomechanics: susceptibilities, dynamical backaction,
and phonon-occupancy budgets for resolved-sideband cooling.

All rates in this module are angular (rad/s). Conversion to/from ordinary
frequency (Hz) happens at the package boundary (config files, CLI, reports),
never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "CavitySpec",
    "MechMode",
    "DriveField",
    "LaserNoise",
    "OccupancyBudget",
    "InstabilityError",
    "thermal_occupation",
    "chi_c",
    "spring_shift",
    "sideband_angle",
    "amplitude_factor",
    "backaction_occupancy",
    "excess_occupancy",
    "effective_occupancy",
    "min_occupancy",
]

TWO_PI = 2.0 * math.pi

# Exact by the 2019 SI definition of the Planck and Boltzmann constants.
hbar = 6.62607015e-34 / (2.0 * math.pi)
k_B = 1.380649e-23

ArrayLike = Union[float, np.ndarray]


class InstabilityError(ValueError):
    """No steady state: the total mechanical width, or the spring-shifted
    frequency, is not positive."""


# Range checks, written so that NaN fails them.
def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_non_negative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class CavitySpec:
    """Optical cavity parameters.

    kappa and detuning are angular rates; detuning is signed,
    laser minus cavity resonance (red detuning is negative).
    """

    kappa: float
    detuning: float
    cavity_length: float | None = None
    laser_frequency: float | None = None

    def __post_init__(self) -> None:
        _check_positive("kappa", self.kappa)
        if not math.isfinite(self.detuning):
            raise ValueError(f"detuning must be finite, got {self.detuning!r}")
        for name in ("cavity_length", "laser_frequency"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class MechMode:
    """A mechanical mode and its thermal bath.

    Either gamma_m or q_factor may be omitted; the missing one is filled in
    from gamma_m = omega_m / Q. Supplying both with a mismatch above 1e-9
    relative is an error.
    """

    omega_m: float
    gamma_m: float | None = None
    q_factor: float | None = None
    temperature: float = 300.0
    label: str = ""

    def __post_init__(self) -> None:
        _check_positive("omega_m", self.omega_m)
        _check_non_negative("temperature", self.temperature)
        if self.gamma_m is None and self.q_factor is None:
            raise ValueError("one of gamma_m, q_factor is required")
        # checked before the divisions that fill in the missing one
        for name in ("gamma_m", "q_factor"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))
        if self.gamma_m is None:
            object.__setattr__(self, "gamma_m", self.omega_m / self.q_factor)
        elif self.q_factor is None:
            object.__setattr__(self, "q_factor", self.omega_m / self.gamma_m)
        else:
            q_implied = self.omega_m / self.gamma_m
            if abs(q_implied - self.q_factor) > 1e-9 * self.q_factor:
                raise ValueError(
                    f"q_factor {self.q_factor} inconsistent with "
                    f"omega_m/gamma_m = {q_implied}"
                )


@dataclass(frozen=True)
class DriveField:
    """Cooling-beam drive: single-photon coupling g0 and the optical damping
    rate gamma_opt it gives, positive for red detuning."""

    g0: float
    gamma_opt: float

    def __post_init__(self) -> None:
        _check_positive("g0", self.g0)
        if not math.isfinite(self.gamma_opt):
            raise ValueError(f"gamma_opt must be finite, got {self.gamma_opt!r}")


@dataclass(frozen=True)
class LaserNoise:
    """White excess laser noise near the mechanical frequency: one-sided
    phase PSD s_phi_phi (rad^2/Hz) and relative-amplitude PSD s_eps_eps (1/Hz)."""

    s_phi_phi: float = 0.0
    s_eps_eps: float = 0.0

    def __post_init__(self) -> None:
        _check_non_negative("s_phi_phi", self.s_phi_phi)
        _check_non_negative("s_eps_eps", self.s_eps_eps)

    @property
    def is_zero(self) -> bool:
        return self.s_phi_phi == 0.0 and self.s_eps_eps == 0.0


@dataclass(frozen=True)
class OccupancyBudget:
    """Steady-state occupancy decomposition for one drive point."""

    n_th: float
    n_ba: float
    n_exc: float
    n_eff: float
    gamma_eff: float
    omega_eff: float
    gamma_opt: float = 0.0
    n_exc_phase: float = 0.0
    n_exc_amplitude: float = 0.0


def thermal_occupation(mode: MechMode) -> float:
    """Bath occupancy k_B T / (hbar Omega_m)."""
    return k_B * mode.temperature / (hbar * mode.omega_m)


def chi_c(omega: ArrayLike, cavity: CavitySpec) -> complex | np.ndarray:
    """Cavity susceptibility 1 / (-i(w + Delta) + kappa/2)."""
    return 1.0 / (-1j * (omega + cavity.detuning) + cavity.kappa / 2.0)


def _sideband_response(cavity: CavitySpec, omega_m: float) -> complex:
    """chi_c(Omega_m) - chi_c*(-Omega_m), the two-sideband response."""
    return chi_c(omega_m, cavity) - np.conj(chi_c(-omega_m, cavity))


def spring_shift(cavity: CavitySpec, mode: MechMode, drive: DriveField) -> float:
    """Spring-shifted frequency Omega_eff = Omega_m + gamma_opt Im b / (2 Re b):
    damping and spring are the two parts of one sideband response b."""
    if drive.gamma_opt == 0.0:
        return mode.omega_m
    b = _sideband_response(cavity, mode.omega_m)
    if not drive.gamma_opt * b.real > 0:
        raise ValueError(
            f"no drive power gives gamma_opt = {drive.gamma_opt!r} at this "
            "detuning: damping is > 0 at red, < 0 at blue and 0 at Delta = 0"
        )
    return mode.omega_m + drive.gamma_opt * b.imag / (2.0 * b.real)


def sideband_angle(cavity: CavitySpec, omega_m: float) -> float:
    """Phase angle of the two-sideband response, in (-pi, pi]."""
    b = _sideband_response(cavity, omega_m)
    if b == 0:
        raise ValueError("sideband angle undefined at zero optical damping")
    return math.atan2(b.imag, b.real)


def amplitude_factor(cavity: CavitySpec, omega_m: float) -> float:
    """Dimensionless amplitude-noise coupling factor.

    Approaches 1 in the strongly resolved-sideband limit at Delta = -Omega_m.
    """
    b = _sideband_response(cavity, omega_m)
    if b.real == 0.0:
        raise ValueError("amplitude factor undefined at zero optical damping")
    c0 = chi_c(0.0, cavity)
    num = abs(
        np.conj(c0) * chi_c(omega_m, cavity)
        + c0 * np.conj(chi_c(-omega_m, cavity))
    )
    return num / (omega_m * abs(c0) ** 2 * b.real)


def backaction_occupancy(cavity: CavitySpec, omega_m: float) -> float:
    """Quantum-backaction occupancy floor; defined for red detuning only."""
    if cavity.detuning >= 0:
        raise ValueError(
            "backaction occupancy undefined/negative for non-cooling detuning"
        )
    half_k2 = (cavity.kappa / 2.0) ** 2
    ratio = (half_k2 + (cavity.detuning - omega_m) ** 2) / (
        half_k2 + (cavity.detuning + omega_m) ** 2
    )
    return 1.0 / (ratio - 1.0)


def _noise_coupling(theta: float, a_factor: float, noise: LaserNoise) -> float:
    """S_phiphi / cos^2(theta) + A^2 S_epseps, the detuning-weighted PSD sum."""
    cos_t = math.cos(theta)
    if noise.s_phi_phi > 0 and cos_t == 0.0:
        raise ValueError("phase-noise divergence at cos(theta) = 0")
    phase = noise.s_phi_phi / cos_t**2 if noise.s_phi_phi > 0 else 0.0
    return phase + a_factor**2 * noise.s_eps_eps


def excess_occupancy(
    gamma_opt: float,
    g0: float,
    omega_m: float,
    theta: float,
    a_factor: float,
    noise: LaserNoise,
) -> float:
    """Occupancy added by excess laser noise, linear in gamma_opt."""
    if gamma_opt < 0:
        raise ValueError("gamma_opt must be non-negative")
    return gamma_opt * omega_m**2 / (4.0 * g0**2) * _noise_coupling(theta, a_factor, noise)


def effective_occupancy(
    mode: MechMode,
    cavity: CavitySpec,
    drive: DriveField,
    noise: LaserNoise,
) -> OccupancyBudget:
    """Full occupancy budget of the driven mode at one cooling power."""
    gamma_opt = drive.gamma_opt
    gamma_eff = mode.gamma_m + gamma_opt
    if gamma_eff <= 0:
        raise InstabilityError(
            f"total width {gamma_eff} <= 0: anti-damped, no steady state"
        )
    n_th = thermal_occupation(mode)
    if gamma_opt == 0.0:
        return OccupancyBudget(
            n_th=n_th, n_ba=0.0, n_exc=0.0, n_eff=n_th,
            gamma_eff=gamma_eff, omega_eff=mode.omega_m, gamma_opt=0.0,
        )
    omega_eff = spring_shift(cavity, mode, drive)
    if omega_eff <= 0:
        raise InstabilityError(
            f"optical spring takes omega_eff/2pi to {omega_eff / TWO_PI:.4g} Hz "
            "<= 0: statically unstable, no steady state"
        )
    n_ba = backaction_occupancy(cavity, mode.omega_m)
    theta = sideband_angle(cavity, mode.omega_m)
    a_fac = amplitude_factor(cavity, mode.omega_m)
    n_exc_phase = excess_occupancy(
        gamma_opt, drive.g0, mode.omega_m, theta, a_fac,
        LaserNoise(s_phi_phi=noise.s_phi_phi),
    )
    n_exc_amp = excess_occupancy(
        gamma_opt, drive.g0, mode.omega_m, theta, a_fac,
        LaserNoise(s_eps_eps=noise.s_eps_eps),
    )
    n_exc = n_exc_phase + n_exc_amp
    n_eff = (mode.gamma_m / gamma_eff) * n_th + (gamma_opt / gamma_eff) * (n_ba + n_exc)
    return OccupancyBudget(
        n_th=n_th,
        n_ba=n_ba,
        n_exc=n_exc,
        n_eff=n_eff,
        gamma_eff=gamma_eff,
        omega_eff=omega_eff,
        gamma_opt=gamma_opt,
        n_exc_phase=n_exc_phase,
        n_exc_amplitude=n_exc_amp,
    )


def min_occupancy(
    mode: MechMode,
    cavity: CavitySpec,
    g0: float,
    noise: LaserNoise,
) -> tuple[float, float]:
    """Power-optimized occupancy and the optical width achieving it.

    Returns (n_min, gamma_min); n_min * gamma_min == 2 Gamma_m n_th exactly.
    """
    if noise.is_zero:
        raise ValueError(
            "no finite optimum for zero excess noise; occupancy limited by "
            "backaction only"
        )
    theta = sideband_angle(cavity, mode.omega_m)
    a_fac = amplitude_factor(cavity, mode.omega_m)
    coupling = _noise_coupling(theta, a_fac, noise)
    n_th = thermal_occupation(mode)
    root = math.sqrt(mode.gamma_m * n_th)
    n_min = mode.omega_m * root / g0 * math.sqrt(coupling)
    gamma_min = 2.0 * g0 * root / mode.omega_m / math.sqrt(coupling)
    return n_min, gamma_min

