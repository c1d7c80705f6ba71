"""The records of an analysis campaign, each next to the table of its JSON
fields, and the fit report that holds them: the complete outcome of a
campaign as a JSON document with unit-suffixed field names."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import (
    AS_IS,
    COUNT,
    HZ,
    NAN_AS_NULL,
    NUMBER,
    NUMBER_OR_NULL,
    PAIR,
    atomic_write_text,
    listed,
    load_json,
    matrix,
    record,
)
from .physics import hbar, k_B
from .spectra import LineshapeCoeffs

__all__ = [
    "PeakFitResult", "CoolingCurveResult", "NoiseDiscrimination", "NoiseExtraction",
    "FitReport", "TOOL_VERSION", "effective_temperature",
]

TOOL_VERSION = "0.5.0"


def effective_temperature(n_eff: float, omega_m: float) -> float:
    """Occupancy to effective temperature, T = n hbar Omega_m / k_B."""
    return n_eff * hbar * omega_m / k_B


_COEFFS = (
    ("a0", "a0", NUMBER),
    ("a2", "a2_hz2", NUMBER),
    ("a3", "a3_hz2", NUMBER),
    ("omega_eff", "omega_eff_hz", HZ),
    ("gamma_eff", "gamma_eff_hz", HZ),
)


@dataclass
class PeakFitResult:
    """Joint Lorentzian+dispersive peak fit, with the 5x5 covariance of its
    coeffs, and the effective area a_eff = a2 + a3/tan(theta).
    lorentzian_preferred flags a dispersive weight a3 within one sigma of zero."""

    coeffs: LineshapeCoeffs
    covariance: np.ndarray
    reduced_chi2: float
    a_eff: float
    a_eff_sigma: float
    lorentzian_preferred: bool
    theta: float
    window: tuple[float, float]
    n_points: int
    n_excluded: int

    @property
    def a3(self) -> float:
        return self.coeffs.a3

    @property
    def a3_sigma(self) -> float:
        return math.sqrt(max(self.covariance[2, 2], 0.0))


def _read_covariance(value) -> np.ndarray:
    """A peak's 5x5 covariance. A 6x6 one, as tool versions before 0.5.0
    wrote it, loses the row and column of the slope a1 after a0, which
    leaves the marginal covariance of the other five."""
    if isinstance(value, list) and len(value) == 6:
        return np.delete(np.delete(matrix(6)[1](value), 1, axis=0), 1, axis=1)
    return matrix(5)[1](value)


_PEAK = (
    ("coeffs", "coeffs", record(LineshapeCoeffs, _COEFFS)),
    ("covariance", "covariance", (matrix(5)[0], _read_covariance)),
    ("reduced_chi2", "reduced_chi2", NUMBER),
    ("a_eff", "a_eff_hz2", NUMBER),
    ("a_eff_sigma", "a_eff_sigma_hz2", NUMBER),
    ("lorentzian_preferred", "lorentzian_preferred", AS_IS),
    ("theta", "theta_rad", NUMBER),
    ("window", "window_hz", PAIR),
    ("n_points", "n_points", COUNT),
    ("n_excluded", "n_excluded", COUNT),
)


@dataclass
class CoolingCurveResult:
    """Fit of a_eff = b1/Gamma + b2 Gamma and the physics derived from it."""

    b1: float
    b2: float
    covariance: np.ndarray
    reduced_chi2: float
    g0: float  # rad/s
    g0_sigma: float
    n_min: float
    n_min_sigma: float
    gamma_min: float  # rad/s
    gamma_min_sigma: float
    n_points: int
    annotations: list = field(default_factory=list)

    @property
    def g0_hz(self) -> float:
        return self.g0 / math.tau

    @property
    def gamma_min_hz(self) -> float:
        return self.gamma_min / math.tau


_COOLING = (
    ("b1", "b1_hz2_rad_per_s", NUMBER),
    ("b2", "b2_hz2_s_per_rad", NUMBER),
    ("covariance", "covariance", matrix(2)),
    ("reduced_chi2", "reduced_chi2", NUMBER),
    ("g0", "g0_hz", HZ),
    ("g0_sigma", "g0_sigma_hz", HZ),
    ("n_min", "n_min", NUMBER),
    ("n_min_sigma", "n_min_sigma", NUMBER),
    ("gamma_min", "gamma_min_hz", HZ),
    ("gamma_min_sigma", "gamma_min_sigma_hz", HZ),
    ("n_points", "n_points", COUNT),
    ("annotations", "annotations", AS_IS),
)


@dataclass
class NoiseDiscrimination:
    """Outcome of the phase-vs-amplitude noise attribution."""

    classification: str  # phase-dominated | amplitude-dominated | mixed | indeterminate
    ratio: float | None  # b2 gamma_eff / a3
    ratio_sigma: float | None
    expected_phase_ratio: float | None  # 1 / sin(2 theta)
    amplitude_fraction: float
    a3_slope: float | None = None  # of a3 vs gamma_eff, Hz^2 s/rad; None before 0.4.0
    a3_slope_sigma: float | None = None


_DISCRIMINATION = (
    ("classification", "classification", AS_IS),
    ("ratio", "ratio", NUMBER_OR_NULL),
    ("ratio_sigma", "ratio_sigma", NUMBER_OR_NULL),
    ("expected_phase_ratio", "expected_phase_ratio", NUMBER_OR_NULL),
    ("amplitude_fraction", "amplitude_fraction", NAN_AS_NULL),
    ("a3_slope", "a3_slope_hz2_s_per_rad", NUMBER),
    ("a3_slope_sigma", "a3_slope_sigma_hz2_s_per_rad", NUMBER),
)


@dataclass
class NoiseExtraction:
    """Laser-noise PSDs inverted from the cooling-curve minimum."""

    s_phi_phi: float
    s_phi_phi_sigma: float
    s_phi_phi_is_limit: bool
    s_eps_eps: float
    s_eps_eps_sigma: float
    s_eps_eps_is_limit: bool
    s_nu_nu: float
    s_nu_nu_sigma: float
    dominant: str | None


_LASER_NOISE = (
    ("s_phi_phi", "s_phi_phi_rad2_per_hz", NUMBER),
    ("s_phi_phi_sigma", "s_phi_phi_sigma_rad2_per_hz", NUMBER),
    ("s_phi_phi_is_limit", "s_phi_phi_is_limit", AS_IS),
    ("s_eps_eps", "s_eps_eps_per_hz", NUMBER),
    ("s_eps_eps_sigma", "s_eps_eps_sigma_per_hz", NUMBER),
    ("s_eps_eps_is_limit", "s_eps_eps_is_limit", AS_IS),
    ("s_nu_nu", "s_nu_nu_hz2_per_hz", NUMBER),
    ("s_nu_nu_sigma", "s_nu_nu_sigma_hz2_per_hz", NUMBER),
    ("dominant", "dominant", AS_IS),
)
_REPORT = (
    ("peaks", "peaks", listed(record(PeakFitResult, _PEAK))),
    ("provenance", "provenance", AS_IS),
    ("cooling", "cooling_curve", record(CoolingCurveResult, _COOLING)),
    ("discrimination", "noise_discrimination", record(NoiseDiscrimination, _DISCRIMINATION)),
    ("noise", "laser_noise", record(NoiseExtraction, _LASER_NOISE)),
    ("t_eff_k", "t_eff_k", NUMBER),
    ("q_eff", "q_eff", NUMBER),
)


@dataclass
class FitReport:
    """Per-peak fits, the cooling-curve extraction, and derived physics."""

    peaks: list[PeakFitResult] = field(default_factory=list)
    cooling: CoolingCurveResult | None = None
    discrimination: NoiseDiscrimination | None = None
    noise: NoiseExtraction | None = None
    t_eff_k: float | None = None
    q_eff: float | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"tool_version": TOOL_VERSION, **_write_report(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        """Keys that no row names are ignored: tool_version, the lorentzian_*
        fields of reports from tool versions before 0.2.0, and the a1 of
        peak coeffs before 0.5.0."""
        return _read_report(d)

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FitReport":
        return load_json(path, cls.from_dict)


_write_report, _read_report = record(FitReport, _REPORT)
