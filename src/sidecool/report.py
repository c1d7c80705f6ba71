"""Fit-report persistence: the complete outcome of an analysis campaign as a
JSON document with unit-suffixed field names."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

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
from .fitting import (
    CoolingCurveResult,
    NoiseDiscrimination,
    NoiseExtraction,
    PeakFitResult,
)
from .physics import hbar, k_B
from .spectra import LineshapeCoeffs

__all__ = ["FitReport", "TOOL_VERSION", "effective_temperature"]

TOOL_VERSION = "0.3.0"


def effective_temperature(n_eff: float, omega_m: float) -> float:
    """Occupancy to effective temperature, T = n hbar Omega_m / k_B."""
    return n_eff * hbar * omega_m / k_B


_COEFFS = (
    ("a0", "a0", NUMBER),
    ("a1", "a1", NUMBER),
    ("a2", "a2_hz2", NUMBER),
    ("a3", "a3_hz2", NUMBER),
    ("omega_eff", "omega_eff_hz", HZ),
    ("gamma_eff", "gamma_eff_hz", HZ),
)
_PEAK = (
    ("coeffs", "coeffs", record(LineshapeCoeffs, _COEFFS)),
    ("covariance", "covariance", matrix(6)),
    ("reduced_chi2", "reduced_chi2", NUMBER),
    ("a_eff", "a_eff_hz2", NUMBER),
    ("a_eff_sigma", "a_eff_sigma_hz2", NUMBER),
    ("lorentzian_preferred", "lorentzian_preferred", AS_IS),
    ("theta", "theta_rad", NUMBER),
    ("window", "window_hz", PAIR),
    ("n_points", "n_points", COUNT),
    ("n_excluded", "n_excluded", COUNT),
)
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
_DISCRIMINATION = (
    ("classification", "classification", AS_IS),
    ("ratio", "ratio", NUMBER_OR_NULL),
    ("ratio_sigma", "ratio_sigma", NUMBER_OR_NULL),
    ("expected_phase_ratio", "expected_phase_ratio", NUMBER_OR_NULL),
    ("amplitude_fraction", "amplitude_fraction", NAN_AS_NULL),
)
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
        """Keys that no row names are ignored: tool_version, and the
        lorentzian_* fields of reports from tool versions before 0.2.0."""
        return _read_report(d)

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FitReport":
        return load_json(path, cls.from_dict)


_write_report, _read_report = record(FitReport, _REPORT)
