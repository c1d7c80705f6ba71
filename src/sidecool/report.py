"""Fit-report persistence: the complete outcome of an analysis campaign as a
JSON document with unit-suffixed field names."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import atomic_write_text, load_json
from .fitting import (
    CoolingCurveResult,
    NoiseDiscrimination,
    NoiseExtraction,
    PeakFitResult,
)
from .physics import hbar, k_B
from .spectra import LineshapeCoeffs

__all__ = ["FitReport", "TOOL_VERSION", "effective_temperature"]

TWO_PI = 2.0 * math.pi
TOOL_VERSION = "0.3.0"


def effective_temperature(n_eff: float, omega_m: float) -> float:
    """Occupancy to effective temperature, T = n hbar Omega_m / k_B."""
    return n_eff * hbar * omega_m / k_B


def _peak_to_dict(p: PeakFitResult) -> dict:
    c = p.coeffs
    return {
        "coeffs": {
            "a0": c.a0,
            "a1": c.a1,
            "a2_hz2": c.a2,
            "a3_hz2": c.a3,
            "omega_eff_hz": c.omega_eff / TWO_PI,
            "gamma_eff_hz": c.gamma_eff / TWO_PI,
        },
        "covariance": np.asarray(p.covariance).tolist(),
        "reduced_chi2": p.reduced_chi2,
        "a_eff_hz2": p.a_eff,
        "a_eff_sigma_hz2": p.a_eff_sigma,
        "lorentzian_preferred": p.lorentzian_preferred,
        "theta_rad": p.theta,
        "window_hz": list(p.window),
        "n_points": p.n_points,
        "n_excluded": p.n_excluded,
    }


def _peak_from_dict(d: dict) -> PeakFitResult:
    """Keys this version does not write (the lorentzian_* fields of reports
    from tool versions before 0.2.0) are ignored."""
    c = d["coeffs"]
    covariance = np.array(d["covariance"], dtype=float)
    if covariance.shape != (6, 6):
        raise ValueError(f"covariance must be 6x6, got shape {covariance.shape}")
    return PeakFitResult(
        coeffs=LineshapeCoeffs(
            a0=c["a0"],
            a1=c["a1"],
            a2=c["a2_hz2"],
            a3=c["a3_hz2"],
            omega_eff=TWO_PI * c["omega_eff_hz"],
            gamma_eff=TWO_PI * c["gamma_eff_hz"],
        ),
        covariance=covariance,
        reduced_chi2=d["reduced_chi2"],
        a_eff=d["a_eff_hz2"],
        a_eff_sigma=d["a_eff_sigma_hz2"],
        lorentzian_preferred=d["lorentzian_preferred"],
        theta=d["theta_rad"],
        window=tuple(d["window_hz"]),
        n_points=d["n_points"],
        n_excluded=d["n_excluded"],
    )


def _cooling_to_dict(c: CoolingCurveResult) -> dict:
    return {
        "b1_hz2_rad_per_s": c.b1,
        "b2_hz2_s_per_rad": c.b2,
        "covariance": np.asarray(c.covariance).tolist(),
        "reduced_chi2": c.reduced_chi2,
        "g0_hz": c.g0 / TWO_PI,
        "g0_sigma_hz": c.g0_sigma / TWO_PI,
        "n_min": c.n_min,
        "n_min_sigma": c.n_min_sigma,
        "gamma_min_hz": c.gamma_min / TWO_PI,
        "gamma_min_sigma_hz": c.gamma_min_sigma / TWO_PI,
        "n_points": c.n_points,
        "annotations": list(c.annotations),
    }


def _cooling_from_dict(d: dict) -> CoolingCurveResult:
    return CoolingCurveResult(
        b1=d["b1_hz2_rad_per_s"],
        b2=d["b2_hz2_s_per_rad"],
        covariance=np.array(d["covariance"]),
        reduced_chi2=d["reduced_chi2"],
        g0=TWO_PI * d["g0_hz"],
        g0_sigma=TWO_PI * d["g0_sigma_hz"],
        n_min=d["n_min"],
        n_min_sigma=d["n_min_sigma"],
        gamma_min=TWO_PI * d["gamma_min_hz"],
        gamma_min_sigma=TWO_PI * d["gamma_min_sigma_hz"],
        n_points=d["n_points"],
        annotations=list(d["annotations"]),
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
        out: dict = {
            "tool_version": TOOL_VERSION,
            "peaks": [_peak_to_dict(p) for p in self.peaks],
            "provenance": dict(self.provenance),
        }
        if self.cooling is not None:
            out["cooling_curve"] = _cooling_to_dict(self.cooling)
        if self.discrimination is not None:
            d = self.discrimination
            out["noise_discrimination"] = {
                "classification": d.classification,
                "ratio": d.ratio,
                "ratio_sigma": d.ratio_sigma,
                "expected_phase_ratio": d.expected_phase_ratio,
                "amplitude_fraction": (
                    None if math.isnan(d.amplitude_fraction) else d.amplitude_fraction
                ),
            }
        if self.noise is not None:
            n = self.noise
            out["laser_noise"] = {
                "s_phi_phi_rad2_per_hz": n.s_phi_phi,
                "s_phi_phi_sigma_rad2_per_hz": n.s_phi_phi_sigma,
                "s_phi_phi_is_limit": n.s_phi_phi_is_limit,
                "s_eps_eps_per_hz": n.s_eps_eps,
                "s_eps_eps_sigma_per_hz": n.s_eps_eps_sigma,
                "s_eps_eps_is_limit": n.s_eps_eps_is_limit,
                "s_nu_nu_hz2_per_hz": n.s_nu_nu,
                "s_nu_nu_sigma_hz2_per_hz": n.s_nu_nu_sigma,
                "dominant": n.dominant,
            }
        if self.t_eff_k is not None:
            out["t_eff_k"] = self.t_eff_k
        if self.q_eff is not None:
            out["q_eff"] = self.q_eff
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        report = cls(
            peaks=[_peak_from_dict(p) for p in d.get("peaks", [])],
            provenance=dict(d.get("provenance", {})),
            t_eff_k=d.get("t_eff_k"),
            q_eff=d.get("q_eff"),
        )
        if "cooling_curve" in d:
            report.cooling = _cooling_from_dict(d["cooling_curve"])
        if "noise_discrimination" in d:
            nd = d["noise_discrimination"]
            report.discrimination = NoiseDiscrimination(
                classification=nd["classification"],
                ratio=nd["ratio"],
                ratio_sigma=nd["ratio_sigma"],
                expected_phase_ratio=nd["expected_phase_ratio"],
                amplitude_fraction=(
                    float("nan")
                    if nd["amplitude_fraction"] is None
                    else nd["amplitude_fraction"]
                ),
            )
        if "laser_noise" in d:
            ln = d["laser_noise"]
            report.noise = NoiseExtraction(
                s_phi_phi=ln["s_phi_phi_rad2_per_hz"],
                s_phi_phi_sigma=ln["s_phi_phi_sigma_rad2_per_hz"],
                s_phi_phi_is_limit=ln["s_phi_phi_is_limit"],
                s_eps_eps=ln["s_eps_eps_per_hz"],
                s_eps_eps_sigma=ln["s_eps_eps_sigma_per_hz"],
                s_eps_eps_is_limit=ln["s_eps_eps_is_limit"],
                s_nu_nu=ln["s_nu_nu_hz2_per_hz"],
                s_nu_nu_sigma=ln["s_nu_nu_sigma_hz2_per_hz"],
                dominant=ln["dominant"],
            )
        return report

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FitReport":
        return load_json(path, cls.from_dict)
