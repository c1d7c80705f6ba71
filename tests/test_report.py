import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from sidecool import report
from sidecool.fitting import (
    CoolingCurveResult,
    NoiseDiscrimination,
    NoiseExtraction,
    PeakFitResult,
    summarize_peaks,
)
from sidecool.report import FitReport, effective_temperature
from sidecool.spectra import LineshapeCoeffs

from conftest import peak_record

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
    half = rng.normal(size=(6, 6))
    omega_eff = float(rng.uniform(TWO_PI * 250e3, TWO_PI * 260e3))
    gamma_eff = float(rng.uniform(TWO_PI * 1e3, TWO_PI * 1e4))
    return PeakFitResult(
        coeffs=LineshapeCoeffs(*(float(v) for v in rng.normal(size=4)), omega_eff, gamma_eff),
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
    """Peaks with a 6x6 covariance and a window, a cooling curve with
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
        c = summarize_peaks(peaks, mode01, cavity)
        doc = FitReport(
            peaks=c.peaks, cooling=c.cooling, discrimination=c.discrimination,
            noise=c.noise,
        ).to_dict()
        return doc, c.a3_slope, c.a3_slope_sigma

    loaded = physics(legacy)
    assert loaded == physics(current)
    assert not any(k.startswith("lorentzian_") and k != "lorentzian_preferred"
                   for p in loaded[0]["peaks"] for k in p)
