import json
import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from sidecool import report
from sidecool.fitting import NoiseDiscrimination, summarize_peaks
from sidecool.report import FitReport, effective_temperature

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
