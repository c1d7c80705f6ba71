"""Spectrum files, experiment configuration, fit reports, and unit
conversions.

Spectrum files are CSV with ``#``-prefixed ``key=value`` header lines
(units, n_averages, f_start, f_step, plus free-form ``meta:`` entries) and
two columns, frequency_hz and psd. Configs and reports are JSON with unit
suffixes on field names.
"""

from __future__ import annotations

import ast
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .physics import CavitySpec, LaserNoise, MechMode
from .spectra import CalibrationTone, DetectionConfig, Spectrum, SpectrumUnits, median

__all__ = [
    "SpectrumFormatError",
    "NonUniformGridError",
    "MissingHeaderError",
    "NonFiniteValueError",
    "ToneNotFoundError",
    "read_spectrum",
    "write_spectrum",
    "calibrate_with_tone",
    "convert_frequency_noise",
    "convert_phase_noise",
    "convert_snn_sll",
    "convert_sll_snn",
    "ExperimentConfig",
    "load_config",
    "save_config",
    "load_json",
    "atomic_write_text",
]

TWO_PI = 2.0 * math.pi
_T = TypeVar("_T")


class SpectrumFormatError(ValueError):
    """Malformed spectrum file."""


class NonUniformGridError(SpectrumFormatError):
    """Frequency column is not a uniform grid."""


class MissingHeaderError(SpectrumFormatError):
    """Required header keys are absent."""


class NonFiniteValueError(SpectrumFormatError):
    """NaN or infinity in the numeric payload."""


class ToneNotFoundError(ValueError):
    """Calibration tone not present above the local background."""


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via a temporary sibling and rename, so readers never see
    a partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Spectrum CSV
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("units", "n_averages", "f_start", "f_step")


def write_spectrum(spectrum: Spectrum, path: str | Path) -> None:
    """Write a spectrum with full (17 significant digit) precision."""
    lines = [
        "# sidecool-spectrum v1",
        f"# units={spectrum.units.value}",
        f"# n_averages={spectrum.n_averages}",
        f"# f_start={spectrum.f_start!r}",
        f"# f_step={spectrum.f_step!r}",
    ]
    for key, value in spectrum.metadata.items():
        lines.append(f"# meta:{key}={value!r}" if isinstance(value, str) else f"# meta:{key}={value}")
    lines.append("frequency_hz,psd")
    rows = zip(spectrum.frequencies.tolist(), spectrum.values.tolist())
    lines.extend(map("%.17g,%.17g".__mod__, rows))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_meta(raw: str):
    """A metadata value as write_spectrum writes it: a quoted string is read
    back from its repr, True, False and None as themselves, a number as int
    or float, anything else as text."""
    if raw in ("True", "False", "None"):
        return ast.literal_eval(raw)
    if raw[:1] in ("'", '"') and raw[-1:] == raw[:1]:
        try:
            return ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            return raw
    try:
        as_float = float(raw)
    except ValueError:
        return raw
    if as_float.is_integer() and "." not in raw and "e" not in raw.lower():
        return int(as_float)
    return as_float


def _header_value(path: Path, header: dict[str, str], key: str, parse):
    try:
        return parse(header[key])
    except ValueError:
        raise SpectrumFormatError(f"{path}: invalid {key} {header[key]!r}") from None


def read_spectrum(path: str | Path) -> Spectrum:
    """Read a spectrum file.

    A headerless two-column file is accepted as a legacy fallback: the grid
    is inferred from the frequency column, units are tagged raw, and a
    warning is emitted.
    """
    path = Path(path)
    header: dict[str, str] = {}
    metadata: dict = {}
    cells: list[str] = []  # frequency and value of each data row, in turn
    linenos: list[int] = []
    bad_columns = None  # line of the first row without two columns
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    if key.startswith("meta:"):
                        metadata[key[5:]] = _parse_meta(value.strip())
                    else:
                        header[key] = value.strip()
                continue
            if line.lower().startswith("frequency"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                parts = line.split()
            if len(parts) != 2:
                bad_columns = lineno
                break
            cells += parts
            linenos.append(lineno)

    if not linenos and bad_columns is None:
        raise SpectrumFormatError(f"{path}: no data rows")
    # Rows are checked in file order: a non-numeric row before the first
    # row without two columns is the one reported.
    try:
        table = np.array(cells, dtype=float).reshape(-1, 2)
    except ValueError as exc:
        for i, lineno in enumerate(linenos):
            try:
                np.array(cells[2 * i : 2 * i + 2], dtype=float)
            except ValueError:
                raise SpectrumFormatError(f"{path}:{lineno}: non-numeric value") from exc
        raise
    if bad_columns is not None:
        raise SpectrumFormatError(f"{path}:{bad_columns}: expected two columns")
    freqs, vals = table[:, 0].copy(), table[:, 1].copy()

    if not np.all(np.isfinite(freqs)) or not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~(np.isfinite(freqs) & np.isfinite(vals))))
        raise NonFiniteValueError(
            f"{path}:{linenos[bad]}: non-finite value"
        )

    legacy = not header
    if legacy:
        if len(linenos) < 2:
            raise MissingHeaderError(f"{path}: missing header and too short to infer grid")
        f_start = float(freqs[0])
        f_step = float(freqs[1] - freqs[0])
        units = SpectrumUnits.RAW
        n_averages = 1
        warnings.warn(
            f"{path}: headerless legacy file, assuming raw units and 1 average",
            stacklevel=2,
        )
    else:
        missing = [k for k in _REQUIRED_KEYS if k not in header]
        if missing:
            raise MissingHeaderError(f"{path}: missing header keys {missing}")
        units = _header_value(path, header, "units", SpectrumUnits)
        n_averages = _header_value(path, header, "n_averages", int)
        f_start = _header_value(path, header, "f_start", float)
        f_step = _header_value(path, header, "f_step", float)

    try:
        spectrum = Spectrum(
            f_start=f_start,
            f_step=f_step,
            values=vals,
            units=units,
            n_averages=n_averages,
            metadata=metadata,
        )
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from None
    expected = spectrum.frequencies
    bad = np.abs(freqs - expected) > 1e-6 * f_step
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NonUniformGridError(
            f"{path}:{linenos[i]}: frequency {freqs[i]!r} deviates from the "
            f"uniform grid value {expected[i]!r}"
        )
    return spectrum


# ---------------------------------------------------------------------------
# Calibration and unit conversions
# ---------------------------------------------------------------------------

TONE_HALF_WIDTH_BINS = 2  # the tone is integrated over 2 * this + 1 bins


def calibrate_with_tone(spectrum: Spectrum, tone: CalibrationTone) -> Spectrum:
    """Rescale a spectrum so the integrated calibration-tone peak equals the
    tone's known power (Hz^2); the result is tagged Hz^2/Hz.

    The tone bin must stand at least 10x above the local background, which
    is estimated from neighboring bins outside the tone region.
    """
    idx = int(round((tone.frequency_hz - spectrum.f_start) / spectrum.f_step))
    if idx < 0 or idx >= spectrum.values.size:
        raise ToneNotFoundError("tone frequency outside the spectrum grid")
    half = TONE_HALF_WIDTH_BINS
    lo = max(idx - 30, 0)
    hi = min(idx + 31, spectrum.values.size)
    neighborhood = np.concatenate(
        [
            spectrum.values[lo : max(idx - half - 2, lo)],
            spectrum.values[min(idx + half + 3, hi) : hi],
        ]
    )
    if neighborhood.size == 0:
        raise ToneNotFoundError("tone too close to the grid edge to calibrate")
    local_bg = median(neighborhood)
    if spectrum.values[idx] < 10.0 * local_bg:
        raise ToneNotFoundError(
            f"no tone at {tone.frequency_hz} Hz: bin is below 10x the local background"
        )
    window = spectrum.values[max(idx - half, 0) : idx + half + 1]
    integrated = float(np.sum(window - local_bg)) * spectrum.f_step
    if integrated <= 0:
        raise ToneNotFoundError("tone has non-positive integrated power")
    scale = tone.power_hz2 / integrated
    return replace(
        spectrum,
        values=spectrum.values * scale,
        units=SpectrumUnits.HZ2_PER_HZ,
        metadata=dict(spectrum.metadata, calibration_scale=scale),
    )


def convert_frequency_noise(s_nu_nu: float, omega: float) -> float:
    """Frequency-noise PSD (Hz^2/Hz) to phase PSD (rad^2/Hz) at angular
    frequency omega."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return s_nu_nu / (omega / TWO_PI) ** 2


def convert_phase_noise(s_phi_phi: float, omega: float) -> float:
    """Inverse of convert_frequency_noise."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return s_phi_phi * (omega / TWO_PI) ** 2


def _require_length_fields(cavity: CavitySpec) -> tuple[float, float]:
    if cavity.cavity_length is None or cavity.laser_frequency is None:
        raise ValueError(
            "cavity_length and laser_frequency are required for the "
            "length-noise conversion"
        )
    return cavity.cavity_length, cavity.laser_frequency


def convert_snn_sll(s_nu_nu: float, cavity: CavitySpec) -> float:
    """Frequency noise (Hz^2/Hz) to equivalent cavity-length noise (m^2/Hz),
    S_LL = (L_c / nu_L)^2 S_nunu."""
    length, nu_l = _require_length_fields(cavity)
    return (length / nu_l) ** 2 * s_nu_nu


def convert_sll_snn(s_ll: float, cavity: CavitySpec) -> float:
    """Inverse of convert_snn_sll."""
    length, nu_l = _require_length_fields(cavity)
    return (nu_l / length) ** 2 * s_ll


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Static system parameters for a measurement campaign."""

    cavity: CavitySpec
    modes: list[MechMode]
    detection: DetectionConfig
    noise: LaserNoise | None = None
    calibration_tone: CalibrationTone | None = None
    g0: float | None = None  # rad/s

    def __post_init__(self) -> None:
        if not self.modes:
            raise ValueError("at least one mechanical mode is required")

    def mode(self, index: int = 0) -> MechMode:
        n = len(self.modes)
        if not 0 <= index < n:
            raise ValueError(
                f"mode index {index} is out of range: the config has {n} "
                f"mode(s), valid indices are 0 to {n - 1}"
            )
        return self.modes[index]


def _cavity_to_dict(cavity: CavitySpec) -> dict:
    out = {
        "kappa_hz": cavity.kappa / TWO_PI,
        "detuning_hz": cavity.detuning / TWO_PI,
    }
    if cavity.cavity_length is not None:
        out["length_m"] = cavity.cavity_length
    if cavity.laser_frequency is not None:
        out["laser_frequency_hz"] = cavity.laser_frequency
    if cavity.input_transmission_ppm is not None:
        out["input_transmission_ppm"] = cavity.input_transmission_ppm
    return out


def _cavity_from_dict(d: dict) -> CavitySpec:
    return CavitySpec(
        kappa=TWO_PI * d["kappa_hz"],
        detuning=TWO_PI * d["detuning_hz"],
        cavity_length=d.get("length_m"),
        laser_frequency=d.get("laser_frequency_hz"),
        input_transmission_ppm=d.get("input_transmission_ppm"),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {
        "cavity": _cavity_to_dict(config.cavity),
        "modes": [
            {
                "frequency_hz": m.omega_m / TWO_PI,
                "q_factor": m.q_factor,
                "temperature_k": m.temperature,
                "label": m.label,
            }
            for m in config.modes
        ],
        "detection": {
            "probe_kappa_hz": config.detection.probe_kappa / TWO_PI,
            "theta_lo_rad": config.detection.theta_lo,
            "probe_detuning_hz": config.detection.probe_detuning / TWO_PI,
        },
    }
    if config.noise is not None:
        out["noise"] = {
            "s_phi_phi_rad2_per_hz": config.noise.s_phi_phi,
            "s_eps_eps_per_hz": config.noise.s_eps_eps,
        }
    if config.calibration_tone is not None:
        out["calibration_tone"] = {
            "frequency_hz": config.calibration_tone.frequency_hz,
            "power_hz2": config.calibration_tone.power_hz2,
        }
    if config.g0 is not None:
        out["g0_hz"] = config.g0 / TWO_PI
    return out


def config_from_dict(d: dict) -> ExperimentConfig:
    for key in ("cavity", "modes", "detection"):
        if key not in d:
            raise ValueError(f"config missing required section {key!r}")
    cavity = _cavity_from_dict(d["cavity"])
    modes = [
        MechMode(
            omega_m=TWO_PI * m["frequency_hz"],
            q_factor=m.get("q_factor"),
            gamma_m=(TWO_PI * m["gamma_hz"]) if "gamma_hz" in m else None,
            temperature=m.get("temperature_k", 300.0),
            label=m.get("label", ""),
        )
        for m in d["modes"]
    ]
    det = d["detection"]
    detection = DetectionConfig(
        probe_kappa=TWO_PI * det.get("probe_kappa_hz", d["cavity"]["kappa_hz"]),
        theta_lo=det.get("theta_lo_rad", math.pi / 2.0),
        probe_detuning=TWO_PI * det.get("probe_detuning_hz", 0.0),
    )
    noise = None
    if "noise" in d:
        noise = LaserNoise(
            s_phi_phi=d["noise"].get("s_phi_phi_rad2_per_hz", 0.0),
            s_eps_eps=d["noise"].get("s_eps_eps_per_hz", 0.0),
        )
    tone = None
    if "calibration_tone" in d:
        tone = CalibrationTone(
            frequency_hz=d["calibration_tone"]["frequency_hz"],
            power_hz2=d["calibration_tone"]["power_hz2"],
        )
    g0_hz = d.get("g0_hz")
    if g0_hz is not None and not 0.0 < g0_hz < math.inf:  # NaN fails too
        raise ValueError(f"g0_hz must be positive and finite, got {g0_hz!r}")
    g0 = None if g0_hz is None else TWO_PI * g0_hz
    return ExperimentConfig(
        cavity=cavity,
        modes=modes,
        detection=detection,
        noise=noise,
        calibration_tone=tone,
        g0=g0,
    )


def load_json(path: str | Path, build: Callable[[dict], _T]) -> _T:
    """build() applied to the JSON document at path. Malformed JSON, a
    missing key and a value of the wrong type raise one ValueError that
    names the file (and the key), as does a ValueError that build() raises."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: unexpected value type: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return load_json(path, config_from_dict)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(config_to_dict(config), indent=2) + "\n")
