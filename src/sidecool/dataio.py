"""Spectrum files, experiment configuration, fit reports, and unit
conversions.

Spectrum files are CSV with ``#``-prefixed ``key=value`` header lines
(units, n_averages, f_start and f_step; any other header line is ignored)
and two columns, frequency_hz and psd. Configs and reports are JSON with
unit suffixes on field names.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import MISSING, dataclass, fields, replace
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
        "frequency_hz,psd",
    ]
    rows = zip(spectrum.frequencies.tolist(), spectrum.values.tolist())
    lines.extend(map("%.17g,%.17g".__mod__, rows))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _header_value(path: Path, header: dict[str, str], key: str, parse):
    try:
        return parse(header[key])
    except ValueError:
        raise SpectrumFormatError(f"{path}: invalid {key} {header[key]!r}") from None


def read_spectrum(path: str | Path) -> Spectrum:
    """Read a spectrum file. Its header must give units, n_averages, f_start
    and f_step: a file without them raises MissingHeaderError, since its
    scale and its number of averages, which set the fit weights, are
    unknown."""
    path = Path(path)
    header: dict[str, str] = {}
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
                    header[key.strip()] = value.strip()
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
    return replace(spectrum, values=spectrum.values * scale, units=SpectrumUnits.HZ2_PER_HZ)


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
        if self.g0 is not None and not 0.0 < self.g0 < math.inf:  # NaN fails too
            raise ValueError(f"g0_hz must be positive and finite, got {self.g0 / TWO_PI!r}")

    def mode(self, index: int = 0) -> MechMode:
        n = len(self.modes)
        if not 0 <= index < n:
            raise ValueError(
                f"mode index {index} is out of range: the config has {n} "
                f"mode(s), valid indices are 0 to {n - 1}"
            )
        return self.modes[index]


# ---------------------------------------------------------------------------
# JSON records
# ---------------------------------------------------------------------------
#
# A record is a dataclass stored as a JSON object. Its table has one
# (attribute, JSON key, codec) row per field, in the document's key order. A
# codec is a (write, read) pair: write turns the attribute into a JSON value,
# and read turns the JSON value back, raising TypeError for one of the wrong
# type. A row whose write is None is read only.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(n: int, test=_is_number):
    """A test for a list of n values that each pass test."""
    return lambda v: isinstance(v, list) and len(v) == n and all(map(test, v))


def _checked(kind: str, test) -> tuple:
    """A codec that stores a value as is and reads only one that passes test."""

    def read(value):
        if not test(value):
            raise TypeError(f"must be {kind}, got {value!r}")
        return value

    return (lambda value: value), read


AS_IS = _checked("anything", lambda v: True)
NUMBER = _checked("a number", _is_number)
NUMBER_OR_NULL = _checked("a number or null", lambda v: v is None or _is_number(v))
COUNT = _checked("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_LIST = _checked("a list", lambda v: isinstance(v, list))
_PAIR = _checked("a pair of numbers", _list_of(2))
PAIR = (list, lambda v: tuple(_PAIR[1](v)))  # a (lo, hi) tuple
# an angular rate, held in rad/s and stored in Hz: a value x comes back as
# TWO_PI * (x / TWO_PI), within one ulp of x
HZ = (lambda v: v / TWO_PI, lambda v: TWO_PI * NUMBER[1](v))
# a float that is NaN when undefined, stored as null
NAN_AS_NULL = (
    lambda v: None if math.isnan(v) else v,
    lambda v: math.nan if v is None else NUMBER[1](v),
)


def matrix(n: int) -> tuple:
    """The codec of an n x n float array, stored as a list of rows."""
    read = _checked(f"{n}x{n} numbers", _list_of(n, _list_of(n)))[1]
    return (lambda m: np.asarray(m).tolist()), lambda v: np.array(read(v), dtype=float)


def listed(codec: tuple) -> tuple:
    """The codec of a list of the values that codec stores."""
    write, read = codec
    return (lambda values: [write(v) for v in values]), lambda v: [read(x) for x in _LIST[1](v)]


def record(cls: type, table: tuple, strict: bool = False) -> tuple:
    """The codec of a cls stored under table. write leaves out read-only
    rows, and fields whose default is None while they are None. read gives
    a key that the object lacks its field's default; a field without one,
    or a value of the wrong type, raises ValueError naming the key. Keys
    that no row names are ignored, or with strict raise TypeError."""
    optional = {f.name for f in fields(cls) if f.default is None}
    required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    names = {key for _, key, _ in table}

    def write(obj) -> dict:
        return {
            key: to_json(getattr(obj, attr))
            for attr, key, (to_json, _) in table
            if to_json is not None and not (attr in optional and getattr(obj, attr) is None)
        }

    def read(d):
        if not isinstance(d, dict):
            raise TypeError(f"must be an object, got {d!r}")
        if strict and not names.issuperset(d):
            raise TypeError(f"has unknown key {next(k for k in d if k not in names)!r}")
        values = {}
        for attr, key, (_, from_json) in table:
            if key in d:
                try:
                    values[attr] = from_json(d[key])
                except TypeError as exc:
                    raise ValueError(f"{key} {exc}") from None
            elif attr in required:
                raise ValueError(f"missing key {key!r}")
        return cls(**values)

    return write, read


_CAVITY = (
    ("kappa", "kappa_hz", HZ),
    ("detuning", "detuning_hz", HZ),
    ("cavity_length", "length_m", NUMBER),
    ("laser_frequency", "laser_frequency_hz", NUMBER),
)
_MODE = (
    ("omega_m", "frequency_hz", HZ),
    ("gamma_m", "gamma_hz", (None, HZ[1])),
    ("q_factor", "q_factor", NUMBER),
    ("temperature", "temperature_k", NUMBER),
    ("label", "label", AS_IS),
)
_DETECTION = (
    ("probe_kappa", "probe_kappa_hz", HZ),
    ("theta_lo", "theta_lo_rad", NUMBER),
    ("probe_detuning", "probe_detuning_hz", HZ),
)
_NOISE = (
    ("s_phi_phi", "s_phi_phi_rad2_per_hz", NUMBER),
    ("s_eps_eps", "s_eps_eps_per_hz", NUMBER),
)
_TONE = (("frequency_hz", "frequency_hz", NUMBER), ("power_hz2", "power_hz2", NUMBER))
_CONFIG = (
    ("cavity", "cavity", record(CavitySpec, _CAVITY, strict=True)),
    ("modes", "modes", listed(record(MechMode, _MODE, strict=True))),
    ("detection", "detection", record(DetectionConfig, _DETECTION, strict=True)),
    ("noise", "noise", record(LaserNoise, _NOISE, strict=True)),
    ("calibration_tone", "calibration_tone", record(CalibrationTone, _TONE, strict=True)),
    ("g0", "g0_hz", HZ),
)
config_to_dict, _read_config = record(ExperimentConfig, _CONFIG, strict=True)


def config_from_dict(d: dict) -> ExperimentConfig:
    """The config that the JSON object d describes; a key that no row of its
    section declares is an error. A detection section without
    probe_kappa_hz takes the cavity's kappa_hz."""
    try:
        d = dict(d, detection={"probe_kappa_hz": d["cavity"]["kappa_hz"], **d["detection"]})
    except (KeyError, TypeError):
        pass  # _read_config names the section that is missing or not an object
    return _read_config(d)


def load_json(path: str | Path, build: Callable[[dict], _T]) -> _T:
    """build() applied to the JSON document at path. Malformed JSON, and a
    TypeError or ValueError that build() raises, raise one ValueError that
    names the file."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return load_json(path, config_from_dict)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(config_to_dict(config), indent=2) + "\n")
