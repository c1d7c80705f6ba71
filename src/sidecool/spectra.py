"""Detection transfer functions and output-spectrum synthesis.

Spectra are one-sided PSDs on a uniform frequency grid (Hz). The homodyne
peak model is

    S(f) = a0 + a1 (w - w_ref) + |C(w)|^2 (a2 L(w) + a3 D(w)),   w = 2 pi f

with L the sum-of-Lorentzians shape (unit area over f in Hz for narrow
peaks) and D its dispersive counterpart. For a mode cooled with excess
laser noise the model coefficients follow from the occupancy budget:

    a2 = g^2 (2 n_eff + 1) - 4 g^2 n_exc_phase cos^2(theta)
    a3 = 4 g^2 n_exc_phase cos(theta) sin(theta)

with g = g0 / 2pi in Hz, so that a2 + a3/tan(theta) = g^2 (2 n_eff + 1).
Only the phase-noise part of n_exc enters the correlated (dispersive)
term: with a phase-quadrature readout the amplitude noise drives the mode
but is not itself detected, so it produces no cross term.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .physics import (
    CavitySpec,
    DriveField,
    LaserNoise,
    MechMode,
    OccupancyBudget,
    chi_c,
    effective_occupancy,
    sideband_angle,
)

__all__ = [
    "DetectionConfig",
    "LineshapeCoeffs",
    "BackgroundModel",
    "CalibrationTone",
    "SpectrumUnits",
    "Spectrum",
    "detection_filter_c",
    "amplitude_leak_d",
    "lorentzian_shape",
    "dispersive_shape",
    "PeakGrid",
    "peak_model",
    "model_coefficients",
    "output_psd",
    "synthesize_measured_spectrum",
    "synthesize_campaign",
    "evaluate_background",
]

TWO_PI = 2.0 * math.pi

ArrayLike = Union[float, np.ndarray]


# np.median and np.percentile reach numpy.ma (through their NaN check and
# np.unique), an import that costs every CLI process about 20 ms. These two
# repeat their arithmetic on a 1-D float array, NaN propagation included, and
# give the same bits.


def median(values: np.ndarray) -> float:
    """np.median(values) of a non-empty 1-D float array."""
    n = values.size
    mid = n // 2
    lo = mid - 1 if n % 2 == 0 else mid
    part = np.partition(values, [lo, mid, -1] if lo < mid else [mid, -1])
    if math.isnan(part[-1]):
        return float(part[-1])
    return float(part[lo : mid + 1].mean())


def percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q) (linear method) of a non-empty 1-D float
    array."""
    n = values.size
    index = (n - 1) * (q / 100)
    lo = math.floor(index) if index < n - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    part = np.partition(values, sorted({0, -1, lo, hi}))
    if math.isnan(part[-1]):
        return float(part[-1])
    t = index - lo
    a, b = float(part[lo]), float(part[hi])
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


class SpectrumUnits(enum.Enum):
    RAW = "raw_volts2"
    HZ2_PER_HZ = "hz2_per_hz"
    NORMALIZED_MODEL = "normalized_model"


@dataclass(frozen=True)
class DetectionConfig:
    """Quadrature detection of the probe field.

    theta_lo = pi/2 with a resonant probe is the PDH configuration.
    """

    probe_kappa: float
    theta_lo: float = math.pi / 2.0
    probe_detuning: float = 0.0

    def __post_init__(self) -> None:
        if self.probe_kappa <= 0:
            raise ValueError("probe_kappa must be positive")

    def probe_cavity(self) -> CavitySpec:
        return CavitySpec(kappa=self.probe_kappa, detuning=self.probe_detuning)


@dataclass(frozen=True)
class LineshapeCoeffs:
    """Peak-fit coefficients: flat + sloped background, Lorentzian and
    dispersive weights (Hz^2), and the effective mode frequency/width (rad/s)."""

    a0: float
    a1: float
    a2: float
    a3: float
    omega_eff: float
    gamma_eff: float

    def __post_init__(self) -> None:
        if self.gamma_eff <= 0:
            raise ValueError("gamma_eff must be positive")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.a0, self.a1, self.a2, self.a3, self.omega_eff, self.gamma_eff]
        )

    @classmethod
    def from_array(cls, params: np.ndarray) -> "LineshapeCoeffs":
        return cls(*(float(p) for p in params))


@dataclass(frozen=True)
class BackgroundModel:
    """Phenomenological background: a low-frequency power-law tail plus the
    probe/cooling-beam beat note, modeled as a Lorentzian."""

    tail_offset: float = 0.0
    tail_amplitude: float = 0.0
    tail_exponent: float = 2.0
    beat_center: float = 0.0
    beat_width: float = 1.0
    beat_amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.tail_exponent <= 0:
            raise ValueError("tail_exponent must be positive")
        if self.beat_width <= 0:
            raise ValueError("beat_width must be positive")


@dataclass(frozen=True)
class CalibrationTone:
    """Coherent phase-modulation tone of known integrated power (Hz^2),
    placed outside the fit windows to pin the absolute spectral scale."""

    frequency_hz: float
    power_hz2: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0 or self.power_hz2 <= 0:
            raise ValueError("tone frequency and power must be positive")


@dataclass
class Spectrum:
    """One-sided PSD on a uniform frequency grid."""

    f_start: float
    f_step: float
    values: np.ndarray
    units: SpectrumUnits = SpectrumUnits.RAW
    n_averages: int = 1
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        # written so that NaN fails
        if not math.isfinite(self.f_start):
            raise ValueError("f_start must be finite")
        if not 0.0 < self.f_step < math.inf:
            raise ValueError("f_step must be positive and finite")
        if self.n_averages < 1:
            raise ValueError("n_averages must be at least 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")

    @property
    def frequencies(self) -> np.ndarray:
        return self.f_start + self.f_step * np.arange(self.values.size)

    def window_slice(self, f_lo: float, f_hi: float) -> slice:
        """Index slice covering [f_lo, f_hi]."""
        i_lo = max(0, int(math.ceil((f_lo - self.f_start) / self.f_step)))
        i_hi = min(self.values.size, int(math.floor((f_hi - self.f_start) / self.f_step)) + 1)
        if i_hi <= i_lo:
            raise ValueError(f"window [{f_lo}, {f_hi}] Hz is outside the grid")
        return slice(i_lo, i_hi)

    def replace_values(self, values: np.ndarray, **meta) -> "Spectrum":
        md = dict(self.metadata)
        md.update(meta)
        return Spectrum(
            f_start=self.f_start,
            f_step=self.f_step,
            values=values,
            units=self.units,
            n_averages=self.n_averages,
            metadata=md,
        )


def detection_filter_c(omega: ArrayLike, detection: DetectionConfig) -> np.ndarray:
    """Complex transfer function from mechanical signal to detected quadrature.

    Reduces to the single-pole cavity filter (kappa/2)/(kappa/2 - i w) for a
    resonant probe read out in the phase quadrature.
    """
    probe = detection.probe_cavity()
    kappa = detection.probe_kappa
    phase = np.exp(-1j * detection.theta_lo)
    c0 = chi_c(0.0, probe)
    return (
        1j
        * kappa**2
        / 8.0
        * (
            chi_c(omega, probe) * c0 * phase
            - np.conj(chi_c(-np.asarray(omega), probe)) * np.conj(c0) / phase
        )
    )


def amplitude_leak_d(omega: ArrayLike, detection: DetectionConfig) -> np.ndarray:
    """Direct coupling of laser amplitude noise into the detected quadrature.

    Identically zero for the PDH case (resonant probe, phase quadrature).
    """
    probe = detection.probe_cavity()
    half_k = detection.probe_kappa / 2.0
    phase = np.exp(-1j * detection.theta_lo)
    c0 = chi_c(0.0, probe)
    term = (1.0 - half_k * chi_c(omega, probe) - half_k * c0) * phase
    term_r = (
        1.0 - half_k * np.conj(chi_c(-np.asarray(omega), probe)) - half_k * np.conj(c0)
    ) / phase
    return term + term_r


def _lineshapes(w: np.ndarray, omega_eff: float, gamma_eff: float):
    """The Lorentzian L and dispersive D shapes at angular frequencies w.

    Each is a sum over the +w and -w resonance lobes, with detuning
    u = +-w - omega_eff and q = 1/(u^2 + (gamma_eff/2)^2). Returns L, D and
    the lobe terms (gamma_eff/2, u+, u-, q+, q-) that the Jacobian filler of
    PeakGrid.model uses.
    """
    half = gamma_eff / 2.0
    u_p = w - omega_eff
    u_m = -w - omega_eff
    q_p = 1.0 / (u_p**2 + half**2)
    q_m = 1.0 / (u_m**2 + half**2)
    return half * (q_p + q_m), u_p * q_p + u_m * q_m, (half, u_p, u_m, q_p, q_m)


def lorentzian_shape(omega: ArrayLike, omega_eff: float, gamma_eff: float) -> np.ndarray:
    """Symmetrized Lorentzian; each resonance lobe carries area 1/2 over
    f = w/2pi for narrow peaks."""
    if gamma_eff <= 0:
        raise ValueError("gamma_eff must be positive")
    return _lineshapes(np.asarray(omega, dtype=float), omega_eff, gamma_eff)[0]


def dispersive_shape(omega: ArrayLike, omega_eff: float, gamma_eff: float) -> np.ndarray:
    """Antisymmetric companion of the Lorentzian, odd about the peak."""
    if gamma_eff <= 0:
        raise ValueError("gamma_eff must be positive")
    return _lineshapes(np.asarray(omega, dtype=float), omega_eff, gamma_eff)[1]


class PeakGrid:
    """The six-parameter peak model on one fixed grid (Hz).

    |C(w)|^2 depends only on the grid and the detection configuration, so it
    is computed once here rather than on every model evaluation. Parameter
    vectors are ordered as LineshapeCoeffs.as_array(); the linear background
    term is taken relative to a fixed omega_ref.
    """

    def __init__(self, f: np.ndarray, detection: DetectionConfig):
        self.w = TWO_PI * np.asarray(f, dtype=float)
        self.c_sq = np.abs(detection_filter_c(self.w, detection)) ** 2

    def model(self, params: np.ndarray, omega_ref: float):
        """The model values at params, and a function that writes
        d model / d params[i] into row i of a (6, n_bins) array."""
        a0, a1, a2, a3, omega_eff, gamma_eff = params
        w, c_sq = self.w, self.c_sq
        lor, disp, (half, u_p, u_m, q_p, q_m) = _lineshapes(w, omega_eff, gamma_eff)

        def fill(jac_t):
            # (dL, dD) / d omega_eff and (dL, dD) / d gamma_eff
            q_p2, q_m2 = q_p**2, q_m**2
            u_q2 = u_p * q_p2 + u_m * q_m2
            d_omega = (
                2.0 * half * u_q2,
                2.0 * (u_p**2 * q_p2 + u_m**2 * q_m2) - (q_p + q_m),
            )
            d_gamma = (0.5 * (q_p + q_m) - half**2 * (q_p2 + q_m2), -half * u_q2)
            jac_t[0] = 1.0
            jac_t[1] = w - omega_ref
            jac_t[2] = c_sq * lor
            jac_t[3] = c_sq * disp
            jac_t[4] = c_sq * (a2 * d_omega[0] + a3 * d_omega[1])
            jac_t[5] = c_sq * (a2 * d_gamma[0] + a3 * d_gamma[1])

        return a0 + a1 * (w - omega_ref) + c_sq * (a2 * lor + a3 * disp), fill


def peak_model(
    f: np.ndarray,
    coeffs: LineshapeCoeffs,
    detection: DetectionConfig,
    omega_ref: float | None = None,
) -> np.ndarray:
    """Evaluate the six-parameter peak model on a frequency grid (Hz).

    The linear background term is taken relative to omega_ref (defaults to
    the peak frequency) to decorrelate it from the flat level.
    """
    if omega_ref is None:
        omega_ref = coeffs.omega_eff
    return PeakGrid(f, detection).model(coeffs.as_array(), omega_ref)[0]


def model_coefficients(
    mode: MechMode,
    cavity: CavitySpec,
    drive: DriveField,
    noise: LaserNoise,
    floor: float = 0.0,
) -> tuple[LineshapeCoeffs, OccupancyBudget]:
    """Lineshape coefficients implied by the physics at one drive point."""
    budget = effective_occupancy(mode, cavity, drive, noise)
    g_hz = drive.g0 / TWO_PI
    if budget.gamma_opt > 0:
        theta = sideband_angle(cavity, mode.omega_m)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
    else:
        cos_t, sin_t = 1.0, 0.0
    a2 = g_hz**2 * (2.0 * budget.n_eff + 1.0) - 4.0 * g_hz**2 * budget.n_exc_phase * cos_t**2
    a3 = 4.0 * g_hz**2 * budget.n_exc_phase * cos_t * sin_t
    coeffs = LineshapeCoeffs(
        a0=floor,
        a1=0.0,
        a2=a2,
        a3=a3,
        omega_eff=budget.omega_eff,
        gamma_eff=budget.gamma_eff,
    )
    return coeffs, budget


def _add_tone(values: np.ndarray, f_start: float, f_step: float, tone: CalibrationTone) -> None:
    idx = int(round((tone.frequency_hz - f_start) / f_step))
    if idx < 0 or idx >= values.size:
        raise ValueError("calibration tone falls outside the frequency grid")
    values[idx] += tone.power_hz2 / f_step


def output_psd(
    f_start: float,
    f_step: float,
    n_bins: int,
    mode: MechMode,
    cavity: CavitySpec,
    drive: DriveField,
    noise: LaserNoise,
    detection: DetectionConfig,
    floor: float = 0.0,
    background: BackgroundModel | None = None,
    tone: CalibrationTone | None = None,
) -> Spectrum:
    """Noise-free model PSD of the detected quadrature on a uniform grid.

    The mechanical peak, an optional phenomenological background, and an
    optional single-bin calibration tone are summed. A grid coarser than
    10 bins per effective width, or a width outside the weak-coupling
    regime, triggers a warning rather than an error.
    """
    coeffs, budget = model_coefficients(mode, cavity, drive, noise, floor=floor)
    if budget.gamma_eff > 0.1 * min(cavity.kappa, mode.omega_m):
        warnings.warn(
            "effective width is not small compared to kappa and Omega_m; "
            "the weak-coupling lineshape is inaccurate here",
            stacklevel=2,
        )
    if budget.gamma_eff / TWO_PI < 10.0 * f_step:
        warnings.warn(
            f"fewer than 10 bins per effective width "
            f"(gamma_eff/2pi = {budget.gamma_eff / TWO_PI:.3g} Hz, "
            f"f_step = {f_step:.3g} Hz)",
            stacklevel=2,
        )
    f = f_start + f_step * np.arange(n_bins)
    values = peak_model(f, coeffs, detection)
    if np.any(values <= 0):
        raise ValueError(
            "model PSD is not positive everywhere: the dispersive part of the "
            "peak digs below the chosen floor; raise floor above the detected "
            "laser-noise level"
        )
    units = SpectrumUnits.NORMALIZED_MODEL
    if background is not None:
        values = values + evaluate_background(background, f)
        units = SpectrumUnits.HZ2_PER_HZ
    if tone is not None:
        values = np.array(values, dtype=float)
        _add_tone(values, f_start, f_step, tone)
        units = SpectrumUnits.HZ2_PER_HZ
    meta = {
        "n_eff": budget.n_eff,
        "gamma_eff_hz": budget.gamma_eff / TWO_PI,
        "omega_eff_hz": budget.omega_eff / TWO_PI,
        "a2": coeffs.a2,
        "a3": coeffs.a3,
    }
    return Spectrum(
        f_start=f_start,
        f_step=f_step,
        values=values,
        units=units,
        n_averages=1,
        metadata=meta,
    )


def synthesize_measured_spectrum(
    model: Spectrum,
    n_averages: int,
    seed: int | np.random.Generator,
    tone: CalibrationTone | None = None,
) -> Spectrum:
    """Draw an M-average periodogram realization of a model PSD.

    Each bin is the model value times a chi-squared(2M)/2M variate, the
    statistics of an M-average of a Gaussian-process periodogram. A
    calibration tone, being coherent, is added after the noise draw.
    """
    if n_averages < 1:
        raise ValueError("n_averages must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dof = 2 * n_averages
    values = model.values * rng.chisquare(dof, size=model.values.size) / dof
    if tone is not None:
        _add_tone(values, model.f_start, model.f_step, tone)
    out = model.replace_values(values)
    out.n_averages = n_averages
    return out


def synthesize_campaign(
    mode: MechMode,
    cavity: CavitySpec,
    g0: float,
    gamma_opt_grid: np.ndarray,
    noise: LaserNoise,
    detection: DetectionConfig,
    f_start: float,
    f_step: float,
    n_bins: int,
    n_averages: int,
    seed: int | np.random.Generator,
    floor: float = 0.0,
    background: BackgroundModel | None = None,
    tone: CalibrationTone | None = None,
) -> tuple[list[Spectrum], list[dict]]:
    """Synthesize one measured spectrum per drive point of a cooling campaign.

    Returns the spectra and, per point, the ground-truth parameters the
    inverse pipeline is supposed to recover.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    spectra: list[Spectrum] = []
    truth: list[dict] = []
    for gamma_opt in np.asarray(gamma_opt_grid, dtype=float):
        drive = DriveField(g0=g0, gamma_opt=float(gamma_opt))
        model = output_psd(
            f_start, f_step, n_bins, mode, cavity, drive, noise, detection,
            floor=floor, background=background,
        )
        measured = synthesize_measured_spectrum(model, n_averages, rng, tone=tone)
        measured.units = SpectrumUnits.HZ2_PER_HZ
        spectra.append(measured)
        md = model.metadata
        g_hz = g0 / TWO_PI
        truth.append(
            {
                "gamma_opt_hz": gamma_opt / TWO_PI,
                "gamma_eff_hz": md["gamma_eff_hz"],
                "omega_eff_hz": md["omega_eff_hz"],
                "n_eff": md["n_eff"],
                "a2_hz2": md["a2"],
                "a3_hz2": md["a3"],
                "a_eff_hz2": g_hz**2 * (2.0 * md["n_eff"] + 1.0),
            }
        )
    return spectra, truth


def evaluate_background(model: BackgroundModel, f: np.ndarray) -> np.ndarray:
    """Evaluate the background model on a grid of positive frequencies (Hz)."""
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("background model requires positive frequencies")
    tail = model.tail_offset + model.tail_amplitude * f ** (-model.tail_exponent)
    beat = model.beat_amplitude * (model.beat_width / 2.0) ** 2 / (
        (f - model.beat_center) ** 2 + (model.beat_width / 2.0) ** 2
    )
    return tail + beat
