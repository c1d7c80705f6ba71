"""Detection transfer functions and output-spectrum synthesis.

Spectra are one-sided PSDs on a uniform frequency grid (Hz). The homodyne
peak model is

    S(f) = a0 + |C(w)|^2 (a2 L(w) + a3 D(w)),   w = 2 pi f

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

import copy
import enum
import math
import operator
import warnings
from dataclasses import astuple, dataclass, replace
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


# np.median reaches numpy.ma (through its NaN check and np.unique), an
# import that costs every CLI process about 20 ms. median repeats its
# arithmetic on a 1-D float array, NaN propagation included, and gives the
# same bits.


def median(values: np.ndarray) -> float:
    """np.median(values) of a non-empty 1-D float array."""
    n = values.size
    mid = n // 2
    lo = mid - 1 if n % 2 == 0 else mid
    part = np.partition(values, [lo, mid, -1] if lo < mid else [mid, -1])
    if math.isnan(part[-1]):
        return float(part[-1])
    # part[lo : mid + 1].mean() without its overhead: a sum from +0.0, as
    # numpy's reduction starts, over the count
    total = 0.0 + float(part[lo])
    if lo < mid:
        total += float(part[mid])
    return total / (mid - lo + 1)


class SpectrumUnits(enum.Enum):
    RAW = "raw_volts2"
    HZ2_PER_HZ = "hz2_per_hz"


@dataclass(frozen=True)
class DetectionConfig:
    """Quadrature detection of the probe field.

    theta_lo = pi/2 with a resonant probe is the PDH configuration.
    """

    probe_kappa: float
    theta_lo: float = math.pi / 2.0
    probe_detuning: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN fails
        if not 0.0 < self.probe_kappa < math.inf:
            raise ValueError(
                f"probe_kappa must be positive and finite, got {self.probe_kappa!r}"
            )
        for name in ("theta_lo", "probe_detuning"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    def probe_cavity(self) -> CavitySpec:
        return CavitySpec(kappa=self.probe_kappa, detuning=self.probe_detuning)


@dataclass(frozen=True)
class LineshapeCoeffs:
    """Peak-fit coefficients: flat background, Lorentzian and dispersive
    weights (Hz^2), and the effective mode frequency/width (rad/s)."""

    a0: float
    a2: float
    a3: float
    omega_eff: float
    gamma_eff: float

    def __post_init__(self) -> None:
        if self.gamma_eff <= 0:
            raise ValueError("gamma_eff must be positive")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.a0, self.a2, self.a3, self.omega_eff, self.gamma_eff]
        )

    @classmethod
    def from_array(cls, params: np.ndarray) -> "LineshapeCoeffs":
        return cls(*(float(p) for p in params))


@dataclass(frozen=True)
class BackgroundModel:
    """Phenomenological background: a low-frequency power-law tail plus the
    probe/cooling-beam beat note, modeled as a Lorentzian. The fields, in
    order, are the parameters of on_grid's model at a pivot of 1 Hz."""

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

    @staticmethod
    def on_grid(f: np.ndarray, f_pivot: float):
        """The model on the grid f (Hz) of the six parameters (tail offset,
        tail amplitude at f_pivot, tail exponent, beat centre, width and
        amplitude): it returns the values and a filler for their rows, as
        PeakGrid.model does. Fits pivot the power law at the band's geometric
        mean so amplitude and exponent decorrelate; a raw amp * f^-e puts the
        minimum in a curved valley the minimizer crawls along. The tail power
        x^-e, x = f / f_pivot, is exp(-e log x) from the log x that the
        exponent's row -amp x^-e log x needs anyway, in under half the time
        of x ** -e."""
        log_x = np.log(f / f_pivot)

        # beat = amp lobe, lobe = h^2 / den, den = d^2 + h^2 with d = f - center
        # and h = width / 2; d lobe/d center = 2 d lobe / den and
        # d lobe/d width = h d^2 / den^2 = (d^2 / h) lobe / den
        def model(p):
            tail_amp, amp, h = p[1], p[5], p[4] / 2.0
            power = np.multiply(log_x, -p[2])
            np.exp(power, out=power)
            d = f - p[3]
            d_sq = d * d
            den = d_sq + h**2
            lobe = h**2 / den
            values = power * tail_amp
            values += p[0]
            values += amp * lobe

            def fill(jac_t):
                jac_t[0] = 1.0
                jac_t[1] = power
                np.multiply(power, -tail_amp, out=jac_t[2])
                jac_t[2] *= log_x
                per_den = np.divide(lobe, den, out=jac_t[5])  # row 5 as working space
                np.multiply(d, 2.0 * amp, out=jac_t[3])
                jac_t[3] *= per_den
                np.multiply(d_sq, amp / h, out=jac_t[4])
                jac_t[4] *= per_den
                jac_t[5] = lobe

            return values, fill

        return model


@dataclass(frozen=True)
class CalibrationTone:
    """Coherent phase-modulation tone of known integrated power (Hz^2),
    placed outside the fit windows to pin the absolute spectral scale."""

    frequency_hz: float
    power_hz2: float

    def __post_init__(self) -> None:
        # written so that NaN fails
        for name in ("frequency_hz", "power_hz2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"tone {name} must be positive and finite, "
                    f"got {getattr(self, name)!r}"
                )


@dataclass(frozen=True)
class Spectrum:
    """One-sided PSD on a uniform frequency grid; a value, changed only by
    dataclasses.replace. f_start and f_step are held as Python floats and
    n_averages as an int, whatever number types they were given as."""

    f_start: float
    f_step: float
    values: np.ndarray
    units: SpectrumUnits = SpectrumUnits.RAW
    n_averages: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        # written so that NaN fails
        if not math.isfinite(self.f_start):
            raise ValueError("f_start must be finite")
        if not 0.0 < self.f_step < math.inf:
            raise ValueError("f_step must be positive and finite")
        if self.n_averages < 1:
            raise ValueError("n_averages must be at least 1")
        object.__setattr__(self, "f_start", float(self.f_start))
        object.__setattr__(self, "f_step", float(self.f_step))
        object.__setattr__(self, "n_averages", operator.index(self.n_averages))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")

    @property
    def frequencies(self) -> np.ndarray:
        return self.f_start + self.f_step * np.arange(self.values.size)

    def window_slice(self, f_lo: float, f_hi: float) -> slice:
        """Index slice covering [f_lo, f_hi]; the bounds must be finite, with
        f_lo < f_hi, and the window must overlap the grid."""
        if not (math.isfinite(f_lo) and math.isfinite(f_hi) and f_lo < f_hi):
            raise ValueError(f"window [{f_lo}, {f_hi}] Hz needs finite bounds, low < high")
        i_lo = max(0, int(math.ceil((f_lo - self.f_start) / self.f_step)))
        i_hi = min(self.values.size, int(math.floor((f_hi - self.f_start) / self.f_step)) + 1)
        if i_hi <= i_lo:
            raise ValueError(f"window [{f_lo}, {f_hi}] Hz is outside the grid")
        return slice(i_lo, i_hi)


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
    u = +-w - omega_eff and q = 1/(u^2 + h^2), h = gamma_eff/2, so that
    L = h Q and D = sum u q with Q = sum q. Returns L, D and the lobe terms
    (h, uq+, uq-, q+, q-, Q) that the Jacobian filler of PeakGrid.model
    uses: since u^2 q = 1 - h^2 q on each lobe, every derivative of L and D
    is a sum of Q, sum q^2 and sum (u q) q. Each lobe of L carries area 1/2
    over f = w/2pi for narrow peaks; D is odd about the peak up to the
    mirrored lobe. w is an array; the lobe terms are built in place.
    """
    half = gamma_eff / 2.0
    uq_p = w - omega_eff  # u+, made u+ q+ below
    uq_m = -omega_eff - w  # the bits of -w - omega_eff, in one pass
    q_p = uq_p * uq_p
    q_p += half**2
    np.divide(1.0, q_p, out=q_p)
    q_m = uq_m * uq_m
    q_m += half**2
    np.divide(1.0, q_m, out=q_m)
    uq_p *= q_p
    uq_m *= q_m
    q_sum = q_p + q_m
    return half * q_sum, uq_p + uq_m, (half, uq_p, uq_m, q_p, q_m, q_sum)


class PeakGrid:
    """The lineshape |C(w)|^2 (a2 L(w) + a3 D(w)) on one fixed grid (Hz).

    |C(w)|^2 depends only on the grid and the detection configuration, so it
    is computed once here rather than on every model evaluation. Parameter
    vectors are (a2, a3, omega_eff, gamma_eff), LineshapeCoeffs.as_array()[1:];
    the flat level is left to the caller. grid[keep] is the same grid on the
    bins a boolean mask keeps, without computing |C(w)|^2 again, and
    grid.merged(keep, starts, counts) the grid of blocks of those bins.
    """

    def __init__(self, f: np.ndarray, detection: DetectionConfig):
        self.detection = detection
        self.w = TWO_PI * np.asarray(f, dtype=float)
        self.c_sq = np.abs(detection_filter_c(self.w, detection)) ** 2

    def __getitem__(self, keep: np.ndarray) -> "PeakGrid":
        sub = copy.copy(self)
        sub.w, sub.c_sq = self.w[keep], self.c_sq[keep]
        return sub

    def merged(self, keep: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> "PeakGrid":
        """The grid of blocks of the bins a boolean mask keeps: block i is
        counts[i] consecutive kept bins from kept bin starts[i] on. Its w is
        the mean of its bins', the block's mean frequency, and its |C(w)|^2
        the mean of theirs."""
        sub = copy.copy(self)
        sub.w = np.add.reduceat(self.w[keep], starts) / counts
        sub.c_sq = np.add.reduceat(self.c_sq[keep], starts) / counts
        return sub

    def model(self, params: np.ndarray):
        """The lineshape values at params, and a function that writes
        d lineshape / d params[i] into row i of a (4, n_bins) array.

        With h = gamma_eff/2 and, over both lobes of _lineshapes,
        S = sum u q^2, T = sum q^2 and Q = sum q, the identity
        u^2 q = 1 - h^2 q gives

            dL/d omega_eff = 2 h S,
            dD/d omega_eff = Q - 2 h^2 T = 2 dL/d gamma_eff,
            dD/d gamma_eff = -h S,

        so the two nonlinear rows cost S and Q - 2 h^2 T alone."""
        a2, a3, omega_eff, gamma_eff = params
        c_sq = self.c_sq
        lor, disp, (half, uq_p, uq_m, q_p, q_m, q_sum) = _lineshapes(
            self.w, omega_eff, gamma_eff
        )
        values = lor * a2
        values += a3 * disp
        values *= c_sq

        def fill(jac_t):
            # rows 2 and 3 are built in place from c_s = |C|^2 S and
            # c_r = |C|^2 (Q - 2 h^2 T), with rows 0 and 1 as working space
            c_s, c_r, work, other = jac_t[2], jac_t[3], jac_t[0], jac_t[1]
            np.multiply(uq_p, q_p, out=c_s)
            np.multiply(uq_m, q_m, out=work)
            c_s += work
            c_s *= c_sq
            np.multiply(q_p, q_p, out=c_r)
            np.multiply(q_m, q_m, out=work)
            c_r += work
            c_r *= 2.0 * half**2
            np.subtract(q_sum, c_r, out=c_r)
            c_r *= c_sq
            # rows a2 (dL/dw) + a3 (dD/dw) and a2 (dL/dG) + a3 (dD/dG)
            np.multiply(c_r, a3, out=work)
            np.multiply(c_s, a3 * half, out=other)
            c_s *= 2.0 * a2 * half
            c_s += work
            c_r *= 0.5 * a2
            c_r -= other
            np.multiply(c_sq, lor, out=jac_t[0])
            np.multiply(c_sq, disp, out=jac_t[1])

        return values, fill


def peak_model(
    f: np.ndarray,
    coeffs: LineshapeCoeffs,
    detection: DetectionConfig,
) -> np.ndarray:
    """Evaluate the five-parameter peak model on a frequency grid (Hz): the
    flat level a0 plus PeakGrid's lineshape."""
    return coeffs.a0 + PeakGrid(f, detection).model(coeffs.as_array()[1:])[0]


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
        a2=a2,
        a3=a3,
        omega_eff=budget.omega_eff,
        gamma_eff=budget.gamma_eff,
    )
    return coeffs, budget


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
) -> Spectrum:
    """Noise-free model PSD of the detected quadrature on a uniform grid.

    The mechanical peak and an optional phenomenological background are
    summed. A grid coarser than 10 bins per effective width, or a width
    outside the weak-coupling regime, triggers a warning rather than an
    error.
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
    if background is not None:
        values = values + evaluate_background(background, f)
    return Spectrum(
        f_start=f_start,
        f_step=f_step,
        values=values,
        units=SpectrumUnits.HZ2_PER_HZ,
        n_averages=1,
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
    rng = np.random.default_rng(seed)
    dof = 2 * n_averages
    values = model.values * rng.chisquare(dof, size=model.values.size) / dof
    if tone is not None:
        idx = int(round((tone.frequency_hz - model.f_start) / model.f_step))
        if idx < 0 or idx >= values.size:
            raise ValueError("calibration tone falls outside the frequency grid")
        values[idx] += tone.power_hz2 / model.f_step
    return replace(model, values=values, n_averages=n_averages)


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
    rng = np.random.default_rng(seed)
    spectra: list[Spectrum] = []
    truth: list[dict] = []
    for gamma_opt in np.asarray(gamma_opt_grid, dtype=float):
        drive = DriveField(g0=g0, gamma_opt=float(gamma_opt))
        model = output_psd(
            f_start, f_step, n_bins, mode, cavity, drive, noise, detection,
            floor=floor, background=background,
        )
        spectra.append(synthesize_measured_spectrum(model, n_averages, rng, tone=tone))
        coeffs, budget = model_coefficients(mode, cavity, drive, noise)
        g_hz = g0 / TWO_PI
        truth.append(
            {
                "gamma_opt_hz": gamma_opt / TWO_PI,
                "gamma_eff_hz": budget.gamma_eff / TWO_PI,
                "omega_eff_hz": budget.omega_eff / TWO_PI,
                "n_eff": budget.n_eff,
                "a2_hz2": coeffs.a2,
                "a3_hz2": coeffs.a3,
                "a_eff_hz2": g_hz**2 * (2.0 * budget.n_eff + 1.0),
            }
        )
    return spectra, truth


def evaluate_background(model: BackgroundModel, f: np.ndarray) -> np.ndarray:
    """The background model, as the fits evaluate it, on positive f (Hz)."""
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("background model requires positive frequencies")
    return BackgroundModel.on_grid(f, 1.0)(astuple(model))[0]
