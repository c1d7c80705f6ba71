"""Weighted nonlinear least squares and the inverse-analysis pipeline:
background removal, peak lineshape fits, cooling-curve fit, and extraction
of the coupling rate, minimum occupancy, and laser noise PSDs.

Conventions: widths gamma_* are angular (rad/s); peak areas a_eff and the
lineshape weights a2, a3 are in Hz^2, matching spectra calibrated in
frequency-noise units (Hz^2/Hz integrated over Hz).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .physics import (
    CavitySpec,
    MechMode,
    amplitude_factor,
    sideband_angle,
    thermal_occupation,
)
from .spectra import (
    BackgroundModel,
    DetectionConfig,
    LineshapeCoeffs,
    PeakGrid,
    Spectrum,
    evaluate_background,
    median,
    peak_model,
    percentile,
)

__all__ = [
    "FitProblem",
    "FitResult",
    "FitConvergenceError",
    "DegenerateFitError",
    "PeakNotFoundError",
    "nlls_fit",
    "periodogram_variance",
    "spurious_bin_mask",
    "fit_background",
    "subtract_background",
    "peak_initial_guess",
    "PeakFitResult",
    "fit_peak",
    "CoolingCurveResult",
    "fit_cooling_curve",
    "NoiseDiscrimination",
    "discriminate_noise",
    "NoiseExtraction",
    "extract_noise_psd",
    "CampaignResult",
    "summarize_peaks",
    "analyze_peak",
    "analyze_campaign",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Generic weighted Levenberg-Marquardt
# ---------------------------------------------------------------------------


class DegenerateFitError(RuntimeError):
    """The normal matrix is singular: degenerate parameterization."""


class FitConvergenceError(RuntimeError):
    """No convergence within the iteration budget; .best holds the last state."""

    def __init__(self, message: str, best: "FitResult | None" = None):
        super().__init__(message)
        self.best = best


class PeakNotFoundError(ValueError):
    """No resolvable peak in the requested window."""


@dataclass
class FitProblem:
    """A weighted least-squares problem on a fixed grid; weights are
    per-point inverse variances, and a bound of None leaves that side of the
    parameter free.

    model(params) returns (values, fill_jacobian): the predicted data, and a
    function that writes d model / d params[i] into row i of an
    (n_params, n_data) array. model must be a pure function of params, and
    the filler must bind every value it needs when model is called, so that
    it gives the same result whenever it is called."""

    model: Callable[[np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], None]]]
    data: np.ndarray
    weights: np.ndarray
    initial_params: np.ndarray
    bounds: Sequence[tuple[float | None, float | None]] | None = None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.initial_params = np.asarray(self.initial_params, dtype=float)
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if self.data.shape != self.weights.shape:
            raise ValueError("data and weights must have the same shape")
        if not np.all(np.isfinite(self.initial_params)):
            raise ValueError("initial parameters must be finite")
        if self.data.size < 2 * self.initial_params.size:
            raise ValueError(
                "need at least 2x more data points than free parameters"
            )


@dataclass
class FitResult:
    params: np.ndarray
    covariance: np.ndarray
    reduced_chi2: float
    chi2: float
    n_iterations: int
    converged: bool

    def sigma(self, i: int) -> float:
        return math.sqrt(max(self.covariance[i, i], 0.0))


MAX_ITERATIONS = 200
REL_TOL = 1e-10


def nlls_fit(problem: FitProblem) -> FitResult:
    """Damped Gauss-Newton (Levenberg-Marquardt schedule) minimizer.

    Convergence is declared when an accepted step changes chi^2 by less than
    REL_TOL relative; MAX_ITERATIONS steps without it raise
    FitConvergenceError. The covariance is the inverse Gauss-Newton normal
    matrix scaled by the reduced chi^2.
    """
    bounds = problem.bounds or [(None, None)] * problem.initial_params.size
    lo = np.array([-np.inf if b is None else b for b, _ in bounds], dtype=float)
    hi = np.array([np.inf if b is None else b for _, b in bounds], dtype=float)
    params = np.clip(problem.initial_params, lo, hi)
    w = problem.weights

    def evaluated(params):
        # The model values are dropped here, and each filler right after its
        # linearization or rejection: arrays kept alive across the next model
        # call leave holes at the heap top that glibc trims and re-faults.
        values, fill = problem.model(params)
        resid = problem.data - values
        return resid, float(w @ resid**2), fill

    resid, chi2, fill = evaluated(params)
    lam = 1e-3
    n_iter = 0
    converged = False

    # One buffer per fit for the Jacobian transpose and one for its weighted
    # copy: fresh ones per step land on the heap top, and glibc trims and
    # re-faults those pages step after step.
    jac_t = np.empty((params.size, w.size))
    jtw = np.empty_like(jac_t)

    def linearized(fill):
        # Fill jac_t and jtw and return the normal matrix. The loop ends at
        # the point of the last one built, so it also gives the covariance.
        fill(jac_t)
        np.multiply(jac_t, w, out=jtw)
        return jtw @ jac_t.T

    normal = linearized(fill)
    fill = None
    for n_iter in range(1, MAX_ITERATIONS + 1):
        grad = jtw @ resid
        diag = normal.diagonal().copy()
        # Parameters pinned to a bound with the descent direction pointing
        # outside stay frozen this iteration; solving for them anyway makes
        # the projected step zigzag and the fit crawl. Parameters with no
        # local effect on the model (zero Jacobian column) are frozen too.
        free = diag > 0
        if not free.any():
            raise DegenerateFitError(
                "degenerate parameterization: no parameter affects the model"
            )
        free &= ~(((params <= lo) & (grad < 0)) | ((params >= hi) & (grad > 0)))
        if not free.any():
            converged = True
            break
        # With every parameter free, no sub-matrix copy and no scatter.
        all_free = free.all()
        system = normal
        if not all_free:
            system, grad, diag = normal[np.ix_(free, free)], grad[free], diag[free]
        accepted = False
        for _ in range(25):
            damped = system.copy()
            damped.flat[:: diag.size + 1] += lam * diag
            try:
                solved = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError as exc:
                raise DegenerateFitError("singular normal matrix") from exc
            if all_free:
                step = solved
            else:
                step = np.zeros_like(params)
                step[free] = solved
            trial = (params + step).clip(lo, hi)
            resid_t, chi2_t, fill = evaluated(trial)
            if math.isfinite(chi2_t) and chi2_t <= chi2 * (1.0 + 1e-12) + 1e-300:
                accepted = True
                break
            fill = None
            lam *= 10.0
        if not accepted:
            # No damped step improves chi^2: we are at a local minimum to
            # within floating-point precision.
            converged = True
            break
        delta = chi2 - chi2_t
        params, resid, chi2 = trial, resid_t, chi2_t
        lam = max(lam / 3.0, 1e-14)
        normal = linearized(fill)
        fill = None
        if delta <= REL_TOL * max(chi2, 1e-30):
            converged = True
            break

    dof = max(problem.data.size - params.size, 1)
    reduced = chi2 / dof
    # Parameters with no effect at the solution get infinite variance rather
    # than poisoning the inversion for the rest.
    live = normal.diagonal() > 0
    cov = np.zeros_like(normal)
    np.fill_diagonal(cov, np.inf)
    try:
        if live.all():
            cov = np.linalg.inv(normal) * reduced
        elif live.any():
            cov[np.ix_(live, live)] = (
                np.linalg.inv(normal[np.ix_(live, live)]) * reduced
            )
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("singular normal matrix at the solution") from exc
    result = FitResult(
        params=params,
        covariance=cov,
        reduced_chi2=reduced,
        chi2=chi2,
        n_iterations=n_iter,
        converged=converged,
    )
    if not converged:
        raise FitConvergenceError(
            f"no convergence after {n_iter} iterations (chi2 = {chi2:.6g})", result
        )
    return result


# ---------------------------------------------------------------------------
# Spectrum statistics helpers
# ---------------------------------------------------------------------------

SMOOTH_BINS = 10  # moving-average width of the local level, in bins
SPURIOUS_SIGMA = 5.0  # outlier threshold of spurious_bin_mask


def _moving_average(values: np.ndarray) -> np.ndarray:
    """Centered SMOOTH_BINS-bin moving average with edge truncation."""
    values = np.asarray(values, dtype=float)
    kernel = np.ones(SMOOTH_BINS)
    norm = np.convolve(np.ones_like(values), kernel, mode="same")
    return np.convolve(values, kernel, mode="same") / norm


_LEVEL_MEMO: list = []  # ((n_averages, bytes of values), (smooth, var)), newest last


def _level_and_variance(values: np.ndarray, n_averages: int):
    """The smoothed level and periodogram_variance, from one smoothing pass.

    analyze_peak asks for the same spectrum's pair four times (pass 1's
    fit_background and the three fit_peak calls), with another spectrum's
    in between, so the two most recent results are kept, keyed by the bytes
    of the values. The function is pure, so a hit cannot change a result;
    the kept arrays are read-only, so no caller can change them either."""
    values = np.asarray(values, dtype=float)
    key = (n_averages, values.tobytes())
    hit = next((result for k, result in _LEVEL_MEMO if k == key), None)
    if hit is None:
        smooth = _moving_average(values)
        positive = smooth[smooth > 0]
        if positive.size == 0:
            raise ValueError("spectrum has no positive level to estimate variance from")
        floor = 0.05 * median(positive)
        hit = smooth, np.clip(smooth, floor, None) ** 2 / n_averages
        for array in hit:
            array.flags.writeable = False
    _LEVEL_MEMO[:] = [e for e in _LEVEL_MEMO if e[0] != key][-1:] + [(key, hit)]
    return hit


def periodogram_variance(values: np.ndarray, n_averages: int) -> np.ndarray:
    """Per-bin variance estimate S_smooth^2 / M for an M-average periodogram.

    The smoothed level is floored at a small positive fraction of its median
    so background-subtracted spectra cannot produce zero or negative
    variances.
    """
    return _level_and_variance(values, n_averages)[1].copy()


def spurious_bin_mask(values: np.ndarray, n_averages: int) -> np.ndarray:
    """Boolean mask of bins to keep; flags >SPURIOUS_SIGMA positive outliers
    against the local smoothed level (spurious instrumental peaks)."""
    smooth, var = _level_and_variance(values, n_averages)
    return values - smooth <= SPURIOUS_SIGMA * np.sqrt(var)


# ---------------------------------------------------------------------------
# Background
# ---------------------------------------------------------------------------


def _retained_mask(f: np.ndarray, exclusion_windows) -> np.ndarray:
    keep = np.ones(f.size, dtype=bool)
    for lo, hi in exclusion_windows:
        keep &= ~((f >= lo) & (f <= hi))
    return keep


def fit_background(
    spectrum: Spectrum,
    exclusion_windows: Sequence[tuple[float, float]] = (),
) -> BackgroundModel:
    """Fit the phenomenological background on bins outside the mechanical
    peaks: power-law tail first, then the beat note on the residual, then a
    joint refinement. A beat note that does not stand 3 sigma above the
    tail residual is skipped, leaving beat_amplitude = 0."""
    f = spectrum.frequencies
    keep = _retained_mask(f, exclusion_windows)
    if keep.sum() < 50:
        raise ValueError("too few retained bins for a background fit")
    f_k = f[keep]
    y_k = spectrum.values[keep]
    var = _level_and_variance(spectrum.values, spectrum.n_averages)[1][keep]
    weights = 1.0 / var

    # stage 1: tail only. The power law is pivoted at the band's geometric
    # mean so amplitude and exponent decorrelate; a raw amp * f^-e
    # parameterization puts the minimum in a curved valley the minimizer
    # crawls along.
    f_pivot = math.sqrt(f_k[0] * f_k[-1])
    offset0 = percentile(y_k, 10)
    i_pivot = int(np.searchsorted(f_k, f_pivot))
    amp0 = max(
        median(y_k[max(i_pivot - 20, 0) : i_pivot + 20]) - offset0,
        1e-12 * max(abs(offset0), 1e-30),
    )

    x_k = f_k / f_pivot
    log_x = np.log(x_k)

    def tail_model(p):
        amp, power = p[1], x_k ** (-p[2])

        def fill(jac_t):
            jac_t[0] = 1.0
            jac_t[1] = power
            jac_t[2] = -amp * power * log_x

        return p[0] + amp * power, fill

    tail_fit = nlls_fit(
        FitProblem(
            model=tail_model,
            data=y_k,
            weights=weights,
            initial_params=np.array([offset0, amp0, 2.0]),
            bounds=[(0.0, None), (0.0, None), (0.1, 6.0)],
        )
    )
    def tail_only(p) -> BackgroundModel:
        return BackgroundModel(
            tail_offset=p[0],
            tail_amplitude=p[1] * f_pivot ** p[2],
            tail_exponent=p[2],
            beat_amplitude=0.0,
            beat_center=f_k[0],
            beat_width=spectrum.f_step,
        )

    # stage 2: beat note from the residual
    resid = y_k - tail_model(tail_fit.params)[0]
    smooth_resid = _moving_average(resid)
    i_beat = int(np.argmax(smooth_resid))
    beat_amp0 = max(float(smooth_resid[i_beat]), 1e-12)
    half = beat_amp0 / 2.0
    above = smooth_resid >= half
    width0 = max(float(above.sum()) * spectrum.f_step, 2.0 * spectrum.f_step)

    # skip the beat stage when the residual bump is consistent with noise
    local_sigma = math.sqrt(median(var))
    if beat_amp0 < 3.0 * local_sigma:
        return tail_only(tail_fit.params)

    # beat = amp h^2 / (d^2 + h^2) with d = f - center, h = width / 2
    def full_model(p):
        tail, fill_tail = tail_model(p)
        amp, d, h = p[5], f_k - p[3], p[4] / 2.0
        den = d**2 + h**2

        def fill(jac_t):
            fill_tail(jac_t)
            lobe = h**2 / den
            jac_t[3] = amp * 2.0 * d * lobe / den
            jac_t[4] = amp * h * d**2 / den**2
            jac_t[5] = lobe

        return tail + amp * h**2 / den, fill

    span = f_k[-1] - f_k[0]
    try:
        full_fit = nlls_fit(
            FitProblem(
                model=full_model,
                data=y_k,
                weights=weights,
                initial_params=np.array(
                    [
                        tail_fit.params[0],
                        tail_fit.params[1],
                        tail_fit.params[2],
                        f_k[i_beat],
                        width0,
                        beat_amp0,
                    ]
                ),
                bounds=[
                    (0.0, None),
                    (0.0, None),
                    (0.1, 6.0),
                    (f_k[0], f_k[-1]),
                    (2.0 * spectrum.f_step, span),
                    (0.0, None),
                ],
            )
        )
    except (DegenerateFitError, FitConvergenceError):
        # an evaporating beat note makes its shape parameters unidentifiable
        return tail_only(tail_fit.params)
    p = full_fit.params
    return BackgroundModel(
        tail_offset=p[0],
        tail_amplitude=p[1] * f_pivot ** p[2],
        tail_exponent=p[2],
        beat_center=p[3],
        beat_width=p[4],
        beat_amplitude=p[5],
    )


def subtract_background(spectrum: Spectrum, background: BackgroundModel) -> Spectrum:
    """Bin-wise background subtraction. Negative bins are allowed (they are
    noise) and counted in the metadata."""
    values = spectrum.values - evaluate_background(background, spectrum.frequencies)
    return spectrum.replace_values(
        values,
        background_subtracted=True,
        negative_bins=int(np.sum(values < 0)),
    )


# ---------------------------------------------------------------------------
# Peak fits
# ---------------------------------------------------------------------------


def peak_initial_guess(
    spectrum: Spectrum,
    window: tuple[float, float],
    detection: DetectionConfig,
) -> LineshapeCoeffs:
    """Starting point for a peak fit: argmax frequency, half-maximum span,
    and a height-based Lorentzian weight. Raises PeakNotFoundError when the
    window maximum does not stand out from the median."""
    sl = spectrum.window_slice(*window)
    vals = spectrum.values[sl]
    f = spectrum.frequencies[sl]
    level = median(vals)
    i_pk = int(np.argmax(vals))  # leftmost on exact ties
    peak = float(vals[i_pk])
    if peak < 3.0 * level or peak <= 0:
        raise PeakNotFoundError("no peak in window")
    edge = np.concatenate([vals[: max(vals.size // 20, 3)], vals[-max(vals.size // 20, 3):]])
    a0 = median(edge)
    half = a0 + (peak - a0) / 2.0
    i_lo = i_pk
    while i_lo > 0 and vals[i_lo] > half:
        i_lo -= 1
    i_hi = i_pk
    while i_hi < vals.size - 1 and vals[i_hi] > half:
        i_hi += 1
    gamma_hz = max((i_hi - i_lo) * spectrum.f_step, 2.0 * spectrum.f_step)
    omega_eff = TWO_PI * float(f[i_pk])
    gamma_eff = TWO_PI * gamma_hz
    c_sq = float(PeakGrid(f, detection).c_sq[i_pk])
    a2 = (peak - a0) * (gamma_eff / 2.0) / c_sq
    return LineshapeCoeffs(
        a0=a0, a1=0.0, a2=a2, a3=0.0, omega_eff=omega_eff, gamma_eff=gamma_eff
    )


@dataclass
class PeakFitResult:
    """Joint Lorentzian+dispersive peak fit and the effective area
    a_eff = a2 + a3/tan(theta). lorentzian_preferred flags a dispersive
    weight a3 within one sigma of zero."""

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
        return math.sqrt(max(self.covariance[3, 3], 0.0))


def _effective_area(
    a2: float, a3: float, theta: float, covariance: np.ndarray
) -> tuple[float, float]:
    """a_eff = a2 + a3/tan(theta) with linearly propagated uncertainty.

    covariance is the 2x2 block over (a2, a3).
    """
    tan_t = math.tan(theta)
    if tan_t == 0.0:
        if a3 != 0.0:
            raise ValueError("a_eff undefined: tan(theta) = 0 with a3 != 0")
        return a2, math.sqrt(max(covariance[0, 0], 0.0))
    grad = np.array([1.0, 1.0 / tan_t])
    value = a2 + a3 / tan_t
    var = float(grad @ np.asarray(covariance) @ grad)
    return value, math.sqrt(max(var, 0.0))


def fit_peak(
    spectrum: Spectrum,
    window: tuple[float, float],
    detection: DetectionConfig,
    theta: float,
    init: LineshapeCoeffs | None = None,
    variance_reference: np.ndarray | None = None,
    exclusion_windows: Sequence[tuple[float, float]] = (),
) -> PeakFitResult:
    """Fit the six-parameter lineshape model in a window.

    The detection filter |C|^2 is computed from the supplied configuration,
    never fitted. Bin variances default to the windowed data itself; for
    background-subtracted spectra pass the pre-subtraction PSD (full grid)
    as variance_reference. a_eff = a2 + a3/tan(theta) and its uncertainty
    come from the joint fit.

    The symmetric (Lorentzian-only) lineshape is flagged as preferred when
    the fitted a3 is within one sigma of zero.
    """
    sl = spectrum.window_slice(*window)
    f = spectrum.frequencies[sl]
    data = spectrum.values[sl]
    if init is None:
        init = peak_initial_guess(spectrum, window, detection)
    if window[1] - window[0] < 10.0 * init.gamma_eff / TWO_PI:
        warnings.warn("fit window narrower than 10 effective widths", stacklevel=2)

    ref = spectrum.values if variance_reference is None else np.asarray(variance_reference)
    var = _level_and_variance(ref, spectrum.n_averages)[1][sl]
    keep = spurious_bin_mask(ref, spectrum.n_averages)[sl]
    # never drop the resonance itself: bins within 2 widths of the guess stay
    near_peak = np.abs(TWO_PI * f - init.omega_eff) < 2.0 * init.gamma_eff
    keep |= near_peak
    # caller-declared contaminated regions (e.g. the calibration tone) go
    keep &= _retained_mask(f, exclusion_windows)
    n_excluded = int((~keep).sum())
    f_fit = f[keep]
    data_fit = data[keep]
    weights = 1.0 / var[keep]

    omega_ref = init.omega_eff
    w_lo, w_hi = TWO_PI * window[0], TWO_PI * window[1]
    grid = PeakGrid(f_fit, detection)

    joint = nlls_fit(
        FitProblem(
            model=lambda p: grid.model(p, omega_ref),
            data=data_fit,
            weights=weights,
            initial_params=init.as_array(),
            bounds=[
                (None, None),
                (None, None),
                (None, None),
                (None, None),
                (w_lo, w_hi),
                (TWO_PI * spectrum.f_step, w_hi - w_lo),
            ],
        )
    )

    coeffs = LineshapeCoeffs.from_array(joint.params)
    a_eff, a_eff_sigma = _effective_area(
        coeffs.a2, coeffs.a3, theta, joint.covariance[2:4, 2:4]
    )

    return PeakFitResult(
        coeffs=coeffs,
        covariance=joint.covariance,
        reduced_chi2=joint.reduced_chi2,
        a_eff=a_eff,
        a_eff_sigma=a_eff_sigma,
        lorentzian_preferred=abs(coeffs.a3) < joint.sigma(3),
        theta=theta,
        window=window,
        n_points=int(data_fit.size),
        n_excluded=n_excluded,
    )


# ---------------------------------------------------------------------------
# Cooling curve and physics extraction
# ---------------------------------------------------------------------------


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
        return self.g0 / TWO_PI

    @property
    def gamma_min_hz(self) -> float:
        return self.gamma_min / TWO_PI


def fit_cooling_curve(
    points: Sequence[tuple[float, float, float]],
    mode: MechMode,
) -> CoolingCurveResult:
    """Weighted fit of peak area vs effective width, linear in (b1, b2).

    points are (gamma_eff rad/s, a_eff Hz^2, sigma_a_eff). The derived
    quantities use b1 = 2 g^2 Gamma_m n_th (g in Hz), gamma_min =
    sqrt(b1/b2), and n_min = 2 Gamma_m n_th sqrt(b2/b1).
    """
    pts = [(float(g), float(a), float(s)) for g, a, s in points]
    if len(pts) < 2:
        raise ValueError("cooling-curve fit needs at least 2 points")
    gammas = np.array([p[0] for p in pts])
    areas = np.array([p[1] for p in pts])
    sigmas = np.array([p[2] for p in pts])
    # written so that NaN fails; an infinite sigma is a zero-weight point
    if not np.all(gammas > 0):
        raise ValueError("all gamma_eff must be positive")
    if not np.all(np.isfinite(areas)):
        raise ValueError("all a_eff must be finite")
    if not np.all(sigmas > 0):
        raise ValueError("all a_eff sigmas must be positive")

    annotations = []
    n_soft = int(np.sum(gammas < 10.0 * mode.gamma_m))
    if n_soft:
        annotations.append(
            f"{n_soft} point(s) with gamma_eff < 10 gamma_m: the "
            "gamma_opt ~ gamma_eff approximation is marginal there"
        )

    design = np.column_stack([1.0 / gammas, gammas])
    w = 1.0 / sigmas**2
    normal = design.T @ (design * w[:, None])
    rhs = design.T @ (w * areas)
    try:
        b = np.linalg.solve(normal, rhs)
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("degenerate cooling-curve design") from exc
    resid = areas - design @ b
    dof = len(pts) - 2
    chi2 = float(w @ resid**2)
    reduced = chi2 / dof if dof > 0 else 0.0
    if dof > 0:
        cov = cov * reduced

    b1, b2 = float(b[0]), float(b[1])
    if b1 <= 0 or b2 <= 0:
        raise ValueError(
            f"dataset inconsistent with model: fitted b1 = {b1:.4g}, b2 = {b2:.4g}"
        )

    n_th = thermal_occupation(mode)
    scale = 2.0 * mode.gamma_m * n_th
    g0 = TWO_PI * math.sqrt(b1 / scale)
    n_min = scale * math.sqrt(b2 / b1)
    gamma_min = math.sqrt(b1 / b2)

    # linear propagation from (b1, b2)
    def quad(gr):
        g = np.asarray(gr)
        return math.sqrt(max(float(g @ cov @ g), 0.0))

    g0_sigma = quad([g0 / (2.0 * b1), 0.0])
    n_min_sigma = quad([-n_min / (2.0 * b1), n_min / (2.0 * b2)])
    gamma_min_sigma = quad([gamma_min / (2.0 * b1), -gamma_min / (2.0 * b2)])

    return CoolingCurveResult(
        b1=b1,
        b2=b2,
        covariance=cov,
        reduced_chi2=reduced,
        g0=g0,
        g0_sigma=g0_sigma,
        n_min=n_min,
        n_min_sigma=n_min_sigma,
        gamma_min=gamma_min,
        gamma_min_sigma=gamma_min_sigma,
        n_points=len(pts),
        annotations=annotations,
    )


@dataclass
class NoiseDiscrimination:
    """Outcome of the phase-vs-amplitude noise attribution."""

    classification: str  # phase-dominated | amplitude-dominated | mixed | indeterminate
    ratio: float | None  # b2 gamma_eff / a3
    ratio_sigma: float | None
    expected_phase_ratio: float | None  # 1 / sin(2 theta)
    amplitude_fraction: float


def discriminate_noise(
    b2: float,
    b2_sigma: float,
    a3_slope: float,
    a3_slope_sigma: float,
    theta: float,
) -> NoiseDiscrimination:
    """Attribute the excess heating to phase or amplitude noise.

    a3_slope is the fitted slope of the dispersive weight a3 versus
    gamma_eff. Pure phase noise predicts b2 gamma_eff / a3 = 1/sin(2 theta);
    a b2 in excess of the phase-implied value is attributed to amplitude
    noise. Near sin(2 theta) = 0 the dispersive weight carries no
    information and the outcome is indeterminate.
    """
    sin2t = math.sin(2.0 * theta)
    if abs(sin2t) < 0.05:
        return NoiseDiscrimination("indeterminate", None, None, None, float("nan"))
    expected = 1.0 / sin2t

    if abs(a3_slope) < 2.0 * a3_slope_sigma:
        # no resolvable dispersive component
        if b2 > 2.0 * b2_sigma:
            return NoiseDiscrimination("amplitude-dominated", None, None, expected, 1.0)
        return NoiseDiscrimination("indeterminate", None, None, expected, float("nan"))

    ratio = b2 / a3_slope
    ratio_sigma = abs(ratio) * math.sqrt(
        (b2_sigma / b2) ** 2 + (a3_slope_sigma / a3_slope) ** 2
    )
    phase_b2 = a3_slope * expected
    excess = b2 - phase_b2
    excess_sigma = math.sqrt(b2_sigma**2 + (a3_slope_sigma * expected) ** 2)
    # 3 sigma: b2 and the a3 slope come from correlated fits, so the
    # propagated excess_sigma is optimistic and a 2 sigma cut misfires
    if excess <= 3.0 * excess_sigma:
        return NoiseDiscrimination("phase-dominated", ratio, ratio_sigma, expected, 0.0)
    fraction = excess / b2
    label = "amplitude-dominated" if fraction > 0.5 else "mixed"
    return NoiseDiscrimination(label, ratio, ratio_sigma, expected, fraction)


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


def extract_noise_psd(
    result: CoolingCurveResult,
    mode: MechMode,
    cavity: CavitySpec,
    dominance: str,
) -> NoiseExtraction:
    """Invert the minimum-occupancy relation for the laser-noise PSDs.

    b2 fixes the combined coupling S_phiphi/cos^2(theta) + A^2 S_epseps
    independently of g0; the dominant source takes the full value, the
    other is reported as an upper limit. For mixed or indeterminate
    dominance both single-source solutions are returned as bounds.
    """
    theta = sideband_angle(cavity, mode.omega_m)
    a_fac = amplitude_factor(cavity, mode.omega_m)
    coupling = 8.0 * math.pi**2 * result.b2 / mode.omega_m**2
    b2_sigma = math.sqrt(max(result.covariance[1, 1], 0.0))
    rel = b2_sigma / result.b2

    s_phi = coupling * math.cos(theta) ** 2
    s_eps = coupling / a_fac**2
    nu_factor = (mode.omega_m / TWO_PI) ** 2

    if dominance == "phase-dominated":
        dominant = "phase"
        phase_limit, amp_limit = False, True
    elif dominance == "amplitude-dominated":
        dominant = "amplitude"
        phase_limit, amp_limit = True, False
    else:
        dominant = None
        phase_limit = amp_limit = True

    return NoiseExtraction(
        s_phi_phi=s_phi,
        s_phi_phi_sigma=s_phi * rel,
        s_phi_phi_is_limit=phase_limit,
        s_eps_eps=s_eps,
        s_eps_eps_sigma=s_eps * rel,
        s_eps_eps_is_limit=amp_limit,
        s_nu_nu=nu_factor * s_phi,
        s_nu_nu_sigma=nu_factor * s_phi * rel,
        dominant=dominant,
    )


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    peaks: list
    cooling: CoolingCurveResult
    discrimination: NoiseDiscrimination
    noise: NoiseExtraction
    a3_slope: float
    a3_slope_sigma: float


def _a3_slope(peaks: Sequence[PeakFitResult]) -> tuple[float, float]:
    """Weighted through-origin fit of the dispersive weight vs gamma_eff."""
    g = np.array([p.coeffs.gamma_eff for p in peaks])
    a3 = np.array([p.a3 for p in peaks])
    sig = np.array([max(p.a3_sigma, 1e-300) for p in peaks])
    # an infinite sigma is a zero-weight point; NaN in either is bad input
    if not np.all(np.isfinite(a3)) or np.any(np.isnan(sig)):
        raise ValueError("a3 slope undefined: a peak has a non-finite a3 or a NaN sigma")
    w = 1.0 / sig**2
    denom = float(np.sum(w * g**2))
    if denom == 0.0:
        raise DegenerateFitError(
            "a3 slope undetermined: no peak has a finite a3 uncertainty"
        )
    slope = float(np.sum(w * g * a3)) / denom
    return slope, math.sqrt(1.0 / denom)


def summarize_peaks(
    peaks: Sequence[PeakFitResult],
    mode: MechMode,
    cavity: CavitySpec,
) -> CampaignResult:
    """Turn a set of peak fits into the campaign's physics.

    Fits the cooling curve to (gamma_eff, a_eff) and the dispersive weight a3
    to gamma_eff, attributes the excess heating to phase or amplitude noise,
    and inverts the cooling-curve minimum for the laser-noise PSDs.
    """
    points = [(p.coeffs.gamma_eff, p.a_eff, p.a_eff_sigma) for p in peaks]
    cooling = fit_cooling_curve(points, mode)
    slope, slope_sigma = _a3_slope(peaks)
    theta = sideband_angle(cavity, mode.omega_m)
    b2_sigma = math.sqrt(max(cooling.covariance[1, 1], 0.0))
    disc = discriminate_noise(cooling.b2, b2_sigma, slope, slope_sigma, theta)
    noise = extract_noise_psd(cooling, mode, cavity, disc.classification)
    return CampaignResult(
        peaks=list(peaks),
        cooling=cooling,
        discrimination=disc,
        noise=noise,
        a3_slope=slope,
        a3_slope_sigma=slope_sigma,
    )


def analyze_peak(
    spectrum: Spectrum,
    mode: MechMode,
    cavity: CavitySpec,
    detection: DetectionConfig,
    search_window: tuple[float, float],
    exclusion_windows: Sequence[tuple[float, float]] = (),
) -> tuple[PeakFitResult, BackgroundModel]:
    """Background-subtract and fit one spectrum's mechanical peak.

    The peak window is centered on the peak with a half-width of 15
    effective widths (floored at 60 bins half-width). The background is
    fitted three times: first excluding the search window, then twice --
    once the peak shape is known -- on the full band with that shape
    subtracted, so broad peaks do not leak into the fitted tail.
    """
    theta = sideband_angle(cavity, mode.omega_m)
    f = spectrum.frequencies

    def one_pass(bg_spectrum, bg_exclusions, init=None, window_cap=None):
        background = fit_background(bg_spectrum, bg_exclusions)
        clean = subtract_background(spectrum, background)
        if init is None:
            init = peak_initial_guess(clean, search_window, detection)
        f_pk = init.omega_eff / TWO_PI
        half = max(15.0 * init.gamma_eff / TWO_PI, 60.0 * spectrum.f_step)
        window = (max(f_pk - half, f[0]), min(f_pk + half, f[-1]))
        if window_cap is not None:
            window = (max(window[0], window_cap[0]), min(window[1], window_cap[1]))
        with warnings.catch_warnings():
            if window_cap is not None:
                # the cap is a deliberately narrow bootstrap window
                warnings.filterwarnings("ignore", message="fit window narrower")
            result = fit_peak(
                clean,
                window,
                detection,
                theta,
                init=init,
                variance_reference=spectrum.values,
                exclusion_windows=exclusion_windows,
            )
        return result, background

    # Pass 1 stays inside the caller's search window: the background model is
    # still blind to the peak's reach, so a wide window is not trustworthy.
    result, background = one_pass(
        spectrum, [*exclusion_windows, search_window], window_cap=search_window
    )

    # The dispersive wings of a broad, squashed peak extend far past the
    # search window and corrupt a background fit that merely excludes the
    # window. Iterate instead: subtract the current peak shape everywhere,
    # refit the background on the full band, then refit the peak on the
    # cleaned spectrum over its full reach.
    for _ in range(2):
        c = result.coeffs
        shape = peak_model(f, replace(c, a0=0.0, a1=0.0), detection)
        try:
            refined, refined_bg = one_pass(
                spectrum.replace_values(spectrum.values - shape),
                exclusion_windows,
                init=c,
            )
        except (PeakNotFoundError, FitConvergenceError, DegenerateFitError):
            break  # keep the last good result
        # a runaway refit (latching onto background residue) is rejected
        if not (1.0 / 3.0 < refined.coeffs.gamma_eff / c.gamma_eff < 3.0):
            break
        result, background = refined, refined_bg
    return result, background


def analyze_campaign(
    spectra: Sequence[Spectrum],
    mode: MechMode,
    cavity: CavitySpec,
    detection: DetectionConfig,
    search_window: tuple[float, float],
    exclusion_windows: Sequence[tuple[float, float]] = (),
) -> CampaignResult:
    """Run the full inverse pipeline over a set of cooling-power spectra.

    A spectrum whose peak cannot be fitted is skipped with a warning; the
    campaign proceeds as long as at least three points survive.
    """
    peaks = []
    for i, spec in enumerate(spectra):
        try:
            result, _ = analyze_peak(
                spec, mode, cavity, detection, search_window, exclusion_windows
            )
        except (PeakNotFoundError, FitConvergenceError, DegenerateFitError) as exc:
            warnings.warn(f"spectrum {i}: peak fit failed ({exc}); skipped", stacklevel=2)
            continue
        peaks.append(result)
    if len(peaks) < 3:
        raise FitConvergenceError(
            f"only {len(peaks)} of {len(spectra)} spectra produced usable peak "
            "fits; cannot constrain the cooling curve"
        )
    return summarize_peaks(peaks, mode, cavity)
