"""Weighted nonlinear least squares and the inverse-analysis pipeline:
background fits, peak lineshape fits, cooling-curve fit, and extraction
of the coupling rate, minimum occupancy, and laser noise PSDs.

Conventions: widths gamma_* are angular (rad/s); peak areas a_eff and the
lineshape weights a2, a3 are in Hz^2, matching spectra calibrated in
frequency-noise units (Hz^2/Hz integrated over Hz).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .dataio import convert_phase_noise
from .physics import (
    CavitySpec,
    MechMode,
    amplitude_factor,
    sideband_angle,
    thermal_occupation,
)
from .report import (
    CoolingCurveResult,
    FitReport,
    NoiseDiscrimination,
    NoiseExtraction,
    PeakFitResult,
    effective_temperature,
)
from .spectra import (
    BackgroundModel,
    DetectionConfig,
    LineshapeCoeffs,
    PeakGrid,
    Spectrum,
    SpectrumUnits,
    median,
    peak_model,
)

__all__ = [
    "FitProblem",
    "FitResult",
    "FitConvergenceError",
    "DegenerateFitError",
    "PeakNotFoundError",
    "nlls_fit",
    "fit_background",
    "fit_peak",
    "fit_cooling_curve",
    "discriminate_noise",
    "extract_noise_psd",
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
    it gives the same result whenever it is called. nlls_fit overwrites the
    values array with the residual, so model must return a fresh,
    writable float array on each call, one that neither the filler nor a
    later call reads."""

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
    """n_iterations counts accepted steps: model evaluations of rejected
    trials do not count, and a fit that stops at its start has 0."""

    params: np.ndarray
    covariance: np.ndarray
    reduced_chi2: float
    chi2: float
    n_iterations: int


MAX_ITERATIONS = 200
REL_TOL = 1e-10
LAMBDA_START = 1e-5  # initial Marquardt damping, relative to diag(N)


def _bounded_step(normal, grad, lam, free, params, lo, hi):
    """The damped Gauss-Newton step of the free parameters, the trial point
    it reaches, and whether a parameter was moved onto a bound.

    A free parameter that the step would carry past a bound is pinned at
    that bound, and the damped system is solved again for the others with
    the pinned moves on its right-hand side (a projected active-set step),
    until no solved parameter crosses a bound. A parameter held out of a
    solve, frozen or pinned, keeps its row and column of the damped system
    as those of the identity and a zero right-hand side, so each solve is
    of the whole system and a step that crosses no bound takes one."""
    damped = normal + np.diag(lam * normal.diagonal())
    solve, held = free, ~free
    step = np.zeros(params.size)
    pinned = False
    while True:
        system, rhs = damped, grad
        if held.any():
            system = damped.copy()
            system[held] = 0.0
            system[:, held] = 0.0
            system[held, held] = 1.0
            rhs = grad - normal @ np.where(solve, 0.0, step)
            rhs[held] = 0.0
        try:
            step = np.where(solve, np.linalg.solve(system, rhs), step)
        except np.linalg.LinAlgError as exc:
            raise DegenerateFitError("singular normal matrix") from exc
        trial = params + step
        crossed = solve & ((trial < lo) | (trial > hi))
        if not crossed.any():
            break
        trial[crossed] = np.clip(trial[crossed], lo[crossed], hi[crossed])
        step[crossed] = trial[crossed] - params[crossed]
        pinned = pinned or bool(step[crossed].any())
        solve, held = solve & ~crossed, held | crossed
        if not solve.any():
            break
    return step, trial, pinned


def nlls_fit(problem: FitProblem) -> FitResult:
    """Damped Gauss-Newton (Levenberg-Marquardt schedule) minimizer.

    Bounds are kept by active-set steps. A parameter on a bound whose
    descent direction points outside is frozen for the iteration. A damped
    step that would carry free parameters past a bound pins them there, and
    the others are solved again given the pinned moves.

    The damping lambda scales diag(N) of the normal matrix N (Marquardt
    1963). It starts at LAMBDA_START = 1e-5, grows x10 on each rejected
    trial and shrinks /3 on each accepted step. A start of 1e-3 shortened
    every first step along the correlated tail-offset, tail-amplitude and
    peak-wing directions of the full-band fit, and walking lambda down by
    /3 cost amplitude-noise spectra 5.4 accepted steps on average; from
    1e-5 they take 3.3. Evaluation counts are flat from 1e-8 to 1e-4. The
    stop rule bounds the choice: from 5e-5 up, and at 1e-7 and 1e-8, a
    straight-line fit's last accepted step falls short of the exact
    solution by more than 1e-8 relative yet leaves a predicted decrease
    below REL_TOL * chi^2, so the fit ends there.

    The fit stops, before evaluating the model, when the first (least
    damped) trial of an iteration moves no parameter onto a bound and its
    Gauss-Newton predicted decrease 2 d.g - d.N.d is at most REL_TOL * chi^2.
    Only the first trial counts, because a lambda grown by rejections
    shrinks the predicted decrease by itself. It also stops when an accepted
    step lowers chi^2 by at most REL_TOL * chi^2, as when the quadratic
    model overshoots across a curved valley. That rule also ends a fit whose
    trials keep failing, as with a wrong-sign Jacobian or a model that is NaN
    off its start: after 18-22 rejections the damped step rounds to nothing
    and the unchanged point is accepted. The stop after 25 failed trials is
    a guard those cases do not reach. MAX_ITERATIONS accepted steps without
    a stop raise FitConvergenceError. The covariance is the inverse
    Gauss-Newton normal matrix scaled by the reduced chi^2, made exactly
    symmetric.

    Each linearization works on two buffers: the Jacobian J, which the
    model's filler writes, and its weighted copy J w. N = (J w) J^T is one
    general matrix product, averaged with its transpose to be exactly
    symmetric; the gradient is J (w r) and chi^2 = r . (w r), with the
    residual r = data - model formed in the array the model returned.
    """
    bounds = problem.bounds or [(None, None)] * problem.initial_params.size
    lo = np.array([-np.inf if b is None else b for b, _ in bounds], dtype=float)
    hi = np.array([np.inf if b is None else b for _, b in bounds], dtype=float)
    params = np.clip(problem.initial_params, lo, hi)
    data, weights = problem.data, problem.weights

    def evaluated(params):
        # The residual r = data - model is formed in the array the model
        # returned, and only w r is kept. The filler is dropped right after
        # its linearization or rejection: arrays kept alive across the next
        # model call leave holes at the heap top that glibc trims and
        # re-faults.
        values, fill = problem.model(params)
        np.subtract(data, values, out=values)
        w_resid = weights * values
        return w_resid, float(values @ w_resid), fill

    w_resid, chi2, fill = evaluated(params)
    lam = LAMBDA_START
    n_iter = 0
    converged = False

    # The Jacobian and its weighted copy share one allocation per fit, which
    # the filler and the weights overwrite in place: fresh buffers per step
    # land on the heap top, and glibc trims and re-faults those pages step
    # after step. At the band fit's 950-1250 rows and 10 parameters the
    # allocation is 150-200 KB, above glibc's initial 128 KB mmap threshold;
    # a freed mmap-ed block raises that threshold to its size, so after the
    # first fits the allocation comes from the heap: 0-8 minor faults per
    # warm 12-spectrum campaign in the benchmark's synthesize-then-analyze
    # loop. Padding the block to two or three times its size gave 0-7 and
    # 0-102. Holding buffers across fits would need module-level state.
    jac, jac_w = np.empty((2, params.size, weights.size))

    def linearized(fill):
        # Fill jac and jac_w = jac w, and return the normal matrix (J w) J^T,
        # exactly symmetric. The loop ends at the point of the last one
        # built, so it also gives the covariance.
        fill(jac)
        np.multiply(jac, weights, out=jac_w)
        normal = jac_w @ jac.T
        return 0.5 * (normal + normal.T)

    normal = linearized(fill)
    fill = None
    while True:
        grad = jac @ w_resid
        # Parameters on a bound with the descent direction pointing outside
        # stay frozen this iteration; solving for them anyway makes the
        # projected step zigzag and the fit crawl. Parameters with no local
        # effect on the model (zero Jacobian column) are frozen too.
        free = normal.diagonal() > 0
        if not free.any():
            raise DegenerateFitError(
                "degenerate parameterization: no parameter affects the model"
            )
        free &= ~(((params <= lo) & (grad < 0)) | ((params >= hi) & (grad > 0)))
        if not free.any():
            converged = True
            break
        for attempt in range(25):
            step, trial, pinned = _bounded_step(normal, grad, lam, free, params, lo, hi)
            if attempt == 0:
                predicted = 2.0 * step @ grad - step @ normal @ step
                converged = not pinned and predicted <= REL_TOL * chi2
                if converged or n_iter == MAX_ITERATIONS:
                    break
            w_resid_t, chi2_t, fill = evaluated(trial)
            if math.isfinite(chi2_t) and chi2_t <= chi2 * (1.0 + 1e-12) + 1e-300:
                break
            fill = None
            lam *= 10.0
        else:
            # No damped step improves chi^2: we are at a local minimum to
            # within floating-point precision.
            converged = True
        if converged or n_iter == MAX_ITERATIONS:
            break
        n_iter += 1
        decrease = chi2 - chi2_t
        params, w_resid, chi2 = trial, w_resid_t, chi2_t
        lam = max(lam / 3.0, 1e-14)
        normal = linearized(fill)
        fill = None
        if decrease <= REL_TOL * chi2:
            # The step gave far less than the quadratic model promised, as
            # when steps zigzag across a curved valley: no real decrease left.
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
        cov[np.ix_(live, live)] = np.linalg.inv(normal[np.ix_(live, live)]) * reduced
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("singular normal matrix at the solution") from exc
    # the inverse is symmetric only to rounding; averaging makes it exact
    cov = 0.5 * (cov + cov.T)
    result = FitResult(
        params=params,
        covariance=cov,
        reduced_chi2=reduced,
        chi2=chi2,
        n_iterations=n_iter,
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
SPURIOUS_SIGMA = 5.0  # outlier threshold of _spurious_bin_mask
BLOCK_EPS = 2e-5  # largest h^2 |m''/m| / 24 of a block of width h in a band fit
MAX_BLOCK_BINS = 32  # bins in the widest block, a power of two
SINGLE_WIDTHS = 2.0  # start widths around the peak and the beat kept as single bins


def _moving_average(values: np.ndarray) -> np.ndarray:
    """Centered SMOOTH_BINS-bin moving average with edge truncation: each
    bin's mean is over the bins of its window that lie inside the array."""
    values = np.asarray(values, dtype=float)
    if values.size < SMOOTH_BINS:
        raise ValueError(f"need at least {SMOOTH_BINS} bins to smooth, got {values.size}")
    total = np.convolve(values, np.ones(SMOOTH_BINS), mode="same")
    # mode="same" sums bins i - left .. i + right into bin i, so the first
    # left and the last right bins have truncated windows.
    right = (SMOOTH_BINS - 1) // 2
    left = SMOOTH_BINS - 1 - right
    total[left : values.size - right] /= SMOOTH_BINS
    total[:left] /= np.arange(right + 1, SMOOTH_BINS)
    total[values.size - right :] /= np.arange(SMOOTH_BINS - 1, left, -1)
    return total


def _level_and_variance(values: np.ndarray, n_averages: int):
    """The smoothed level S_smooth of a spectrum and its per-bin variance
    estimate S_smooth^2 / M for an M-average periodogram, from one smoothing
    pass. For the variance the smoothed level is floored at a small positive
    fraction of its median, so background-subtracted spectra cannot produce
    zero or negative variances."""
    smooth = _moving_average(values)
    positive = smooth[smooth > 0]
    if positive.size == 0:
        raise ValueError("spectrum has no positive level to estimate variance from")
    floor = 0.05 * median(positive)
    return smooth, np.clip(smooth, floor, None) ** 2 / n_averages


def _spurious_bin_mask(values: np.ndarray, smooth: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Boolean mask of bins to keep; flags >SPURIOUS_SIGMA positive outliers
    against the local smoothed level (spurious instrumental peaks)."""
    return values - smooth <= SPURIOUS_SIGMA * np.sqrt(var)


# ---------------------------------------------------------------------------
# Background
# ---------------------------------------------------------------------------


def _retained_mask(f: np.ndarray, exclusion_windows) -> np.ndarray:
    keep = np.ones(f.size, dtype=bool)
    for lo, hi in exclusion_windows:
        keep &= ~((f >= lo) & (f <= hi))
    return keep


def _background_bounds(f: np.ndarray, f_step: float, start: np.ndarray):
    """Bounds of the six parameters of BackgroundModel.on_grid in a fit on
    the grid f (Hz) of bin width f_step from the _background_start start. A
    start with no beat note pins the beat amplitude at 0, so the fit moves
    the tail alone."""
    beat_amp = (0.0, None) if start[5] != 0.0 else (0.0, 0.0)
    bounds = [(0.0, None), (0.0, None), (0.1, 6.0)]
    return bounds + [(f[0], f[-1]), (2.0 * f_step, f[-1] - f[0]), beat_amp]


def _pivoted(f_pivot: float, offset, amp, exponent, *beat) -> BackgroundModel:
    """The BackgroundModel of a tail amplitude given at f_pivot; beat is
    (centre, width, amplitude)."""
    return BackgroundModel(offset, amp * f_pivot**exponent, exponent, *beat)


def _background_start(spectrum: Spectrum, f: np.ndarray, exclusion_windows, level):
    """The closed-form start of a background fit on the bins outside
    exclusion_windows, given the spectrum's frequencies f and its level, the
    (smooth, var) pair from _level_and_variance that also weights the fit and
    masks its spurious bins: the mask of those bins, the band's pivot
    f_pivot = sqrt(f[0] f[-1]), and the six parameters of
    BackgroundModel.on_grid at that pivot.

    The tail has exponent 2, and its offset and amplitude solve the weighted
    linear least-squares problem, clipped to their bounds. The largest bump
    of smooth above that tail gives the beat note's centre, width (its span
    above half height) and amplitude. A bump that does not stand 3 sigma
    above the tail gives beat amplitude 0, at the first bin and one bin wide."""
    smooth, var = level
    keep = _retained_mask(f, exclusion_windows)
    if keep.sum() < 50:
        raise ValueError("too few retained bins for a background fit")
    f_k, y_k, var_k = f[keep], spectrum.values[keep], var[keep]
    f_pivot = math.sqrt(f[0] * f[-1])

    design = np.ones((2, f_k.size))
    power = np.divide(f_pivot, f_k, out=design[1])
    power *= power
    weighted = design * (1.0 / var_k)
    offset, amp = np.linalg.solve(weighted @ design.T, weighted @ y_k)
    offset, amp = max(offset, 0.0), max(amp, 0.0)

    smooth_resid = smooth[keep] - (offset + amp * power)
    i_beat = int(np.argmax(smooth_resid))
    beat_amp = max(float(smooth_resid[i_beat]), 1e-12)
    if beat_amp < 3.0 * math.sqrt(median(var_k)):
        beat = [f_k[0], spectrum.f_step, 0.0]
    else:
        width = float((smooth_resid >= beat_amp / 2.0).sum()) * spectrum.f_step
        beat = [f_k[i_beat], max(width, 2.0 * spectrum.f_step), beat_amp]
    return keep, f_pivot, np.array([offset, amp, 2.0, *beat])


def fit_background(
    spectrum: Spectrum,
    exclusion_windows: Sequence[tuple[float, float]] = (),
) -> BackgroundModel:
    """Fit the phenomenological background on bins outside the mechanical
    peaks.

    One LM fit of tail and beat note together starts from _background_start.
    A start with no beat note pins the beat amplitude at 0 by its bounds, so
    the fit moves the tail alone. A failed fit raises DegenerateFitError or
    FitConvergenceError."""
    f = spectrum.frequencies
    level = _level_and_variance(spectrum.values, spectrum.n_averages)
    keep, f_pivot, start = _background_start(spectrum, f, exclusion_windows, level)
    bounds = _background_bounds(f[keep], spectrum.f_step, start)
    fit = nlls_fit(
        FitProblem(
            model=BackgroundModel.on_grid(f[keep], f_pivot),
            data=spectrum.values[keep],
            weights=1.0 / level[1][keep],
            initial_params=start,
            bounds=bounds,
        )
    )
    return _pivoted(f_pivot, *fit.params)


# ---------------------------------------------------------------------------
# Peak fits
# ---------------------------------------------------------------------------


def _half_maximum_span(vals: np.ndarray, i_pk: int, half: float) -> tuple[int, int]:
    """The bins (i_lo, i_hi) nearest the peak bin i_pk, on each side and
    i_pk included, whose values are not above half; the array's first or
    last bin on a side where every value is."""
    above = vals > half
    j_lo = int(np.argmin(above[i_pk::-1]))  # the first False, or 0
    j_hi = int(np.argmin(above[i_pk:]))
    i_lo = 0 if above[i_pk - j_lo] else i_pk - j_lo
    i_hi = vals.size - 1 if above[i_pk + j_hi] else i_pk + j_hi
    return i_lo, i_hi


def _guess_in_window(f: np.ndarray, vals: np.ndarray, f_step: float):
    """The bump that starts a peak fit, found in the values vals at the
    frequencies f of a window without a lineshape model: the unit lineshape
    (a0 = 0, a2 = 1, a3 = 0) at the argmax frequency, with the half-maximum
    span as its width; the argmax's index into vals; the edge level a0; and
    the rise above a0. A fitter sizes the bump with its own model, as a2 =
    rise / (|C|^2 L at the argmax bin). Raises PeakNotFoundError when the
    window maximum does not stand out from the median."""
    level = median(vals)
    i_pk = int(np.argmax(vals))  # leftmost on exact ties
    peak = float(vals[i_pk])
    if peak < 3.0 * level or peak <= 0:
        raise PeakNotFoundError("no peak in window")
    edge = np.concatenate([vals[: max(vals.size // 20, 3)], vals[-max(vals.size // 20, 3):]])
    a0 = median(edge)
    i_lo, i_hi = _half_maximum_span(vals, i_pk, a0 + (peak - a0) / 2.0)
    gamma_eff = TWO_PI * max((i_hi - i_lo) * f_step, 2.0 * f_step)
    unit = LineshapeCoeffs(0.0, 1.0, 0.0, TWO_PI * float(f[i_pk]), gamma_eff)
    return unit, i_pk, a0, peak - a0


def _require_calibrated(spectrum: Spectrum) -> None:
    """Raise ValueError unless spectrum is in Hz^2/Hz: in any other units a
    peak area is off by an unknown scale."""
    if spectrum.units is not SpectrumUnits.HZ2_PER_HZ:
        units = spectrum.units.value
        raise ValueError(f"spectrum units {units!r} are not calibrated to Hz^2/Hz")


def _effective_area(
    a2: float, a3: float, theta: float, covariance: np.ndarray
) -> tuple[float, float]:
    """a_eff = a2 + a3/tan(theta) with linearly propagated uncertainty.

    covariance is the 2x2 block over (a2, a3).
    """
    tan_t = math.tan(theta)
    c00, c01 = float(covariance[0, 0]), float(covariance[0, 1])
    c10, c11 = float(covariance[1, 0]), float(covariance[1, 1])
    if tan_t == 0.0:
        if a3 != 0.0:
            raise ValueError("a_eff undefined: tan(theta) = 0 with a3 != 0")
        return a2, math.sqrt(max(c00, 0.0))
    # the form g.C.g with g = (1, 1/tan), in scalars, so that its bits do
    # not depend on the block's memory layout as a BLAS kernel's would
    g = 1.0 / tan_t
    var = (c00 + g * c10) + g * (c01 + g * c11)
    return a2 + a3 / tan_t, math.sqrt(max(var, 0.0))


def _kept_bins(
    spectrum: Spectrum, f: np.ndarray, level, init: LineshapeCoeffs, exclusion_windows
):
    """Mask of the bins a peak fit keeps, over the whole grid f. level is the
    spectrum's (smooth, var) pair from _level_and_variance, which the caller
    also weights its fit with. Spurious bins go, except within 2 widths of
    the guessed peak, and so do caller-declared contaminated regions (e.g.
    the calibration tone)."""
    keep = _spurious_bin_mask(spectrum.values, *level)
    keep |= np.abs(TWO_PI * f - init.omega_eff) < 2.0 * init.gamma_eff
    keep &= _retained_mask(f, exclusion_windows)
    return keep


def _blocks(keep: np.ndarray, start: np.ndarray, zones):
    """The blocks a band fit merges the kept bins into: each block's first
    bin as an index into the kept bins, and its number of bins.

    Blocks are aligned tiles of the whole grid of 1, 2, 4, ...
    MAX_BLOCK_BINS bins. A kept bin lies in the widest tile whose bins are
    all kept, none of them in one of the slices zones, and over which the
    start model start (on the whole grid) keeps n^2 |d2/start| / 24 <=
    BLOCK_EPS, with n the tile's bins and d2 the second difference of start
    at each bin. As n^2 d2 = h^2 m'' for a tile of width h, that bounds the
    gap between the model's mean over a block and its value at the block's
    mean frequency, h^2 m'' / 24, to BLOCK_EPS of the model. The grid's
    first and last bins, which have no second difference, and bins where
    start <= 0 stay single."""
    n = keep.size
    mergeable = keep.copy()
    for zone in zones:
        mergeable[zone] = False
    middle = start[1:-1]
    mergeable[1:-1] &= middle > 0
    d2 = start[2:] + start[:-2]
    d2 -= 2.0 * middle
    # |d2/start| per bin, infinite where a bin may not merge and on the
    # padding up to whole tiles of MAX_BLOCK_BINS
    curvature = np.full(n + -n % MAX_BLOCK_BINS, np.inf)
    np.divide(np.abs(d2, out=d2), middle, out=curvature[1 : n - 1], where=mergeable[1:-1])
    first = np.ones(curvature.size, dtype=bool)
    tile = 1
    while tile < MAX_BLOCK_BINS:
        # A tile merges when its curvature allows, and its curvature is the
        # larger of its halves', so every tile inside a merged one merges
        # too. A bin 2^k (2j + 1) heads the tiles of 2^k bins and fewer it
        # lies in, and no wider one, so it heads a block unless its tile of
        # 2^(k+1) bins merges.
        tile *= 2
        curvature = np.maximum(curvature[0::2], curvature[1::2])
        np.greater(curvature, 24.0 * BLOCK_EPS / (tile * tile), out=first[tile // 2 :: tile])
    heads = first[:n][keep]
    starts = np.flatnonzero(heads)
    return starts, np.ediff1d(starts, to_end=heads.size - starts[-1])


def _peak_result(fit: FitResult, rows, theta, window, keep):
    """The PeakFitResult of fit, whose parameters at rows are the lineshape's
    in LineshapeCoeffs.as_array() order and whose others are nuisance ones,
    fitted to the bins that keep marks."""
    coeffs = LineshapeCoeffs.from_array(fit.params[rows])
    covariance = fit.covariance[rows][:, rows]
    a_eff, a_eff_sigma = _effective_area(
        coeffs.a2, coeffs.a3, theta, covariance[1:3, 1:3]
    )
    return PeakFitResult(
        coeffs=coeffs,
        covariance=covariance,
        reduced_chi2=fit.reduced_chi2,
        a_eff=a_eff,
        a_eff_sigma=a_eff_sigma,
        lorentzian_preferred=abs(coeffs.a3) < math.sqrt(max(covariance[2, 2], 0.0)),
        theta=theta,
        window=window,
        n_points=int(keep.sum()),
        n_excluded=keep.size - int(keep.sum()),
    )


def _with_lineshape(background, k: int, grid: PeakGrid):
    """The model background(p[:k]) + grid.model(p[k:]) for a FitProblem:
    background is a k-parameter model in FitProblem's form, and its k
    Jacobian rows come before the lineshape's four."""

    def model(p):
        level, fill_level = background(p[:k])
        peak, fill_peak = grid.model(p[k:])
        level += peak

        def fill(jac_t):
            fill_level(jac_t[:k])
            fill_peak(jac_t[k:])

        return level, fill

    return model


def fit_peak(
    spectrum: Spectrum,
    window: tuple[float, float],
    detection: DetectionConfig,
    theta: float,
) -> PeakFitResult:
    """Fit the five-parameter lineshape and a nuisance slope in a window.

    The detection filter |C|^2 is computed from the supplied configuration,
    never fitted. Bin variances come from the spectrum itself.
    a_eff = a2 + a3/tan(theta) and its uncertainty come from the joint fit.

    The symmetric (Lorentzian-only) lineshape is flagged as preferred when
    the fitted a3 is within one sigma of zero. A spectrum not calibrated to
    Hz^2/Hz raises ValueError.
    """
    _require_calibrated(spectrum)
    sl = spectrum.window_slice(*window)
    f = spectrum.frequencies[sl]
    unit, i_pk, a0, rise = _guess_in_window(f, spectrum.values[sl], spectrum.f_step)
    # fitting's one peak_model call, kept for bench/tracing.py, which counts it
    height = float(peak_model(f[i_pk : i_pk + 1], unit, detection)[0])
    init = replace(unit, a0=a0, a2=rise / height)
    if window[1] - window[0] < 10.0 * init.gamma_eff / TWO_PI:
        warnings.warn("fit window narrower than 10 effective widths", stacklevel=2)

    level = _level_and_variance(spectrum.values, spectrum.n_averages)
    var = level[1][sl]
    keep = _kept_bins(spectrum, spectrum.frequencies, level, init, ())[sl]
    w_lo, w_hi = TWO_PI * window[0], TWO_PI * window[1]
    grid = PeakGrid(f[keep], detection)
    dw = grid.w - init.omega_eff

    def flat_and_slope(p):
        def fill(jac_t):
            jac_t[0] = 1.0
            jac_t[1] = dw

        return p[0] + p[1] * dw, fill

    joint = nlls_fit(
        FitProblem(
            model=_with_lineshape(flat_and_slope, 2, grid),
            data=spectrum.values[sl][keep],
            weights=1.0 / var[keep],
            initial_params=np.insert(init.as_array(), 1, 0.0),
            bounds=[(None, None)] * 4
            + [(w_lo, w_hi), (TWO_PI * spectrum.f_step, w_hi - w_lo)],
        )
    )
    return _peak_result(joint, [0, 2, 3, 4, 5], theta, window, keep)


# ---------------------------------------------------------------------------
# Cooling curve and physics extraction
# ---------------------------------------------------------------------------


def _point_error(gamma: float, a_eff: float, sigma: float) -> str | None:
    """The rule a cooling-curve point (gamma_eff, a_eff, sigma) breaks, or
    None. Each test is written so that NaN fails; an infinite sigma is a
    zero-weight point."""
    if not 0.0 < gamma < math.inf:
        return f"gamma_eff must be positive and finite, got {gamma!r}"
    if not math.isfinite(a_eff):
        return f"a_eff must be finite, got {a_eff!r}"
    if not sigma > 0.0:
        return f"a_eff sigma must be positive, got {sigma!r}"
    return None


def fit_cooling_curve(
    points: Sequence[tuple[float, float, float]],
    mode: MechMode,
) -> CoolingCurveResult:
    """Weighted fit of peak area vs effective width, linear in (b1, b2).

    points are (gamma_eff rad/s, a_eff Hz^2, sigma_a_eff). The derived
    quantities use b1 = 2 g^2 Gamma_m n_th (g in Hz), gamma_min =
    sqrt(b1/b2), and n_min = 2 Gamma_m n_th sqrt(b2/b1). Points at fewer
    than two distinct gamma_eff cannot separate b1 from b2 and raise
    DegenerateFitError.
    """
    pts = [(float(g), float(a), float(s)) for g, a, s in points]
    if len(pts) < 2:
        raise ValueError("cooling-curve fit needs at least 2 points")
    for i, point in enumerate(pts):
        error = _point_error(*point)
        if error:
            raise ValueError(f"point {i}: {error}")
    if all(p[0] == pts[0][0] for p in pts):
        raise DegenerateFitError(
            f"cooling-curve fit needs at least 2 distinct gamma_eff, got only {pts[0][0]!r}"
        )
    gammas = np.array([p[0] for p in pts])
    areas = np.array([p[1] for p in pts])
    sigmas = np.array([p[2] for p in pts])

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
    if not (b1 > 0 and b2 > 0):  # written so that NaN fails
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
    verdict = partial(NoiseDiscrimination, a3_slope=a3_slope, a3_slope_sigma=a3_slope_sigma)
    sin2t = math.sin(2.0 * theta)
    if abs(sin2t) < 0.05:
        return verdict("indeterminate", None, None, None, float("nan"))
    expected = 1.0 / sin2t

    if abs(a3_slope) < 2.0 * a3_slope_sigma:
        # no resolvable dispersive component
        if b2 > 2.0 * b2_sigma:
            return verdict("amplitude-dominated", None, None, expected, 1.0)
        return verdict("indeterminate", None, None, expected, float("nan"))

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
        return verdict("phase-dominated", ratio, ratio_sigma, expected, 0.0)
    fraction = excess / b2
    label = "amplitude-dominated" if fraction > 0.5 else "mixed"
    return verdict(label, ratio, ratio_sigma, expected, fraction)


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
    s_nu = convert_phase_noise(s_phi, mode.omega_m)

    dominant = {"phase-dominated": "phase", "amplitude-dominated": "amplitude"}.get(dominance)
    return NoiseExtraction(
        s_phi_phi=s_phi,
        s_phi_phi_sigma=s_phi * rel,
        s_phi_phi_is_limit=dominant != "phase",
        s_eps_eps=s_eps,
        s_eps_eps_sigma=s_eps * rel,
        s_eps_eps_is_limit=dominant != "amplitude",
        s_nu_nu=s_nu,
        s_nu_nu_sigma=s_nu * rel,
        dominant=dominant,
    )


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


def _a3_slope(peaks: Sequence[PeakFitResult]) -> tuple[float, float]:
    """Weighted through-origin fit of the dispersive weight vs gamma_eff, on
    peaks that pass _peak_error."""
    g = np.array([p.coeffs.gamma_eff for p in peaks])
    a3 = np.array([p.a3 for p in peaks])
    sig = np.array([max(p.a3_sigma, 1e-300) for p in peaks])
    w = 1.0 / sig**2
    denom = float(np.sum(w * g**2))
    if denom == 0.0:
        raise DegenerateFitError(
            "a3 slope undetermined: no peak has a finite a3 uncertainty"
        )
    slope = float(np.sum(w * g * a3)) / denom
    return slope, math.sqrt(1.0 / denom)


def _peak_error(p: PeakFitResult, theta: float) -> str | None:
    """The rule a campaign's peak breaks, or None: it is fitted at the mode's
    sideband angle theta (within 1e-9 rad, a margin for the Hz round trip of
    a loaded config), its a3 is finite and its a3 sigma not NaN (an infinite
    one is a zero-weight point), and it is a valid cooling-curve point."""
    if not abs(p.theta - theta) <= 1e-9:  # written so that NaN fails
        return f"sideband angle {p.theta!r} rad is not the mode's {theta!r}"
    if not math.isfinite(p.a3):
        return f"a3 must be finite, got {p.a3!r}"
    if math.isnan(p.a3_sigma):
        return "a3 sigma must not be NaN"
    return _point_error(p.coeffs.gamma_eff, p.a_eff, p.a_eff_sigma)


def summarize_peaks(
    peaks: Sequence[PeakFitResult],
    mode: MechMode,
    cavity: CavitySpec,
    labels: Sequence[str] | None = None,
) -> FitReport:
    """Turn a set of peak fits into the report of the campaign's physics,
    with empty provenance.

    Fits the cooling curve to (gamma_eff, a_eff) and the dispersive weight a3
    to gamma_eff, attributes the excess heating to phase or amplitude noise,
    inverts the cooling-curve minimum for the laser-noise PSDs, and gives
    T_eff at n_min and Q_eff = Omega_m / Gamma_min. A peak that _peak_error
    rejects, such as one fitted at another sideband angle, raises ValueError
    naming it as labels[i] ("peak i" without labels), and so do two peaks
    with equal coeffs, one fit counted twice, naming both.
    """

    def name(i):
        return labels[i] if labels else f"peak {i}"

    theta = sideband_angle(cavity, mode.omega_m)
    first: dict[LineshapeCoeffs, int] = {}
    for i, p in enumerate(peaks):
        error = _peak_error(p, theta)
        if error:
            raise ValueError(f"{name(i)}: {error}")
        j = first.setdefault(p.coeffs, i)
        if j != i:
            raise ValueError(f"{name(j)} and {name(i)} are one peak fit (equal coeffs)")
    points = [(p.coeffs.gamma_eff, p.a_eff, p.a_eff_sigma) for p in peaks]
    cooling = fit_cooling_curve(points, mode)
    slope, slope_sigma = _a3_slope(peaks)
    b2_sigma = math.sqrt(max(cooling.covariance[1, 1], 0.0))
    disc = discriminate_noise(cooling.b2, b2_sigma, slope, slope_sigma, theta)
    return FitReport(
        peaks=list(peaks),
        cooling=cooling,
        discrimination=disc,
        noise=extract_noise_psd(cooling, mode, cavity, disc.classification),
        t_eff_k=effective_temperature(cooling.n_min, mode.omega_m),
        q_eff=mode.omega_m / cooling.gamma_min,
    )


def _check_grid(grid: PeakGrid, f: np.ndarray, detection: DetectionConfig) -> None:
    """Raise ValueError unless grid is the PeakGrid of frequencies f (Hz)
    under detection: same size, same first and last w, same detection."""
    if grid.w.size != f.size:
        raise ValueError(
            f"grid has {grid.w.size} bins but the spectrum has {f.size}"
        )
    for end, name in ((0, "first"), (-1, "last")):
        if grid.w[end] != TWO_PI * f[end]:
            raise ValueError(
                f"grid's {name} w is {grid.w[end]!r} rad/s but the spectrum's "
                f"is {TWO_PI * f[end]!r} rad/s"
            )
    if grid.detection != detection:
        raise ValueError(
            f"grid was built for {grid.detection!r}, not for {detection!r}"
        )


def analyze_peak(
    spectrum: Spectrum,
    mode: MechMode,
    cavity: CavitySpec,
    detection: DetectionConfig,
    search_window: tuple[float, float],
    exclusion_windows: Sequence[tuple[float, float]] = (),
    *,
    grid: PeakGrid | None = None,
) -> tuple[PeakFitResult, BackgroundModel]:
    """Fit one spectrum's mechanical peak and background together.

    The closed-form background start of fit_background, taken outside the
    search window and subtracted inside it, leaves the bump _guess_in_window
    finds; its unit lineshape on grid, scaled to the bump's rise at the peak
    bin, is the starting peak. No LM fit runs before the one that follows.
    That one fit over the full band takes the flat level a0, the lineshape,
    the power-law tail and the beat note together, so a broad peak's wings
    cannot leak into the tail. It leaves out the spurious bins away from the
    starting peak and the caller's exclusion_windows. A start with no beat
    note pins the beat amplitude at 0 by its bounds, as in fit_background.

    The fit's rows are blocks of the kept bins (_blocks): runs of 1 to
    MAX_BLOCK_BINS consecutive kept bins, merged only where the start model
    (background start plus starting peak) is so smooth that its mean over a
    block and its value at the block's mean frequency differ by at most
    BLOCK_EPS of it. Bins within SINGLE_WIDTHS start widths of the starting
    peak and of the beat note stay single, and no block spans a left-out
    bin. A block of n bins is an average of n M-average periodogram bins, a
    chi^2_{2Mn}-scaled variable (Appourchaux, A&A 412, 903 (2003)): its
    datum is the mean of its bins, its variance the sum of theirs over n^2,
    each bin's variance being S_smooth^2 / M from the spectrum's smoothed
    level, so its weight is about M n / S^2; its model is the band model at
    the block's mean frequency, with |C(w)|^2 the mean over its bins. The
    phase and amplitude campaigns' 4001-bin spectra fit 950-1250 rows.

    a0 is the only flat level, so the background has tail_offset = 0.
    window is the peak's reach, the fitted centre +- max(15 effective
    widths, 60 bins) clipped to the band. A fit whose gamma_eff ends on its
    lower bound of one bin, 2 pi f_step, raises PeakNotFoundError: it has
    fitted a spike, not a resolved peak. That holds also for a fit that runs
    out of iterations there; any other FitConvergenceError propagates.

    grid is PeakGrid(spectrum.frequencies, detection), built here when it is
    None; spectra on one grid can share it. A grid built for other
    frequencies or another detection raises ValueError, and so does a
    spectrum not calibrated to Hz^2/Hz.
    """
    _require_calibrated(spectrum)
    theta = sideband_angle(cavity, mode.omega_m)
    f = spectrum.frequencies
    if grid is None:
        grid = PeakGrid(f, detection)
    else:
        _check_grid(grid, f, detection)
    level = _level_and_variance(spectrum.values, spectrum.n_averages)
    _, f_pivot, params = _background_start(
        spectrum, f, [*exclusion_windows, search_window], level
    )
    # the peak's start, from the search window of the start-subtracted values
    start = BackgroundModel.on_grid(f, f_pivot)(params)[0]
    sl = spectrum.window_slice(*search_window)
    clean = spectrum.values[sl] - start[sl]
    unit, i_pk, a0, rise = _guess_in_window(f[sl], clean, spectrum.f_step)

    keep = _kept_bins(spectrum, f, level, unit, exclusion_windows)
    f_k = f[keep]
    bounds = _background_bounds(f_k, spectrum.f_step, params)

    # the starting peak, the unit lineshape scaled to the bump's rise at the
    # peak bin, on the start's offset plus the level under the bump
    peak = grid.model(unit.as_array()[1:])[0]
    a2 = rise / float(peak[sl.start + i_pk])
    x0 = np.concatenate([params, [a2, 0.0, unit.omega_eff, unit.gamma_eff]])
    x0[0] += a0
    w_lo, w_hi = TWO_PI * f_k[0], TWO_PI * f_k[-1]
    bounds += [(None, None), (None, None), (w_lo, w_hi)]
    bounds.append((TWO_PI * spectrum.f_step, w_hi - w_lo))

    # the start model, the background start plus the starting peak, sets
    # where the fit's rows merge bins into blocks
    start += a0
    start += peak * a2
    zones = [
        spectrum.window_slice(centre - reach, centre + reach)
        for centre, reach in (
            (unit.omega_eff / TWO_PI, SINGLE_WIDTHS * unit.gamma_eff / TWO_PI),
            (params[3], SINGLE_WIDTHS * params[4]),
        )
    ]
    starts, counts = _blocks(keep, start, zones)
    blocks = grid.merged(keep, starts, counts)
    problem = FitProblem(
        # fit_background's six parameters, whose offset is the flat level
        # a0, then a2, a3, omega_eff and gamma_eff
        model=_with_lineshape(
            BackgroundModel.on_grid(blocks.w / TWO_PI, f_pivot), 6, blocks
        ),
        data=np.add.reduceat(spectrum.values[keep], starts) / counts,
        weights=counts * counts / np.add.reduceat(level[1][keep], starts),
        initial_params=x0,
        bounds=bounds,
    )
    try:
        fit = nlls_fit(problem)
    except FitConvergenceError as exc:
        # a fit that runs out of steps with its width on the bound is judged
        # by its width, as a converged one is
        if exc.best is None or exc.best.params[9] > bounds[9][0]:
            raise
        fit = exc.best
    p = fit.params
    if p[9] <= bounds[9][0]:
        # a width of one bin is a spike or a bump too narrow to resolve, and
        # its area is no measure of a mechanical peak
        raise PeakNotFoundError(
            f"fitted gamma_eff/2pi ended on its lower bound of one bin "
            f"({spectrum.f_step:g} Hz): no resolved peak"
        )
    f_pk = p[8] / TWO_PI
    half = max(15.0 * p[9] / TWO_PI, 60.0 * spectrum.f_step)
    window = (max(f_pk - half, f[0]), min(f_pk + half, f[-1]))
    result = _peak_result(fit, [0, 6, 7, 8, 9], theta, window, keep)
    return result, _pivoted(f_pivot, 0.0, *p[1:6])


def analyze_campaign(
    spectra: Sequence[Spectrum],
    mode: MechMode,
    cavity: CavitySpec,
    detection: DetectionConfig,
    search_window: tuple[float, float],
    exclusion_windows: Sequence[tuple[float, float]] = (),
) -> FitReport:
    """Run the full inverse pipeline over a set of cooling-power spectra.

    A spectrum whose peak cannot be fitted is skipped with a warning; the
    campaign proceeds as long as at least three points survive. A spectrum
    not calibrated to Hz^2/Hz is not skipped: its ValueError propagates.
    Spectra on one frequency grid share one PeakGrid, so |C(w)|^2 is
    computed once per grid rather than once per spectrum.
    """
    peaks = []
    grids: dict[tuple[float, float, int], PeakGrid] = {}
    for i, spec in enumerate(spectra):
        key = (spec.f_start, spec.f_step, spec.values.size)
        if key not in grids:
            grids[key] = PeakGrid(spec.frequencies, detection)
        try:
            result, _ = analyze_peak(
                spec, mode, cavity, detection, search_window, exclusion_windows,
                grid=grids[key],
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
