import dataclasses
import math
import os
import pickle
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidecool as sc
from sidecool import fitting, spectra
from sidecool.fitting import (
    DegenerateFitError,
    FitConvergenceError,
    FitProblem,
    PeakNotFoundError,
    nlls_fit,
)
from sidecool.physics import DriveField, LaserNoise
from sidecool.spectra import BackgroundModel, Spectrum, SpectrumUnits

from conftest import (
    campaign_spectra,
    peak_record,
    published_cavity,
    run_campaign,
    spiked_tail_spectrum,
)
from _oracles import (
    background_jacobian_reference,
    half_maximum_span_reference,
    lineshape_jacobian_reference,
    peak_model_reference,
    single_bin_blocks,
    weighted_line_fit,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# minimizer
# ---------------------------------------------------------------------------


def _problem(model, jacobian, **kwargs):
    """A FitProblem from a model and its Jacobian as (n_data, n_params)."""

    def evaluated(p):
        def fill(jac_t):
            jac_t[:] = jacobian(p).T

        return model(p), fill

    return FitProblem(model=evaluated, **kwargs)


def _exponential_jacobian(x):
    """d/dp of p[0] exp(-p[1] x)."""
    def jacobian(p):
        e = np.exp(-p[1] * x)
        return np.column_stack([e, -p[0] * x * e])

    return jacobian


def test_nlls_exact_recovery_exponential():
    x = np.linspace(0.0, 5.0, 60)
    true = np.array([2.0, 0.7])
    data = true[0] * np.exp(-true[1] * x)
    fit = nlls_fit(_problem(
        model=lambda p: p[0] * np.exp(-p[1] * x),
        data=data,
        weights=np.ones_like(x),
        initial_params=np.array([1.0, 1.0]),
        jacobian=_exponential_jacobian(x),
    ))
    assert fit.params == pytest.approx(true, rel=1e-8)
    assert fit.chi2 < 1e-20


def test_nlls_converges_when_started_at_solution():
    x = np.linspace(0.0, 5.0, 30)
    data = 3.0 * x + 1.0
    fit = nlls_fit(_problem(
        model=lambda p: p[0] * x + p[1],
        data=data,
        weights=np.ones_like(x),
        initial_params=np.array([3.0, 1.0]),
        jacobian=lambda p: np.column_stack([x, np.ones_like(x)]),
    ))
    assert fit.n_iterations <= 2


@pytest.mark.parametrize(
    "bounds, pinned",
    [
        ([(0.0, 1.5), (1.0, 3.0)], {0: 1.5, 1: 1.0}),
        ([(None, 1.5), (None, None)], {0: 1.5}),
        ([(None, None), (1.0, None)], {1: 1.0}),
    ],
    ids=["both", "upper-only", "lower-only"],
)
def test_nlls_respects_bounds(bounds, pinned):
    """The truth (2.0, 0.7) lies outside the bounds, so each bounded
    parameter ends exactly on the bound it crosses."""
    x = np.linspace(0.0, 5.0, 40)
    data = 2.0 * np.exp(-0.7 * x)
    fit = nlls_fit(_problem(
        model=lambda p: p[0] * np.exp(-p[1] * x),
        data=data,
        weights=np.ones_like(x),
        initial_params=np.array([1.0, 2.0]),
        jacobian=_exponential_jacobian(x),
        bounds=bounds,
    ))
    for i, bound in pinned.items():
        assert fit.params[i] == bound


def _counting(problem):
    """problem with its model wrapped to count calls, and the list of the
    chi^2 of every call."""
    seen = []
    model = problem.model

    def counted(p):
        values, fill = model(p)
        seen.append(float(problem.weights @ (problem.data - values) ** 2))
        return values, fill

    return dataclasses.replace(problem, model=counted), seen


def _line_problem(initial, bounds=None, offset=5.0):
    """offset + 2 x on x in [1, 10] plus Gaussian noise of sigma 0.1."""
    rng = np.random.default_rng(0)
    x = np.linspace(1.0, 10.0, 200)
    data = 2.0 * x + offset + rng.normal(0.0, 0.1, x.size)
    return x, data, _problem(
        model=lambda p: p[0] + p[1] * x,
        data=data,
        weights=np.full(x.size, 100.0),
        initial_params=np.array(initial),
        jacobian=lambda p: np.column_stack([np.ones_like(x), x]),
        bounds=bounds,
    )


def test_nlls_ends_at_the_constrained_minimum_on_a_bound():
    """With offset >= 0 and a negative true offset, the minimum pins the
    offset at 0 exactly and the slope is the through-origin fit. The first
    step pins the offset and solves for the slope given that move, so two
    steps (three model evaluations) get there."""
    x, data, problem = _line_problem([3.0, 1.0], [(0.0, None), (None, None)], -0.5)
    assert np.linalg.lstsq(np.column_stack([np.ones_like(x), x]), data)[0][0] < 0
    problem, chi2s = _counting(problem)
    fit = nlls_fit(problem)
    assert len(chi2s) == 3
    assert fit.params[0] == 0.0
    assert fit.params[1] == pytest.approx(float(x @ data / (x @ x)), rel=1e-6)


def test_nlls_linear_model_spends_no_evaluation_on_confirming():
    """Started away from its solution, a linear model takes two damped
    steps: damped by lambda = LAMBDA_START = 1e-5, the first stops just
    short of the minimum, and the second leaves a predicted decrease far
    below REL_TOL chi^2. The fit stops there without evaluating a third
    step, so it makes three model evaluations (the start and one per step),
    and each step lowers chi^2 by more than REL_TOL chi^2."""
    x, data, problem = _line_problem([1.0, 1.0])
    problem, chi2s = _counting(problem)
    fit = nlls_fit(problem)
    assert fit.n_iterations == 2
    assert len(chi2s) == fit.n_iterations + 1
    assert all(a - b > fitting.REL_TOL * b for a, b in zip(chi2s, chi2s[1:]))
    reference = np.linalg.lstsq(np.column_stack([np.ones_like(x), x]), data)[0]
    assert fit.params == pytest.approx(reference, rel=1e-7)


def test_nlls_covariance_matches_linear_algebra():
    rng = np.random.default_rng(0)
    x = np.linspace(1.0, 10.0, 200)
    sigma = 0.1 * np.ones_like(x)
    data = 2.0 * x + 5.0 + rng.normal(0.0, 0.1, x.size)
    fit = nlls_fit(_problem(
        model=lambda p: p[0] * x + p[1],
        data=data,
        weights=1.0 / sigma**2,
        initial_params=np.array([1.0, 1.0]),
        jacobian=lambda p: np.column_stack([x, np.ones_like(x)]),
    ))
    params, cov = weighted_line_fit(
        np.array([x, np.ones_like(x)]), data, sigma
    )
    assert fit.params == pytest.approx(params, rel=1e-8)
    # covariance scaled by reduced chi^2 relative to the unscaled reference
    assert fit.covariance == pytest.approx(cov * fit.reduced_chi2, rel=1e-6)


def test_nlls_dead_parameter_gets_infinite_variance():
    x = np.linspace(0.0, 5.0, 30)
    data = 3.0 * x
    fit = nlls_fit(_problem(
        model=lambda p: p[0] * x + 0.0 * p[1],
        data=data,
        weights=np.ones_like(x),
        initial_params=np.array([1.0, 1.0]),
        jacobian=lambda p: np.column_stack([x, np.zeros_like(x)]),
    ))
    assert fit.params[0] == pytest.approx(3.0, rel=1e-8)
    assert math.isinf(fit.covariance[1, 1])


def test_nlls_no_live_parameter_at_the_solution_gets_infinite_variance():
    """p^2 x against data it cannot reach: the first step pins p on its
    bound 0, where the Jacobian vanishes, and lowers chi^2 by less than
    REL_TOL chi^2, so the fit ends there with no live parameter."""
    x = np.linspace(1.0, 5.0, 30)
    fit = nlls_fit(_problem(
        model=lambda p: p[0] ** 2 * x,
        data=-x,
        weights=np.ones_like(x),
        initial_params=np.array([1e-6]),
        jacobian=lambda p: (2.0 * p[0] * x)[:, None],
        bounds=[(0.0, None)],
    ))
    assert fit.params[0] == 0.0
    assert fit.n_iterations == 1
    assert fit.covariance.tolist() == [[math.inf]]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"initial_params": np.ones(4)}, "2x more data points"),
        ({"weights": np.array([1.0, 0.0, 1.0])}, "weights must be positive"),
        ({"weights": np.ones(4)}, "same shape"),
        ({"initial_params": np.array([math.nan])}, "initial parameters must be finite"),
    ],
    ids=["too-few-points", "non-positive-weight", "shape-mismatch", "non-finite-start"],
)
def test_fit_problem_rejects_bad_input(bad, message):
    """Each of FitProblem's checks refuses its own fault in an otherwise
    sound three-point, one-parameter problem."""
    sound = {"data": np.arange(3.0), "weights": np.ones(3), "initial_params": np.ones(1)}
    with pytest.raises(ValueError, match=message):
        _problem(model=lambda p: p, jacobian=lambda p: np.zeros((3, p.size)), **(sound | bad))


def test_nlls_refuses_a_model_no_parameter_affects():
    """A Jacobian that is zero everywhere leaves nothing to fit: the fit
    raises rather than returning its start."""
    x = np.linspace(0.0, 5.0, 30)
    problem = _problem(
        model=lambda p: x + 0.0 * p[0],
        data=2.0 * x,
        weights=np.ones_like(x),
        initial_params=np.array([1.0]),
        jacobian=lambda p: np.zeros((x.size, 1)),
    )
    with pytest.raises(DegenerateFitError, match="no parameter affects the model"):
        nlls_fit(problem)


# ---------------------------------------------------------------------------
# spectrum statistics
# ---------------------------------------------------------------------------


def test_periodogram_variance_floor_is_positive():
    values = np.zeros(100)
    values[50] = 1.0
    _, var = fitting._level_and_variance(values, n_averages=10)
    assert np.all(var > 0)


@pytest.mark.parametrize(
    "n", [*range(fitting.SMOOTH_BINS, 2 * fitting.SMOOTH_BINS + 3), 100, 4001]
)
def test_moving_average_matches_convolved_edge_counts(n):
    """The closed-form edge counts give the same bytes as dividing by the
    convolution of a ones array, the long form of an edge-truncated mean."""
    values = np.random.default_rng(n).chisquare(200, n) / 200 * 3.0
    kernel = np.ones(fitting.SMOOTH_BINS)
    long_form = np.convolve(values, kernel, mode="same") / np.convolve(
        np.ones(n), kernel, mode="same"
    )
    assert fitting._moving_average(values).tobytes() == long_form.tobytes()


def test_moving_average_rejects_fewer_bins_than_its_window():
    with pytest.raises(ValueError, match="bins to smooth"):
        fitting._moving_average(np.ones(fitting.SMOOTH_BINS - 1))


def test_spurious_bin_mask_flags_spike_keeps_rest():
    rng = np.random.default_rng(1)
    values = rng.chisquare(200, 1000) / 200 * 2.0
    values[400] *= 8.0
    smooth, var = fitting._level_and_variance(values, n_averages=100)
    keep = fitting._spurious_bin_mask(values, smooth, var)
    assert not keep[400]
    assert keep.sum() >= 995


# ---------------------------------------------------------------------------
# background
# ---------------------------------------------------------------------------


def _background_spectrum(seed=0, m=200, beat_amplitude=0.05):
    bg = BackgroundModel(
        tail_offset=2e-3, tail_amplitude=3e8, tail_exponent=2.0,
        beat_center=300e3, beat_width=2e3, beat_amplitude=beat_amplitude,
    )
    f = 156e3 + 50.0 * np.arange(4001)
    model = Spectrum(
        f_start=156e3, f_step=50.0,
        values=spectra.evaluate_background(bg, f),
        units=SpectrumUnits.HZ2_PER_HZ,
    )
    return spectra.synthesize_measured_spectrum(model, n_averages=m, seed=seed), bg


def test_fit_background_recovers_parameters():
    noisy, truth = _background_spectrum()
    fit = fitting.fit_background(noisy)
    assert fit.tail_offset == pytest.approx(truth.tail_offset, rel=0.2)
    assert fit.tail_exponent == pytest.approx(truth.tail_exponent, abs=0.15)
    assert fit.beat_center == pytest.approx(truth.beat_center, abs=300.0)
    assert fit.beat_amplitude == pytest.approx(truth.beat_amplitude, rel=0.2)
    f = noisy.frequencies
    resid = spectra.evaluate_background(fit, f) / spectra.evaluate_background(truth, f)
    assert np.max(np.abs(resid - 1.0)) < 0.05


def test_fit_background_without_beat_returns_flat_beat():
    """A beat-free spectrum takes the tail-only path."""
    noisy, _ = _background_spectrum(beat_amplitude=0.0)
    fit = fitting.fit_background(noisy)
    assert fit.beat_amplitude == 0.0


def test_fit_background_reaches_the_bounded_least_squares_minimum(
    cavity, mode01, detection, phase_noise
):
    """On campaign spectra with the peak window excluded, scipy's bounded
    least squares, started at fit_background's result, lowers chi^2 by no
    more than 1e-6 relative: the tail + beat fit stopped at a minimum, not
    at a start whose first step ran into a bound."""
    from scipy.optimize import least_squares

    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    for spec in specs:
        bg = fitting.fit_background(spec, [window])
        f = spec.frequencies
        keep = (f < window[0]) | (f > window[1])
        f_k, y_k = f[keep], spec.values[keep]
        sigma = np.sqrt(fitting._level_and_variance(spec.values, spec.n_averages)[1][keep])
        f_pivot = math.sqrt(f_k[0] * f_k[-1])

        def resid(p):
            offset, amp, exponent, center, width, beat = p
            h2 = (width / 2.0) ** 2
            model = offset + amp * (f_k / f_pivot) ** -exponent
            return (y_k - model - beat * h2 / ((f_k - center) ** 2 + h2)) / sigma

        start = [
            bg.tail_offset, bg.tail_amplitude * f_pivot**-bg.tail_exponent,
            bg.tail_exponent, bg.beat_center, bg.beat_width, bg.beat_amplitude,
        ]
        ours = float(resid(start) @ resid(start))
        lower = [0.0, 0.0, 0.1, f_k[0], 2.0 * spec.f_step, 0.0]
        upper = [np.inf, np.inf, 6.0, f_k[-1], np.inf, np.inf]
        best = least_squares(
            resid, start, bounds=(lower, upper), x_scale="jac",
            xtol=1e-12, ftol=1e-12, gtol=1e-12,
        )
        assert 2.0 * best.cost >= ours * (1.0 - 1e-6)


@pytest.mark.parametrize(
    "noise, floor, seed",
    [
        (LaserNoise(s_phi_phi=2.2e-2 / 256e3**2), 3.5e-3, 42),
        (LaserNoise(s_eps_eps=1e-13), 1e-4, 1000),
    ],
    ids=["phase", "amplitude"],
)
def test_full_band_fit_reaches_the_bounded_least_squares_minimum(
    cavity, mode01, detection, noise, floor, seed
):
    """On campaign spectra of both noise types, scipy's bounded least
    squares on the full-band fit's own problem, started at analyze_peak's
    solution, lowers chi^2 by no more than 1e-6 relative: the one-buffer
    weighted kernel stops at a minimum."""
    from scipy.optimize import least_squares

    specs, _, window = campaign_spectra(
        mode01, cavity, detection, noise, g0=TWO_PI * 2.1, seed=seed, floor=floor
    )
    for spec in specs[::4]:
        ((problem, fit),) = _recorded_fits(
            lambda: fitting.analyze_peak(spec, mode01, cavity, detection, window)
        )
        sigma = 1.0 / np.sqrt(problem.weights)

        def resid(p):
            return (problem.data - problem.model(p)[0]) / sigma

        def jac(p):
            rows = np.empty((p.size, problem.data.size))
            problem.model(p)[1](rows)
            return -(rows / sigma).T

        ours = float(resid(fit.params) @ resid(fit.params))
        assert ours == pytest.approx(fit.chi2, rel=1e-12)
        lower = [-np.inf if lo is None else lo for lo, _ in problem.bounds]
        upper = [np.inf if hi is None else hi for _, hi in problem.bounds]
        best = least_squares(
            resid, fit.params, jac=jac, bounds=(lower, upper), x_scale="jac",
            xtol=1e-12, ftol=1e-12, gtol=1e-12,
        )
        assert 2.0 * best.cost >= ours * (1.0 - 1e-6)


@pytest.mark.parametrize(
    "noise, floor, seed",
    [
        (LaserNoise(s_phi_phi=2.2e-2 / 256e3**2), 3.5e-3, 42),
        (LaserNoise(s_eps_eps=1e-13), 1e-4, 1000),
    ],
    ids=["phase", "amplitude"],
)
def test_blocked_fit_agrees_with_the_full_bin_oracle(
    cavity, mode01, detection, noise, floor, seed
):
    """Over one 12-spectrum campaign, the band fit on blocks against the
    same 10-parameter FitProblem on every kept bin (the oracle): a_eff and
    gamma_eff move by at most 0.1 of the oracle's sigma, and each sigma is
    within 10 % of the oracle's. Over 2880 peaks of 240 benchmark-workload
    campaigns, half of each noise type, the largest moves were 0.091 sigma
    (a_eff) and 0.064 sigma (gamma_eff), and the sigma ratios 0.939-1.066;
    without the chi^2_red that scales each covariance, the a_eff sigma
    ratios of 960 of them were 1.0000-1.0003."""
    specs, _, window = campaign_spectra(
        mode01, cavity, detection, noise, g0=TWO_PI * 2.1, seed=seed, floor=floor
    )

    def band_fits():
        peaks = []
        fits = _recorded_fits(
            lambda: peaks.extend(
                fitting.analyze_peak(spec, mode01, cavity, detection, window)[0]
                for spec in specs
            )
        )
        return peaks, [problem.data.size for problem, _ in fits]

    blocked, rows = band_fits()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_blocks", single_bin_blocks)
        oracle, oracle_rows = band_fits()
    assert oracle_rows == [peak.n_points for peak in oracle]
    assert [peak.n_points for peak in blocked] == oracle_rows
    assert max(rows) < 0.5 * min(oracle_rows)
    for got, ref in zip(blocked, oracle):
        gamma_sigma = math.sqrt(ref.covariance[4, 4])
        assert abs(got.a_eff - ref.a_eff) <= 0.1 * ref.a_eff_sigma
        assert abs(got.coeffs.gamma_eff - ref.coeffs.gamma_eff) <= 0.1 * gamma_sigma
        assert 0.9 <= got.a_eff_sigma / ref.a_eff_sigma <= 1.1
        assert 0.9 <= math.sqrt(got.covariance[4, 4]) / gamma_sigma <= 1.1


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 300),
    log_scale=st.floats(0.0, 5.0),
    depth=st.floats(0.0, 0.9),
    data=st.data(),
)
def test_blocks_partition_the_kept_bins(n, log_scale, depth, data):
    """On a random mask, random zones and a start model 1 + depth cos(i /
    10^log_scale) with a few bins negated: the blocks tile the kept bins in order;
    each is an aligned run of 2^k consecutive bins, all kept, of at most
    MAX_BLOCK_BINS; a block of more than one bin holds no zone bin, no bin
    where the start is negative and neither end of the grid, and keeps
    n^2 |d2/start| / 24 <= BLOCK_EPS at each bin; and its aligned tile of
    twice the size breaks one of those rules, so no block could be wider."""
    i = np.arange(n)
    keep = np.ones(n, dtype=bool)
    keep[list(data.draw(st.sets(st.integers(0, n - 1), max_size=n // 8)))] = False
    start = 1.0 + depth * np.cos(i / 10.0**log_scale)
    start[list(data.draw(st.sets(st.integers(0, n - 1), max_size=3)))] *= -1.0
    zones = [
        slice(lo, lo + length)
        for lo, length in data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 40)), max_size=2)
        )
    ]

    single = (start <= 0.0) | (i == 0) | (i == n - 1)
    for zone in zones:
        single[zone] = True
    rel = np.full(n, np.inf)
    rel[1:-1] = np.abs(start[2:] - 2.0 * start[1:-1] + start[:-2]) / np.abs(start[1:-1])

    def mergeable(bins, size):
        return (
            bins[-1] < n
            and keep[bins].all()
            and not single[bins].any()
            and (size * size * rel[bins] <= 24.0 * fitting.BLOCK_EPS * (1.0 + 1e-12)).all()
        )

    starts, counts = fitting._blocks(keep, start, zones)
    kept = np.flatnonzero(keep)
    assert counts.sum() == kept.size
    assert np.array_equal(starts, np.cumsum(counts) - counts)
    for first, size in zip(kept[starts], counts):
        assert size <= fitting.MAX_BLOCK_BINS and size & (size - 1) == 0
        assert first % size == 0
        bins = np.arange(first, first + size)
        if size > 1:
            assert mergeable(bins, size)
        if size < fitting.MAX_BLOCK_BINS:
            base = first - first % (2 * size)
            assert not mergeable(np.arange(base, base + 2 * size), 2 * size)


@settings(max_examples=6, deadline=None)
@given(
    tone_hz=st.floats(160e3, 220e3) | st.floats(292e3, 350e3),
    which=st.integers(0, 1),
)
def test_band_fit_rows_are_means_of_their_blocks(tone_hz, which):
    """On a campaign spectrum with a calibration tone and its +-1 kHz
    exclusion: every kept bin is in one block and no block holds a bin of
    the exclusion; bins within SINGLE_WIDTHS start widths of the starting
    peak and of the beat note are single blocks; and each row's datum,
    weight and frequency are its block's mean value, n^2 over its summed
    variances, and mean frequency."""
    cavity, detection = published_cavity(), spectra.DetectionConfig(probe_kappa=TWO_PI * 204e3)
    mode = sc.MechMode(omega_m=TWO_PI * 256e3, q_factor=1.18e7, temperature=300.0)
    tone = spectra.CalibrationTone(frequency_hz=tone_hz, power_hz2=10.0)
    specs, _, window = campaign_spectra(
        mode, cavity, detection, sc.LaserNoise(s_phi_phi=2.2e-2 / 256e3**2),
        g0=TWO_PI * 2.1, seed=7, floor=3.5e-3, n_powers=2, tone=tone,
    )
    spec = specs[which]
    exclusion = (tone_hz - 1e3, tone_hz + 1e3)
    inner, seen = fitting._blocks, []

    def recording(keep, start, zones):
        seen.append((keep, inner(keep, start, zones)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_blocks", recording)
        ((problem, _),) = _recorded_fits(
            lambda: fitting.analyze_peak(spec, mode, cavity, detection, window, [exclusion])
        )
    ((keep, (starts, counts)),) = seen
    f = spec.frequencies
    kept = np.flatnonzero(keep)
    assert counts.sum() == kept.size
    assert not keep[(f >= exclusion[0]) & (f <= exclusion[1])].any()
    blocks = [kept[s : s + c] for s, c in zip(starts, counts)]
    assert all(np.array_equal(b, np.arange(b[0], b[0] + b.size)) for b in blocks)

    x0 = problem.initial_params
    near_peak = np.abs(TWO_PI * f - x0[8]) < fitting.SINGLE_WIDTHS * x0[9]
    near_beat = np.abs(f - x0[3]) < fitting.SINGLE_WIDTHS * x0[4]
    in_block = np.zeros(f.size, dtype=int)
    for b in blocks:
        in_block[b] = b.size
    assert (in_block[keep & (near_peak | near_beat)] == 1).all()
    assert near_peak.any() and near_beat.any()

    var = fitting._level_and_variance(spec.values, spec.n_averages)[1]
    assert problem.data == pytest.approx([spec.values[b].mean() for b in blocks], rel=1e-12)
    assert problem.weights == pytest.approx(
        [b.size**2 / var[b].sum() for b in blocks], rel=1e-12
    )
    # a pure f_pivot / f tail (offset 0, amplitude 1, exponent 1, no beat
    # and no peak) reads each row's frequency back
    f_pivot = math.sqrt(f[0] * f[-1])
    tail = problem.model(np.array([0.0, 1.0, 1.0, f[0], 1.0, 0.0, 0.0, 0.0, x0[8], x0[9]]))[0]
    assert f_pivot / tail == pytest.approx([f[b].mean() for b in blocks], rel=1e-12)


def test_background_start_is_where_fit_background_starts():
    """The closed-form start puts the beat note within its synthesized
    width, gives a beat-free spectrum beat amplitude 0, and is the exact
    point fit_background's LM fit starts from."""
    for beat_amplitude in (0.05, 0.0):
        noisy, truth = _background_spectrum(beat_amplitude=beat_amplitude)
        level = fitting._level_and_variance(noisy.values, noisy.n_averages)
        _, _, start = fitting._background_start(noisy, noisy.frequencies, (), level)
        if beat_amplitude:
            assert abs(start[3] - truth.beat_center) < truth.beat_width
            assert start[5] > 0.0
        else:
            assert start[5] == 0.0
        fits = _recorded_fits(lambda: fitting.fit_background(noisy))
        assert np.array_equal(fits[0][0].initial_params, start)


def test_fit_background_needs_enough_bins():
    noisy, _ = _background_spectrum()
    with pytest.raises(ValueError, match="too few"):
        fitting.fit_background(noisy, exclusion_windows=[(0.0, 1e9)])


# ---------------------------------------------------------------------------
# peak fitting
# ---------------------------------------------------------------------------


def _peak_setup(cavity, mode01, detection, phase_noise, gamma_opt_hz=3e3):
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * gamma_opt_hz)
    return spectra.output_psd(
        f_start=156e3, f_step=50.0, n_bins=4001, mode=mode01, cavity=cavity,
        drive=drive, noise=phase_noise, detection=detection, floor=5e-3,
    )


def _peak_truth(cavity, mode01, phase_noise):
    """The lineshape coefficients and occupancy budget behind _peak_setup's
    default model."""
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 3e3)
    return spectra.model_coefficients(mode01, cavity, drive, phase_noise)


def test_peak_initial_guess_raises_on_flat():
    flat = Spectrum(f_start=1e5, f_step=10.0, values=np.full(1000, 2.0))
    with pytest.raises(PeakNotFoundError, match="no peak"):
        fitting._guess_in_window(flat.frequencies, flat.values, flat.f_step)


def test_fit_peak_exact_on_noiseless_model(cavity, mode01, detection, phase_noise):
    model = _peak_setup(cavity, mode01, detection, phase_noise)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    res = fitting.fit_peak(model, (200e3, 300e3), detection, theta=theta)
    coeffs, budget = _peak_truth(cavity, mode01, phase_noise)
    assert res.coeffs.a2 == pytest.approx(coeffs.a2, rel=1e-6)
    assert res.coeffs.a3 == pytest.approx(coeffs.a3, rel=1e-6)
    assert res.coeffs.gamma_eff / TWO_PI == pytest.approx(budget.gamma_eff / TWO_PI, rel=1e-8)
    assert res.a_eff == pytest.approx(2.1**2 * (2 * budget.n_eff + 1), rel=1e-6)
    assert not res.lorentzian_preferred


def test_fit_peak_warns_on_a_window_narrower_than_ten_widths(
    cavity, mode01, detection, phase_noise
):
    """A 24 kHz window about a 3 kHz wide peak warns, and the noiseless fit
    still recovers the width and a_eff."""
    model = _peak_setup(cavity, mode01, detection, phase_noise)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    _, budget = _peak_truth(cavity, mode01, phase_noise)
    f_eff = budget.omega_eff / TWO_PI
    with pytest.warns(UserWarning, match="narrower than 10 effective widths"):
        res = fitting.fit_peak(model, (f_eff - 12e3, f_eff + 12e3), detection, theta=theta)
    assert res.coeffs.gamma_eff == pytest.approx(budget.gamma_eff, rel=1e-6)
    assert res.a_eff == pytest.approx(2.1**2 * (2 * budget.n_eff + 1), rel=1e-6)


def test_fit_peak_prefers_lorentzian_without_phase_noise(
    cavity, mode01, detection
):
    amp_noise = LaserNoise(s_eps_eps=1e-13)
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 3e3)
    model = spectra.output_psd(
        f_start=156e3, f_step=50.0, n_bins=4001, mode=mode01, cavity=cavity,
        drive=drive, noise=amp_noise, detection=detection, floor=1e-4,
    )
    noisy = spectra.synthesize_measured_spectrum(model, n_averages=200, seed=2)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    res = fitting.fit_peak(noisy, (200e3, 300e3), detection, theta=theta)
    assert res.lorentzian_preferred
    assert abs(res.a3) < 2 * res.a3_sigma


def test_fit_peak_statistical_consistency(cavity, mode01, detection, phase_noise):
    """Pulls of a_eff over independent realizations behave like unit normals."""
    model = _peak_setup(cavity, mode01, detection, phase_noise)
    truth = 2.1**2 * (2 * _peak_truth(cavity, mode01, phase_noise)[1].n_eff + 1)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    pulls = []
    for seed in range(20):
        noisy = spectra.synthesize_measured_spectrum(model, n_averages=200, seed=seed)
        try:
            res = fitting.fit_peak(noisy, (200e3, 300e3), detection, theta=theta)
        except FitConvergenceError:
            continue  # rare stalls are handled at the campaign level
        pulls.append((res.a_eff - truth) / res.a_eff_sigma)
    pulls = np.array(pulls)
    assert len(pulls) >= 17
    assert abs(pulls.mean()) < 0.8
    assert 0.5 < pulls.std() < 1.8


def test_analyze_peak_converges_without_background(
    cavity, mode01, detection, phase_noise
):
    """On a spectrum with no tail and no beat note, the full-band fit's tail
    is not identified; the fit still converges at every noise seed, and the
    a_eff pulls look like unit normals."""
    model = _peak_setup(cavity, mode01, detection, phase_noise)
    truth = 2.1**2 * (2 * _peak_truth(cavity, mode01, phase_noise)[1].n_eff + 1)
    pulls = []
    for seed in range(40):
        noisy = spectra.synthesize_measured_spectrum(model, n_averages=200, seed=seed)
        res, _ = fitting.analyze_peak(noisy, mode01, cavity, detection, (200e3, 300e3))
        pulls.append((res.a_eff - truth) / res.a_eff_sigma)
    assert abs(np.mean(pulls)) < 0.5
    assert 0.7 < np.std(pulls) < 1.3


def _counted_fits(run):
    """Call run() and return [size, chi^2 of every model call, accepted
    steps] of every nlls_fit call it makes, failed ones included (their
    accepted steps stay None)."""
    inner = fitting.nlls_fit
    fits = []

    def counting_fit(problem):
        problem, chi2s = _counting(problem)
        fit = [problem.initial_params.size, chi2s, None]
        fits.append(fit)
        result = inner(problem)
        fit[2] = result.n_iterations
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "nlls_fit", counting_fit)
        run()
    return fits


def test_analyze_peak_makes_one_lm_fit(cavity, mode01, detection, phase_noise):
    """One spectrum costs the full-band fit (10 parameters) alone, started
    from the closed-form background start, and at most 5 model evaluations
    (the background LM fit that used to come first made it 11)."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    fits = _counted_fits(
        lambda: fitting.analyze_peak(specs[0], mode01, cavity, detection, window)
    )
    assert [size for size, _, _ in fits] == [10]
    assert sum(len(chi2s) for _, chi2s, _ in fits) <= 5


@pytest.mark.parametrize(
    "noise, floor, seed, max_evals, max_steps",
    [
        (LaserNoise(s_phi_phi=2.2e-2 / 256e3**2), 3.5e-3, 42, 62, 6),
        (LaserNoise(s_eps_eps=1e-13), 1e-4, 1000, 57, 5),
    ],
    ids=["phase", "amplitude"],
)
def test_campaign_lm_work_stays_at_one_fit_per_spectrum(
    cavity, mode01, detection, noise, floor, seed, max_evals, max_steps
):
    """A 12-spectrum campaign makes 12 nlls_fit calls, all full-band fits,
    and few model evaluations: 58 phase and 53 amplitude when the bounds
    were set, with at most 5 and 4 accepted steps per fit. Damping started
    at 1e-3 took 61 and 85, with up to 13 steps on amplitude; two LM fits
    per spectrum took 160 and 180. A counter, not a timing, so a second LM
    stage or a heavier starting damping cannot come back unnoticed."""
    fits = _counted_fits(
        lambda: run_campaign(
            mode01, cavity, detection, noise, g0=TWO_PI * 2.1, seed=seed, floor=floor
        )
    )
    assert [size for size, _, _ in fits] == [10] * 12
    assert sum(len(chi2s) for _, chi2s, _ in fits) <= max_evals
    assert max(steps for _, _, steps in fits) <= max_steps


def test_analyze_peak_handles_background_and_wide_peak(
    cavity, mode01, detection, phase_noise
):
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * 9e3)
    floor = 5e-3
    bg = BackgroundModel(
        tail_offset=0.0, tail_amplitude=floor * (256e3) ** 2, tail_exponent=2.0,
        beat_center=301e3, beat_width=2e3, beat_amplitude=200 * floor,
    )
    model = spectra.output_psd(
        f_start=156e3, f_step=50.0, n_bins=4001, mode=mode01, cavity=cavity,
        drive=drive, noise=phase_noise, detection=detection, floor=floor,
        background=bg,
    )
    noisy = spectra.synthesize_measured_spectrum(model, n_averages=200, seed=11)
    res, fitted_bg = fitting.analyze_peak(
        noisy, mode01, cavity, detection, search_window=(226e3, 286e3)
    )
    _, budget = spectra.model_coefficients(mode01, cavity, drive, phase_noise)
    assert res.coeffs.gamma_eff / TWO_PI == pytest.approx(budget.gamma_eff / TWO_PI, rel=0.05)
    assert res.a_eff == pytest.approx(
        2.1**2 * (2 * budget.n_eff + 1), rel=0.05
    )


def _campaign_spectra(cavity, mode01, detection, phase_noise, n_bins=4001, seed=3):
    """Four phase-noise spectra with background from 156 kHz in 50 Hz bins,
    and the search window."""
    mode_f = mode01.omega_m / TWO_PI
    floor = 3.5e-3
    bg = BackgroundModel(
        tail_offset=0.0, tail_amplitude=floor * mode_f**2, tail_exponent=2.0,
        beat_center=mode_f + 45e3, beat_width=2e3, beat_amplitude=200 * floor,
    )
    specs, _ = spectra.synthesize_campaign(
        mode=mode01, cavity=cavity, g0=TWO_PI * 2.1,
        gamma_opt_grid=TWO_PI * np.geomspace(1.5e3, 8e3, 4),
        noise=phase_noise, detection=detection,
        f_start=156e3, f_step=50.0, n_bins=n_bins,
        n_averages=200, seed=seed, floor=floor, background=bg,
    )
    return specs, (mode_f - 30e3, mode_f + 30e3)


def test_analyze_peak_excludes_a_spurious_bin(cavity, mode01, detection, phase_noise):
    """One bin raised 8-fold, clear of the peak, the beat note and the search
    window, is one more bin the full-band fit leaves out, and a_eff stays."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    spec = specs[0]
    i = int(round((mode01.omega_m / TWO_PI - 70e3 - spec.f_start) / spec.f_step))
    values = spec.values.copy()
    values[i] *= 8.0
    base, _ = fitting.analyze_peak(spec, mode01, cavity, detection, window)
    spiked, _ = fitting.analyze_peak(
        dataclasses.replace(spec, values=values), mode01, cavity, detection, window
    )
    assert spiked.n_excluded == base.n_excluded + 1
    assert spiked.n_points == base.n_points - 1
    assert abs(spiked.a_eff - base.a_eff) < 0.1 * base.a_eff_sigma


def test_analyze_peak_rejects_a_width_on_its_lower_bound(
    cavity, mode01, detection, phase_noise
):
    """A background-only spectrum with a one-bin spike (30 times the local
    level at 250 kHz) fits the spike with gamma_eff/2pi = 50 Hz, one bin,
    exactly its lower bound, and an a_eff near 216 +- 5 Hz^2 from a peak
    that is not there. analyze_peak raises PeakNotFoundError for it, and
    analyze_campaign skips that spectrum with its warning."""
    spiked = spiked_tail_spectrum()
    window = (226e3, 286e3)
    with pytest.raises(PeakNotFoundError, match="lower bound of one bin"):
        fitting.analyze_peak(spiked, mode01, cavity, detection, window)
    ((_, fit),) = _recorded_fits(
        lambda: pytest.raises(PeakNotFoundError, fitting.analyze_peak,
                              spiked, mode01, cavity, detection, window)
    )
    assert fit.params[9] == TWO_PI * spiked.f_step
    assert abs(fit.params[8] / TWO_PI - 250e3) < spiked.f_step
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    a_eff, a_eff_sigma = fitting._effective_area(
        fit.params[6], fit.params[7], theta, fit.covariance[6:8, 6:8]
    )
    assert 200.0 < a_eff < 230.0 and a_eff_sigma < 10.0

    specs, _ = _campaign_spectra(cavity, mode01, detection, phase_noise)
    with pytest.warns(UserWarning, match="spectrum 4: .*lower bound.*skipped"):
        out = fitting.analyze_campaign([*specs, spiked], mode01, cavity, detection, window)
    assert out.cooling.n_points == len(specs)


@pytest.mark.parametrize(
    "error",
    [DegenerateFitError, FitConvergenceError, ValueError],
    ids=lambda e: e.__name__,
)
def test_failed_band_fit_raises_its_type(
    monkeypatch, cavity, mode01, detection, phase_noise, error
):
    """A failed full-band fit leaves analyze_peak as its own type, with no
    earlier fit kept in its place, and a failed tail + beat fit leaves
    fit_background the same way, with no tail-only fit in its place.
    analyze_campaign skips that spectrum with a warning on a typed fit
    error; any other ValueError is a bug and propagates."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    inner = fitting.nlls_fit
    background_fits = []

    def failing_background_fit(problem):
        background_fits.append(problem.initial_params.size)
        raise error("injected background-fit failure")

    monkeypatch.setattr(fitting, "nlls_fit", failing_background_fit)
    with pytest.raises(error, match="injected background-fit failure"):
        fitting.fit_background(specs[0], [window])
    assert background_fits == [6]

    band_fits = []

    def failing_band_fit(problem):
        if problem.initial_params.size == 10:
            band_fits.append(problem)
            if len(band_fits) == 1:
                raise error("injected band-fit failure")
        return inner(problem)

    monkeypatch.setattr(fitting, "nlls_fit", failing_band_fit)
    with pytest.raises(error, match="injected band-fit failure"):
        fitting.analyze_peak(specs[0], mode01, cavity, detection, window)
    band_fits.clear()
    if error is ValueError:
        with pytest.raises(ValueError, match="injected band-fit failure"):
            fitting.analyze_campaign(specs, mode01, cavity, detection, window)
        return
    with pytest.warns(UserWarning, match="spectrum 0: .*injected.*skipped"):
        out = fitting.analyze_campaign(specs, mode01, cavity, detection, window)
    assert len(band_fits) == len(specs)
    assert out.cooling.n_points == len(specs) - 1


# ---------------------------------------------------------------------------
# analytic Jacobians
# ---------------------------------------------------------------------------


def _recorded_fits(run):
    """Call run() and return every (problem, result) pair nlls_fit saw; a
    fit that runs out of iterations contributes its best state."""
    seen = []
    inner = fitting.nlls_fit

    def recording(problem, *args, **kwargs):
        try:
            result = inner(problem, *args, **kwargs)
        except FitConvergenceError as exc:
            seen.append((problem, exc.best))
            raise
        seen.append((problem, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "nlls_fit", recording)
        run()
    return seen


def _central_jacobian(model, params, rel_step=1e-6):
    jac = np.empty((model(params).size, params.size))
    for i in range(params.size):
        step = rel_step * max(abs(params[i]), 1.0)
        up, down = np.array(params), np.array(params)
        up[i] += step
        down[i] -= step
        jac[:, i] = (model(up) - model(down)) / (2.0 * step)
    return jac


def _assert_jacobians_match(fits, sizes):
    assert [problem.initial_params.size for problem, _ in fits] == sizes
    for problem, result in fits:
        for params in (problem.initial_params, result.params):
            values, fill = problem.model(params)
            analytic = np.empty((params.size, values.size))
            fill(analytic)
            analytic = analytic.T
            reference = _central_jacobian(lambda p: problem.model(p)[0], params)
            assert analytic.shape == reference.shape
            for i in range(params.size):
                err = np.linalg.norm(analytic[:, i] - reference[:, i])
                assert err <= 1e-5 * np.linalg.norm(reference[:, i]), (
                    f"{params.size}-parameter model, column {i}"
                )


def test_background_jacobians_match_central_differences():
    """Tail + beat (6 parameters), on a spectrum with a beat note and on a
    beat-free one, whose beat amplitude is pinned at 0."""
    for beat_amplitude in (0.05, 0.0):
        noisy, _ = _background_spectrum(beat_amplitude=beat_amplitude)
        fits = _recorded_fits(lambda: fitting.fit_background(noisy))
        _assert_jacobians_match(fits, [6])


def test_peak_jacobians_match_central_differences(
    cavity, mode01, detection, phase_noise
):
    """The joint fit (6 parameters) is the only LM fit fit_peak runs, and
    the full-band fit (10 parameters) the only one analyze_peak runs."""
    model = _peak_setup(cavity, mode01, detection, phase_noise)
    noisy = spectra.synthesize_measured_spectrum(model, n_averages=200, seed=5)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    fits = _recorded_fits(
        lambda: fitting.fit_peak(noisy, (200e3, 300e3), detection, theta=theta)
    )
    _assert_jacobians_match(fits, [6])
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    fits = _recorded_fits(
        lambda: fitting.analyze_peak(specs[0], mode01, cavity, detection, window)
    )
    _assert_jacobians_match(fits, [10])


def test_jacobian_filler_binds_its_point(cavity, mode01, detection, phase_noise):
    """A filler gives the Jacobian at the point of its model call, whatever
    happens between that call and the fill.

    Each recorded problem (beat, joint and full-band) gets a filler at
    x0; the model is then evaluated at points x_j that differ from x0 in
    parameter j alone, and x0 is changed in place. The filler must still give
    the bits that a filler from a fresh model(x0) gives, so a kernel that
    reads its parameters or shared state lazily fails. The 1e-5
    central-difference tests would not see the Jacobian of a nearby point.
    """
    background, _ = _background_spectrum()
    peak = spectra.synthesize_measured_spectrum(
        _peak_setup(cavity, mode01, detection, phase_noise), n_averages=200, seed=5
    )
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    runs = [
        lambda: fitting.fit_background(background),
        lambda: fitting.fit_peak(peak, (200e3, 300e3), detection, theta=theta),
        lambda: fitting.analyze_peak(specs[0], mode01, cavity, detection, window),
    ]

    def filled(fill, shape):
        jac_t = np.full(shape, np.nan)
        fill(jac_t)
        return jac_t

    sizes = []
    for run in runs:
        fits, fresh = _recorded_fits(run), _recorded_fits(run)
        for (problem, _), (fresh_problem, _) in zip(fits, fresh):
            sizes.append(problem.initial_params.size)
            start = problem.initial_params.copy()
            x0 = start.copy()
            values, fill = problem.model(x0)
            for j in range(x0.size):
                x_j = start.copy()
                x_j[j] += 1e-3 * max(abs(x_j[j]), 1.0)
                problem.model(x_j)
            x0 *= 1.01
            shape = (x0.size, values.size)
            want_values, want_fill = fresh_problem.model(start)
            assert np.array_equal(values, want_values), x0.size
            got = filled(fill, shape)
            assert np.array_equal(got, filled(want_fill, shape)), x0.size
            assert np.all(np.isfinite(got)), x0.size
    assert sizes == [6, 6, 10]


def _assert_rows_match(fill, reference):
    """fill's rows equal the reference rows within 1e-12 of each row's norm."""
    got = np.full(reference.shape, np.nan)
    fill(got)
    for i, (row, ref) in enumerate(zip(got, reference)):
        err = np.linalg.norm(row - ref)
        assert err <= 1e-12 * np.linalg.norm(ref), f"row {i}"


# the campaign grid (Hz) and, as angular frequencies, the full-band fit's
# bounds on omega_eff and gamma_eff over it
_GRID_F = 156e3 + 50.0 * np.arange(4001)
_W_LO, _W_HI = TWO_PI * _GRID_F[0], TWO_PI * _GRID_F[-1]


@settings(max_examples=60, deadline=None)
@given(
    a2=st.floats(1e-2, 1e2),
    a3_share=st.floats(-1.0, 1.0),
    omega_eff=st.floats(_W_LO, _W_HI),
    gamma_eff=st.floats(TWO_PI * 50.0, _W_HI - _W_LO),
)
def test_lineshape_jacobian_matches_long_form(a2, a3_share, omega_eff, gamma_eff):
    """PeakGrid's rows, built from identities between the lobe terms, equal
    the derivatives written out term by term, anywhere inside the full-band
    fit's bounds (a3 drawn as a share of a2, of either sign)."""
    grid = spectra.PeakGrid(_GRID_F, spectra.DetectionConfig(probe_kappa=TWO_PI * 204e3))
    params = np.array([a2, a3_share * a2, omega_eff, gamma_eff])
    _assert_rows_match(
        grid.model(params)[1], lineshape_jacobian_reference(grid.w, grid.c_sq, params)
    )


@settings(max_examples=60, deadline=None)
@given(
    offset=st.floats(0.0, 1e-2),
    amp=st.floats(0.0, 1e-1),
    exponent=st.floats(0.1, 6.0),
    center=st.floats(_GRID_F[0], _GRID_F[-1]),
    width=st.floats(100.0, _GRID_F[-1] - _GRID_F[0]),
    beat=st.floats(0.0, 1.0),
)
def test_background_jacobian_matches_long_form(offset, amp, exponent, center, width, beat):
    """The tail + beat rows, with the tail power taken as exp(-e log x),
    equal the long-form rows with x ** -e, anywhere inside the background
    fit's bounds."""
    model = spectra.BackgroundModel.on_grid(_GRID_F, math.sqrt(_GRID_F[0] * _GRID_F[-1]))
    params = np.array([offset, amp, exponent, center, width, beat])
    _assert_rows_match(model(params)[1], background_jacobian_reference(_GRID_F, params))


def _window_bump(spec, window):
    """The background start's parameters, the search window's slice, and the
    bump _guess_in_window finds in that window of the whole spectrum less
    the background start, as analyze_peak evaluates it."""
    level = fitting._level_and_variance(spec.values, spec.n_averages)
    _, pivot, params = fitting._background_start(spec, spec.frequencies, [window], level)
    clean = spec.values - BackgroundModel.on_grid(spec.frequencies, pivot)(params)[0]
    sl = spec.window_slice(*window)
    return params, sl, fitting._guess_in_window(spec.frequencies[sl], clean[sl], spec.f_step)


def test_peak_start_is_taken_from_the_search_window(cavity, mode01, detection, phase_noise):
    """analyze_peak's full-band fit starts at the background start, with the
    bump's edge level on its offset, and at the bump's unit lineshape scaled
    to the bump's rise by the lineshape's height at the peak bin on the
    PeakGrid of the spectrum, though the start is subtracted in the search
    window alone: the same bits."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    grid = spectra.PeakGrid(specs[0].frequencies, detection)
    for spec in specs:
        params, sl, (unit, i_pk, a0, rise) = _window_bump(spec, window)
        height = grid.model(unit.as_array()[1:])[0][sl][i_pk]
        want = np.concatenate([params, [rise / height, 0.0, unit.omega_eff, unit.gamma_eff]])
        want[0] += a0
        fits = _recorded_fits(
            lambda: fitting.analyze_peak(spec, mode01, cavity, detection, window)
        )
        assert fits[0][0].initial_params.tobytes() == want.tobytes()


def test_one_smoothing_pass_per_spectrum(
    monkeypatch, cavity, mode01, detection, phase_noise
):
    """The level that weights a fit and masks its spurious bins is also the
    one its start reads the beat note off: analyze_peak and fit_background
    each smooth their spectrum once."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    inner = fitting._moving_average
    calls = []

    def counting(values):
        calls.append(values.size)
        return inner(values)

    monkeypatch.setattr(fitting, "_moving_average", counting)
    fitting.analyze_peak(specs[0], mode01, cavity, detection, window)
    assert calls == [specs[0].values.size]
    calls.clear()
    fitting.fit_background(specs[0], [window])
    assert calls == [specs[0].values.size]


@settings(max_examples=200, deadline=None)
@given(
    vals=st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=40),
    data=st.data(),
)
def test_half_maximum_span_matches_the_walk(vals, data):
    """The span's two bins, found with array operations, are the ones the
    walk outward from the peak bin stops at, with values equal to half,
    ties and spans that reach either end of the window."""
    vals = np.array(vals)
    i_pk = data.draw(st.integers(0, vals.size - 1))
    half = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    assert fitting._half_maximum_span(vals, i_pk, half) == half_maximum_span_reference(
        vals, i_pk, half
    )


def test_peak_start_height_from_the_grid_is_peak_models(
    cavity, mode01, detection, phase_noise
):
    """analyze_peak sizes the bump with its unit lineshape on the PeakGrid it
    holds, and fit_peak with one peak_model call on the peak bin: the two
    routes give analyze_peak's start a2 the same bits."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    for spec in specs:
        _, sl, (unit, i_pk, _, rise) = _window_bump(spec, window)
        f_pk = spec.frequencies[sl][i_pk : i_pk + 1]
        a2 = rise / float(spectra.peak_model(f_pk, unit, detection)[0])
        fits = _recorded_fits(
            lambda: fitting.analyze_peak(spec, mode01, cavity, detection, window)
        )
        assert float(fits[0][0].initial_params[6]).hex() == a2.hex()


def test_effective_area_at_a_zero_sideband_angle():
    """At tan(theta) = 0, a_eff is a2 with a2's sigma when a3 is 0, and is
    undefined otherwise."""
    block = np.array([[4.0, 1.0], [1.0, 9.0]])
    assert fitting._effective_area(5.0, 0.0, 0.0, block) == (5.0, 2.0)
    with pytest.raises(ValueError, match=r"tan\(theta\) = 0 with a3 != 0"):
        fitting._effective_area(5.0, 0.5, 0.0, block)


def test_effective_area_does_not_depend_on_memory_layout(
    cavity, mode01, detection, phase_noise
):
    """a_eff and its sigma are the same bits from a C- and a Fortran-ordered
    copy of one covariance block, and every covariance analyze_peak returns
    equals its transpose exactly."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    for spec in specs:
        peak, _ = fitting.analyze_peak(spec, mode01, cavity, detection, window)
        assert np.array_equal(peak.covariance, peak.covariance.T)
        block = peak.covariance[1:3, 1:3]
        got = [
            fitting._effective_area(peak.coeffs.a2, peak.coeffs.a3, theta, order(block))
            for order in (np.ascontiguousarray, np.asfortranarray)
        ]
        assert got[0] == got[1] == (peak.a_eff, peak.a_eff_sigma)
    rng = np.random.default_rng(3)
    for _ in range(200):
        factor = rng.normal(size=(2, 2))
        block = factor @ factor.T
        c_order = fitting._effective_area(1.0, 0.5, 0.7, np.ascontiguousarray(block))
        f_order = fitting._effective_area(1.0, 0.5, 0.7, np.asfortranarray(block))
        assert c_order == f_order


def test_peak_model_matches_reference_arithmetic(cavity, mode01, detection, phase_noise):
    """peak_model, and PeakGrid's lineshape alone, which is the reference
    with a0 = 0."""
    f = 156e3 + 50.0 * np.arange(4001)
    grid = spectra.PeakGrid(f, detection)
    for gamma_opt_hz in (1e3, 3e3, 9e3):
        drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * gamma_opt_hz)
        coeffs, _ = spectra.model_coefficients(
            mode01, cavity, drive, phase_noise, floor=5e-3
        )
        lineshape = dataclasses.replace(coeffs, a0=0.0)
        for got, ref in [
            (spectra.peak_model(f, coeffs, detection), coeffs),
            (grid.model(coeffs.as_array()[1:])[0], lineshape),
        ]:
            ref = peak_model_reference(f, ref, detection)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


# ---------------------------------------------------------------------------
# cooling curve
# ---------------------------------------------------------------------------


def test_fit_cooling_curve_exact_inversion(mode01):
    g_hz = 2.1
    n_th = sc.thermal_occupation(mode01)
    b1 = 2 * g_hz**2 * mode01.gamma_m * n_th
    b2 = 0.13
    gammas = TWO_PI * np.geomspace(1e3, 10e3, 8)
    points = [(g, b1 / g + b2 * g, 10.0) for g in gammas]
    res = fitting.fit_cooling_curve(points, mode01)
    assert res.b1 == pytest.approx(b1, rel=1e-10)
    assert res.b2 == pytest.approx(b2, rel=1e-10)
    assert res.g0_hz == pytest.approx(g_hz, rel=1e-10)
    assert res.gamma_min == pytest.approx(math.sqrt(b1 / b2), rel=1e-10)
    assert res.n_min == pytest.approx(
        2 * mode01.gamma_m * n_th * math.sqrt(b2 / b1), rel=1e-10
    )
    # closed-form identity survives the inversion
    assert res.n_min * res.gamma_min == pytest.approx(
        2 * mode01.gamma_m * n_th, rel=1e-10
    )


def test_fit_cooling_curve_rejects_unphysical_branch(mode01):
    gammas = TWO_PI * np.geomspace(1e3, 10e3, 6)
    points = [(g, -5.0 * g, 1.0) for g in gammas]
    with pytest.raises(ValueError, match="inconsistent"):
        fitting.fit_cooling_curve(points, mode01)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
def test_fit_cooling_curve_rejects_a_bad_gamma_eff(mode01, bad):
    """One infinite, NaN or zero gamma_eff among six points raises instead
    of giving NaN physics."""
    gammas = TWO_PI * np.geomspace(1e3, 10e3, 6)
    gammas[2] = bad
    with pytest.raises(ValueError, match="gamma_eff must be positive and finite"):
        fitting.fit_cooling_curve([(g, 100.0, 1.0) for g in gammas], mode01)


def test_fit_cooling_curve_rejects_a_nan_fit(mode01):
    """Sigmas so small that their weights overflow give NaN b1 and b2 from
    finite, positive points; the sign test fails on NaN."""
    gammas = TWO_PI * np.geomspace(1e3, 10e3, 6)
    points = [(g, 1e3 / g + 0.13 * g, 1e-300) for g in gammas]
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="b1 = nan"):
        fitting.fit_cooling_curve(points, mode01)


def test_fit_cooling_curve_needs_two_points(mode01):
    with pytest.raises(ValueError, match="at least 2 points"):
        fitting.fit_cooling_curve([(TWO_PI * 3e3, 1e3, 10.0)], mode01)


@pytest.mark.parametrize("n", [2, 3])
def test_fit_cooling_curve_needs_two_distinct_gamma_eff(mode01, n):
    """Points that all share one gamma_eff cannot separate b1/Gamma from
    b2 Gamma; the normal matrix is singular to rounding, so the fit raises
    instead of returning sigmas from it."""
    gamma = TWO_PI * 3e3
    points = [(gamma, 1e3 + 10.0 * k, 10.0) for k in range(n)]
    with pytest.raises(DegenerateFitError, match="2 distinct gamma_eff"):
        fitting.fit_cooling_curve(points, mode01)


def test_cooling_curve_annotates_soft_points(mode01):
    g_hz = 2.1
    n_th = sc.thermal_occupation(mode01)
    b1 = 2 * g_hz**2 * mode01.gamma_m * n_th
    # widths below 10 gamma_m, where gamma_opt ~ gamma_eff is marginal
    gammas = np.geomspace(2.0, 5.0, 5) * mode01.gamma_m
    points = [(g, b1 / g + 0.13 * g, 10.0) for g in gammas]
    res = fitting.fit_cooling_curve(points, mode01)
    assert any("gamma_m" in a for a in res.annotations)


# ---------------------------------------------------------------------------
# discrimination and extraction
# ---------------------------------------------------------------------------


def test_discriminate_phase_dominated(cavity, mode01):
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    b2 = 0.13
    slope = b2 * math.sin(2 * theta)
    d = fitting.discriminate_noise(b2, 0.005, slope, abs(0.02 * slope), theta)
    assert d.classification == "phase-dominated"
    assert d.ratio == pytest.approx(1.0 / math.sin(2 * theta), rel=1e-6)


def test_discriminate_amplitude_dominated(cavity, mode01):
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    d = fitting.discriminate_noise(0.13, 0.005, 0.0, 0.01, theta)
    assert d.classification == "amplitude-dominated"


def test_discriminate_mixed(cavity, mode01):
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    phase_slope = 0.13 * math.sin(2 * theta)
    # twice the phase-implied b2: half the heating is amplitude noise
    d = fitting.discriminate_noise(0.26, 0.002, phase_slope, 1e-4, theta)
    assert d.classification == "mixed"
    assert d.amplitude_fraction == pytest.approx(0.5, abs=0.1)


def test_discriminate_indeterminate_near_zero_sin2theta(mode01):
    # at Delta = -Omega_m in a 20 kHz cavity sin 2 theta is -0.039
    cavity_opt = sc.CavitySpec(kappa=TWO_PI * 20e3, detuning=-mode01.omega_m)
    theta = sc.sideband_angle(cavity_opt, mode01.omega_m)
    assert abs(math.sin(2 * theta)) < 0.05
    d = fitting.discriminate_noise(0.13, 0.005, 0.0, 0.01, theta)
    assert d.classification == "indeterminate"
    d2 = fitting.discriminate_noise(0.13, 0.005, 0.001, 0.01, math.pi / 2)
    assert d2.classification == "indeterminate"


def test_unresolved_b2_and_a3_slope_are_indeterminate(cavity, mode01):
    """With neither the a3 slope nor b2 above 2 sigma the noise type is
    indeterminate, though sin 2 theta gives the phase ratio to expect."""
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    d = fitting.discriminate_noise(0.01, 0.01, 0.0, 0.01, theta)
    assert d.classification == "indeterminate"
    assert d.ratio is None
    assert d.expected_phase_ratio == 1.0 / math.sin(2.0 * theta)
    assert math.isnan(d.amplitude_fraction)


def test_extract_noise_round_trip(cavity, mode01, phase_noise):
    """b2 built from a known phase PSD inverts back to that PSD."""
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    coupling = phase_noise.s_phi_phi / math.cos(theta) ** 2
    b2 = coupling * mode01.omega_m**2 / (8 * math.pi**2)
    res = fitting.CoolingCurveResult(
        b1=1.0, b2=b2, covariance=np.diag([1e-6, (0.02 * b2) ** 2]),
        reduced_chi2=1.0, g0=TWO_PI * 2.1, g0_sigma=0.0,
        n_min=1.0, n_min_sigma=0.0, gamma_min=1.0, gamma_min_sigma=0.0,
        n_points=8,
    )
    out = fitting.extract_noise_psd(res, mode01, cavity, "phase-dominated")
    assert out.s_phi_phi == pytest.approx(phase_noise.s_phi_phi, rel=1e-10, abs=0)
    assert out.s_nu_nu == pytest.approx(2.2e-2, rel=1e-6)
    assert not out.s_phi_phi_is_limit
    assert out.s_eps_eps_is_limit


def test_a3_slope_without_finite_sigma_is_degenerate():
    peaks = [peak_record(TWO_PI * g, 100.0, a3_sigma=math.inf) for g in (1e3, 2e3, 4e3)]
    with pytest.raises(DegenerateFitError, match="a3 slope"):
        fitting._a3_slope(peaks)


# ---------------------------------------------------------------------------
# campaign-level pipeline
# ---------------------------------------------------------------------------


def test_analyze_campaign_recovers_truth(cavity, mode01, detection, phase_noise):
    res, ref = run_campaign(
        mode01, cavity, detection, phase_noise, g0=TWO_PI * 2.1,
        seed=42, floor=3.5e-3,
    )
    c = res.cooling
    assert c.g0_hz == pytest.approx(2.1, rel=0.03)
    assert abs(c.n_min - ref["n_min"]) < 3 * c.n_min_sigma
    assert abs(c.gamma_min - ref["gamma_min"]) < 3 * c.gamma_min_sigma
    assert res.discrimination.classification == "phase-dominated"
    assert res.noise.s_nu_nu == pytest.approx(2.2e-2, rel=0.05)


def test_analyze_campaign_skips_hopeless_spectra(cavity, mode01, detection, phase_noise):
    flat = Spectrum(
        f_start=156e3, f_step=50.0, values=np.full(4001, 3.5e-3),
        units=SpectrumUnits.HZ2_PER_HZ, n_averages=200,
    )
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    with pytest.warns(UserWarning, match="skipped"):
        out = fitting.analyze_campaign(
            [flat] + specs, mode01, cavity, detection, search_window=window
        )
    assert out.cooling.n_points == 4


def test_analyze_campaign_needs_three_usable_peaks(cavity, mode01, detection, phase_noise):
    """A flat spectrum skipped beside two good ones leaves two peaks, too few
    for the cooling curve: the campaign raises, naming the count."""
    flat = Spectrum(
        f_start=156e3, f_step=50.0, values=np.full(4001, 3.5e-3),
        units=SpectrumUnits.HZ2_PER_HZ, n_averages=200,
    )
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FitConvergenceError, match="only 2 of 3 spectra"):
            fitting.analyze_campaign(
                [flat] + specs[:2], mode01, cavity, detection, search_window=window
            )
    assert ["skipped" in str(w.message) for w in caught] == [True]


def test_uncalibrated_spectrum_is_refused(cavity, mode01, detection, phase_noise):
    """A spectrum left in raw units gives peak areas off by an unknown scale:
    analyze_peak and fit_peak raise ValueError naming its units, and
    analyze_campaign lets that error through rather than skipping the
    spectrum and fitting the other three."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    raw = dataclasses.replace(specs[0], units=SpectrumUnits.RAW)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    for fit in (
        lambda: fitting.analyze_peak(raw, mode01, cavity, detection, window),
        lambda: fitting.fit_peak(raw, window, detection, theta),
        lambda: fitting.analyze_campaign([raw, *specs[1:]], mode01, cavity, detection, window),
    ):
        with pytest.raises(ValueError, match="units 'raw_volts2' are not calibrated"):
            fit()


def _bits(peak):
    """Every field of a PeakFitResult as bytes: equal means bit for bit."""
    return pickle.dumps(dataclasses.astuple(peak))


@pytest.mark.parametrize("n_grids", [1, 2])
def test_analyze_campaign_fits_each_spectrum_on_its_own_grid(
    monkeypatch, cavity, mode01, detection, phase_noise, n_grids
):
    """analyze_campaign builds one PeakGrid per distinct grid, hands each
    spectrum the grid of its own frequencies, and gives bit for bit the
    peaks of analyze_peak called on each spectrum alone. With two grids,
    the second and fourth spectra are re-synthesized at 3601 bins."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    if n_grids == 2:
        other, _ = _campaign_spectra(
            cavity, mode01, detection, phase_noise, n_bins=3601, seed=4
        )
        specs = [specs[0], other[1], specs[2], other[3]]
    alone = [
        fitting.analyze_peak(s, mode01, cavity, detection, window)[0] for s in specs
    ]
    inner = fitting.analyze_peak
    grids = []

    def recording(spectrum, *args, grid=None, **kwargs):
        grids.append(grid)
        return inner(spectrum, *args, grid=grid, **kwargs)

    monkeypatch.setattr(fitting, "analyze_peak", recording)
    out = fitting.analyze_campaign(specs, mode01, cavity, detection, window)
    assert [_bits(p) for p in out.peaks] == [_bits(p) for p in alone]
    assert len({id(g) for g in grids}) == n_grids
    assert grids[0] is grids[2] and grids[1] is grids[3]
    for spec, grid in zip(specs, grids):
        assert np.array_equal(grid.w, TWO_PI * spec.frequencies)


@pytest.mark.parametrize(
    "f_start, f_step, n_bins, probe_hz, message",
    [
        (156e3, 50.0, 4000, 204e3, "grid has 4000 bins but the spectrum has 4001"),
        (156.05e3, 50.0, 4001, 204e3, "grid's first w is"),
        (156e3, 50.0 * (1.0 + 1e-12), 4001, 204e3, "grid's last w is"),
        (156e3, 50.0, 4001, 200e3, "grid was built for DetectionConfig"),
    ],
    ids=["size", "first", "last", "detection"],
)
def test_analyze_peak_rejects_a_grid_of_other_bins(
    monkeypatch, cavity, mode01, detection, phase_noise,
    f_start, f_step, n_bins, probe_hz, message,
):
    """A grid that is not the spectrum's own, in bins or in detection,
    raises one ValueError naming the mismatch before any fit, so no fit
    ever runs on another grid's |C|^2."""
    specs, window = _campaign_spectra(cavity, mode01, detection, phase_noise)
    grid = spectra.PeakGrid(
        f_start + f_step * np.arange(n_bins),
        dataclasses.replace(detection, probe_kappa=TWO_PI * probe_hz),
    )
    monkeypatch.setattr(fitting, "nlls_fit", None)
    with pytest.raises(ValueError, match=message):
        fitting.analyze_peak(specs[0], mode01, cavity, detection, window, grid=grid)


def test_analyze_campaign_calls_analyze_peak_once_per_spectrum(
    monkeypatch, cavity, mode01, detection, phase_noise
):
    """The benchmark harness times each spectrum of a campaign by replacing
    fitting.analyze_peak, so analyze_campaign calls it through the module,
    once per spectrum: 12 calls for 12 spectra."""
    specs, _, window = campaign_spectra(
        mode01, cavity, detection, phase_noise, g0=TWO_PI * 2.1, seed=42, floor=3.5e-3
    )
    inner = fitting.analyze_peak
    calls = []

    def counting(spectrum, *args, **kwargs):
        calls.append(spectrum)
        return inner(spectrum, *args, **kwargs)

    monkeypatch.setattr(fitting, "analyze_peak", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fitting.analyze_campaign(specs, mode01, cavity, detection, window)
    assert len(specs) == 12
    assert [id(s) for s in calls] == [id(s) for s in specs]


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="counts page faults of glibc's heap trimming (Linux ru_minflt)",
)
def test_warm_campaign_takes_few_page_faults(cavity, mode01, detection, phase_noise):
    """The benchmark's loop: a fresh 12-spectrum phase campaign is
    synthesized before each analyze_campaign, six times. After the first
    two, each campaign reuses the heap its predecessors left: at most 120
    minor page faults. A Jacobian buffer allocated on its own, 320 KB at
    4001 bins, was trimmed and faulted in again about every other campaign
    (2,156 faults in the sixth), and two separate LM buffers per fit took
    about 2,600 faults per campaign."""
    resource = pytest.importorskip("resource")
    faults = []
    for seed in range(40, 46):
        specs, _, window = campaign_spectra(
            mode01, cavity, detection, phase_noise, g0=TWO_PI * 2.1, seed=seed,
            floor=3.5e-3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            fitting.analyze_campaign(specs, mode01, cavity, detection, window)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults[2:]) <= 120, faults


_CAMPAIGN_HASH = """
import hashlib, math, pickle, sys, warnings
sys.path[:0] = sys.argv[1:3]
import numpy as np
import sidecool as sc
from sidecool import fitting, spectra
from conftest import campaign_spectra, published_cavity
TWO_PI = 2.0 * math.pi
mode = sc.MechMode(omega_m=TWO_PI * 256e3, q_factor=1.18e7, temperature=300.0)
detection = spectra.DetectionConfig(probe_kappa=TWO_PI * 204e3)
digest = hashlib.sha256()
for noise, floor, seed in [
    (sc.LaserNoise(s_phi_phi=2.2e-2 / 256e3**2), 3.5e-3, 42),
    (sc.LaserNoise(s_eps_eps=1e-13), 1e-4, 1000),
]:
    for k in range(3):
        specs, _, window = campaign_spectra(
            mode, published_cavity(), detection, noise, TWO_PI * 2.1, seed + k, floor
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = fitting.analyze_campaign(specs, mode, published_cavity(), detection, window)
        for peak in out.peaks:
            digest.update(peak.coeffs.as_array().tobytes() + peak.covariance.tobytes())
            digest.update(np.array([peak.a_eff, peak.a_eff_sigma, peak.reduced_chi2]).tobytes())
        digest.update(np.array([out.cooling.g0, out.cooling.n_min, out.cooling.gamma_min]).tobytes())
print(digest.hexdigest())
"""


def test_campaign_outputs_do_not_depend_on_blas_threads():
    """Six campaigns, three per noise type, give the same bits of every
    peak, covariance and cooling-curve result with one BLAS thread and with
    two: the normal matrix, the gradient and chi^2 come from BLAS calls on
    one weighted Jacobian, and none of them may split its sums by thread."""
    src = os.path.dirname(os.path.dirname(sc.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        proc = subprocess.run(
            [sys.executable, "-c", _CAMPAIGN_HASH, src, tests],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.strip())
    assert hashes[0] == hashes[1]


@pytest.mark.slow
@pytest.mark.parametrize(
    "noise, floor, seeds",
    [
        (LaserNoise(s_phi_phi=2.2e-2 / 256e3**2), 3.5e-3, range(8)),
        (LaserNoise(s_eps_eps=1e-13), 1e-4, range(1000, 1008)),
    ],
    ids=["phase", "amplitude"],
)
def test_per_peak_pulls_are_unbiased(cavity, mode01, detection, noise, floor, seeds):
    """Over 96 peaks (8 campaigns of 12), the mean pulls (estimate - truth) /
    sigma of a_eff and gamma_eff lie within +-0.3 and every peak fit has a
    reduced chi^2 of at most 1.3. A background fit that absorbs the peak's
    wings biases both pulls on the amplitude campaigns and raises chi^2."""
    a_eff_pulls, gamma_pulls, chi2 = [], [], []
    for seed in seeds:
        res, ref = run_campaign(
            mode01, cavity, detection, noise, g0=TWO_PI * 2.1, seed=seed, floor=floor
        )
        assert len(res.peaks) == len(ref["truth"])
        for peak, truth in zip(res.peaks, ref["truth"]):
            a_eff_pulls.append((peak.a_eff - truth["a_eff_hz2"]) / peak.a_eff_sigma)
            gamma_pulls.append(
                (peak.coeffs.gamma_eff - TWO_PI * truth["gamma_eff_hz"])
                / math.sqrt(peak.covariance[4, 4])
            )
            chi2.append(peak.reduced_chi2)
    assert len(chi2) == 96
    assert abs(np.mean(a_eff_pulls)) <= 0.3
    assert abs(np.mean(gamma_pulls)) <= 0.3
    assert max(chi2) <= 1.3
