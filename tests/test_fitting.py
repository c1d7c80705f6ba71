import math
import warnings

import numpy as np
import pytest

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

from conftest import peak_record, run_campaign
from _oracles import peak_model_reference, weighted_line_fit

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
    assert fit.converged
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
    assert fit.converged and fit.n_iterations <= 2


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
    assert fit.converged
    for i, bound in pinned.items():
        assert fit.params[i] == bound


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


def test_fit_problem_rejects_too_few_points():
    with pytest.raises(ValueError):
        _problem(
            model=lambda p: p,
            data=np.array([1.0, 2.0, 3.0]),
            weights=np.ones(3),
            initial_params=np.ones(4),
            jacobian=lambda p: np.zeros((3, p.size)),
        )


# ---------------------------------------------------------------------------
# spectrum statistics
# ---------------------------------------------------------------------------


def test_periodogram_variance_floor_is_positive():
    values = np.zeros(100)
    values[50] = 1.0
    var = fitting.periodogram_variance(values, n_averages=10)
    assert np.all(var > 0)


def test_level_memo_follows_the_values():
    """The smoothed level and variance are kept per spectrum's bytes: values
    changed in place or another n_averages recompute, and a hit gives what a
    fresh computation gives."""
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 2.0, 500)
    first = fitting._level_and_variance(x, 10)
    assert not first[0].flags.writeable and not first[1].flags.writeable
    x[250] += 5.0
    changed = fitting._level_and_variance(x, 10)
    assert not np.array_equal(changed[0], first[0])
    other_m = fitting._level_and_variance(x, 20)
    assert np.array_equal(other_m[1], changed[1] / 2.0)
    hit = fitting._level_and_variance(x.copy(), 10)
    assert hit[1] is changed[1]
    fitting._LEVEL_MEMO.clear()
    fresh = fitting._level_and_variance(x, 10)
    assert all(np.array_equal(a, b) for a, b in zip(fresh, changed))
    var = fitting.periodogram_variance(x, 10)
    assert var.flags.writeable and np.array_equal(var, fresh[1])


def test_spurious_bin_mask_flags_spike_keeps_rest():
    rng = np.random.default_rng(1)
    values = rng.chisquare(200, 1000) / 200 * 2.0
    values[400] *= 8.0
    keep = fitting.spurious_bin_mask(values, n_averages=100)
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


def test_fit_background_needs_enough_bins():
    noisy, _ = _background_spectrum()
    with pytest.raises(ValueError, match="too few"):
        fitting.fit_background(noisy, exclusion_windows=[(0.0, 1e9)])


def test_subtract_background_counts_negative_bins():
    noisy, truth = _background_spectrum()
    clean = fitting.subtract_background(noisy, truth)
    assert clean.metadata["negative_bins"] > 0
    assert abs(float(np.mean(clean.values))) < 1e-3


# ---------------------------------------------------------------------------
# peak fitting
# ---------------------------------------------------------------------------


def _peak_setup(cavity, mode01, detection, phase_noise, gamma_opt_hz=3e3):
    drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * gamma_opt_hz)
    return spectra.output_psd(
        f_start=156e3, f_step=50.0, n_bins=4001, mode=mode01, cavity=cavity,
        drive=drive, noise=phase_noise, detection=detection, floor=5e-3,
    )


def test_peak_initial_guess_raises_on_flat(detection):
    flat = Spectrum(f_start=1e5, f_step=10.0, values=np.full(1000, 2.0))
    with pytest.raises(PeakNotFoundError, match="no peak"):
        fitting.peak_initial_guess(flat, (1e5, 1.09e5), detection)


def test_fit_peak_exact_on_noiseless_model(cavity, mode01, detection, phase_noise):
    model = _peak_setup(cavity, mode01, detection, phase_noise)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    res = fitting.fit_peak(model, (200e3, 300e3), detection, theta=theta)
    md = model.metadata
    assert res.coeffs.a2 == pytest.approx(md["a2"], rel=1e-6)
    assert res.coeffs.a3 == pytest.approx(md["a3"], rel=1e-6)
    assert res.coeffs.gamma_eff / TWO_PI == pytest.approx(md["gamma_eff_hz"], rel=1e-8)
    assert res.a_eff == pytest.approx(2.1**2 * (2 * md["n_eff"] + 1), rel=1e-6)
    assert not res.lorentzian_preferred


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
    truth = 2.1**2 * (2 * model.metadata["n_eff"] + 1)
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
    md = model.metadata
    assert res.coeffs.gamma_eff / TWO_PI == pytest.approx(md["gamma_eff_hz"], rel=0.05)
    assert res.a_eff == pytest.approx(
        2.1**2 * (2 * md["n_eff"] + 1), rel=0.05
    )


@pytest.mark.parametrize(
    "error",
    [DegenerateFitError, FitConvergenceError, PeakNotFoundError, ValueError],
    ids=lambda e: e.__name__,
)
def test_analyze_peak_keeps_last_good_pass_on_degenerate_refit(
    monkeypatch, cavity, mode01, detection, phase_noise, error
):
    """A refit that fails with a typed fit error keeps pass 1; any other
    ValueError is a bug and propagates."""
    model = _peak_setup(cavity, mode01, detection, phase_noise)
    noisy = spectra.synthesize_measured_spectrum(model, n_averages=200, seed=4)
    inner = fitting.fit_peak
    passes = []

    def failing_refit(*args, **kwargs):
        if passes:
            raise error("injected refit failure")
        passes.append(inner(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(fitting, "fit_peak", failing_refit)
    if error is ValueError:
        with pytest.raises(ValueError, match="injected refit failure"):
            fitting.analyze_peak(
                noisy, mode01, cavity, detection, search_window=(226e3, 286e3)
            )
        return
    res, _ = fitting.analyze_peak(
        noisy, mode01, cavity, detection, search_window=(226e3, 286e3)
    )
    assert res is passes[0]


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
    """Tail (3 parameters) and tail + beat (6 parameters)."""
    noisy, _ = _background_spectrum()
    fits = _recorded_fits(lambda: fitting.fit_background(noisy))
    _assert_jacobians_match(fits, [3, 6])


def test_peak_jacobians_match_central_differences(
    cavity, mode01, detection, phase_noise
):
    """The joint fit (6 parameters) is the only LM fit fit_peak runs."""
    model = _peak_setup(cavity, mode01, detection, phase_noise)
    noisy = spectra.synthesize_measured_spectrum(model, n_averages=200, seed=5)
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    fits = _recorded_fits(
        lambda: fitting.fit_peak(noisy, (200e3, 300e3), detection, theta=theta)
    )
    _assert_jacobians_match(fits, [6])


def test_jacobian_filler_binds_its_point(cavity, mode01, detection, phase_noise):
    """A filler gives the Jacobian at the point of its model call, whatever
    happens between that call and the fill.

    Each recorded problem (tail, beat and joint) gets a filler at x0; the
    model is then evaluated at points x_j that differ from x0 in parameter j
    alone, and x0 is changed in place. The filler must still give the bits
    that a filler from a fresh model(x0) gives, so a kernel that reads its
    parameters or shared state lazily fails. The 1e-5 central-difference
    tests would not see the Jacobian of a nearby point.
    """
    background, _ = _background_spectrum()
    peak = spectra.synthesize_measured_spectrum(
        _peak_setup(cavity, mode01, detection, phase_noise), n_averages=200, seed=5
    )
    theta = sc.sideband_angle(cavity, mode01.omega_m)
    runs = [
        lambda: fitting.fit_background(background),
        lambda: fitting.fit_peak(peak, (200e3, 300e3), detection, theta=theta),
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
    assert sizes == [3, 6, 6]


def test_peak_model_matches_reference_arithmetic(cavity, mode01, detection, phase_noise):
    f = 156e3 + 50.0 * np.arange(4001)
    for gamma_opt_hz in (1e3, 3e3, 9e3):
        drive = DriveField(g0=TWO_PI * 2.1, gamma_opt=TWO_PI * gamma_opt_hz)
        coeffs, _ = spectra.model_coefficients(
            mode01, cavity, drive, phase_noise, floor=5e-3
        )
        coeffs = spectra.LineshapeCoeffs.from_array(
            coeffs.as_array() + np.array([0.0, 1e-9, 0.0, 0.0, 0.0, 0.0])
        )
        for omega_ref in (None, TWO_PI * 255e3):
            got = spectra.peak_model(f, coeffs, detection, omega_ref=omega_ref)
            ref = peak_model_reference(f, coeffs, detection, omega_ref=omega_ref)
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
    cavity_opt = sc.CavitySpec(kappa=TWO_PI * 204e3, detuning=-mode01.omega_m)
    theta = sc.sideband_angle(cavity_opt, mode01.omega_m)
    if abs(math.sin(2 * theta)) < 0.05:
        d = fitting.discriminate_noise(0.13, 0.005, 0.0, 0.01, theta)
        assert d.classification == "indeterminate"
    d2 = fitting.discriminate_noise(0.13, 0.005, 0.001, 0.01, math.pi / 2)
    assert d2.classification == "indeterminate"


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
        f_start=156e3, f_step=50.0, n_bins=4001,
        n_averages=200, seed=3, floor=floor, background=bg,
    )
    with pytest.warns(UserWarning, match="skipped"):
        out = fitting.analyze_campaign(
            [flat] + specs, mode01, cavity, detection,
            search_window=(mode_f - 30e3, mode_f + 30e3),
        )
    assert out.cooling.n_points == 4
