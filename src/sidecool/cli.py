"""Command-line front end: synth | fit-peak | cooling-curve | predict | convert.

Diagnostics go to stderr; machine-readable output goes to files or stdout.
Exit code 0 means a complete result was written. Every refusal exits 1 with
one ``error:`` line on stderr: I/O errors, invalid values and failed fits,
and argparse's own (a missing or unknown option, a bad choice, a value that
does not parse or breaks its option's rule, as in
``error: argument --min: must be finite``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio, fitting, report, spectra
from .physics import (
    DriveField,
    InstabilityError,
    LaserNoise,
    backaction_occupancy,
    amplitude_factor,
    effective_occupancy,
    min_occupancy,
    sideband_angle,
)

TWO_PI = 2.0 * math.pi


def _log(*args) -> None:
    print(*args, file=sys.stderr)


def _fail(message: str) -> int:
    _log(f"error: {message}")
    return 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals raise ValueError, so that main ends
    them in one error: line and exit 1 like every other refusal."""

    def error(self, message):
        raise ValueError(message)


def _checked(parse, rule: str, test):
    """An argparse type: the value parse reads from the text, refused with
    rule when test (written so that NaN fails) does not hold. Text that
    parse cannot read gets argparse's "invalid float value: 'abc'", which
    names the type by parse's name."""

    def read(text: str):
        value = parse(text)
        if not test(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    read.__name__ = parse.__name__
    return read


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


_float_list.__name__ = "comma-separated float"  # argparse's name for the type

_COUNT = _checked(int, "must be at least 1", lambda v: v >= 1)
_POSITIVE_FINITE = _checked(float, "must be positive and finite", lambda v: 0 < v < math.inf)
_FINITE = _checked(float, "must be finite", math.isfinite)
_NOT_NEGATIVE = _checked(float, "must be finite and not negative", lambda v: 0 <= v < math.inf)
_FINITE_LIST = _checked(
    _float_list, "entries must be finite", lambda v: all(map(math.isfinite, v))
)


def _load_config(args):
    """The experiment config and the mechanical mode --mode-index selects."""
    config = dataio.load_config(args.config)
    return config, config.mode(args.mode_index)


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument(
        "--mode-index", type=int, default=0, help="which mechanical mode to use"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sidecool",
        description="Forward modeling and thermometry for resolved-sideband "
        "cavity cooling of a membrane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic cooling-campaign spectra")
    _add_config_arg(p_synth)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--n-averages", type=_COUNT, default=200)
    p_synth.add_argument(
        "--gamma-opt-hz",
        type=_FINITE_LIST,
        default=None,
        help="comma-separated optical damping grid (Hz); default is a log "
        "grid of 8 points around the predicted optimum",
    )
    p_synth.add_argument(
        "--points", type=_COUNT, default=None,
        help="number of points of the default grid (8); not with --gamma-opt-hz",
    )
    p_synth.add_argument("--f-start-hz", type=_POSITIVE_FINITE, default=None)
    p_synth.add_argument("--f-stop-hz", type=_FINITE, default=None)
    p_synth.add_argument("--f-step-hz", type=_POSITIVE_FINITE, default=25.0)
    p_synth.add_argument(
        "--floor", type=_NOT_NEGATIVE, default=1e-4, help="flat PSD floor (Hz^2/Hz)"
    )
    p_synth.add_argument("--raw-scale", type=_POSITIVE_FINITE, default=1.0,
                         help="overall scale distortion; != 1 tags the output raw")

    p_fit = sub.add_parser("fit-peak", help="fit one spectrum's mechanical peak")
    _add_config_arg(p_fit)
    p_fit.add_argument("--spectrum", required=True)
    p_fit.add_argument("--window-hz", type=float, nargs=2, default=None)
    p_fit.add_argument("--out", required=True, help="report fragment JSON")
    p_fit.add_argument("--plot-data", default=None, help="f,data,fit,residual columns")

    p_cool = sub.add_parser("cooling-curve", help="combine peak fits into the cooling curve")
    _add_config_arg(p_cool)
    p_cool.add_argument("fragments", nargs="+", help="fit-peak report fragments")
    p_cool.add_argument("--out", required=True)
    p_cool.add_argument("--plot-data", default=None)

    p_pred = sub.add_parser("predict", help="closed-form what-if sweeps")
    _add_config_arg(p_pred)
    p_pred.add_argument(
        "--sweep", choices=["detuning", "gamma-opt", "quality-factor"], required=True
    )
    p_pred.add_argument("--min", type=_FINITE, required=True)
    p_pred.add_argument("--max", type=_FINITE, required=True)
    p_pred.add_argument("--points", type=_COUNT, default=21)
    p_pred.add_argument("--log", action="store_true")
    p_pred.add_argument("--out", default=None, help="TSV output (default stdout)")

    p_conv = sub.add_parser("convert", help="noise-PSD unit conversions")
    p_conv.add_argument(
        "--quantity",
        choices=["snn-to-sphiphi", "sphiphi-to-snn", "snn-to-sll", "sll-to-snn"],
        required=True,
    )
    p_conv.add_argument("--value", type=_NOT_NEGATIVE, required=True)
    p_conv.add_argument("--frequency-hz", type=_POSITIVE_FINITE, default=None)
    p_conv.add_argument("--config", default=None)

    return parser


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.gamma_opt_hz is not None and args.points is not None:
        return _fail("--points plays no part when --gamma-opt-hz is given")
    config, mode = _load_config(args)
    if config.g0 is None:
        return _fail("config must provide g0_hz for synthesis")
    noise = config.noise or LaserNoise()
    mode_f = mode.omega_m / TWO_PI

    grid_hz = args.gamma_opt_hz
    if grid_hz is None:
        try:
            _, gamma_min = min_occupancy(mode, config.cavity, config.g0, noise)
        except ValueError as exc:
            return _fail(f"cannot build default drive grid: {exc}")
        grid_hz = list(
            np.geomspace(0.5 * gamma_min / TWO_PI, 4.0 * gamma_min / TWO_PI, args.points or 8)
        )
    f_start = args.f_start_hz if args.f_start_hz is not None else mode_f - 100e3
    f_stop = args.f_stop_hz if args.f_stop_hz is not None else mode_f + 100e3
    band = f"--f-start-hz {f_start:.6g} to --f-stop-hz {f_stop:.6g}"
    if f_start <= 0 or f_stop <= f_start:
        return _fail(f"invalid frequency range {band}: need 0 < start < stop")
    n_bins = int(round((f_stop - f_start) / args.f_step_hz)) + 1

    tone = config.calibration_tone
    if tone is not None and not (f_start < tone.frequency_hz < f_stop):
        return _fail(f"calibration tone lies outside the synthesis grid {band}")

    # The dispersive part of the peak digs below the flat floor; raise the
    # floor to the detected-noise level every drive point needs to stay
    # positive (plus margin, so the squashing dip remains visible).
    floor = args.floor
    try:
        f_grid = f_start + args.f_step_hz * np.arange(n_bins)
    except MemoryError as exc:  # numpy refuses an allocation that cannot succeed
        return _fail(f"--f-step-hz {args.f_step_hz:g} gives {n_bins} bins over {band}: {exc}")
    for g_hz in grid_hz:
        drive = DriveField(g0=config.g0, gamma_opt=TWO_PI * g_hz)
        try:
            coeffs, _ = spectra.model_coefficients(
                mode, config.cavity, drive, noise, floor=0.0
            )
        except InstabilityError as exc:
            return _fail(f"unstable drive point --gamma-opt-hz {g_hz:.6g}: {exc}")
        dip = float(np.min(spectra.peak_model(f_grid, coeffs, config.detection)))
        if dip < 0:
            floor = max(floor, 1.3 * abs(dip))
    if floor > args.floor:
        _log(f"raising PSD floor to {floor:.3g} Hz^2/Hz to keep the model positive")

    specs, truth = spectra.synthesize_campaign(
        mode=mode,
        cavity=config.cavity,
        g0=config.g0,
        gamma_opt_grid=TWO_PI * np.asarray(grid_hz),
        noise=noise,
        detection=config.detection,
        f_start=f_start,
        f_step=args.f_step_hz,
        n_bins=n_bins,
        n_averages=args.n_averages,
        seed=args.seed,
        floor=floor,
        background=spectra.BackgroundModel(
            tail_amplitude=floor * mode_f**2,
            beat_center=mode_f + 45e3,
            beat_width=2e3,
            beat_amplitude=200.0 * floor,
        ),
        tone=tone,
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, spec in enumerate(specs):
        if args.raw_scale != 1.0:
            spec = replace(
                spec, values=spec.values * args.raw_scale, units=spectra.SpectrumUnits.RAW
            )
        name = f"spectrum_{i:03d}.csv"
        dataio.write_spectrum(spec, out_dir / name)
        files.append(name)
    manifest = {
        "seed": args.seed,
        "n_averages": args.n_averages,
        "f_start_hz": f_start,
        "f_step_hz": args.f_step_hz,
        "n_bins": n_bins,
        "floor": floor,
        "raw_scale": args.raw_scale,
        "gamma_opt_hz": list(grid_hz),
        "files": files,
        "truth": truth,
        "config": dataio.config_to_dict(config),
        "mode_index": args.mode_index,
        "tool_version": report.TOOL_VERSION,
    }
    dataio.atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    _log(f"wrote {len(files)} spectra and manifest.json to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fit-peak
# ---------------------------------------------------------------------------


def _tone_exclusion(config):
    if config.calibration_tone is None:
        return []
    f_t = config.calibration_tone.frequency_hz
    return [(f_t - 1e3, f_t + 1e3)]


def cmd_fit_peak(args) -> int:
    config, mode = _load_config(args)
    spectrum = dataio.read_spectrum(args.spectrum)
    if config.calibration_tone is not None:
        spectrum = dataio.calibrate_with_tone(spectrum, config.calibration_tone)
    if spectrum.units is not spectra.SpectrumUnits.HZ2_PER_HZ:
        units = spectrum.units.value
        return _fail(f"{args.spectrum}: units {units!r} need the config's calibration_tone")
    mode_f = mode.omega_m / TWO_PI
    window = tuple(args.window_hz) if args.window_hz else (mode_f - 30e3, mode_f + 30e3)
    try:
        spectrum.window_slice(*window)
    except ValueError as exc:
        return _fail(f"search window (--window-hz): {exc}")

    result, background = fitting.analyze_peak(
        spectrum,
        mode,
        config.cavity,
        config.detection,
        search_window=window,
        exclusion_windows=_tone_exclusion(config),
    )

    frag = report.FitReport(
        peaks=[result],
        provenance={"spectrum": str(args.spectrum), "config": str(args.config)},
    )
    frag.save(args.out)

    if args.plot_data:
        sl = spectrum.window_slice(*result.window)
        f = spectrum.frequencies[sl]
        data = spectrum.values[sl] - spectra.evaluate_background(background, f)
        fit_vals = spectra.peak_model(f, result.coeffs, config.detection)
        columns = (f, data, fit_vals, data - fit_vals)
        rows = zip(*(c.tolist() for c in columns))
        lines = ["frequency_hz\tdata\tfit\tresidual"]
        lines.extend(map("%.17g\t%.17g\t%.17g\t%.17g".__mod__, rows))
        dataio.atomic_write_text(args.plot_data, "\n".join(lines) + "\n")

    _log(
        f"peak at {result.coeffs.omega_eff / TWO_PI:.1f} Hz, "
        f"gamma_eff/2pi = {result.coeffs.gamma_eff / TWO_PI:.1f} Hz, "
        f"a_eff = {result.a_eff:.4g} +- {result.a_eff_sigma:.2g} Hz^2"
    )
    return 0


# ---------------------------------------------------------------------------
# cooling-curve
# ---------------------------------------------------------------------------


def cmd_cooling_curve(args) -> int:
    config, mode = _load_config(args)
    if len(args.fragments) < 3:
        return _fail("need at least 3 fit-peak fragments")
    peaks, labels = [], []
    for frag_path in args.fragments:
        frag = report.FitReport.load(frag_path)
        if not frag.peaks:
            return _fail(f"{frag_path}: no peak record")
        peaks.extend(frag.peaks)
        labels.extend(f"{frag_path} peak {j}" for j in range(len(frag.peaks)))

    full = fitting.summarize_peaks(peaks, mode, config.cavity, labels)
    full.provenance = {"config": args.config, "fragments": args.fragments}
    full.save(args.out)
    cooling = full.cooling

    if args.plot_data:
        # a_eff = g^2 (2 n_eff + 1), so n_eff = a_eff / (2 g^2) - 1/2
        g_hz2 = cooling.g0_hz**2
        lines = ["gamma_eff_hz\tn_eff\tn_eff_sigma\tfit\tthermal_branch"]
        points = [(p.coeffs.gamma_eff, p.a_eff, p.a_eff_sigma) for p in peaks]
        for gamma, a_eff, sigma in sorted(points):
            model = cooling.b1 / gamma + cooling.b2 * gamma
            lines.append(
                f"{gamma / TWO_PI:.17g}\t{a_eff / (2 * g_hz2) - 0.5:.17g}"
                f"\t{sigma / (2 * g_hz2):.17g}\t{model / (2 * g_hz2) - 0.5:.17g}"
                f"\t{cooling.b1 / gamma / (2 * g_hz2):.17g}"
            )
        dataio.atomic_write_text(args.plot_data, "\n".join(lines) + "\n")

    _log(
        f"g0/2pi = {cooling.g0_hz:.3g} Hz, n_min = {cooling.n_min:.3g} "
        f"+- {cooling.n_min_sigma:.2g}, gamma_min/2pi = {cooling.gamma_min_hz:.4g} Hz, "
        f"noise: {full.discrimination.classification}"
    )
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

_PREDICT_COLUMNS = (
    "sweep_value",
    "theta_rad",
    "inv_cos_theta",
    "a_factor",
    "n_ba",
    "n_min",
    "gamma_min_hz",
    "gamma_opt_hz",
    "gamma_eff_hz",
    "n_exc",
    "n_eff",
    "flag",
)


def _predict_row(value, mode, cavity, g0, noise, gamma_opt=None):
    theta = sideband_angle(cavity, mode.omega_m)
    a_fac = amplitude_factor(cavity, mode.omega_m)
    n_ba = backaction_occupancy(cavity, mode.omega_m)
    if noise.is_zero:
        n_min = float("nan")
        gamma_min = float("nan")
    else:
        n_min, gamma_min = min_occupancy(mode, cavity, g0, noise)
    if gamma_opt is None:
        gamma_opt = gamma_min
    budget = effective_occupancy(
        mode, cavity, DriveField(g0=g0, gamma_opt=gamma_opt), noise
    )
    return [
        value,
        theta,
        1.0 / math.cos(theta),
        a_fac,
        n_ba,
        n_min,
        gamma_min / TWO_PI,
        gamma_opt / TWO_PI,
        budget.gamma_eff / TWO_PI,
        budget.n_exc,
        budget.n_eff,
        "ok",
    ]


def cmd_predict(args) -> int:
    # --min and --max are finite by their type; a sweep value that passes
    # these rules but is physically unstable is an "unstable" row, not an
    # error
    if args.sweep == "quality-factor" and args.min <= 0:
        return _fail("--min must be positive for a quality-factor sweep")
    if args.sweep == "gamma-opt" and args.min < 0:
        return _fail("--min must not be negative for a gamma-opt sweep")
    if args.log and args.min <= 0:
        return _fail("--min must be positive with --log")
    if args.max <= args.min:
        return _fail("--max must exceed --min")
    config, mode = _load_config(args)
    if config.g0 is None:
        return _fail("config must provide g0_hz for predictions")
    noise = config.noise or LaserNoise()
    if noise.is_zero and args.sweep != "gamma-opt":
        return _fail(
            f"--sweep {args.sweep} evaluates each row at gamma_min, which needs "
            "laser noise: the config's noise section is missing or zero"
        )
    if args.log:
        values = np.geomspace(args.min, args.max, args.points)
    else:
        values = np.linspace(args.min, args.max, args.points)

    rows = []
    for v in values:
        cavity, m, gamma_opt = config.cavity, mode, None
        try:
            if args.sweep == "detuning":
                cavity = replace(config.cavity, detuning=TWO_PI * v)
            elif args.sweep == "gamma-opt":
                gamma_opt = TWO_PI * v
            else:  # quality-factor
                m = replace(mode, q_factor=v, gamma_m=None)
            rows.append(_predict_row(v, m, cavity, config.g0, noise, gamma_opt))
        except (InstabilityError, ValueError):
            rows.append([v] + [float("nan")] * (len(_PREDICT_COLUMNS) - 2) + ["unstable"])

    lines = ["\t".join(_PREDICT_COLUMNS)]
    for row in rows:
        lines.append(
            "\t".join(x if isinstance(x, str) else f"{x:.10g}" for x in row)
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        dataio.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    quantity = args.quantity
    phase = quantity in ("snn-to-sphiphi", "sphiphi-to-snn")
    # each conversion reads --frequency-hz or --config, never both
    if (args.config if phase else args.frequency_hz) is not None:
        unread = "--config" if phase else "--frequency-hz"
        return _fail(f"{unread} plays no part in --quantity {quantity}")
    if phase:
        if args.frequency_hz is None:
            return _fail("--frequency-hz is required for this conversion")
        omega = TWO_PI * args.frequency_hz
        if quantity == "snn-to-sphiphi":
            out = dataio.convert_frequency_noise(args.value, omega)
        else:
            out = dataio.convert_phase_noise(args.value, omega)
    else:
        if args.config is None:
            return _fail("--config with cavity length and laser frequency is required")
        config = dataio.load_config(args.config)
        if quantity == "snn-to-sll":
            out = dataio.convert_snn_sll(args.value, config.cavity)
        else:
            out = dataio.convert_sll_snn(args.value, config.cavity)
    print(f"{out:.17g}")
    return 0


def main(argv=None) -> int:
    handlers = {
        "synth": cmd_synth,
        "fit-peak": cmd_fit_peak,
        "cooling-curve": cmd_cooling_curve,
        "predict": cmd_predict,
        "convert": cmd_convert,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (
        OSError,
        ValueError,
        fitting.FitConvergenceError,
        fitting.DegenerateFitError,
    ) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
