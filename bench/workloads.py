"""The three benchmark workloads and their correctness checks.

phase-campaign and amplitude-campaign invert one 12-spectrum campaign at a
time in memory, with the settings of ``tests/conftest.py::run_campaign``.
cli-chain runs ``synth``, 12 x ``fit-peak`` and ``cooling-curve``, each as its
own process (untraced) or as an in-process ``cli.main`` call (traced).

Every campaign seed derives from the workload seed, so a run is reproducible
from ``--seed`` alone and the package only ever sees generated spectra and
files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sidecool import cli, dataio, fitting, physics, report, spectra

from tracing import NLLS_KINDS, Tracer, busy, covered

TWO_PI = 2.0 * math.pi
MODE_F = 256e3
CAVITY = physics.CavitySpec(
    kappa=TWO_PI * 204e3,
    detuning=-TWO_PI * 480e3,
    cavity_length=48e-3,
    laser_frequency=281.76e12,
)
MODE01 = physics.MechMode(
    omega_m=TWO_PI * MODE_F, q_factor=1.18e7, temperature=300.0, label="(0,1)"
)
MODE02 = physics.MechMode(
    omega_m=TWO_PI * 593e3, q_factor=0.92e7, temperature=300.0, label="(0,2)"
)
DETECTION = spectra.DetectionConfig(probe_kappa=TWO_PI * 204e3)
G0 = TWO_PI * 2.1
S_NU_NU = 2.2e-2  # Hz^2/Hz at the mode frequency
S_EPS_EPS = 1e-13  # 1/Hz
PHASE_NOISE = physics.LaserNoise(s_phi_phi=S_NU_NU / MODE_F**2)
N_POINTS = 12
N_AVERAGES = 200
SEARCH_WINDOW = (MODE_F - 30e3, MODE_F + 30e3)
ROOT_SPANS = ("bench.campaign", "bench.chain")  # what campaign_s times
PULL_KEYS = ("g0", "n_min", "gamma_min", "psd")

# A run starts no new campaign that would end past --seconds, but always
# measures at least this many, so medians never rest on one sample.
MIN_CAMPAIGNS = 2
# A traced run traces a fixed number of campaigns, so its counts depend on
# the seed alone; the rest of its time goes to untraced campaigns that feed
# the quality block.
TRACED_CAMPAIGNS = 3
IMPORT_PROBES = 5
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class InMemory:
    noise: physics.LaserNoise
    floor: float
    expected: str  # classification the campaign must report
    psd: str  # NoiseExtraction field holding the dominant PSD
    psd_truth: float


IN_MEMORY = {
    "phase-campaign": InMemory(
        noise=PHASE_NOISE, floor=3.5e-3,
        expected="phase-dominated", psd="s_nu_nu", psd_truth=S_NU_NU,
    ),
    "amplitude-campaign": InMemory(
        noise=physics.LaserNoise(s_eps_eps=S_EPS_EPS), floor=1e-4,
        expected="amplitude-dominated", psd="s_eps_eps", psd_truth=S_EPS_EPS,
    ),
}


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    campaign_s: list = field(default_factory=list)
    peak_s: list = field(default_factory=list)
    generation_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    recovered: list = field(default_factory=list)
    pulls: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # traced runs only
    traced_s: list = field(default_factory=list)
    tracers: list = field(default_factory=list)
    bytes_written: list = field(default_factory=list)
    repeats: list = field(default_factory=list)


def campaign_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def import_probe() -> float:
    """Time for a fresh interpreter to import the package."""
    probe = (
        "import time; t = time.perf_counter(); import sidecool.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=cli_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=CLI_TIMEOUT_S,
    )
    return float(proc.stdout.split()[-1])


def startup_probe() -> float:
    """Wall time of a process that imports the CLI and exits via --help."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "sidecool.cli", "--help"],
        env=cli_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - t0


def _next_campaign(out: Outcome, start: float, seconds: float, trace: bool) -> bool:
    """Whether to start another campaign.

    Untraced runs also take their import probes here, spread over the run:
    a shared machine's speed drifts over seconds, and probes taken back to
    back would all land in one fast or slow stretch.
    """
    if not trace and len(out.import_s) < IMPORT_PROBES:
        if time.perf_counter() - start >= len(out.import_s) * seconds / IMPORT_PROBES:
            out.import_s.append(import_probe())
    if trace and len(out.traced_s) < TRACED_CAMPAIGNS:
        return True
    if len(out.campaign_s) < MIN_CAMPAIGNS:
        return True
    return time.perf_counter() - start + statistics.median(out.campaign_s) <= seconds


def _finish(out: Outcome, trace: bool) -> Outcome:
    while not trace and len(out.import_s) < IMPORT_PROBES:
        out.import_s.append(import_probe())
    return out


def _pulls(estimates: dict, truth: dict) -> dict:
    pulls = {}
    for key, (value, sigma) in estimates.items():
        ok = sigma > 0 and math.isfinite(sigma) and math.isfinite(value)
        pulls[key] = (value - truth[key]) / sigma if ok else math.inf
    return pulls


# ---------------------------------------------------------------------------
# In-memory campaigns
# ---------------------------------------------------------------------------


def synthesize(w: InMemory, cseed: int):
    """Spectra and truth of one campaign, as in tests/conftest.py."""
    n_min, gamma_min = physics.min_occupancy(MODE01, CAVITY, G0, w.noise)
    background = spectra.BackgroundModel(
        tail_offset=0.0,
        tail_amplitude=w.floor * MODE_F**2,
        tail_exponent=2.0,
        beat_center=MODE_F + 45e3,
        beat_width=2e3,
        beat_amplitude=200.0 * w.floor,
    )
    specs, _ = spectra.synthesize_campaign(
        mode=MODE01,
        cavity=CAVITY,
        g0=G0,
        gamma_opt_grid=np.geomspace(0.5 * gamma_min, 4.0 * gamma_min, N_POINTS),
        noise=w.noise,
        detection=DETECTION,
        f_start=MODE_F - 100e3,
        f_step=50.0,
        n_bins=4001,
        n_averages=N_AVERAGES,
        seed=cseed,
        floor=w.floor,
        background=background,
    )
    truth = {"g0": G0, "n_min": n_min, "gamma_min": gamma_min, "psd": w.psd_truth}
    return specs, truth


def _analyze(specs, peak_s: list) -> tuple:
    """analyze_campaign, with each analyze_peak call timed from outside.

    Returns (result or None, spectra that failed, error text).
    """
    inner = fitting.analyze_peak
    failed = 0

    def timed(*args, **kwargs):
        nonlocal failed
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        except Exception:
            failed += 1
            raise
        finally:
            peak_s.append(time.perf_counter() - t0)

    fitting.analyze_peak = timed
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fitting.analyze_campaign(
                specs, MODE01, CAVITY, DETECTION, search_window=SEARCH_WINDOW
            )
        return result, failed, None
    except Exception as exc:  # a failed campaign is counted, not fatal
        return None, len(specs), f"{type(exc).__name__}: {exc}"
    finally:
        fitting.analyze_peak = inner


def _check(w: InMemory, result, truth: dict, out: Outcome) -> None:
    """Criterion-8 rule: g0, n_min, gamma_min and the dominant PSD within
    3 sigma of the truth, and the expected noise class."""
    if result is None:
        out.recovered.append(False)
        return
    c, n = result.cooling, result.noise
    pulls = _pulls(
        {
            "g0": (c.g0, c.g0_sigma),
            "n_min": (c.n_min, c.n_min_sigma),
            "gamma_min": (c.gamma_min, c.gamma_min_sigma),
            "psd": (getattr(n, w.psd), getattr(n, w.psd + "_sigma")),
        },
        truth,
    )
    out.pulls.append(pulls)
    # As in test_criterion_08, the g0 tolerance is 3 * 2pi * g0_sigma although
    # g0 and g0_sigma are both in rad/s; the pulls above use g0_sigma as is.
    out.recovered.append(
        abs(c.g0 - truth["g0"]) < 3.0 * TWO_PI * c.g0_sigma
        and all(abs(pulls[k]) < 3.0 for k in ("n_min", "gamma_min", "psd"))
        and result.discrimination.classification == w.expected
    )


def _traced_campaign(w: InMemory, cseed: int) -> tuple[Tracer, float]:
    """Synthesis and analysis of one campaign under a fresh tracer."""
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            specs, _ = synthesize(w, cseed)
        with tracer.span("bench.campaign"):
            t0 = time.perf_counter()
            _analyze(specs, [])
            return tracer, time.perf_counter() - t0


def _paired(i: int, plain, traced) -> None:
    """Run the untraced and the traced measurement of one seed, alternating
    which goes first so warm-up and machine drift fall on both sides."""
    for step in (plain, traced) if i % 2 == 0 else (traced, plain):
        step()


def run_in_memory(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    w = IN_MEMORY[name]
    out = Outcome()
    start = time.perf_counter()
    i = 0
    while _next_campaign(out, start, seconds, trace):
        cseed = campaign_seed(seed, i)
        t0 = time.perf_counter()
        specs, truth = synthesize(w, cseed)
        out.generation_s.append(time.perf_counter() - t0)

        def plain():
            t0 = time.perf_counter()
            result, failed, error = _analyze(specs, out.peak_s)
            out.campaign_s.append(time.perf_counter() - t0)
            out.attempted += len(specs)
            out.failed += failed
            if error:
                out.errors.append(f"campaign {i} (seed {cseed}): {error}")
            _check(w, result, truth, out)

        def traced():
            tracer, dt = _traced_campaign(w, cseed)
            out.tracers.append(tracer)
            out.traced_s.append(dt)

        if trace and i < TRACED_CAMPAIGNS:
            _paired(i, plain, traced)
            if i == 0:
                out.repeats.append(_traced_campaign(w, cseed)[0])
        else:
            plain()
        i += 1
    return _finish(out, trace)


# ---------------------------------------------------------------------------
# CLI chain
# ---------------------------------------------------------------------------


def write_config(directory: Path) -> Path:
    """The configuration of tests/test_cli.py."""
    config = dataio.ExperimentConfig(
        cavity=CAVITY,
        modes=[MODE01, MODE02],
        detection=DETECTION,
        noise=PHASE_NOISE,
        calibration_tone=spectra.CalibrationTone(frequency_hz=340e3, power_hz2=10.0),
        g0=G0,
    )
    path = directory / "config.json"
    dataio.save_config(config, path)
    return path


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str]) -> tuple[bool, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "sidecool.cli", *argv],
        env=cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode == 0, proc.stderr.strip()


def run_in_process(argv: list[str]) -> tuple[bool, str]:
    """cli.main in this process; an exception counts as a failed step, as the
    traceback and non-zero exit of a real process would."""
    err = io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = cli.main(argv)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    return code == 0, err.getvalue().strip()


CHAIN_STEPS = N_POINTS + 2  # synth, one fit-peak per spectrum, cooling-curve


def chain(config: Path, out_dir: Path, cseed: int, run, peak_s: list, tracer=None):
    """synth -> 12 x fit-peak -> cooling-curve. Returns (failed steps,
    report path or None, error text)."""

    def step(command: str, argv: list[str]) -> bool:
        nonlocal error
        with tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext():
            ok, text = run([command, *argv])
        if not ok:
            error = f"{command}: {text.splitlines()[-1] if text else 'non-zero exit'}"
        return ok

    error = None
    cfg = ["--config", str(config)]
    if not step(
        "synth",
        [*cfg, "--seed", str(cseed), "--out-dir", str(out_dir),
         "--points", str(N_POINTS), "--n-averages", str(N_AVERAGES),
         "--f-step-hz", "50", "--floor", "3.5e-3"],
    ):
        return CHAIN_STEPS, None, error
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failed = 0
    fragments = []
    for k, name in enumerate(manifest["files"]):
        frag = out_dir / f"frag_{k:03d}.json"
        t0 = time.perf_counter()
        ok = step(
            "fit-peak",
            [*cfg, "--spectrum", str(out_dir / name), "--out", str(frag),
             "--plot-data", str(out_dir / f"plot_{k:03d}.tsv")],
        )
        peak_s.append(time.perf_counter() - t0)
        if ok:
            fragments.append(str(frag))
        else:
            failed += 1
    final = out_dir / "report.json"
    if not step(
        "cooling-curve",
        [*cfg, *fragments, "--out", str(final), "--plot-data", str(out_dir / "curve.tsv")],
    ):
        return failed + 1, None, error
    return failed, final, error


def _check_cli(final, out: Outcome) -> None:
    """Rule of test_full_pipeline_recovers_truth: every peak, g0 within 5 %,
    phase-dominated, S_nunu within 10 %."""
    if final is None:
        out.recovered.append(False)
        return
    rep = report.FitReport.load(final)
    c, n = rep.cooling, rep.noise
    n_min, gamma_min = physics.min_occupancy(MODE01, CAVITY, G0, PHASE_NOISE)
    out.pulls.append(
        _pulls(
            {
                "g0": (c.g0, c.g0_sigma),
                "n_min": (c.n_min, c.n_min_sigma),
                "gamma_min": (c.gamma_min, c.gamma_min_sigma),
                "psd": (n.s_nu_nu, n.s_nu_nu_sigma),
            },
            {"g0": G0, "n_min": n_min, "gamma_min": gamma_min, "psd": S_NU_NU},
        )
    )
    out.recovered.append(
        len(rep.peaks) == N_POINTS
        and abs(c.g0 / G0 - 1.0) < 0.05
        and rep.discrimination.classification == "phase-dominated"
        and abs(n.s_nu_nu / S_NU_NU - 1.0) < 0.1
    )


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir())


def _traced_chain(config: Path, target: Path, cseed: int) -> tuple[Tracer, float]:
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.chain"):
        t0 = time.perf_counter()
        chain(config, target, cseed, run_in_process, [], tracer)
        return tracer, time.perf_counter() - t0


def run_cli_chain(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    """Untraced, each step is a process. Traced, each step is an in-process
    ``cli.main`` call, and the untraced chain it is compared with is too."""
    out = Outcome()
    start = time.perf_counter()
    i = 0
    while _next_campaign(out, start, seconds, trace):
        cseed = campaign_seed(seed, i)
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=scratch, prefix=f"chain{i}-") as tmp:
            base = Path(tmp)
            config = write_config(base)
            out.generation_s.append(time.perf_counter() - t0)

            def plain():
                run = run_in_process if trace else run_process
                t0 = time.perf_counter()
                failed, final, error = chain(config, base / "plain", cseed, run, out.peak_s)
                out.campaign_s.append(time.perf_counter() - t0)
                out.attempted += CHAIN_STEPS
                out.failed += failed
                if error:
                    out.errors.append(f"chain {i} (seed {cseed}): {error}")
                _check_cli(final, out)

            def traced():
                tracer, dt = _traced_chain(config, base / "traced", cseed)
                out.tracers.append(tracer)
                out.traced_s.append(dt)
                out.bytes_written.append(_dir_bytes(base / "traced"))

            if trace and i < TRACED_CAMPAIGNS:
                _paired(i, plain, traced)
                if i == 0:
                    out.repeats.append(_traced_chain(config, base / "repeat", cseed)[0])
            else:
                plain()
        i += 1
    return _finish(out, trace)


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced campaigns
# ---------------------------------------------------------------------------

CALL_COUNTS = (
    "fitting.fit_background",
    "fitting.fit_peak",
    "spectra.peak_model",
    "spectra.detection_filter_c",
    "dataio.read_spectrum",
    "dataio.write_spectrum",
)
BUSY = (
    "fitting.analyze_peak",
    "fitting.fit_background",
    "fitting.fit_peak",
    "fitting.fit_cooling_curve",
    "spectra.peak_model",
    "spectra.detection_filter_c",
    "spectra.synthesize_campaign",
    "physics.min_occupancy",
    "dataio.read_spectrum",
    "dataio.write_spectrum",
    "dataio.calibrate_with_tone",
    "report.save",
    "report.load",
)


def layer_metrics(out: Outcome) -> dict:
    """Per-layer figures, each per traced campaign (or chain)."""
    n = len(out.tracers)
    spans = [s for t in out.tracers for s in t.spans]
    fits = [f for t in out.tracers for f in t.fits]
    calls = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    m = {}
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
    for name in BUSY:
        m[f"{name}.busy_s"] = (busy(spans, name) / n, "s")
    n_peaks = calls.get("fitting.analyze_peak", 0)
    m["fitting.analyze_peak.passes"] = (
        calls.get("fitting.fit_peak", 0) / n_peaks if n_peaks else 0.0, "count"
    )
    for kind in NLLS_KINDS:
        kf = [f for f in fits if f.kind == kind]
        iters = [f.iterations for f in kf]
        p = f"fitting.nlls.{kind}"
        m[f"{p}.calls"] = (len(kf) / n, "count")
        m[f"{p}.busy_s"] = (busy(spans, p) / n, "s")
        m[f"{p}.iters_p50"] = (statistics.median(iters) if iters else 0.0, "count")
        m[f"{p}.iters_max"] = (max(iters, default=0), "count")
        m[f"{p}.model_evals"] = (sum(f.model_evals for f in kf) / n, "count")
        m[f"{p}.nonconverged"] = (sum(f.outcome == "nonconverged" for f in kf) / n, "count")
        m[f"{p}.degenerate"] = (sum(f.outcome == "degenerate" for f in kf) / n, "count")
    m["fitting.nlls.converged_ratio"] = (
        sum(f.outcome == "converged" for f in fits) / len(fits) if fits else 0.0, "fraction"
    )
    m["dataio.bytes_written"] = (
        statistics.fmean(out.bytes_written) if out.bytes_written else 0.0, "bytes"
    )
    # span ids are per tracer, so parent/child sums stay within one tracer
    self_s, coverage = 0.0, []
    for t in out.tracers:
        for s in t.spans:
            if s.name.startswith("cli."):
                self_s += (s.end - s.start) - covered(t.spans, s)
            elif s.name in ROOT_SPANS:
                coverage.append(covered(t.spans, s) / (s.end - s.start))
    m["cli.self_s"] = (self_s / n, "s")
    m["trace.coverage"] = (statistics.fmean(coverage), "fraction")
    m["trace.overhead_s"] = (
        statistics.median(t - u for t, u in zip(out.traced_s, out.campaign_s)), "s"
    )
    return m


def quality_metrics(out: Outcome) -> dict:
    m = {}
    for key in PULL_KEYS:
        values = [p[key] for p in out.pulls if math.isfinite(p[key])]
        mean = statistics.fmean(values) if values else 0.0
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        m[f"quality.pull_mean.{key}"] = (mean, "sigma")
        m[f"quality.pull_std.{key}"] = (std, "sigma")
    m["quality.campaigns"] = (len(out.pulls), "count")
    return m


def determinism_errors(out: Outcome) -> list[str]:
    """Two traced runs of the first campaign seed must count the same work."""
    errors = []
    for repeat in out.repeats:
        a, b = out.tracers[0].counts(), repeat.counts()
        if a != b:
            diff = sorted(
                k for k in set(a["calls"]) | set(b["calls"])
                if a["calls"].get(k) != b["calls"].get(k)
            )
            if a["fits"] != b["fits"]:
                diff.append("nlls iterations / model evaluations")
            errors.append("counts differ between two traced runs of one seed: " + ", ".join(diff))
    return errors
