"""Span and count recording at the layer boundaries of the sidecool package.

A Tracer wraps public functions where their callers look them up, records one
span (name, start, end, parent) per call and keeps the spans in memory. The
Levenberg-Marquardt entry point ``fitting.nlls_fit`` gets a richer wrapper
that also counts iterations, model evaluations and the way each fit ended,
keyed by the fit kind (tail, beat, joint, lorentz) read from the calling span
and the number of free parameters.

Nothing under ``src/`` is modified: every patch is undone when ``installed()``
exits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import json
import time

from sidecool import cli, dataio, fitting, physics, report, spectra

NLLS_KINDS = ("tail", "beat", "joint", "lorentz")

# (caller span, number of fit parameters) -> fit kind
_KIND = {
    ("fitting.fit_background", 3): "tail",
    ("fitting.fit_background", 6): "beat",
    ("fitting.fit_peak", 6): "joint",
    ("fitting.fit_peak", 5): "lorentz",
}

# (owner, attribute, span name). Each owner is where the caller looks the name
# up: fitting calls its own imported ``peak_model``, the CLI its own imported
# ``min_occupancy``, and ``detection_filter_c`` is resolved in ``spectra``.
TARGETS = (
    (fitting, "analyze_peak", "fitting.analyze_peak"),
    (fitting, "fit_background", "fitting.fit_background"),
    (fitting, "fit_peak", "fitting.fit_peak"),
    (fitting, "fit_cooling_curve", "fitting.fit_cooling_curve"),
    (fitting, "peak_model", "spectra.peak_model"),
    (spectra, "detection_filter_c", "spectra.detection_filter_c"),
    (spectra, "synthesize_campaign", "spectra.synthesize_campaign"),
    (physics, "min_occupancy", "physics.min_occupancy"),
    (cli, "min_occupancy", "physics.min_occupancy"),
    (dataio, "read_spectrum", "dataio.read_spectrum"),
    (dataio, "write_spectrum", "dataio.write_spectrum"),
    (dataio, "calibrate_with_tone", "dataio.calibrate_with_tone"),
    (report.FitReport, "save", "report.save"),
    (report.FitReport, "load", "report.load"),
)


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None


@dataclasses.dataclass
class LMFit:
    """One nlls_fit call as seen from outside."""

    kind: str
    iterations: int
    model_evals: int
    outcome: str  # converged | nonconverged | degenerate | error


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fits: list[LMFit] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, parent, name, time.perf_counter()))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_nlls(self, fn):
        def traced(problem, *args, **kwargs):
            caller = self.spans[self._stack[-1]].name if self._stack else None
            kind = _KIND.get((caller, problem.initial_params.size), "other")
            evals = 0
            model = problem.model

            def counted(p):
                nonlocal evals
                evals += 1
                return model(p)

            fit = LMFit(kind, 0, 0, "error")
            self.fits.append(fit)
            try:
                with self.span(f"fitting.nlls.{kind}"):
                    result = fn(dataclasses.replace(problem, model=counted), *args, **kwargs)
                fit.iterations, fit.outcome = result.n_iterations, "converged"
                return result
            except fitting.FitConvergenceError as exc:
                if exc.best is not None:
                    fit.iterations = exc.best.n_iterations
                fit.outcome = "nonconverged"
                raise
            except fitting.DegenerateFitError:
                fit.outcome = "degenerate"
                raise
            finally:
                fit.model_evals = evals

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
            saved.append((fitting, "nlls_fit", fitting.nlls_fit))
            fitting.nlls_fit = self._wrap_nlls(fitting.nlls_fit)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def counts(self) -> dict:
        """Everything about the trace that must repeat exactly for one seed."""
        calls: dict[str, int] = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
        return {
            "calls": calls,
            "fits": [(f.kind, f.iterations, f.model_evals, f.outcome) for f in self.fits],
        }


def busy(spans, name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def covered(spans, parent: Span) -> float:
    """Length of the part of ``parent`` that its direct children cover."""
    intervals = sorted((s.start, s.end) for s in spans if s.parent == parent.id)
    total, reach = 0.0, parent.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def write_spans(path, tracers) -> None:
    """One JSON line per span; span ids are unique within a tracer."""
    with gzip.open(path, "wt") as fh:
        for t, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps([t, s.id, s.parent, s.name, s.start, s.end]) + "\n")
