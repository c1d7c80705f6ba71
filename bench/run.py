#!/usr/bin/env python3
"""Benchmark of sidecool's inverse pipeline.

Run from the repository root, for example:

    python3 bench/run.py --workload phase-campaign --seed 1 --seconds 30 --trace 0

Workloads (see bench/workloads.py and BENCHMARK.json for why each exists):
phase-campaign, amplitude-campaign, cli-chain.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the same workload with spans and counts at every layer boundary and reports
the per-layer metrics. Every figure is printed by name and unit; the last
line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"} whose metrics are the ones BENCHMARK.json declares for
that mode. The full record, with the versions and machine it was measured
on, is written to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: the fits solve 6x6 systems, and on a small shared machine
# extra BLAS threads only add run-to-run noise. Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if not (SRC / "sidecool" / "__init__.py").is_file():
    sys.exit(f"error: no sidecool package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("phase-campaign", "amplitude-campaign", "cli-chain")

# A run is correct when at most this share of its campaigns misses the
# recovery check. The pulls of n_min, Gamma_min and the noise PSD are biased
# (see the quality block), so about one phase campaign in fifteen misses even
# when nothing is broken; a broken pipeline misses most.
MAX_MISS_SHARE = 0.5
STARTUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(out, children_rss: bool) -> dict:
    m = {
        "campaign_s": (statistics.median(out.campaign_s), "s"),
        "peak_s_p50": (statistics.median(out.peak_s), "s"),
        "setup_s": (statistics.median(out.import_s) + statistics.median(out.generation_s), "s"),
    }
    # a p90 is reported only with at least ten samples beyond it
    if len(out.peak_s) >= 100:
        m["peak_s_p90"] = (statistics.quantiles(out.peak_s, n=10)[-1], "s")
    who = resource.RUSAGE_CHILDREN if children_rss else resource.RUSAGE_SELF
    m["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    m["recovery_rate"] = (sum(out.recovered) / len(out.recovered), "fraction")
    m["failed_fraction"] = (out.failed / out.attempted, "fraction")
    m["campaigns"] = (len(out.campaign_s), "count")
    m["peak_samples"] = (len(out.peak_s), "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = "per_layer" if args.trace else "end_to_end"
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    is_cli = args.workload == "cli-chain"

    if is_cli:
        out = workloads.run_cli_chain(args.seed, args.seconds, bool(args.trace), scratch)
    else:
        out = workloads.run_in_memory(args.workload, args.seed, args.seconds, bool(args.trace))

    errors = list(out.errors)
    if args.trace:
        metrics = workloads.layer_metrics(out)
        if is_cli:
            startup = [workloads.startup_probe() for _ in range(STARTUP_PROBES)]
            metrics["cli.startup_s"] = (statistics.median(startup), "s")
        stem = f"{args.workload}-seed{args.seed}"
        tracing.write_spans(results / f"{stem}-spans.jsonl.gz", out.tracers + out.repeats)
    else:
        metrics = end_to_end(out, children_rss=is_cli)
    metrics.update(workloads.quality_metrics(out))
    misses = out.recovered.count(False)
    correct = misses <= MAX_MISS_SHARE * len(out.recovered)
    if not correct:
        errors.append(f"{misses} of {len(out.recovered)} campaigns missed the recovery check")

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    for key, value in env.items():
        print(f"  env.{key:38s} {value}")
    for err in errors:
        print(f"  error: {err}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "campaign_s": out.campaign_s,
        "traced_s": out.traced_s,
        "errors": errors,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    if args.trace:
        mismatch = workloads.determinism_errors(out)
        if mismatch:
            for msg in mismatch:
                print(f"error: {msg}", file=sys.stderr)
            return 1

    line = {}
    for spec in declared[mode]:
        if spec["name"] not in metrics:
            print(f"error: {spec['name']} is declared but not measured", file=sys.stderr)
            return 1
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            print(f"error: {spec['name']} measured in {unit}, declared {spec['unit']}", file=sys.stderr)
            return 1
        line[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": line,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
