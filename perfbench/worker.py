"""One benchmark process: set up like a `gaussdim` invocation, then time passes.

Started by run.py in a fresh interpreter, so that set-up time and peak memory
belong to one workload.  Set-up is what every `gaussdim <task>` call pays
before task work: importing gaussdim.cli, loading the model documents and
validating the configurations.  When set-up is done the process prints
`ready <time.monotonic()>`; on Linux that clock is shared by all processes,
so run.py measures set-up from the moment it spawned this process.

Then it runs passes over the workload's configurations through
`gaussdim.experiments.run` (writing the report with `gaussdim.reports.emit`
when a configuration names `out`, as the CLI does) until `--seconds` are
used and at least MIN_PASSES untraced passes are done, checks every output,
runs the known-limit probes, and prints one JSON line with the timings,
values, checks and machine notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

# Deterministic outputs per workload, recorded at commit 9138e8c: the
# `deterministic` map of a run's record, which every run compares against.
REFERENCE = Path(__file__).with_name("reference.json")
DETERMINISTIC_TOL = 1e-12
# Untraced runs time at least this many passes, so that the median rejects
# one pass slowed by a noisy neighbour even when a pass takes half the run.
MIN_PASSES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True, help="the src/ directory gaussdim must be imported from")
    p.add_argument("--work", required=True, help="directory holding models/ and receiving reports")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _deterministic(task: str, model: str, report) -> dict:
    """Outputs with no sampling in them: rank integral, rd slope, support bound,
    properness and the quadrature oracle.  They must not change."""
    out = {}
    for r in report.reports:
        if r.quantity in ("rank_integral", "properness", "support_bound") or task == "rd" \
                or r.method == "quadrature-oracle":
            fields = ("value", "reference")
        elif task == "estimate":
            fields = ("reference",)  # the rank integral the estimate is gated against
        else:
            continue
        at = f"@m={r.settings['m']}" if "m" in r.settings else ""
        for f in fields:
            value = getattr(r, f)
            if value is not None:
                out[f"{task}/{model}/{r.quantity}{at}/{r.method}/{f}"] = float(value)
    return out


def _values(report) -> list:
    return [
        {"quantity": r.quantity, "method": r.method, "value": r.value, "se": r.se,
         "reference": r.reference, "tolerance": r.tolerance, "pass": r.passed}
        for r in report.reports
    ]


def _machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _run_pass(experiments, reports, configs) -> tuple[float, list]:
    """One pass over the validated configurations: (seconds, [(seconds, report or error)])."""
    outcomes = []
    started = time.perf_counter()
    for config in configs:
        t0 = time.perf_counter()
        try:
            outcome = experiments.run(config)
            if config.out:
                reports.emit(outcome, config.out, config.format)
        except Exception as exc:  # a raising task is a failed operation, recorded with its error
            outcome = exc
        outcomes.append((time.perf_counter() - t0, outcome))
    return time.perf_counter() - started, outcomes


def _failure(task: str, model: str, outcome) -> str | None:
    """Why an operation failed, ignoring known limits; None when it passed."""
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}"
    bad = [
        f"{r.quantity}/{r.method}={r.value!r} vs {r.reference!r} (tol {r.tolerance!r})"
        for r in outcome.reports
        if r.passed is False and (task, model, r.quantity, r.method) not in workloads.REPORT_LIMITS
    ]
    return "gate failed: " + "; ".join(bad) if bad else None


def _document(outcome) -> str:
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    doc = outcome.to_document()
    doc.pop("wall_time_s")
    return json.dumps(doc, sort_keys=True)


def _known_limits(workload, seed, model_dir, raw, first, full, experiments) -> dict:
    observed = {name: [] for name in workloads.KNOWN_LIMITS}
    for config, (_, outcome) in zip(raw, first):
        if isinstance(outcome, Exception):
            continue
        for r in outcome.reports:
            name = workloads.REPORT_LIMITS.get((config["task"], workloads.model_name(config), r.quantity, r.method))
            if name:
                observed[name].append({
                    "config": config, "value": r.value, "reference": r.reference, "pass": r.passed,
                    "holds": r.passed is False,
                })
    for name, config in workloads.probes(workload, seed, model_dir, full):
        t0 = time.perf_counter()
        try:
            report = experiments.run(config)
            result, holds = f"no error; all_passed={report.all_passed}", False
        except Exception as exc:  # the probe's outcome is the observation
            result, holds = f"{type(exc).__name__}: {exc}", type(exc).__name__ == workloads.PROBE_ERROR
        observed[name].append({"config": config, "observed": result, "holds": holds,
                               "seconds": time.perf_counter() - t0})
    return {
        name: {"limit": text, "observed": observed[name] or "not exercised by this workload and mode"}
        for name, text in workloads.KNOWN_LIMITS.items()
    }


def main(argv=None) -> int:
    args = _parse(argv)
    import gaussdim.cli  # noqa: F401  (the import every `gaussdim` invocation pays)
    from gaussdim import experiments, modelio, reports

    src = Path(args.src).resolve()
    if src not in Path(gaussdim.cli.__file__).resolve().parents:
        print(f"perfbench: gaussdim imported from {gaussdim.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = Path(args.work)
    model_dir = work / "models"
    raw = workloads.configs(args.workload, args.seed, model_dir, work / "reports")
    for path in sorted({c["model"] for c in raw}):
        modelio.load_model(path)
    configs = [experiments.ExperimentConfig.from_dict(c) for c in raw]
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    (work / "reports").mkdir(exist_ok=True)

    tracer = tracing.Tracer()
    untraced, traced, layer_passes = [], [], []
    started = time.perf_counter()
    while True:
        untraced.append(_run_pass(experiments, reports, configs))
        if args.trace:
            with tracer.installed():
                traced.append(_run_pass(experiments, reports, configs))
            layer_passes.append(tracer.take())
        per_round = statistics.median(w for w, _ in untraced) + (statistics.median(w for w, _ in traced) if traced else 0.0)
        enough = args.trace or len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - started + per_round > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    first = untraced[0][1]
    attempted = failed = 0
    for _, outcomes in untraced + traced:
        for config, (_, outcome), (_, first_outcome) in zip(raw, outcomes, first):
            attempted += 1
            why = _failure(config["task"], workloads.model_name(config), outcome)
            if why:
                failed += 1
                problems.append(f"{config['task']} {workloads.model_name(config)}: {why}")
            if _document(outcome) != _document(first_outcome):
                problems.append(f"{config['task']} {workloads.model_name(config)}: output differs between passes")

    deterministic = {}
    for config, (_, outcome) in zip(raw, first):
        if not isinstance(outcome, Exception):
            deterministic.update(_deterministic(config["task"], workloads.model_name(config), outcome))
    expected = json.loads(REFERENCE.read_text())[args.workload]
    for key in sorted(set(expected) | set(deterministic)):
        got, want = deterministic.get(key), expected.get(key)
        if got is None or want is None or not abs(got - want) <= DETERMINISTIC_TOL:
            problems.append(f"deterministic output {key}: got {got!r}, recorded {want!r}")

    ops = [
        {
            "task": config["task"], "model": workloads.model_name(config), "seed": config.get("seed"),
            "seconds": [outcomes[i][0] for _, outcomes in untraced],
            "values": _values(first[i][1]) if not isinstance(first[i][1], Exception) else None,
            "error": None if not isinstance(first[i][1], Exception) else _document(first[i][1]),
        }
        for i, config in enumerate(raw)
    ]
    result = {
        "passes": [w for w, _ in untraced],
        "wall_s": statistics.median(w for w, _ in untraced),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "ops": ops,
        "deterministic": deterministic,
        "known_limits": _known_limits(args.workload, args.seed, model_dir, raw, first, bool(args.trace), experiments),
        "machine": _machine(),
    }
    if args.trace:
        traced_wall = statistics.median(w for w, _ in traced)
        per_layer = {name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]}
        per_layer["trace.overhead_s"] = traced_wall - result["wall_s"]
        per_layer["trace.missing_functions"] = len(tracer.missing)
        result["trace"] = {
            "traced_passes": [w for w, _ in traced],
            "missing": sorted(tracer.missing),
            "counter_errors": sorted(tracer.counter_errors),
            "per_layer": per_layer,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
