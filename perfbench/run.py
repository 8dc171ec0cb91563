#!/usr/bin/env python3
"""The gaussdim benchmark: one command for every metric and the correctness check.

    python3 perfbench/run.py --workload estimate_default --seed 1 --seconds 25 --trace 0

Run from the root of a source tree.  The command exports the model documents
with scripts/export_models.py, measures set-up in fresh interpreters, runs
the workload in one fresh worker process (perfbench/worker.py) with BLAS
threads capped at the core count, and prints every metric with its unit,
per-operation timings next to the estimate values, the known limits with
their observed outcomes and the machine notes.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced:
    setup_s      median set-up time (interpreter start, import gaussdim.cli,
                 load the model documents, validate the configs) of
                 SETUP_SAMPLES fresh processes
    wall_s       median seconds of one pass over the workload's task list,
                 over the passes that fit in --seconds (at least three)
    ok_frac      operations that passed over operations attempted, that is
                 1 - failed_frac; an operation fails when its task raises or
                 a gated quantity outside the known limits fails
    peak_rss_mb  peak resident memory of the worker before the probes
With --trace 1 the metrics are the per-layer ones (see tracing.PER_LAYER)
from passes that alternate with untraced ones.

Everything the command writes goes to .perfbench_work/<pid>/ under the
source tree and is removed when it ends.  Without the gaussdim sources
(src/gaussdim, scripts/export_models.py) it exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    """Import gaussdim from this tree only; one BLAS thread per available core."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(len(os.sched_getaffinity(0)))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _call(cmd: list, env: dict, deadline: float) -> str:
    """Run a child to completion within the deadline; return its standard output."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit status {proc.returncode}: {' '.join(map(str, cmd))}")
    return proc.stdout


def _worker(args, work: Path, env: dict, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Spawn a worker; return (set-up seconds, its result or None when set-up only)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(ROOT / "src"),
           "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    lines = _call(cmd, env, deadline).splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if not ready:
        raise BenchError("worker never reported set-up done")
    return ready[0] - spawned, None if setup_only else json.loads(lines[-1])


def _source_notes() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaussdim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _print_report(args, result: dict, setups: list, metrics: dict) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"passes (untraced, s): {' '.join(f'{w:.4f}' for w in result['passes'])}")
    if setups:
        print(f"set-up samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
    for op in result["ops"]:
        values = op["error"] or ", ".join(
            f"{v['quantity']}/{v['method']}={v['value']:.6g}"
            + (f" ref {v['reference']:.6g}" if v["reference"] is not None else "")
            + ("" if v["pass"] is None else f" {'pass' if v['pass'] else 'FAIL'}")
            for v in op["values"]
        )
        print(f"op {op['task']:8s} {op['model']:26s} {statistics.median(op['seconds']):9.4f} s  {values}")
    for name, limit in result["known_limits"].items():
        print(f"known limit {name}: {limit['limit']}")
        observed = limit["observed"]
        if isinstance(observed, str):
            print(f"    observed: {observed}")
            continue
        for obs in observed:
            what = obs.get("observed") or f"value {obs['value']:.6g} against {obs['reference']:.6g}, pass={obs['pass']}"
            print(f"    observed: {what} (limit {'holds' if obs['holds'] else 'no longer holds'})")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} ({result['failed']} of "
          f"{result['attempted']} operations; reported as ok_frac)")
    if args.trace:
        moves = {name: why for name, _, _, why in tracing.PER_LAYER}
        print(f"trace: traced passes (s): {' '.join(f'{w:.4f}' for w in result['trace']['traced_passes'])}; "
              f"missing functions: {result['trace']['missing'] or 'none'}; "
              f"counter errors: {result['trace']['counter_errors'] or 'none'}")
        print(f"untraced wall_s {result['wall_s']:.6g} s, peak_rss_mb {result['peak_rss_mb']:.6g} MB")
        for name, m in metrics.items():
            print(f"metric {name:44s} {m['value']:<14.6g} {m['unit']:6s} moves: {moves[name]}")
    else:
        for name, m in metrics.items():
            print(f"metric {name:12s} {m['value']:<14.6g} {m['unit']}")
    print(f"record: {json.dumps({k: result[k] for k in ('ops', 'deterministic', 'known_limits')})}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    exporter = ROOT / "scripts" / "export_models.py"
    if not (ROOT / "src" / "gaussdim" / "experiments.py").is_file() or not exporter.is_file():
        print(f"perfbench: no gaussdim sources under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        work.mkdir(parents=True, exist_ok=True)
        env = _child_env()
        _call([sys.executable, str(exporter), str(work / "models")], env, deadline)
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_worker(args, work, env, deadline, setup_only=True)[0] for _ in range(extra)]
        setup, result = _worker(args, work, env, deadline, setup_only=False)
        setups.append(setup)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    result["machine"].update(_source_notes(), workload_seed=args.seed)
    if args.trace:
        per_layer = result["trace"]["per_layer"]
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit, _, _ in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": result["wall_s"],
            "ok_frac": 1.0 - result["failed"] / result["attempted"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    _print_report(args, result, setups, metrics)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
