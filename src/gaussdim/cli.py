"""Command-line interface.

Subcommands: analyze, estimate, rd, verify, complex.  Settings come from a
JSON config file and/or flags; flags win over the config, the config wins
over defaults.  `--m-ladder` and `--paths` exist only on the tasks that read
them (estimate and verify); a config field the task does not read is an
error.  Exit status is 0 iff every checked quantity passed, 2 on a
configuration or task error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import TASKS, ConfigError, ExperimentConfig, run
from .reports import emit, render


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussdim",
        description="Information dimension rate of stationary Gaussian processes",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task, spec in TASKS.items():
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("model", nargs="?", help="process-definition JSON (overrides config)")
        p.add_argument("--config", help="experiment configuration JSON")
        p.add_argument("--seed", type=int, help="master seed (required for stochastic tasks)")
        p.add_argument("--grid", type=int, dest="grid_n", metavar="GRID", help="frequency-grid resolution")
        if "m_ladder" in spec.fields:
            p.add_argument("--m-ladder", type=_int_list, help="comma-separated quantizer precisions, e.g. 8,16,32,64")
        for field in ("paths", "verify_paths"):
            if field in spec.fields:
                p.add_argument(
                    "--paths", type=int, dest=field, metavar="PATHS", help=f"Monte Carlo path count (sets {field})"
                )
        p.add_argument("--out", help="report path (default: print JSON to stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="report format")
    return parser


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _raw_config(args: argparse.Namespace) -> dict:
    """The config file's fields, overridden by every flag given; flag dests are field names."""
    raw: dict = {}
    if args.config:
        raw.update(json.loads(Path(args.config).read_text()))
    raw.update({name: value for name, value in vars(args).items() if name != "config" and value is not None})
    return raw


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_dict(_raw_config(args))
        report = run(config)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"gaussdim: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # module errors surface with task context
        print(f"gaussdim: {args.task} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if config.out:
        emit(report, config.out, config.format)
        print(f"report written to {config.out}")
    else:
        print(render(report, config.format).rstrip("\n"))
    if not report.all_passed:
        failed = [r.quantity for r in report.reports if r.passed is False]
        print(f"gaussdim: checks failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
