#!/usr/bin/env python3
"""Write the CLI documents of every task on every benchmark model, or compare two sets.

`write DIR` exports each gaussdim.benchmarks.MODELS entry to DIR/models and
runs every task on it through gaussdim.cli.main, estimate and verify at
seeds 7 and 11: 3 * 10 + 2 * 2 * 10 = 70 runs.  For each run it records the
exit code, the stderr and the printed document without `wall_time_s`, all
in DIR/documents.json.  `compare A B` names every key that differs between
A/documents.json and B/documents.json and exits 1 if any does.  Two sets
written from the same source compare equal: every draw descends from the
seed, so a change that claims no behaviour change can be checked against its
parent's tree, and a run at OMP_NUM_THREADS=1 against one at 2.

Usage:
    python scripts/cli_documents.py write docs_a/
    python scripts/cli_documents.py compare docs_a/ docs_b/
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from gaussdim.benchmarks import MODELS
from gaussdim.cli import main as cli_main
from gaussdim.experiments import TASKS
from gaussdim.modelio import save_model

SEEDS = (7, 11)  # the seeds of the stochastic tasks (those whose fields include "seed")


def write(out: Path) -> int:
    models = out / "models"
    models.mkdir(parents=True, exist_ok=True)
    runs = {}
    for name, (builder, _) in MODELS.items():
        path = save_model(builder(), models / f"{name}.json")
        for task, spec in TASKS.items():
            for seed in SEEDS if "seed" in spec.fields else (None,):
                argv = [task, str(path)] + ([] if seed is None else ["--seed", str(seed)])
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli_main(argv)
                document = json.loads(stdout.getvalue()) if stdout.getvalue() else None
                if document is not None:
                    document.pop("wall_time_s")
                key = f"{task}/{name}" + ("" if seed is None else f"/seed{seed}")
                runs[key] = {"exit": code, "stderr": stderr.getvalue(), "document": document}
    (out / "documents.json").write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} documents to {out / 'documents.json'}")
    return 0


def _differences(a, b, where: str):
    """The keys under `where` at which a and b differ; NaN equals NaN."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield f"{where}.{key} (only in {'B' if key not in a else 'A'})"
            else:
                yield from _differences(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{where}[{i}]")
    elif not (a == b and type(a) is type(b) or a != a and b != b):
        yield f"{where}: {a!r} != {b!r}"


def compare(a: Path, b: Path) -> int:
    docs_a, docs_b = (json.loads((d / "documents.json").read_text()) for d in (a, b))
    diffs = list(_differences(docs_a, docs_b, "documents"))
    for line in diffs:
        print(line)
    print(f"{len(docs_a)} and {len(docs_b)} runs, {len(diffs)} differing keys")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write").add_argument("dir", type=Path)
    cmp = sub.add_parser("compare")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    return write(args.dir) if args.command == "write" else compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
