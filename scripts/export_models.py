#!/usr/bin/env python3
"""Write the benchmark process definitions as JSON documents for CLI use.

Writes one document per entry of gaussdim.benchmarks.MODELS.

Usage:
    python scripts/export_models.py models/
    gaussdim analyze models/narrowband_0p4.json
"""

import argparse
import sys
from pathlib import Path

from gaussdim.benchmarks import MODELS
from gaussdim.modelio import save_model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="models")
    args = parser.parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for name, (builder, _) in MODELS.items():
        path = save_model(builder(), out / f"{name}.json")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
