"""Workloads of the gaussdim benchmark and the known limits they keep visible.

A workload is a list of `gaussdim.experiments.run` configurations built from
the benchmark seed; the program only ever sees the configurations.  Models
are the documents `scripts/export_models.py` writes.
"""

from __future__ import annotations

import random
from pathlib import Path

# Every document scripts/export_models.py writes, and the bivariate (L=2) ones.
EXPORTED_MODELS = (
    "ar1_0p6",
    "correlated_pair",
    "independent_halfband_pair",
    "line_process",
    "matched_support_nonproper",
    "narrowband_0p4",
    "proper_complex_flat",
    "real_only_complex",
    "white_noise",
    "zero_process",
)
BIVARIATE_MODELS = (
    "correlated_pair",
    "independent_halfband_pair",
    "matched_support_nonproper",
    "proper_complex_flat",
    "real_only_complex",
)
VERIFY_MODELS = ("white_noise", "ar1_0p6", "correlated_pair")
ESTIMATE_MODELS = ("white_noise", "ar1_0p6", "narrowband_0p4", "correlated_pair")
FINE_GRID_N = 65536

# Why each workload is there: the layer it loads and the ones it leaves alone.
WHY = {
    "verify_counting": "verify at defaults: np.unique cell counting dominates; dense sampling is tiny "
    "(k<=4 blocks plus one k=1024 batch)",
    "estimate_default": "estimate at CLI defaults: dense sampling of 100 long paths (k*L=4096), Toeplitz "
    "assembly and Cholesky, Welch, plus cell counting",
    "analytic_fine_grid": "analyze, rd with report output, complex on every model at grid_n=65536: "
    "eigen-passes and water-filling, no sampling",
}


def _seeds(label: str, seed: int):
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def model_name(config: dict) -> str:
    return Path(config["model"]).stem


def configs(workload: str, seed: int, model_dir: Path, out_dir: Path) -> list[dict]:
    """The task configurations of one pass over `workload`, in order."""
    doc = {name: str(model_dir / f"{name}.json") for name in EXPORTED_MODELS}
    seeds = _seeds(workload, seed)
    if workload == "verify_counting":
        return [{"task": "verify", "model": doc[m], "seed": next(seeds)} for m in VERIFY_MODELS]
    if workload == "estimate_default":
        return [{"task": "estimate", "model": doc[m], "seed": next(seeds)} for m in ESTIMATE_MODELS]
    if workload == "analytic_fine_grid":
        out = []
        for m in EXPORTED_MODELS:
            out.append({"task": "analyze", "model": doc[m], "grid_n": FINE_GRID_N})
            out.append({"task": "rd", "model": doc[m], "grid_n": FINE_GRID_N, "out": str(out_dir / f"{m}.rd.json")})
        out += [{"task": "complex", "model": doc[m], "grid_n": FINE_GRID_N} for m in BIVARIATE_MODELS]
        return out
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


KNOWN_LIMITS = {
    "narrowband_entropy_slope": "estimate narrowband_0p4: the entropy slope reads ~1.0 against 0.4, because "
    "the occupancy guard caps the block length near k=1",
    "halfband_estimate_undersampled": "estimate independent_halfband_pair raises UndersamplingError at the "
    "default ladder, at 1e5 and at 1e6 paths",
    "ar1_verify_undersampled": "verify ar1_0p6 raises UndersamplingError at verify_paths=1e6: k is chosen on "
    "the unscaled paths and scaling by 3 multiplies the occupied cells",
}

# Gated quantities of timed tasks that fail today: (task, model, quantity, method).
# They are recorded from the first pass and kept out of the failure count.
REPORT_LIMITS = {("estimate", "narrowband_0p4", "dimension", "entropy-slope"): "narrowband_entropy_slope"}

# A probe holds its limit when it raises this error.
PROBE_ERROR = "UndersamplingError"


def probes(workload: str, seed: int, model_dir: Path, full: bool) -> list[tuple[str, dict]]:
    """(limit, config) probes run once after timing, outside every metric.

    The 1e6-path probes take 10-20 s each, so they run only when `full`.
    """
    seeds = _seeds(f"{workload}:probe", seed)
    halfband = str(model_dir / "independent_halfband_pair.json")
    out = []
    if workload == "estimate_default":
        for paths in (100_000, 1_000_000)[: 2 if full else 1]:
            config = {"task": "estimate", "model": halfband, "seed": next(seeds), "paths": paths}
            out.append(("halfband_estimate_undersampled", config))
    if workload == "verify_counting" and full:
        config = {"task": "verify", "model": str(model_dir / "ar1_0p6.json"), "seed": next(seeds),
                  "verify_paths": 1_000_000}
        out.append(("ar1_verify_undersampled", config))
    return out
