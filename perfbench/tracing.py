"""Per-layer tracing of gaussdim from outside the program.

A traced pass wraps the public functions at each module boundary of
`src/gaussdim/` and records one span per call (name, start, end, parent) in
memory.  A layer's self time is its spans' duration minus the time their
direct child spans cover.  Nothing in the package changes: the package binds
functions across modules with `from .x import y`, so every module attribute
bound to a wrapped function is rebound to the wrapper, and restored when the
pass ends.  A function that no longer exists is skipped and listed as
missing, so the tracer survives refactors that delete or rename functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from pathlib import Path

TARGETS = {
    "spectral": (
        "eval_spectrum", "rank_integral", "rank_profile", "properness_check", "support_bound",
        "normalize_components", "component_variances", "bivariate_from_model", "complex_to_bivariate",
    ),
    "simulate": ("autocovariance_from_spectrum", "sample_paths", "welch_psd"),
    "quantize": ("quantize", "dither", "bussgang_gain", "spectrum_identity_check"),
    "entropy": ("plugin_entropy", "exact_cell_distribution", "exact_cell_entropy"),
    "estimators": ("idr_slope_estimate", "surrogate_idr_estimate", "gaussian_surrogate_kl", "invariance_check"),
    "ratedist": ("waterfill_rate", "rd_curve", "rd_dimension_estimate", "finite_block_rate"),
    "reports": ("emit",),
    "modelio": ("load_model",),
    "experiments": ("run",),
}


def _sample_paths_counts(batch) -> dict:
    # Computed float64 bytes the dense sampler materialises: the (k,k,L,L)
    # Toeplitz temporary, the (kL)^2 covariance and its factor, and the
    # paths x kL normals and output.
    paths, k, L = batch.samples.shape
    dim = k * L
    return {
        "samples": batch.samples.size,
        "factor_dim_max": dim,
        "fallbacks": int(batch.factor_method != "cholesky"),
        "bytes_computed": 8 * (k * k * L * L + 2 * dim * dim + 2 * paths * dim),
    }


# Work counted at the same boundaries, from each call's result.  Counter
# names ending in "_max" keep the maximum; the others are summed.
COUNTERS = {
    "entropy.plugin_entropy": lambda r: {"rows": r.n_samples, "occupied": r.occupied},
    "entropy.exact_cell_distribution": lambda r: {"mass_deficit_max": r.mass_deficit},
    "simulate.sample_paths": _sample_paths_counts,
    "simulate.welch_psd": lambda r: {"segments": r.segments_per_path * r.per_path.shape[0]},
    "quantize.quantize": lambda r: {"values": r.codes.size},
    "spectral.eval_spectrum": lambda r: {"nodes": r.shape[0]},
    "reports.emit": lambda r: {"bytes": Path(r).stat().st_size},
}

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER = (
    ("entropy.plugin_entropy.self_s", "s", "lower", "wall_s on verify_counting; no change on analytic_fine_grid"),
    ("entropy.plugin_entropy.calls", "count", "lower", "wall_s on verify_counting; no change on analytic_fine_grid"),
    ("entropy.plugin_entropy.rows", "count", "lower", "wall_s on verify_counting; no change on analytic_fine_grid"),
    ("entropy.plugin_entropy.occupancy", "ratio", "lower", "wall_s on verify_counting (occupied cells / rows)"),
    ("estimators.self_s", "s", "lower", "wall_s on verify_counting (_choose_k's np.unique sorts); "
     "no change on analytic_fine_grid"),
    ("simulate.sample_paths.self_s", "s", "lower", "wall_s and peak_rss_mb on estimate_default; little on "
     "verify_counting; none on analytic_fine_grid"),
    ("simulate.sample_paths.samples", "count", "lower", "wall_s on estimate_default"),
    ("simulate.sample_paths.factor_dim_max", "count", "lower", "wall_s and peak_rss_mb on estimate_default"),
    ("simulate.sample_paths.fallbacks", "count", "lower", "wall_s on estimate_default (factor_method other "
     "than cholesky)"),
    ("simulate.sample_paths.bytes_computed", "bytes", "lower", "peak_rss_mb and wall_s on estimate_default"),
    ("simulate.autocovariance_from_spectrum.self_s", "s", "lower", "wall_s on estimate_default"),
    ("simulate.welch_psd.self_s", "s", "lower", "wall_s on estimate_default"),
    ("simulate.welch_psd.segments", "count", "lower", "wall_s on estimate_default"),
    ("quantize.dither.self_s", "s", "lower", "wall_s on estimate_default"),
    ("quantize.quantize.self_s", "s", "lower", "wall_s on estimate_default"),
    ("quantize.quantize.values", "count", "lower", "wall_s on estimate_default"),
    ("quantize.diagnostics.self_s", "s", "lower", "wall_s on verify_counting (bussgang_gain and "
     "spectrum_identity_check)"),
    ("spectral.eval_spectrum.calls", "count", "lower", "wall_s on analytic_fine_grid"),
    ("spectral.eval_spectrum.nodes", "count", "lower", "wall_s on analytic_fine_grid"),
    ("spectral.self_s", "s", "lower", "wall_s on analytic_fine_grid; a few ms on the seeded workloads"),
    ("ratedist.waterfill_rate.calls", "count", "lower", "wall_s on analytic_fine_grid"),
    ("ratedist.self_s", "s", "lower", "wall_s on analytic_fine_grid"),
    ("entropy.oracle.self_s", "s", "lower", "wall_s on verify_counting"),
    ("entropy.oracle.mass_deficit_max", "prob", "lower", "wall_s on verify_counting (oracle accuracy)"),
    ("reports.emit.self_s", "s", "lower", "wall_s on analytic_fine_grid"),
    ("reports.emit.bytes", "bytes", "lower", "wall_s on analytic_fine_grid"),
    ("modelio.load_model.self_s", "s", "lower", "wall_s on analytic_fine_grid and setup_s"),
    ("experiments.run.self_s", "s", "lower", "wall_s on analytic_fine_grid and setup_s"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of the same run"),
    ("trace.missing_functions", "count", "lower", "none: wrapped functions that no longer exist"),
)


class Tracer:
    """Spans and counters of the calls made while `installed()` is active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self.counter_errors: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self._count(name, count, result)
            return result

        return traced

    def _count(self, name: str, count, result) -> None:
        try:
            items = count(result)
        except Exception as exc:  # a refactor changed the result type: report, keep tracing
            self.counter_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return
        for key, value in items.items():
            full = f"{name}.{key}"
            old = self.counts.get(full, 0)
            self.counts[full] = max(old, value) if key.endswith("_max") else old + value

    @contextlib.contextmanager
    def installed(self):
        """Rebind every gaussdim module attribute bound to a target to its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "gaussdim" or n.startswith("gaussdim.")]
        patches = []
        try:
            for module_name, names in TARGETS.items():
                try:
                    module = importlib.import_module(f"gaussdim.{module_name}")
                except ImportError:
                    self.missing.update(f"{module_name}.{n}" for n in names)
                    continue
                for fname in names:
                    fn = getattr(module, fname, None)
                    if not callable(fn):
                        self.missing.add(f"{module_name}.{fname}")
                        continue
                    wrapper = self._wrap(f"{module_name}.{fname}", fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                patches.append((mod, attr, fn))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(patches):
                setattr(mod, attr, fn)

    def take(self) -> dict:
        """Per-layer metrics of the spans and counts recorded so far; then reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
        counts = self.counts
        self.spans, self.counts = [], {}

        def own(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        def layer(module):
            return sum(v for n, v in self_s.items() if n.startswith(module + "."))

        rows = counts.get("entropy.plugin_entropy.rows", 0)
        return {
            "entropy.plugin_entropy.self_s": own("entropy.plugin_entropy"),
            "entropy.plugin_entropy.calls": calls.get("entropy.plugin_entropy", 0),
            "entropy.plugin_entropy.rows": rows,
            "entropy.plugin_entropy.occupancy": counts.get("entropy.plugin_entropy.occupied", 0) / rows if rows else 0.0,
            "estimators.self_s": layer("estimators"),
            "simulate.sample_paths.self_s": own("simulate.sample_paths"),
            "simulate.sample_paths.samples": counts.get("simulate.sample_paths.samples", 0),
            "simulate.sample_paths.factor_dim_max": counts.get("simulate.sample_paths.factor_dim_max", 0),
            "simulate.sample_paths.fallbacks": counts.get("simulate.sample_paths.fallbacks", 0),
            "simulate.sample_paths.bytes_computed": counts.get("simulate.sample_paths.bytes_computed", 0),
            "simulate.autocovariance_from_spectrum.self_s": own("simulate.autocovariance_from_spectrum"),
            "simulate.welch_psd.self_s": own("simulate.welch_psd"),
            "simulate.welch_psd.segments": counts.get("simulate.welch_psd.segments", 0),
            "quantize.dither.self_s": own("quantize.dither"),
            "quantize.quantize.self_s": own("quantize.quantize"),
            "quantize.quantize.values": counts.get("quantize.quantize.values", 0),
            "quantize.diagnostics.self_s": own("quantize.bussgang_gain", "quantize.spectrum_identity_check"),
            "spectral.eval_spectrum.calls": calls.get("spectral.eval_spectrum", 0),
            "spectral.eval_spectrum.nodes": counts.get("spectral.eval_spectrum.nodes", 0),
            "spectral.self_s": layer("spectral"),
            "ratedist.waterfill_rate.calls": calls.get("ratedist.waterfill_rate", 0),
            "ratedist.self_s": layer("ratedist"),
            "entropy.oracle.self_s": own("entropy.exact_cell_distribution", "entropy.exact_cell_entropy"),
            "entropy.oracle.mass_deficit_max": counts.get("entropy.exact_cell_distribution.mass_deficit_max", 0.0),
            "reports.emit.self_s": own("reports.emit"),
            "reports.emit.bytes": counts.get("reports.emit.bytes", 0),
            "modelio.load_model.self_s": own("modelio.load_model"),
            "experiments.run.self_s": own("experiments.run"),
        }
