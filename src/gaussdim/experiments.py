"""Experiment configuration and task orchestration.

A run is fully determined by its configuration (model + task + settings +
seed): every random draw descends from the single seed through named
sub-streams, so rerunning a config reproduces the report bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .entropy import exact_cell_entropy
from .estimators import (
    DEFAULT_M_LADDER,
    ENTROPY_PATHS,
    _draw,
    _entropy_route,
    _validate_ladder,
    gaussian_surrogate_kl,
    idr_slope_estimate,
    surrogate_idr_estimate,
)
from .modelio import load_model, model_from_document, model_fingerprint
from .quantize import bussgang_gain, spectrum_identity_check
from .ratedist import D_LADDER, rd_curve, rd_dimension_estimate
from .reports import EstimateReport, RunReport
from .spectral import (
    DEFAULT_GRID_N,
    RANK_ABS_FLOOR,
    RANK_REL_TOL,
    FrequencyGrid,
    SpectralModel,
    normalize_components,
    properness_check,
    rank_integral,
    support_bound,
)

# Fields every task accepts; TASKS names the others each task reads.
COMMON_FIELDS = ("task", "model", "seed", "grid_n", "out", "format")
# Fixed gate tolerances on |estimate - rank integral|.
TOL_ESTIMATE = 0.05
TOL_RD = 0.01
# Fixed verify settings: the invariance transforms, the quantizer-gain ladder, the spectral-identity
# precisions and Welch segment, the KL ladder, and the translation oracle's (block length, m).
INVARIANCE_TRANSFORMS = (("scale", 3.0), ("translate", 10.0))
BUSSGANG_M_LADDER = (2, 4, 8, 16, 32, 64, 128, 256)
IDENTITY_M = (1, 8)
IDENTITY_SEGMENT = 256
KL_M_LADDER = (1, 2, 4, 8)
TRANSLATION_BLOCK = (1, 4)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings for one run; fields its task does not read are rejected up front."""

    task: str
    model: dict | str = None
    seed: int | None = None
    grid_n: int | None = None  # None: the model document's grid_n, else DEFAULT_GRID_N
    m_ladder: tuple = DEFAULT_M_LADDER
    paths: int = ENTROPY_PATHS
    verify_paths: int = 50_000
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {tuple(TASKS)}, got {self.task!r}")
        if self.model is None:
            raise ConfigError("a model document or path is required")
        if "seed" in TASKS[self.task].fields and self.seed is None:
            raise ConfigError(f"task {self.task!r} is stochastic: a seed is required")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if not np.iterable(self.m_ladder):
            raise ConfigError(f"m_ladder must be a list of integers, got {self.m_ladder!r}")
        object.__setattr__(self, "m_ladder", tuple(self.m_ladder))
        # Every field has a default, so a field set away from it counts as given.
        _reject_unread(self.task, [f.name for f in fields(self) if getattr(self, f.name) != f.default])
        # Counts, seeds and precisions are stored as int: a float or a string would run rounded,
        # or fail inside the task, and be recorded as given.  Only seed and grid_n may be unset.
        for name in ("seed", "grid_n", "paths", "verify_paths"):
            if getattr(self, name) is not None or name.endswith("paths"):
                object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        object.__setattr__(self, "m_ladder", tuple(_as_int("m_ladder entry", m) for m in self.m_ladder))
        for name in ("paths", "verify_paths"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        try:  # the ladder's and the grid's own rules, checked before any task work
            _validate_ladder(self.m_ladder)
            if self.grid_n is not None:
                FrequencyGrid(self.grid_n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        _reject_unread(raw.get("task"), raw)
        return ExperimentConfig(**raw)


def _as_int(name, value) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _reject_unread(task, given) -> None:
    """Raise if a field named in `given` is neither common nor read by `task` (per TASKS)."""
    reads = COMMON_FIELDS + (TASKS[task].fields if task in TASKS else ())
    unknown = set(given) - set(reads)
    if unknown:
        raise ConfigError(f"unknown configuration fields for task {task!r}: {sorted(unknown)}")


def _resolve_model(config: ExperimentConfig) -> tuple[SpectralModel, FrequencyGrid, dict]:
    """The model, its grid and the document's rank tolerances as rank_integral keywords."""
    if isinstance(config.model, str):
        model, overrides = load_model(config.model)
    else:
        model, overrides = model_from_document(config.model)
    grid_n = config.grid_n if config.grid_n is not None else overrides.get("grid_n", DEFAULT_GRID_N)
    rank_tols = {
        key.removeprefix("rank_"): overrides[key]
        for key in ("rank_rel_tol", "rank_abs_floor") if key in overrides
    }
    return model, FrequencyGrid(grid_n), rank_tols


def _analyze_reports(ri, config) -> list:
    # Rank tolerances other than the defaults come from the model document.
    rank_tols = {
        key: value
        for key, value, default in (
            ("rank_rel_tol", ri.rel_tol, RANK_REL_TOL),
            ("rank_abs_floor", ri.abs_floor, RANK_ABS_FLOOR),
        )
        if value != default
    }
    reports = [
        EstimateReport(
            "rank_integral", ri.method, ri.value,
            settings={"grid_n": ri.grid_n, "rank_histogram": ri.histogram(), **rank_tols},
        )
    ]
    if ri.model.L == 2:
        reports.extend(_complex_rows(ri))
    return reports


def _complex_reports(ri, config) -> list:
    if ri.model.L != 2:
        raise ConfigError("complex-process analysis needs a bivariate (L=2) model")
    return _complex_rows(ri)


def _complex_rows(ri) -> list:
    prop = properness_check(ri)
    sb = support_bound(ri)
    return [
        EstimateReport(
            "properness", "cross-spectrum", float(prop.proper),
            settings={
                "max_density_mismatch": prop.max_density_mismatch,
                "max_real_cross": prop.max_real_cross,
            },
        ),
        EstimateReport(
            "support_bound", "segment" if not ri.model.arma_terms else "grid",
            sb.dimension, reference=sb.bound, tolerance=sb.tolerance,
            passed=bool(sb.dimension <= sb.bound + sb.tolerance),
            settings={"bound": sb.bound, "gap": sb.gap, "tight": sb.tight},
        ),
    ]


def _estimate_reports(ri, config) -> list:
    slope = idr_slope_estimate(ri.model, config.m_ladder, paths=config.paths, seed=config.seed)
    surr = surrogate_idr_estimate(ri.model, seed=config.seed)  # at the surrogate's fixed settings
    out = []
    for est in (slope, surr):
        out.append(
            EstimateReport(
                "dimension", est.method, est.value, se=est.se, reference=ri.value,
                tolerance=TOL_ESTIMATE,
                passed=bool(abs(est.value - ri.value) <= TOL_ESTIMATE),
                settings={
                    "m_ladder": list(est.m_ladder), "k": est.k, "factor_method": est.factor_method,
                    "occupancy": list(est.occupancy), "paths": est.paths,
                    "ladder_spread": est.ladder_spread, "notes": est.notes,
                },
            )
        )
    return out


def _rd_reports(ri, config) -> list:
    est = rd_dimension_estimate(ri)
    reports = [
        EstimateReport(
            "dimension", est.method, est.value, se=est.se, reference=ri.value,
            tolerance=TOL_RD,
            passed=bool(abs(est.value - ri.value) <= TOL_RD),
            settings={"d_ladder": list(D_LADDER), "notes": est.notes},
        )
    ]
    if config.out:
        curve = rd_curve(ri)
        rows = "\n".join(f"{d!r},{r!r},{w!r}" for d, r, w in curve.as_rows())
        Path(str(config.out) + ".rd_curve.csv").write_text("D,R,water_level\n" + rows + "\n")
    return reports


def _verify_reports(ri, config) -> list:
    model = ri.model
    reports = []
    norm = normalize_components(model)  # one normalization behind both batches
    batch, _, invariances = _entropy_route(
        norm, model.L, INVARIANCE_TRANSFORMS, config.m_ladder, None, config.verify_paths, config.seed,
    )
    for (kind, amount), inv in zip(INVARIANCE_TRANSFORMS, invariances):
        reports.append(
            EstimateReport(
                f"invariance_{kind}", "entropy-slope", inv.delta,
                se=float(np.hypot(inv.base.se, inv.transformed.se)),
                reference=0.0, tolerance=TOL_ESTIMATE,
                passed=bool(inv.delta <= TOL_ESTIMATE),
                settings={
                    "amount": amount, "base": inv.base.value, "transformed": inv.transformed.value,
                    # base and transformed paths come from one sampled batch
                    "factor_method": inv.base.factor_method,
                },
            )
        )
        k, m = TRANSLATION_BLOCK
        if kind == "translate" and k * model.L <= 3 and batch is not None:
            # |H([x]_m) - H([x + c]_m)| <= k*L*log(4): a translated code differs from code-plus-shifted-code
            # by at most a few lattice steps, worth log 4 of entropy per coordinate.  A model with no variance
            # draws no paths, and gets no oracle row either.
            h0, h1 = (exact_cell_entropy(model, k, m, mean_shift=shift) for shift in (None, [amount] * model.L))
            delta, bound = abs(h1.value - h0.value), k * model.L * np.log(4.0)
            reports.append(
                EstimateReport(
                    "translation_entropy_bound", "quadrature-oracle", delta,
                    reference=bound, tolerance=0.0, passed=bool(delta <= bound), settings={"offset": amount},
                )
            )

    if batch is not None:
        # the gains read the invariance batch's first step (bussgang_gain copies it): no batch of their own
        for rep in bussgang_gain(batch.samples[:, :1], BUSSGANG_M_LADDER):
            reports.append(
                EstimateReport(
                    "bussgang_gain", "monte-carlo", float(rep.gain.mean()),
                    se=float(rep.gain_se.mean()), reference=1.0,
                    # the gate accepts |1 - gain| up to the theory bound plus 5 standard errors
                    tolerance=float((rep.gain_bound + 5.0 * rep.gain_se).max()),
                    passed=bool(rep.gain_bound_ok and rep.noise_ok),
                    settings={
                        "m": rep.m, "gain_bound": rep.gain_bound.tolist(), "noise_var": rep.noise_var.tolist(),
                        "noise_bound": rep.noise_bound, "factor_method": batch.factor_method,
                    },
                )
            )
        del batch  # freed before the identity batch is drawn
        ident_batch = _draw(norm, 4 * IDENTITY_SEGMENT, max(64, config.verify_paths // 500), config.seed)
        for rep in spectrum_identity_check(ident_batch, IDENTITY_M, nperseg=IDENTITY_SEGMENT):
            reports.append(
                EstimateReport(
                    "quantized_spectrum_identity", "welch", rep.mean_residual,
                    se=rep.mean_residual_se, reference=0.0, tolerance=5.0 * rep.mean_residual_se,
                    passed=bool(rep.mean_ok and rep.noise_ok),
                    settings={
                        "m": rep.m, "gain": rep.gain, "noise_mass": rep.noise_mass.tolist(),
                        "sample_variance": rep.sample_variance.tolist(),
                        "factor_method": ident_batch.factor_method,
                    },
                )
            )
        if norm.model.L == 1:
            for m in KL_M_LADDER:
                rep = gaussian_surrogate_kl(norm.model, 1, m)
                reports.append(
                    EstimateReport(
                        "gaussian_surrogate_kl", "quadrature-oracle", rep.kl,
                        reference=0.0, tolerance=rep.bound, passed=rep.passed,
                        settings={"m": m, "block_len": 1},
                    )
                )
    return reports


class Task(NamedTuple):
    reports: Callable  # (the task's RankIntegralResult, ExperimentConfig) -> list of EstimateReports
    fields: tuple  # configuration fields read beyond the common ones; reading "seed" requires it


TASKS = {
    "analyze": Task(_analyze_reports, ()),
    "estimate": Task(_estimate_reports, ("seed", "m_ladder", "paths")),
    "rd": Task(_rd_reports, ()),
    "verify": Task(_verify_reports, ("seed", "m_ladder", "verify_paths")),
    "complex": Task(_complex_reports, ()),
}


def run(config: ExperimentConfig | dict) -> RunReport:
    """Execute one configured task and assemble its report."""
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    task = TASKS[config.task]
    model, grid, rank_tols = _resolve_model(config)
    started = time.perf_counter()
    # The task's one rank integral: every reference and every grid eigenvalue comes from it.
    ri = rank_integral(model, grid, **rank_tols)
    reports = task.reports(ri, config)
    elapsed = time.perf_counter() - started
    settings = {"grid_n": grid.n}
    for name in task.fields:
        if name != "seed":  # the report carries the seed on its own
            value = getattr(config, name)
            settings[name] = list(value) if isinstance(value, tuple) else value
    return RunReport(
        task=config.task,
        seed=config.seed,
        model_fingerprint=model_fingerprint(model),
        settings=settings,
        reports=tuple(reports),
        wall_time_s=elapsed,
    )
