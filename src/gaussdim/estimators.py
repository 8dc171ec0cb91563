"""Dimension-rate estimators: block-entropy slope, Gaussian-surrogate slope,
the dithered-quantization KL check, and scale/translation invariance runs.

Both estimators extract the dimension as the slope of a quantity against
log m over a precision ladder: block entropies grow like d * log m + const,
and the additive constant (which decays only like 1/log m in a ratio) drops
out of the slope.  The surrogate route replaces cell counting with the
log-determinant of the spectrum of the dithered quantized process, which is
what makes narrowband processes reachable at desk scale.  Each route's
core, _entropy_slope or _surrogate_slope, takes a drawn (paths, k, L) batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .entropy import cell_counts, exact_cell_distribution, packed_keys, plugin_entropy
from .quantize import _floor_codes, check_precision, dither_stream
from .simulate import MAX_DENSE_DIM, autocovariance_from_spectrum, sample_paths, welch_psd
from .spectral import SpectralModel, _stack_eigvalsh, normalize_components

DEFAULT_M_LADDER = (8, 16, 32, 64)
ENTROPY_PATHS = 100_000  # blocks behind the entropy slope and the invariance runs
SURROGATE_M_LADDER = (16, 64, 256)  # the surrogate's fixed ladder, path count and path length (k*L <= MAX_DENSE_DIM)
SURROGATE_PATHS = 100
SURROGATE_K = 4096
OCCUPANCY_FRACTION = 0.1
K_CAP = 4
SURROGATE_GROUPS = 10  # path groups behind the surrogate's standard error
SURROGATE_SEGMENT = 1024  # Welch segment length of the surrogate
_MOVES = {"scale": np.multiply, "translate": np.add}  # the invariance transforms: x * c and x + c per component


class UndersamplingError(ValueError):
    """Occupied-cell count too close to the sample count for a plug-in estimate."""


def _ls_slope(x, y, y_se=None):
    """Least-squares slope of y on x, its standard error, and the consecutive
    two-point slopes (the ladder-spread proxy)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xc = x - x.mean()
    denom = float((xc**2).sum())
    coeff = xc / denom
    slope = float(coeff @ y)
    if y_se is None:
        resid = y - (y.mean() + slope * xc)
        dof = max(len(x) - 2, 1)
        se = float(np.sqrt((resid**2).sum() / dof / denom))
    else:
        se = float(np.sqrt((coeff**2 * np.asarray(y_se, float) ** 2).sum()))
    pairwise = tuple(float(p) for p in np.diff(y) / np.diff(x))
    return slope, se, pairwise


@dataclass(frozen=True)
class DimensionEstimate:
    """A dimension-rate estimate with its settings; the caller holds the reference."""

    value: float
    method: str
    m_ladder: tuple
    k: int
    paths: int
    se: float
    pairwise_slopes: tuple = ()  # consecutive two-point slopes (ladder-spread proxy)
    notes: str = ""
    occupancy: tuple = ()  # occupied cells / paths at each ladder m (entropy slope only)
    factor_method: str = ""  # how the sampled paths' covariance was factored ("" if none drawn)

    @property
    def ladder_spread(self) -> float:
        if len(self.pairwise_slopes) < 2:
            return 0.0
        return float(max(self.pairwise_slopes) - min(self.pairwise_slopes))


def _validate_ladder(m_ladder) -> tuple:
    ladder = tuple(int(m) for m in m_ladder)
    if len(ladder) < 2 or any(m < 1 for m in ladder) or sorted(set(ladder)) != list(ladder):
        raise ValueError(f"m_ladder must be >= 2 strictly increasing positive ints, got {m_ladder}")
    return ladder


def _draw(model: SpectralModel, k: int, paths: int, seed: int):
    """The normalized model and `paths` k-step paths of it (None when no component is kept)."""
    norm = normalize_components(model)
    if not norm.kept:
        return norm, None
    acov = autocovariance_from_spectrum(norm.model, max(k - 1, 0))
    return norm, sample_paths(acov, k, paths, seed)


def _code_columns(samples: np.ndarray, k: int, m: int, move=None):
    """The int64 codes floor(m x) of the first k steps, one component column of one step at a time.

    move, if given, is an (op, amounts) pair from _MOVES and one amount per
    component: column i is op(x, amounts[i]) before it is floored, the
    elementwise arithmetic of op(samples, amounts), so no transformed batch
    is made.  The floor is _floor_codes, with no range check: the samples,
    moved by `move`, must have passed _check_range at m or above.  Between
    columns the walk holds no array, so each column is freed once it is used.
    """
    steps = [(t, i) for t in range(k) for i in range(samples.shape[2])]
    if move is None:
        return (_floor_codes(samples[:, t, i], m).astype(np.int64) for t, i in steps)
    op, amounts = move
    return (_floor_codes(op(samples[:, t, i], amounts[i]), m).astype(np.int64) for t, i in steps)


def _check_range(block: np.ndarray, m: int, move=None) -> None:
    """check_precision of a (paths, k, L) block at m, or of the block `move` would make from it.

    The one range check of a batch, made by its owner at the top of its
    ladder and once per move.  A move is increasing in x (a scale is
    positive), so checking the block's per-component extremes, moved, raises
    exactly when checking the moved block would, NaN included.  The extremes
    are strided full reductions: axis= reductions take several times as long.
    """
    if move is not None:
        op, amounts = move
        width = block.shape[2]
        extremes = [[block[..., i].max() for i in range(width)], [block[..., i].min() for i in range(width)]]
        block = op(extremes, amounts)
    check_precision(block, m)


def _choose_k(samples: np.ndarray, m_max: int, move=None, k_max: int | None = None) -> int:
    """Largest block length up to k_max (default: all steps) whose
    occupied-cell count passes the plug-in guard.

    The batch, moved by `move` if given (see _code_columns), must have
    passed _check_range at m_max; no column is checked here.  Each code
    column is folded into the key (packed_keys) as it is made, so the
    working set is a few code columns on top of the batch.  The key after
    step k's last column extends the key of k-1, and cell_counts counts its
    cells from step 2 on: the guard never goes below one step, so step 1's
    count could not change k.
    """
    paths, k_cap, width = samples.shape
    k_max = k_cap if k_max is None else k_max
    if k_max < 2:
        return 1
    step_keys = islice(packed_keys(_code_columns(samples, k_max, m_max, move)), 2 * width - 1, None, width)
    chosen = 1
    for k, counts in enumerate(map(cell_counts, step_keys), start=2):  # no step key is held past its count
        if len(counts) > paths * OCCUPANCY_FRACTION:
            break
        chosen = k
    return chosen


def _entropy_slope(samples: np.ndarray, ladder: tuple, k: int, batch, L: int, notes: str = "", move=None):
    """Slope of the block entropy rate H_k/k against log m, one k-block per path.

    The k-block, moved by `move` if given (see _code_columns), must have
    passed _check_range at the top of the ladder; no column is checked here.
    For each m its code columns from _code_columns go to plugin_entropy
    as an iterator, so cell_counts folds each column into its key as it is
    made: no block-sized code array exists.  `batch` is the draw the samples
    came from (its factor method is reported); slopes outside
    [-0.1, L + 0.1] are flagged.
    """
    paths = samples.shape[0]
    values, ses, occupancy = [], [], []
    for m in ladder:
        est = plugin_entropy(_code_columns(samples, k, m, move))
        if est.occupied > paths * OCCUPANCY_FRACTION:
            raise UndersamplingError(
                f"{est.occupied} occupied cells at m={m} with only {paths} blocks; "
                "reduce k or the top of the m ladder"
            )
        values.append(est.value / k)
        ses.append(est.error / k)
        occupancy.append(est.occupied / paths)
    slope, se, pairwise = _ls_slope(np.log(np.asarray(ladder, float)), values, ses)
    if not -0.1 <= slope <= L + 0.1:
        notes = "; ".join(filter(None, (notes, f"slope {slope:.4f} outside [-0.1, L+0.1]")))
    return DimensionEstimate(
        slope, "entropy-slope", ladder, k, paths, se, pairwise, notes, tuple(occupancy), batch.factor_method,
    )


def idr_slope_estimate(
    model: SpectralModel,
    m_ladder=DEFAULT_M_LADDER,
    k: int | None = None,
    paths: int = ENTROPY_PATHS,
    seed: int = 0,
) -> DimensionEstimate:
    """Dimension from the slope of block entropy rates against log m.

    Samples `paths` independent k-blocks, counts quantized cells per ladder
    precision (Miller-Madow corrected), and fits the entropy-rate slope by
    least squares.  k defaults to the largest block length up to K_CAP that
    the occupancy guard allows (one block per path keeps the standard errors
    honest).
    """
    ladder = _validate_ladder(m_ladder)
    _, batch = _draw(model, K_CAP if k is None else k, paths, seed)
    if batch is None:
        return DimensionEstimate(
            0.0, "entropy-slope", ladder, k or 0, paths, 0.0,
            notes="all components have zero variance; quantized process is constant",
        )
    _check_range(batch.samples, ladder[-1])
    if k is None:
        k = _choose_k(batch.samples, ladder[-1])
    return _entropy_slope(batch.samples, ladder, k, batch, model.L)


def _half_mean_logdet(matrices: np.ndarray, floor: float) -> float:
    """(1/2) * frequency average of log det, eigenvalues floored before the log."""
    return 0.5 * float(np.log(np.maximum(_stack_eigvalsh(matrices), floor)).sum(axis=1).mean())


def _surrogate_slope(samples: np.ndarray, ladder: tuple, seed: int):
    """(value, se, pairwise slopes) of the surrogate on a (paths, k, L) batch.

    Per m, the paths run in SURROGATE_GROUPS groups, and each group's Welch
    estimate gives its own g(m) for the standard error.  The m's one dither
    stream continues across the groups, and the pooled spectrum adds the
    per-path estimates in path order, so every value is the one a
    whole-batch pass would give; the batch must have passed _check_range.
    """
    paths, _, L = samples.shape
    groups = max(1, min(SURROGATE_GROUPS, paths))
    bounds = np.linspace(0, paths, groups + 1).astype(int)
    g_pooled, g_groups = [], []
    for m in ladder:
        draw, floor = dither_stream(seed, m), 0.01 / (12.0 * m * m)
        pooled = np.zeros((SURROGATE_SEGMENT, L, L), dtype=complex)  # per-path spectra summed
        g_groups.append([])
        for a, b in zip(bounds, bounds[1:]):
            w = _floor_codes(samples[a:b], m)
            w /= m
            w += draw(w.shape)
            west = welch_psd(w, nperseg=SURROGATE_SEGMENT)
            g_groups[-1].append(_half_mean_logdet(west.matrices, floor))
            for row in west.per_path:  # one path at a time, in path order, as a whole-batch mean adds them
                pooled += row
        g_pooled.append(_half_mean_logdet(pooled / paths, floor))
    logm = np.log(np.asarray(ladder, float))
    slope, _, pairwise = _ls_slope(logm, g_pooled)
    group_vals = [L + _ls_slope(logm, g)[0] for g in np.transpose(g_groups)]
    se = float(np.std(group_vals, ddof=1) / np.sqrt(groups)) if groups > 1 else float("nan")
    return L + slope, se, tuple(L + p for p in pairwise)


def surrogate_idr_estimate(
    model: SpectralModel,
    m_ladder=SURROGATE_M_LADDER,
    paths: int = SURROGATE_PATHS,
    k: int = SURROGATE_K,
    seed: int = 0,
) -> DimensionEstimate:
    """Dimension from the spectrum of the dithered quantized process.

    For each ladder precision m the quantized-plus-dither paths w are formed,
    their matrix spectrum is estimated by Welch averaging, and
    g(m) = (1/2) * integral of log det of that spectrum.  The estimate is
    L + slope of g against log m; the dither floor 1/(12 m^2) keeps the
    determinant away from zero, and estimated eigenvalues are floored at 1% of
    it before the log.  No cell counting happens, so large m is cheap.

    The long segment, SURROGATE_SEGMENT, keeps window-leakage bias down: nodes
    within a main lobe of a band edge read leaked in-band power instead of the
    1/m^2 floor, and each such node inflates the estimate by ~1/n_freq.
    """
    ladder = _validate_ladder(m_ladder)
    norm = normalize_components(model)
    if not norm.kept:
        return DimensionEstimate(
            0.0, "gaussian-surrogate", ladder, 0, paths, 0.0,
            notes="all components have zero variance; dimension 0",
        )
    k_eff = min(k, MAX_DENSE_DIM // norm.model.L)
    if k_eff < int(1.5 * SURROGATE_SEGMENT):
        raise ValueError(f"k_eff={k_eff} too short for Welch segments of {SURROGATE_SEGMENT}")
    batch = sample_paths(autocovariance_from_spectrum(norm.model, k_eff - 1), k_eff, paths, seed)
    _check_range(batch.samples, ladder[-1])
    value, se, pairwise = _surrogate_slope(batch.samples, ladder, seed)
    return DimensionEstimate(
        value, "gaussian-surrogate", ladder, k_eff, paths, se, pairwise,
        notes="" if -0.1 <= value <= model.L + 0.1 else f"estimate {value:.4f} outside [-0.1, L+0.1]",
        factor_method=batch.factor_method,
    )


def kl_cap_per_coordinate() -> float:
    """Per-coordinate cap on the KL divergence between the dithered quantized
    law of a Gaussian block and its moment-matched Gaussian."""
    return 0.5 * np.log(2.0 * np.pi * (1.0 + 1.0 / 12.0)) + 75.0 / 2.0 + 24.0 / np.pi


@dataclass(frozen=True)
class KLCheckReport:
    m: int
    kl: float
    bound: float
    passed: bool
    mass_deficit: float


def gaussian_surrogate_kl(model: SpectralModel, block_len: int, m: int) -> KLCheckReport:
    """KL divergence between the dithered-quantized block law and its Gaussian fit.

    The dithered value w = floor(m x)/m + u has the piecewise-constant density
    m^l * P(cell); its KL against the moment-matched Gaussian reduces to a sum
    over cells of closed-form integrals (the Gaussian log-density is a
    quadratic, integrated exactly over each cube).  Checked against the
    theoretical cap block_len * K.
    """
    if model.L != 1:
        raise ValueError("KL check is defined for univariate models (blocks of a scalar process)")
    if block_len not in (1, 2):
        raise ValueError("block_len must be 1 or 2 (quadrature feasibility)")
    dist = exact_cell_distribution(model, block_len, m)
    p = dist.probs
    cells = dist.codes / m
    centers = cells + 0.5 / m
    d = block_len
    mu_w = (p[:, None] * centers).sum(axis=0)
    centered = centers - mu_w
    cov_z = np.einsum("n,ni,nj->ij", p, centered, centered)
    cov_w = cov_z + np.eye(d) / (12.0 * m * m)
    prec = np.linalg.inv(cov_w)
    _, logdet = np.linalg.slogdet(cov_w)
    quad_at_centers = np.einsum("ni,ij,nj->n", centered, prec, centered)
    mean_quad = float((p * quad_at_centers).sum() + np.trace(prec) / (12.0 * m * m))
    discrete_term = float((p * np.log(np.maximum(p, 1e-300))).sum()) + d * np.log(m)
    kl = discrete_term + 0.5 * (d * np.log(2.0 * np.pi) + logdet + mean_quad)
    bound = block_len * kl_cap_per_coordinate()
    return KLCheckReport(int(m), float(kl), float(bound), bool(kl <= bound), dist.mass_deficit)


@dataclass(frozen=True)
class InvarianceReport:
    """Paired dimension estimates under a component-wise transform."""

    transform: str
    base: DimensionEstimate
    transformed: DimensionEstimate
    delta: float


def invariance_check(
    model: SpectralModel,
    transforms,
    m_ladder=DEFAULT_M_LADDER,
    k: int | None = None,
    paths: int = ENTROPY_PATHS,
    seed: int = 0,
) -> list[InvarianceReport]:
    """Run the slope estimator on one set of sample paths before and after each
    component-wise transform; the dimension must not move.

    transforms is a sequence of (kind, amount) pairs: ("scale", c) multiplies
    by c > 0, ("translate", c) adds c; c is a finite scalar or one finite
    value per component, and a bad kind or amount raises before any draw.
    The paths are drawn once and shared by every transform, and one report is
    returned per transform.  No transformed batch is made: the code-column
    walker applies each transform to a column as it makes it.  The paths are
    range checked at the top of the ladder, then once per transform, moved
    (_check_range).  Each pair of slopes uses one block length; k defaults
    to the largest one whose occupied-cell count passes the plug-in guard
    on the base and on the transformed paths.
    """
    moves = []
    for kind, amount in transforms:
        if kind not in _MOVES:
            raise ValueError("transform must be 'scale' or 'translate'")
        amount = np.broadcast_to(np.asarray(amount, float), (model.L,)).copy()
        if not np.isfinite(amount).all():
            raise ValueError(f"transform amounts must be finite, got {amount}")
        if kind == "scale" and (amount <= 0).any():
            raise ValueError("scale factors must be positive")
        moves.append((kind, amount))
    ladder = _validate_ladder(m_ladder)
    norm, batch = _draw(model, K_CAP if k is None else k, paths, seed)
    if batch is None:
        zero = DimensionEstimate(0.0, "entropy-slope", ladder, 0, paths, 0.0)
        return [InvarianceReport(kind, zero, zero, 0.0) for kind, _ in moves]
    kept = list(norm.kept)
    _check_range(batch.samples, ladder[-1])
    k_base = k if k is not None else _choose_k(batch.samples, ladder[-1])
    base_at = {}  # base slope per block length, shared by the transforms that use it
    reports = []
    for kind, amount in moves:
        move = (_MOVES[kind], amount[kept])
        _check_range(batch.samples, ladder[-1], move)
        # both slopes share k, so it must pass the guard on both sample sets; k_base caps the moved guard
        k_t = k_base if k is not None else _choose_k(batch.samples, ladder[-1], move, k_base)
        if k_t not in base_at:
            base_at[k_t] = _entropy_slope(batch.samples, ladder, k_t, batch, model.L)
        base = base_at[k_t]
        notes = f"{kind} by {np.array2string(amount, precision=3)}"
        trans = _entropy_slope(batch.samples, ladder, k_t, batch, model.L, notes, move)
        reports.append(InvarianceReport(kind, base, trans, float(abs(trans.value - base.value))))
    return reports
