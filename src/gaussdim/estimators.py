"""Dimension-rate estimators: block-entropy slope, Gaussian-surrogate slope,
the dithered-quantization KL check, and scale/translation invariance runs.

Both estimators extract the dimension as the slope of a quantity against
log m over a precision ladder: block entropies grow like d * log m + const,
and the additive constant (which decays only like 1/log m in a ratio) drops
out of the slope.  The surrogate route replaces cell counting with the
log-determinant of the spectrum of the dithered quantized process, which is
what makes narrowband processes reachable at desk scale.  It runs one path
group at a time: each m has one dither stream that continues across the
groups, so its working arrays are a group's size, not the batch's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .entropy import cell_counts, exact_cell_distribution, packed_keys, plugin_entropy
from .quantize import check_precision, dither_stream, quantize
from .simulate import MAX_DENSE_DIM, autocovariance_from_spectrum, sample_paths, welch_psd
from .spectral import SpectralModel, _stack_eigvalsh, normalize_components

DEFAULT_M_LADDER = (8, 16, 32, 64)
SURROGATE_M_LADDER = (16, 64, 256)
OCCUPANCY_FRACTION = 0.1
K_CAP = 4
SURROGATE_GROUPS = 10  # path groups behind the surrogate's standard error
SURROGATE_SEGMENT = 1024  # Welch segment length of the surrogate


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


def _choose_k(samples: np.ndarray, m_max: int) -> int:
    """Largest block length whose occupied-cell count passes the plug-in guard.

    One range check at m_max covers the whole (paths, k_cap, L) batch, so a
    value out of range at any step raises, as quantizing the batch would.
    The code columns floor(m_max x) are then made one component of one step
    at a time, each floored in place and cast to int64 before it is folded
    into the key (packed_keys), so the working set is a few code columns on
    top of the batch.  The key after step k's last column extends the key of
    k-1, and cell_counts counts its cells.
    """
    paths, k_cap, width = samples.shape
    check_precision(samples, m_max)

    def floor_codes(col):
        x = m_max * col
        return np.floor(x, out=x).astype(np.int64)  # the float column is freed on return, before the fold

    columns = (floor_codes(samples[:, t, i]) for t in range(k_cap) for i in range(width))
    step_keys = islice(packed_keys(columns), width - 1, None, width)  # the key after each whole step
    chosen = 1
    for k, counts in enumerate(map(cell_counts, step_keys), start=1):  # no step key is held past its count
        if len(counts) > paths * OCCUPANCY_FRACTION:
            break
        chosen = k
    return chosen


def _entropy_slope(samples: np.ndarray, ladder: tuple, k: int, batch, L: int, notes: str = ""):
    """Slope of the block entropy rate H_k/k against log m, one k-block per path.

    For each m the block's codes are quantized one component column of one
    step at a time and handed to plugin_entropy as a column iterator, so
    cell_counts folds each column into its key as it is made: no block-sized
    code array exists.  `batch` is the draw the samples came from (its
    factor method is reported); slopes outside [-0.1, L + 0.1] are flagged.
    """
    paths, _, width = samples.shape
    values, ses, occupancy = [], [], []
    for m in ladder:
        est = plugin_entropy(
            quantize(samples[:, t, i:i + 1], m).astype(np.int64).ravel() for t in range(k) for i in range(width)
        )
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
    paths: int = 100_000,
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
    if k is None:
        k = _choose_k(batch.samples, ladder[-1])
    return _entropy_slope(batch.samples, ladder, k, batch, model.L)


def _half_mean_logdet(matrices: np.ndarray, floor: float) -> float:
    """(1/2) * frequency average of log det, eigenvalues floored before the log."""
    return 0.5 * float(np.log(np.maximum(_stack_eigvalsh(matrices), floor)).sum(axis=1).mean())


def surrogate_idr_estimate(
    model: SpectralModel,
    m_ladder=SURROGATE_M_LADDER,
    paths: int = 200,
    k: int = 4096,
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

    The paths run in SURROGATE_GROUPS groups, one group at a time, and each
    group's Welch estimate gives its own g(m) for the standard error.  Each m
    has one dither stream that continues across the groups, and the pooled
    spectrum adds the per-path estimates in path order, so every value is
    the one a whole-batch pass would give.
    """
    ladder = _validate_ladder(m_ladder)
    norm = normalize_components(model)
    if not norm.kept:
        return DimensionEstimate(
            0.0, "gaussian-surrogate", ladder, 0, paths, 0.0,
            notes="all components have zero variance; dimension 0",
        )
    L = norm.model.L
    k_eff = min(k, MAX_DENSE_DIM // L)
    if k_eff < int(1.5 * SURROGATE_SEGMENT):
        raise ValueError(f"k_eff={k_eff} too short for Welch segments of {SURROGATE_SEGMENT}")
    acov = autocovariance_from_spectrum(norm.model, k_eff - 1)
    batch = sample_paths(acov, k_eff, paths, seed)
    check_precision(batch.samples, ladder[-1])  # |x| * m grows with m: the top of the ladder covers it
    groups = max(1, min(SURROGATE_GROUPS, paths))
    bounds = np.linspace(0, paths, groups + 1).astype(int)
    draws = [dither_stream(seed, m) for m in ladder]
    floors = [0.01 / (12.0 * m * m) for m in ladder]

    pooled = np.zeros((len(ladder), SURROGATE_SEGMENT, L, L), dtype=complex)  # per-path spectra summed, per m
    g_groups = np.empty((len(ladder), groups))
    for gi, (a, b) in enumerate(zip(bounds, bounds[1:])):
        x = batch.samples[a:b]
        for i, m in enumerate(ladder):
            w = quantize(x, m)
            w /= m
            w += draws[i](w.shape)
            west = welch_psd(w, nperseg=SURROGATE_SEGMENT)
            g_groups[i, gi] = _half_mean_logdet(west.matrices, floors[i])
            for row in west.per_path:  # one path at a time, in path order, as a whole-batch mean adds them
                pooled[i] += row
    g_pooled = [_half_mean_logdet(total / paths, floor) for total, floor in zip(pooled, floors)]

    logm = np.log(np.asarray(ladder, float))
    slope, _, pairwise = _ls_slope(logm, g_pooled)
    value = L + slope
    if groups > 1:
        group_vals = [L + _ls_slope(logm, g_groups[:, gi])[0] for gi in range(groups)]
        se = float(np.std(group_vals, ddof=1) / np.sqrt(groups))
    else:
        se = float("nan")
    return DimensionEstimate(
        value, "gaussian-surrogate", ladder, k_eff, paths, se, tuple(L + p for p in pairwise),
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
    paths: int = 100_000,
    seed: int = 0,
) -> list[InvarianceReport]:
    """Run the slope estimator on one set of sample paths before and after each
    component-wise transform; the dimension must not move.

    transforms is a sequence of (kind, amount) pairs: ("scale", c) multiplies
    by c > 0, ("translate", c) adds c; c is a scalar or one value per
    component.  The paths are drawn once and shared by every transform, and
    one report is returned per transform.  Each pair of slopes uses one block
    length; k defaults to the largest one whose occupied-cell count passes the
    plug-in guard on the base and on the transformed paths.
    """
    moves = []
    for kind, amount in transforms:
        if kind not in ("scale", "translate"):
            raise ValueError("transform must be 'scale' or 'translate'")
        amount = np.broadcast_to(np.asarray(amount, float), (model.L,)).copy()
        if kind == "scale" and (amount <= 0).any():
            raise ValueError("scale factors must be positive")
        moves.append((kind, amount))
    ladder = _validate_ladder(m_ladder)
    norm, batch = _draw(model, K_CAP if k is None else k, paths, seed)
    if batch is None:
        zero = DimensionEstimate(0.0, "entropy-slope", ladder, 0, paths, 0.0)
        return [InvarianceReport(kind, zero, zero, 0.0) for kind, _ in moves]
    kept = list(norm.kept)
    k_base = k if k is not None else _choose_k(batch.samples, ladder[-1])
    base_at = {}  # base slope per block length, shared by the transforms that use it
    reports = []
    for kind, amount in moves:
        moved = batch.samples * amount[kept] if kind == "scale" else batch.samples + amount[kept]
        # both slopes share k, so it must pass the guard on both sample sets
        k_t = k_base if k is not None else min(k_base, _choose_k(moved, ladder[-1]))
        if k_t not in base_at:
            base_at[k_t] = _entropy_slope(batch.samples, ladder, k_t, batch, model.L)
        base = base_at[k_t]
        notes = f"{kind} by {np.array2string(amount, precision=3)}"
        trans = _entropy_slope(moved, ladder, k_t, batch, model.L, notes)
        reports.append(InvarianceReport(kind, base, trans, float(abs(trans.value - base.value))))
    return reports
