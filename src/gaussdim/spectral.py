"""Matrix-valued spectral densities on [-1/2, 1/2] and the spectral rank integral.

A stationary L-variate real Gaussian process is described by a spectral model:
a sum of constant Hermitian PSD matrices on frequency bands, optional rational
terms (polynomial ratios in z = e^{-i 2 pi theta}) for smooth spectra, and
discrete spectral lines.  The frequency average of the numerical rank of the
density is the model's information dimension rate and serves as the reference
value for every estimator in this package.

Bivariate models double as complex processes (component 0 = real part,
component 1 = imaginary part).  The properness check and the complex support
bound read the density stack of one rank-integral evaluation, so a complex
analysis evaluates and diagonalizes the density once.

Every grid eigen-pass goes through `_stack_eigvalsh`: a 1x1 stack's
eigenvalue is its real diagonal, a 2x2 stack is diagonalized in closed form,
and only stacks with L >= 3 go to LAPACK (`np.linalg.eigvalsh`).  Every
model in `gaussdim.benchmarks` has L <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_GRID_N = 4096
MIN_GRID_N = 64
RANK_REL_TOL = 1e-9
RANK_ABS_FLOOR = 1e-300
PSD_TOL = 1e-10
SYMMETRY_TOL = 1e-10
PROPERNESS_TOL = 1e-12

_SYMMETRY_PROBE_N = 512


class ModelValidationError(ValueError):
    """A spectral model violates one of its structural invariants."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Midpoint quadrature grid: nodes -1/2 + (j + 1/2)/n, uniform weight 1/n.

    The half-step offset keeps dyadic band endpoints strictly between nodes,
    so endpoint sets of measure zero never bias node counts.
    """

    n: int = DEFAULT_GRID_N

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 2, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return -0.5 + (np.arange(self.n) + 0.5) / self.n

    @property
    def weight(self) -> float:
        return 1.0 / self.n


def _hermitian_matrix(mat, L: int, what: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.shape != (L, L):
        raise ModelValidationError(f"{what} must be {L}x{L}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ModelValidationError(f"{what} has a non-finite entry")
    scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
    if np.abs(arr - arr.conj().T).max(initial=0.0) > PSD_TOL * scale:
        raise ModelValidationError(f"{what} is not Hermitian")
    arr = 0.5 * (arr + arr.conj().T)
    eig = np.linalg.eigvalsh(arr)
    if eig.min() < -PSD_TOL * max(1.0, eig.max()):
        raise ModelValidationError(
            f"{what} is not positive semidefinite (min eigenvalue {eig.min():.3e})"
        )
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Band:
    """Constant Hermitian PSD density on the half-open interval [lo, hi)."""

    lo: float
    hi: float
    matrix: np.ndarray


@dataclass(frozen=True)
class SpectralLine:
    """Discrete jump of the spectral distribution at a single frequency."""

    theta: float
    power: np.ndarray


@dataclass(frozen=True)
class RationalTerm:
    """Adds num(z)/den(z), z = e^{-i 2 pi theta}, to entry (row, col).

    Coefficients are ascending powers of z.  Off-diagonal terms implicitly add
    the conjugate to the mirrored entry, keeping the matrix Hermitian.
    """

    row: int
    col: int
    num: tuple
    den: tuple


@dataclass(frozen=True)
class SpectralModel:
    """Spectral description of a stationary L-variate real Gaussian process."""

    L: int
    bands: tuple = ()
    arma_terms: tuple = ()
    lines: tuple = ()
    mean: np.ndarray = None
    validate: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self):
        if self.L < 1:
            raise ModelValidationError(f"L must be >= 1, got {self.L}")
        mean = np.zeros(self.L) if self.mean is None else np.asarray(self.mean, float)
        if mean.shape != (self.L,):
            raise ModelValidationError(f"mean must have shape ({self.L},)")
        if not np.isfinite(mean).all():
            raise ModelValidationError("mean has a non-finite entry")
        mean = mean.copy()
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)

        bands = []
        for b in self.bands:
            if not isinstance(b, Band):
                b = Band(float(b[0]), float(b[1]), b[2])
            bands.append(Band(float(b.lo), float(b.hi), _hermitian_matrix(b.matrix, self.L, "band matrix")))
        bands.sort(key=lambda b: b.lo)
        object.__setattr__(self, "bands", tuple(bands))

        lines = []
        for ln in self.lines:
            if not isinstance(ln, SpectralLine):
                ln = SpectralLine(float(ln[0]), ln[1])
            lines.append(SpectralLine(float(ln.theta), _hermitian_matrix(ln.power, self.L, "line power")))
        object.__setattr__(self, "lines", tuple(lines))

        terms = []
        for t in self.arma_terms:
            if not isinstance(t, RationalTerm):
                t = RationalTerm(int(t[0]), int(t[1]), tuple(t[2]), tuple(t[3]))
            if not (0 <= t.row < self.L and 0 <= t.col < self.L):
                raise ModelValidationError(f"rational term indices ({t.row},{t.col}) out of range")
            t = RationalTerm(t.row, t.col, tuple(complex(c) for c in t.num), tuple(complex(c) for c in t.den))
            if not np.isfinite(t.num + t.den).all():
                raise ModelValidationError(f"rational term ({t.row},{t.col}) has a non-finite coefficient")
            terms.append(t)
        object.__setattr__(self, "arma_terms", tuple(terms))

        if self.validate:
            _validate_model(self)


def _validate_model(model: SpectralModel) -> None:
    for b in model.bands:
        if not (-0.5 - 1e-12 <= b.lo < b.hi <= 0.5 + 1e-12):
            raise ModelValidationError(f"band [{b.lo}, {b.hi}) outside [-1/2, 1/2] or empty")
    for prev, nxt in zip(model.bands, model.bands[1:]):
        if nxt.lo < prev.hi - 1e-15:
            raise ModelValidationError(
                f"bands [{prev.lo}, {prev.hi}) and [{nxt.lo}, {nxt.hi}) overlap"
            )
    for ln in model.lines:
        if not -0.5 <= ln.theta <= 0.5:
            raise ModelValidationError(f"line frequency {ln.theta} outside [-1/2, 1/2]")

    # real process: density and jumps must mirror as S(-theta) = conj(S(theta))
    for b in model.bands:
        mirror = None
        for c in model.bands:
            if abs(c.lo + b.hi) < 1e-12 and abs(c.hi + b.lo) < 1e-12:
                mirror = c
                break
        covers_self = abs(b.lo + b.hi) < 1e-12  # symmetric interval
        if covers_self:
            mirror = b
        if mirror is None:
            raise ModelValidationError(
                f"band [{b.lo}, {b.hi}) has no mirrored band; real processes need S(-t)=conj(S(t))"
            )
        if np.abs(mirror.matrix - b.matrix.conj()).max() > SYMMETRY_TOL * (1.0 + np.abs(b.matrix).max()):
            raise ModelValidationError(
                f"band [{b.lo}, {b.hi}) and its mirror violate S(-t)=conj(S(t))"
            )
    for ln in model.lines:
        if abs(ln.theta) < 1e-12:
            continue
        partner = [p for p in model.lines if abs(p.theta + ln.theta) < 1e-12]
        if not partner or np.abs(partner[0].power - ln.power.conj()).max() > SYMMETRY_TOL * (
            1.0 + np.abs(ln.power).max()
        ):
            raise ModelValidationError(
                f"line at {ln.theta} needs a conjugate partner at {-ln.theta}"
            )

    if model.arma_terms:
        probe = FrequencyGrid(_SYMMETRY_PROBE_N)
        mats = _assemble_spectrum(model, probe.nodes)
        _check_nodes(mats, probe.nodes)


def _eval_rational(model: SpectralModel, nodes: np.ndarray) -> np.ndarray:
    """Rational contributions only, assembled Hermitian."""
    out = np.zeros((len(nodes), model.L, model.L), dtype=complex)
    if not model.arma_terms:
        return out
    z = np.exp(-2j * np.pi * nodes)
    for t in model.arma_terms:
        num = np.polynomial.polynomial.polyval(z, np.asarray(t.num))
        den = np.polynomial.polynomial.polyval(z, np.asarray(t.den))
        bad = np.abs(den) < 1e-14
        if bad.any():
            raise ModelValidationError(
                f"rational term ({t.row},{t.col}) denominator vanishes near theta={nodes[bad][0]:+.6f}"
            )
        val = num / den
        out[:, t.row, t.col] += val
        if t.row != t.col:
            out[:, t.col, t.row] += val.conj()
    return out


def _assemble_spectrum(model: SpectralModel, nodes: np.ndarray) -> np.ndarray:
    """Density stack at `nodes`, which must be ascending: each band fills the
    contiguous run of nodes in [lo, hi)."""
    out = np.zeros((len(nodes), model.L, model.L), dtype=complex)
    for b in model.bands:
        lo, hi = np.searchsorted(nodes, (b.lo, b.hi))
        out[lo:hi] += b.matrix
    if model.arma_terms:
        out += _eval_rational(model, nodes)
    return out


def _stack_eigvalsh(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending per node, of a finite (n, L, L) Hermitian stack.

    L = 1 reads the real diagonal.  L = 2 uses the closed form
    s -+ hypot((a - d)/2, |b|) with s = (a + d)/2, a and d the real diagonal
    and b the lower off-diagonal entry, as LAPACK reads it; its error is a
    few ulps of the largest eigenvalue.  L >= 3 calls np.linalg.eigvalsh.
    """
    L = mats.shape[-1]
    if L == 1:
        return np.ascontiguousarray(mats[:, :, 0].real)
    if L == 2:
        # halving each diagonal first keeps a + d from overflowing
        half_a, half_d = 0.5 * mats[:, 0, 0].real, 0.5 * mats[:, 1, 1].real
        s = half_a + half_d
        r = np.hypot(half_a - half_d, np.abs(mats[:, 1, 0]))
        return np.stack((s - r, s + r), axis=-1)
    return np.linalg.eigvalsh(mats)


def _check_nodes(mats: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Validate the density stack; return its eigenvalues (ascending per node).

    The stack must be finite, Hermitian, mirror as S(-t) = conj(S(t)) and be
    PSD.  Each check reduces over the whole stack and looks for the offending
    node only when it fails.  The eigenvalues come from `_stack_eigvalsh`, so
    1x1 and 2x2 stacks take the closed form and larger ones LAPACK.
    """
    scale = 1.0 + np.abs(mats).max(initial=0.0)
    if not np.isfinite(scale):
        j = int(np.argmin(np.isfinite(mats).all(axis=(1, 2))))
        raise ModelValidationError(f"density not finite at theta={nodes[j]:+.6f}")
    herm = np.abs(mats - mats.conj().transpose(0, 2, 1))
    if herm.max(initial=0.0) > PSD_TOL * scale:
        j = int(herm.max(axis=(1, 2)).argmax())
        raise ModelValidationError(f"density not Hermitian at theta={nodes[j]:+.6f}")
    sym = np.abs(mats[::-1] - mats.conj())
    if sym.max(initial=0.0) > SYMMETRY_TOL * scale:
        sym_err = sym.max(axis=(1, 2))
        j = int(sym_err.argmax())
        raise ModelValidationError(
            f"S(-t)=conj(S(t)) violated at theta={nodes[j]:+.6f} (error {sym_err[j]:.3e})"
        )
    eig = _stack_eigvalsh(mats)
    viol = eig[:, 0] < -PSD_TOL * np.maximum(1.0, eig[:, -1])
    if viol.any():
        j = int(np.argmax(viol))
        raise ModelValidationError(
            f"density not PSD at theta={nodes[j]:+.6f} (min eigenvalue {eig[j, 0]:.3e})"
        )
    return eig


def eval_spectrum(model: SpectralModel, grid: FrequencyGrid) -> np.ndarray:
    """Density matrices S(theta_j) on the grid, shape (n, L, L), lines excluded.

    Lines are jumps of the spectral distribution; the derivative they carry is
    zero almost everywhere, so they contribute nothing here.
    """
    return _diagonalize(model, grid)[0]


def _diagonalize(model: SpectralModel, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate, validate and diagonalize the density on the grid in one pass.

    Returns the (n, L, L) stack and its eigenvalues, ascending per node.
    """
    nodes = grid.nodes
    mats = _assemble_spectrum(model, nodes)
    return mats, _check_nodes(mats, nodes)


@dataclass(frozen=True)
class RankProfile:
    """Per-node eigenvalues (descending) and numerical ranks of the density."""

    eigenvalues: np.ndarray  # (n, L), descending per node
    ranks: np.ndarray  # (n,) ints
    rel_tol: float
    abs_floor: float

    @property
    def mean_rank(self) -> float:
        return float(self.ranks.mean())

    def histogram(self) -> dict:
        vals, counts = np.unique(self.ranks, return_counts=True)
        return {int(v): float(c) / len(self.ranks) for v, c in zip(vals, counts)}

    @cached_property
    def sorted_eigenvalues_and_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Every eigenvalue in one ascending array and its prefix sums, computed
        on first use and kept, so all water-fillings of a profile share one sort."""
        return _ascending_prefix_sums(self.eigenvalues)


def _ascending_prefix_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`values` sorted ascending into one flat array, and its prefix sums with a leading 0."""
    mu = np.sort(values, axis=None)
    return mu, np.concatenate(([0.0], np.cumsum(mu)))


def _numerical_ranks(eigs_desc: np.ndarray, rel_tol: float, abs_floor: float) -> np.ndarray:
    top = np.maximum(eigs_desc[..., 0], abs_floor)
    thresh = rel_tol * top
    return (eigs_desc > thresh[..., None]).sum(axis=-1)


@dataclass(frozen=True)
class RankIntegralResult:
    value: float
    profile: RankProfile
    method: str  # "segment-exact" or "grid"
    grid_n: int
    model: SpectralModel
    matrices: np.ndarray  # (n, L, L) validated density stack the profile diagonalized


def _band_segments(model: SpectralModel):
    """Yield (length, summed band matrix) for each piece between sorted band edges.

    A band-only density is constant on each piece, so integrals over the
    frequency axis fold over these pieces with no grid discretization error.
    Pieces of length <= 1e-15 are skipped.
    """
    edges = {-0.5, 0.5}
    for b in model.bands:
        edges.add(b.lo)
        edges.add(b.hi)
    edges = sorted(edges)
    for a, b in zip(edges, edges[1:]):
        if b - a <= 1e-15:
            continue
        mid = 0.5 * (a + b)
        mat = np.zeros((model.L, model.L), dtype=complex)
        for band in model.bands:
            if band.lo <= mid < band.hi:
                mat += band.matrix
        yield b - a, mat


def rank_integral(
    model: SpectralModel,
    grid: FrequencyGrid | None = None,
    rel_tol: float = RANK_REL_TOL,
    abs_floor: float = RANK_ABS_FLOOR,
) -> RankIntegralResult:
    """Average rank of the spectral density over [-1/2, 1/2].

    For band-only models the value is computed exactly from the band segment
    lengths; models with rational terms fall back to the midpoint grid sum.
    The per-node RankProfile is always reported from the grid, and the result
    keeps the validated density stack for properness_check and support_bound.
    """
    grid = grid or FrequencyGrid()
    if grid.n < MIN_GRID_N:
        raise ValueError(f"grid resolution must be >= {MIN_GRID_N}, got {grid.n}")
    mats, eig = _diagonalize(model, grid)
    eig = eig[:, ::-1]
    profile = RankProfile(eig, _numerical_ranks(eig, rel_tol, abs_floor), rel_tol, abs_floor)
    if model.arma_terms:
        value = profile.mean_rank
        method = "grid"
    else:
        value = 0.0
        for length, mat in _band_segments(model):
            rank = int(_numerical_ranks(np.linalg.eigvalsh(mat)[::-1], rel_tol, abs_floor))
            value += rank * length
        method = "segment-exact"
    return RankIntegralResult(value, profile, method, grid.n, model, mats)


def _bivariate_stack(ri: RankIntegralResult) -> np.ndarray:
    """The (n, 2, 2) density stack of a complex process viewed as (real, imaginary)."""
    if ri.model.L != 2:
        raise ValueError("complex-process analysis needs a bivariate (L=2) model")
    return ri.matrices


def _scalar_density(mats: np.ndarray) -> np.ndarray:
    """Density of the complex process itself: S_Z = S_R + S_I + 2 Im(S_RI)."""
    return mats[..., 0, 0].real + mats[..., 1, 1].real + 2 * mats[..., 0, 1].imag


@dataclass(frozen=True)
class PropernessReport:
    proper: bool
    max_density_mismatch: float  # max |S_R - S_I|
    max_real_cross: float  # max |Re S_RI|
    tolerance: float


def properness_check(ri: RankIntegralResult) -> PropernessReport:
    """Proper iff S_R = S_I and S_RI is purely imaginary at every node.

    Properness of a complex process means a vanishing pseudo-autocovariance;
    in the spectral domain that is exactly the two conditions tested here.
    The marginal densities are read clipped at 0.
    """
    mats = _bivariate_stack(ri)
    s_r = np.maximum(mats[:, 0, 0].real, 0.0)
    s_i = np.maximum(mats[:, 1, 1].real, 0.0)
    s_ri = mats[:, 0, 1]
    packed = np.empty_like(mats)
    packed[:, 0, 0] = s_r
    packed[:, 1, 1] = s_i
    packed[:, 0, 1] = s_ri
    packed[:, 1, 0] = s_ri.conj()
    norm = np.linalg.norm(packed, axis=(1, 2))
    tol = float(PROPERNESS_TOL * (1.0 + norm.max(initial=0.0)))
    mismatch = float(np.abs(s_r - s_i).max(initial=0.0))
    real_cross = float(np.abs(s_ri.real).max(initial=0.0))
    ok = bool(
        np.all(np.abs(s_r - s_i) <= PROPERNESS_TOL * (1.0 + norm))
        and np.all(np.abs(s_ri.real) <= PROPERNESS_TOL * (1.0 + norm))
    )
    return PropernessReport(ok, mismatch, real_cross, tol)


@dataclass(frozen=True)
class SupportBoundReport:
    """Dimension of the bivariate process vs. 2x the support measure of S_Z."""

    dimension: float
    bound: float
    gap: float
    tight: bool
    tolerance: float


def support_bound(ri: RankIntegralResult) -> SupportBoundReport:
    """Compare dimension with 2 * measure{S_Z > 0}; tight for proper processes.

    The dimension is the rank integral and both sides use its rank
    tolerances.  Band-only models are evaluated exactly by segment
    arithmetic; models with rational terms count grid nodes with a
    grid-resolution tolerance.  A violated bound shows as a negative gap.
    """
    mats = _bivariate_stack(ri)
    rel_tol, abs_floor = ri.profile.rel_tol, ri.profile.abs_floor
    if ri.model.arma_terms:
        bound = _grid_support_measure(_scalar_density(mats), rel_tol, abs_floor)
        tol = 4.0 / len(mats)
    else:
        bound = _segment_support_measure(ri.model, rel_tol, abs_floor)
        tol = 1e-9
    gap = bound - ri.value
    return SupportBoundReport(ri.value, bound, gap, bool(abs(gap) <= tol), tol)


def _grid_support_measure(s_z: np.ndarray, rel_tol: float, abs_floor: float) -> float:
    thresh = rel_tol * max(s_z.max(initial=0.0), abs_floor)
    return 2.0 * float((s_z > thresh).sum()) / len(s_z)


def _segment_support_measure(model: SpectralModel, rel_tol: float, abs_floor: float) -> float:
    # S_Z of each band segment; bands do not overlap, so the peak over the
    # segments is the peak over the bands.
    segments = [(length, float(_scalar_density(mat))) for length, mat in _band_segments(model)]
    peak = max((s_z for _, s_z in segments), default=0.0)
    thresh = rel_tol * max(peak, abs_floor)
    measure = 0.0
    for length, s_z in segments:
        if s_z > thresh:
            measure += length
    return 2.0 * measure


def component_variances(model: SpectralModel, grid: FrequencyGrid | None = None) -> np.ndarray:
    """Per-component total power: integrated density plus line jumps."""
    var = np.zeros(model.L)
    for b in model.bands:
        var += (b.hi - b.lo) * np.diag(b.matrix).real
    for ln in model.lines:
        var += np.diag(ln.power).real
    if model.arma_terms:
        grid = grid or FrequencyGrid()
        rat = _eval_rational(model, grid.nodes)
        var += np.einsum("nii->i", rat).real * grid.weight
    return var


@dataclass(frozen=True)
class NormalizationResult:
    model: SpectralModel
    scales: np.ndarray  # multiplier applied to each kept component
    kept: tuple
    dropped: tuple


def normalize_components(model: SpectralModel, grid: FrequencyGrid | None = None) -> NormalizationResult:
    """Drop zero-variance components and rescale the rest to unit variance.

    Rescaling is a congruence by a positive diagonal matrix, so the rank of
    the density (and hence the dimension) is unchanged; zero-variance
    components contribute nothing to either.
    """
    var = component_variances(model, grid)
    tol = 1e-14 * max(1.0, var.max(initial=0.0))
    kept = tuple(int(i) for i in np.flatnonzero(var > tol))
    dropped = tuple(int(i) for i in np.flatnonzero(var <= tol))
    if not kept:
        empty = SpectralModel(L=model.L, bands=(), arma_terms=(), lines=(), mean=np.zeros(model.L))
        return NormalizationResult(empty, np.ones(0), kept, dropped)
    if any(t.row in dropped or t.col in dropped for t in model.arma_terms):
        raise ModelValidationError("rational term attached to a zero-variance component")
    idx = np.asarray(kept)
    scales = 1.0 / np.sqrt(var[idx])
    return NormalizationResult(_congruence(model, idx, scales), scales, kept, dropped)


def _congruence(model: SpectralModel, idx, scales) -> SpectralModel:
    """The model of components `idx` (in that order), scaled by diag(scales).

    Every matrix becomes d @ M[idx, idx] @ d with d = diag(scales), a
    congruence by a positive diagonal matrix after a selection or
    permutation, so the rank of the density at every frequency is unchanged.
    """
    d = np.diag(scales)
    remap = {int(orig): new for new, orig in enumerate(idx)}

    def congruence(mat):
        return d @ mat[np.ix_(idx, idx)] @ d

    return SpectralModel(
        L=len(idx),
        bands=tuple(Band(b.lo, b.hi, congruence(b.matrix)) for b in model.bands),
        arma_terms=tuple(
            RationalTerm(
                remap[t.row],
                remap[t.col],
                tuple(c * scales[remap[t.row]] * scales[remap[t.col]] for c in t.num),
                t.den,
            )
            for t in model.arma_terms
        ),
        lines=tuple(SpectralLine(ln.theta, congruence(ln.power)) for ln in model.lines),
        mean=model.mean[idx] * scales,
    )
