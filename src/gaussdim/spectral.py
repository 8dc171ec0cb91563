"""Matrix-valued spectral densities on [-1/2, 1/2] and the spectral rank integral.

A stationary L-variate real Gaussian process is described by a spectral model:
a sum of constant Hermitian PSD matrices on frequency bands, optional rational
terms (polynomial ratios in z = e^{-i 2 pi theta}) for smooth spectra, and
discrete spectral lines.  The frequency average of the numerical rank of the
density is the model's information dimension rate and serves as the reference
value for every estimator in this package.

Bivariate models double as complex processes (component 0 = real part,
component 1 = imaginary part).  The properness check and the complex support
bound read the pieces of one rank-integral evaluation, so a complex analysis
evaluates and diagonalizes the density once.

One walk over the band edges (`_band_pieces`) cuts [-1/2, 1/2] into pieces
on which a band-only density is constant, each with its length and the
number of grid nodes it holds.  Each piece is validated, diagonalized and
ranked once, and the pieces are all a rank-integral result keeps: the rank
integral and the complex support measure sum piece lengths, and the node
averages weight each piece by its node count.  A model with rational terms
has a piece of length 1/n at every node, the only case with a per-node stack.

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
        if self.n < MIN_GRID_N or self.n % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= {MIN_GRID_N}, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n, dtype=float) + 0.5) / self.n - 0.5

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

    # real process: density and jumps must mirror as S(-theta) = conj(S(theta)).  Each band piece is checked,
    # held by a grid node or not, save a sliver up to 1e-12 wide: a rounding gap between mirrored edges.
    lengths, mats, _ = _band_pieces(model, np.empty(0))
    err = np.abs(mats[::-1] - mats.conj()).max(axis=(1, 2))
    bad = (err > SYMMETRY_TOL * (1.0 + np.abs(mats).max(axis=(1, 2)))) & (lengths > 1e-12)
    if bad.any():
        lo = -0.5 + lengths[: np.argmax(bad)].sum()  # the first piece that differs from its mirror
        raise ModelValidationError(
            f"band piece at theta={lo:+.6f} is not the conjugate of its mirror; real processes need S(-t)=conj(S(t))"
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
        _diagonalize(model, FrequencyGrid(_SYMMETRY_PROBE_N))


def _horner(coeffs: tuple, z: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] z^j by Horner's rule (ascending coefficients)."""
    val = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        val *= z
        val += c
    return val


def _eval_rational(model: SpectralModel, nodes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rational contributions, assembled Hermitian, added into the (n, L, L)
    complex stack `out` (a new zero stack by default) and returned."""
    out = np.zeros((len(nodes), model.L, model.L), dtype=complex) if out is None else out
    if not model.arma_terms:
        return out
    z = np.exp(-2j * np.pi * nodes)
    for t in model.arma_terms:
        num = _horner(t.num, z)
        den = _horner(t.den, z)
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


def _band_edge_index(nodes: np.ndarray, edges) -> np.ndarray:
    """Index of the first node a band starting at each edge fills, mirror-symmetric.

    A band fills the nodes from the index of its lower edge to the index of
    its upper edge.  An edge e >= 0 indexes the first node >= e, so the band
    fills [lo, hi) there; an edge e < 0 indexes n minus the index of -e, so
    the band fills (lo, hi] on the negative half-axis.  A node exactly on an
    edge thus belongs to the band on its outer side (away from theta = 0),
    and index(-e) = n - index(e) holds exactly even where the grid's rounded
    nodes are not exact negatives of each other, so a mirrored band fills
    the mirrored nodes.  On a grid whose nodes are exact mirrors (every
    dyadic n) an edge between nodes indexes as `np.searchsorted` does.
    """
    edges = np.asarray(edges, dtype=float)
    index = np.searchsorted(nodes, np.abs(edges))
    return np.where(edges < 0, len(nodes) - index, index)


def _band_pieces(model: SpectralModel, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending pieces between the band edges, their mirrors and +-1/2.

    Returns each piece's length, its summed band matrix in a (p, L, L) stack
    and the number of the ascending `nodes` it holds, from `_band_edge_index`
    of its lower edge to that of its upper edge: repeating each piece over its
    count fills the grid.  The edge set is closed under negation, so piece
    -1 - i has the length and count of piece i and holds its mirrored nodes.
    """
    edges = np.array(sorted({-0.5, 0.5, *(e for b in model.bands for e in (b.lo, b.hi, -b.lo, -b.hi))}))
    mats = np.zeros((len(edges) - 1, model.L, model.L), dtype=complex)
    for b in model.bands:
        mats[(b.lo <= edges[:-1]) & (edges[1:] <= b.hi)] += b.matrix
    return np.diff(edges), mats, np.diff(_band_edge_index(nodes, edges))


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


def _check_nodes(mats: np.ndarray, nodes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Validate the pieces that hold a node; return every piece's eigenvalues, ascending.

    `mats` is a mirror-closed (p, L, L) piece stack and piece i holds
    `counts[i]` of the ascending `nodes`.  The pieces that hold a node must be
    finite, Hermitian, mirror as S(-t) = conj(S(t)) (their stack against its
    reverse) and be PSD.  Each check reduces over them and looks for the
    offending piece only when it fails, naming its first node: the first
    offending node of the grid.  All pieces, held or not, are diagonalized in
    one `_stack_eigvalsh` call.
    """
    held = counts > 0
    every = held.all()
    reps = mats if every else mats[held]  # no copy when every piece holds a node

    def theta(j):  # the first node of held piece j
        return nodes[(np.cumsum(counts) - counts)[held][j]]

    scale = 1.0 + np.abs(reps).max(initial=0.0)
    if not np.isfinite(scale):
        j = int(np.argmin(np.isfinite(reps).all(axis=(1, 2))))
        raise ModelValidationError(f"density not finite at theta={theta(j):+.6f}")
    conj = reps.conj()
    herm = np.abs(reps - conj.transpose(0, 2, 1))
    if herm.max(initial=0.0) > PSD_TOL * scale:
        j = int(herm.max(axis=(1, 2)).argmax())
        raise ModelValidationError(f"density not Hermitian at theta={theta(j):+.6f}")
    sym = np.abs(reps[::-1] - conj)
    if sym.max(initial=0.0) > SYMMETRY_TOL * scale:
        sym_err = sym.max(axis=(1, 2))
        j = int(sym_err.argmax())
        raise ModelValidationError(
            f"S(-t)=conj(S(t)) violated at theta={theta(j):+.6f} (error {sym_err[j]:.3e})"
        )
    eig = _stack_eigvalsh(mats)
    held_eig = eig if every else eig[held]
    viol = held_eig[:, 0] < -PSD_TOL * np.maximum(1.0, held_eig[:, -1])
    if viol.any():
        j = int(np.argmax(viol))
        raise ModelValidationError(
            f"density not PSD at theta={theta(j):+.6f} (min eigenvalue {held_eig[j, 0]:.3e})"
        )
    return eig


def _diagonalize(model: SpectralModel, grid: FrequencyGrid) -> tuple[np.ndarray, ...]:
    """Evaluate the density on the grid's pieces, then validate and diagonalize each once.

    Returns the pieces' lengths, (p, L, L) stack, node counts and ascending
    eigenvalues.  A band-only density is its `_band_pieces`.  Rational terms
    vary from node to node, so a model with them has a piece of length 1/n
    per node: each band piece repeated over its nodes, plus the terms.  Lines
    are jumps of the spectral distribution, not density, so the pieces leave
    them out.
    """
    nodes = grid.nodes
    lengths, mats, counts = _band_pieces(model, nodes)
    if model.arma_terms:
        mats = _eval_rational(model, nodes, out=np.repeat(mats, counts, axis=0))
        lengths, counts = np.broadcast_to(grid.weight, grid.n), np.broadcast_to(1, grid.n)
    return lengths, mats, counts, _check_nodes(mats, nodes, counts)


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
    """The rank integral and the pieces it sums over: each one's length, density, node count, eigenvalues, rank."""

    value: float
    method: str  # "segment-exact" or "grid"
    grid_n: int
    model: SpectralModel
    piece_lengths: np.ndarray  # (p,) length of each piece of the frequency axis the value sums over
    piece_matrices: np.ndarray  # (p, L, L) validated density on each piece
    counts: np.ndarray  # (p,) grid nodes per piece, summing to n, by which the node averages weight it
    eigenvalues: np.ndarray  # (p, L), descending per piece
    ranks: np.ndarray  # (p,) ints
    rel_tol: float  # the rank tolerances the ranks were taken at
    abs_floor: float

    @property
    def mean_rank(self) -> float:
        return float(np.dot(self.counts, self.ranks) / self.counts.sum())

    def histogram(self) -> dict:
        n = int(self.counts.sum())
        return {v: float(c) / n for v, c in enumerate(np.bincount(self.ranks, weights=self.counts)) if c > 0}

    @cached_property
    def sorted_eigenvalues_and_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's eigenvalues (its piece's) in one ascending array and its prefix
        sums, computed on first use and kept, so all water-fillings of a result share one sort."""
        return _ascending_prefix_sums(np.repeat(self.eigenvalues, self.counts, axis=0))


def rank_integral(
    model: SpectralModel,
    grid: FrequencyGrid | None = None,
    rel_tol: float = RANK_REL_TOL,
    abs_floor: float = RANK_ABS_FLOOR,
) -> RankIntegralResult:
    """Average rank of the spectral density over [-1/2, 1/2].

    The value is the sum of length * rank over the pieces of `_diagonalize`:
    exact for a band-only density, which is constant on each piece
    ("segment-exact"), and the midpoint grid sum for a model with rational
    terms, a piece of length 1/n per node ("grid"), whose integer rank sum
    is divided once by n.  The result keeps the pieces, with their node
    counts, eigenvalues and ranks, for properness_check, support_bound and
    water-filling.  It needs 0 <= rel_tol < 1 and a finite abs_floor >= 0.
    """
    grid = grid or FrequencyGrid()
    if not (0.0 <= rel_tol < 1.0 and 0.0 <= abs_floor < np.inf):
        raise ValueError(f"rank tolerances need 0 <= rel_tol < 1 and 0 <= abs_floor < inf: {rel_tol}, {abs_floor}")
    lengths, mats, counts, eig = _diagonalize(model, grid)
    eig = eig[:, ::-1]
    ranks = _numerical_ranks(eig, rel_tol, abs_floor)
    if model.arma_terms:  # a piece per node: the integer rank sum, divided once by n
        value, method = float(ranks.sum() / grid.n), "grid"
    else:
        value, method = float(np.sum(lengths * ranks)), "segment-exact"
    return RankIntegralResult(value, method, grid.n, model, lengths, mats, counts, eig, ranks, rel_tol, abs_floor)


def _bivariate_pieces(ri: RankIntegralResult) -> np.ndarray:
    """The (p, 2, 2) pieces holding a grid node of a complex process viewed as (real, imaginary)."""
    if ri.model.L != 2:
        raise ValueError("complex-process analysis needs a bivariate (L=2) model")
    held = ri.counts > 0
    return ri.piece_matrices if held.all() else ri.piece_matrices[held]  # no copy of a per-node stack


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
    in the spectral domain that is exactly the two conditions tested here, on
    each piece that holds a node.  The marginal densities are read clipped at 0.
    """
    mats = _bivariate_pieces(ri)
    s_r = np.maximum(mats[:, 0, 0].real, 0.0)
    s_i = np.maximum(mats[:, 1, 1].real, 0.0)
    s_ri = mats[:, 0, 1]
    # Frobenius norm of [[s_R, S_RI], [conj S_RI, s_I]] per piece, with the
    # terms formed and summed as np.linalg.norm does, in row-major order
    cross = (s_ri.conj() * s_ri).real
    norm = np.sqrt(((s_r * s_r + cross) + cross) + s_i * s_i)
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

    The dimension is the rank integral and the measure is the summed length
    of its pieces whose S_Z clears the threshold of its rank tolerances.
    Both are exact for band-only models; a model with rational terms has a
    piece per grid node, so its measure counts nodes and is compared with a
    grid-resolution tolerance.  A violated bound shows as a negative gap.
    """
    _bivariate_pieces(ri)
    s_z = _scalar_density(ri.piece_matrices)
    thresh = ri.rel_tol * max(s_z.max(initial=0.0), ri.abs_floor)
    bound = 2.0 * float(np.sum(ri.piece_lengths[s_z > thresh]))
    tol = 4.0 / ri.grid_n if ri.method == "grid" else 1e-9
    gap = bound - ri.value
    return SupportBoundReport(ri.value, bound, gap, bool(abs(gap) <= tol), tol)


def _lag_integrals(model: SpectralModel, tau_max: int) -> np.ndarray:
    """Complex C(tau) = integral of e^{-i 2 pi tau theta} dF(theta), tau = 0..tau_max.

    Bands and lines integrate in closed form.  Rational terms use a midpoint
    FFT quadrature of n nodes, a power of two: at least 4096 and 8 (tau_max + 1),
    so long lags stay alias-free, and at least 37 / -ln r, so the aliasing,
    about r^n for r = min(|z|, 1/|z|) of the denominator root z nearest the
    unit circle, stays <= 1e-16.  A root that needs more than 2^20 nodes
    raises ModelValidationError.  Returns a (tau_max + 1, L, L) stack.
    """
    taus = np.arange(tau_max + 1)
    c = np.zeros((tau_max + 1, model.L, model.L), dtype=complex)
    for b in model.bands:
        weights = np.empty(tau_max + 1, dtype=complex)
        weights[0] = b.hi - b.lo
        t = taus[1:]
        weights[1:] = (np.exp(-2j * np.pi * t * b.lo) - np.exp(-2j * np.pi * t * b.hi)) / (2j * np.pi * t)
        c += weights[:, None, None] * b.matrix[None, :, :]
    for ln in model.lines:
        c += np.exp(-2j * np.pi * taus * ln.theta)[:, None, None] * ln.power[None, :, :]
    if model.arma_terms:
        moduli = np.abs(np.concatenate([np.polynomial.polynomial.polyroots(t.den) for t in model.arma_terms]))
        r = np.minimum(moduli, 1.0 / np.maximum(moduli, 1.0)).max(initial=0.0)
        decay = -np.log(r) if r > 0 else np.inf
        if 37.0 > decay * 2**20:
            raise ModelValidationError(f"rational pole {1.0 - r:.3e} from the unit circle needs > 2^20 lag nodes")
        n = 1 << int(np.ceil(np.log2(max(4096, 8 * (tau_max + 1), 37.0 / decay))))
        rat = _eval_rational(model, FrequencyGrid(n).nodes)
        spec = np.fft.fft(rat, axis=0)[: tau_max + 1]
        phase = np.exp(1j * np.pi * taus * (1.0 - 1.0 / n))
        c += phase[:, None, None] * spec / n
    return c


def component_variances(model: SpectralModel) -> np.ndarray:
    """Per-component total power: the real diagonal of `_lag_integrals` at lag 0,
    i.e. diag C(0) of the law that `autocovariance_from_spectrum` synthesizes."""
    return np.diag(_lag_integrals(model, 0)[0]).real.copy()


@dataclass(frozen=True)
class NormalizationResult:
    model: SpectralModel
    kept: tuple  # original indices of the components with positive variance


def normalize_components(model: SpectralModel) -> NormalizationResult:
    """Drop zero-variance components and rescale the rest to unit variance.

    The variances are the sampled law's own diag C(0) (`component_variances`),
    so no rank-integral grid enters and the normalized C(0) has a unit
    diagonal to rounding.  Rescaling is a congruence by a positive diagonal
    matrix, so the rank of the density (and hence the dimension) is
    unchanged; zero-variance components contribute nothing to either.
    """
    var = component_variances(model)
    tol = 1e-14 * max(1.0, var.max(initial=0.0))
    kept = tuple(int(i) for i in np.flatnonzero(var > tol))
    if not kept:
        empty = SpectralModel(L=model.L, bands=(), arma_terms=(), lines=(), mean=np.zeros(model.L))
        return NormalizationResult(empty, kept)
    if any(t.row not in kept or t.col not in kept for t in model.arma_terms):
        raise ModelValidationError("rational term attached to a zero-variance component")
    idx = np.asarray(kept)
    return NormalizationResult(_congruence(model, idx, 1.0 / np.sqrt(var[idx])), kept)


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
