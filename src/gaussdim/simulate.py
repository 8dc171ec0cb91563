"""Autocovariance synthesis, exact Gaussian path sampling, and Welch cross-spectra.

The sampler draws from the exact law of k consecutive samples and tries its
factors in the order circulant -> spectral -> cholesky -> eigh.  Paths with
k*L above _EXACT_FACTOR_DIM first try the block-circulant embedding of C(tau)
at size 2k (Wood & Chan 1994; Chan & Wood 1999), used only when it is PSD:
one block FFT and one batched eigh colour complex normals, and one FFT along
time turns each into two exact-law paths.  When the embedding is refused and
the model has no rational terms, the paths come from a quadrature of the
spectral representation x_t = integral of e^{-2 pi i t theta} dZ(theta):
Gauss-Legendre panels on one grid of cells, whose whole cells share their
node offsets and so sum over k time steps in k x 128 products per path, and
one node per line, each node coloured by a root of its band matrix or line
power.  The quadrature is used only when its own covariance reproduces
C(0..k-1) to rounding.  Otherwise the block-Toeplitz covariance is filled by
one strided copy and Cholesky-factored, or, when that fails, factored exactly
by its eigendecomposition; no factor perturbs the law.  A batch records which
factor ran.  Band and line contributions to C(tau) are integrated in closed
form; rational terms are integrated by a dense FFT quadrature whose
resolution grows with tau_max so that long lags stay alias-free.  Welch
cross-spectra of the real paths come from the rfft half-spectrum, mirrored
as P(-f) = conj(P(f)); their path mean is Hermitian PSD with no eigen-clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._rng import derive_rng
from .spectral import SpectralModel, _lag_integrals

MAX_DENSE_DIM = 4096
_PATH_CHUNK = 1 << 16


class SymmetryViolationError(ValueError):
    """Synthesized autocovariance came out materially complex."""


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Block-Toeplitz covariance is not PSD, so no exact factor exists."""


class InsufficientDataError(ValueError):
    """Not enough samples for the requested spectral estimate."""


@dataclass(frozen=True)
class AutocovarianceSequence:
    """Lagged covariances C(0..tau_max), each L x L real, plus the process mean."""

    matrices: np.ndarray  # (tau_max + 1, L, L)
    mean: np.ndarray  # (L,)
    # The model the sequence was synthesized from; None for a hand-built sequence.
    model: SpectralModel | None = field(default=None, compare=False, repr=False)

    @property
    def L(self) -> int:
        return self.matrices.shape[1]

    @property
    def tau_max(self) -> int:
        return self.matrices.shape[0] - 1

    def toeplitz(self, k: int) -> np.ndarray:
        """Dense (k*L) x (k*L) covariance of k consecutive samples, time-major.

        Block [t, s] is C(t - s), with C(-tau) = C(tau)^T and C(0) symmetrized,
        so the matrix is exactly symmetric.  One strided copy fills it.
        """
        if k > self.tau_max + 1:
            raise ValueError(f"k={k} exceeds tau_max+1={self.tau_max + 1}")
        L = self.L
        c0 = self.matrices[0]
        c = self.matrices[1:k]
        lags = np.concatenate([c[::-1], [0.5 * (c0 + c0.T)], c.transpose(0, 2, 1)])  # k-1..-(k-1)
        windows = np.lib.stride_tricks.sliding_window_view(lags, k, axis=0)  # [w, i, j, s] = lags[w + s]
        sigma = np.empty((k, L, k, L))
        sigma[...] = windows[::-1].transpose(0, 1, 3, 2)  # [t, i, s, j] = C(t - s)[i, j]
        return sigma.reshape(k * L, k * L)


def autocovariance_from_spectrum(model: SpectralModel, tau_max: int) -> AutocovarianceSequence:
    """C(tau) = integral of e^{-i 2 pi tau theta} against the spectral distribution.

    The integral is `spectral._lag_integrals` (bands and lines in closed
    form, rational terms by an FFT quadrature with at least 8 nodes per lag
    of tau_max); this checks that it came out real, with C(0) PSD and every
    lag within the Cauchy-Schwarz bound.
    """
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    c = _lag_integrals(model, tau_max)
    scale = 1.0 + np.abs(c.real).max(initial=0.0)
    imag_max = np.abs(c.imag).max(initial=0.0)
    if imag_max > 1e-10 * scale:
        raise SymmetryViolationError(
            f"autocovariance has imaginary residue {imag_max:.3e}; spectrum violates S(-t)=conj(S(t))"
        )
    mats = c.real.copy()

    c0 = mats[0]
    eig0 = np.linalg.eigvalsh(0.5 * (c0 + c0.T))
    if eig0.min() < -1e-10 * max(1.0, eig0.max()):
        raise SymmetryViolationError(f"C(0) not PSD (min eigenvalue {eig0.min():.3e})")
    sd = np.sqrt(np.maximum(np.diag(c0), 0.0))
    cap = np.outer(sd, sd) * (1.0 + 1e-9) + 1e-12
    if (np.abs(mats) > cap[None, :, :]).any():
        raise SymmetryViolationError("cross-covariance exceeds Cauchy-Schwarz bound")

    return AutocovarianceSequence(mats, np.asarray(model.mean, float), model)


@dataclass(frozen=True)
class SamplePathBatch:
    """Independent length-k sample paths: samples[r, t, i] is path r, time t, component i."""

    samples: np.ndarray  # (paths, k, L)
    seed: int
    # The factor that ran, first that applied of: "circulant" (the exact
    # embedding, k*L > _EXACT_FACTOR_DIM only), "spectral" (the quadrature of
    # the spectral measure, k*L > _EXACT_FACTOR_DIM and no rational terms
    # only), "cholesky", "eigh".
    factor_method: str = "cholesky"
    variance: np.ndarray | None = None  # (L,) diag C(0): the variances the law fixes

    @property
    def paths(self) -> int:
        return self.samples.shape[0]

    @property
    def k(self) -> int:
        return self.samples.shape[1]

    @property
    def L(self) -> int:
        return self.samples.shape[2]


def _extract(data) -> np.ndarray:
    """Samples of a batch or an array as (paths, k, L); a 2-D array gets L = 1."""
    arr = data.samples if isinstance(data, SamplePathBatch) else np.asarray(data, float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError("expected samples of shape (paths, k, L)")
    return arr


_EXACT_FACTOR_DIM = 512


def _circulant_root(acov: AutocovarianceSequence, k: int) -> np.ndarray | None:
    """Per-frequency factors A_f, A_f A_f^H = Lambda_f, of the block-circulant
    embedding of C(0..k-1) at size M = 2k, or None when it is not PSD.

    Block (t, s) of the embedding is c((t - s) mod M) with c(j) = C(j) and
    c(M - j) = C(j)^T for 0 < j < k, c(0) = C(0) symmetrized and c(k) = 0, so
    its leading k x k blocks are acov.toeplitz(k).  It is block-diagonalized
    by the DFT: Lambda_f = sum_j c(j) e^{-2 pi i j f / M}.  The embedding is
    accepted under the eigh factor's floor, and only values inside that floor
    are clipped to zero.
    """
    L, M = acov.L, 2 * k
    c = np.zeros((M, L, L))
    c0 = acov.matrices[0]
    c[0] = 0.5 * (c0 + c0.T)
    c[1:k] = acov.matrices[1:k]
    c[k + 1:] = acov.matrices[k - 1:0:-1].transpose(0, 2, 1)
    eigval, eigvec = np.linalg.eigh(np.fft.fft(c, axis=0))
    if eigval.min() < -1e-8 * max(eigval.max(), 1e-300):
        return None
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None))[:, None, :]


def _circulant_draw(root: np.ndarray, k: int, z: np.ndarray) -> np.ndarray:
    """First k samples of the embedded process driven by complex normals z.

    z is (h, M, L) with E[z z^H] = 2 I and E[z z^T] = 0; the result x_t =
    M^{-1/2} sum_f e^{+2 pi i t f / M} A_f z_f is (h, k, L), and its real and
    imaginary parts are independent with covariance acov.toeplitz(k).
    """
    y = (root @ z[..., None])[..., 0]
    return np.fft.ifft(y, axis=1, norm="ortho")[:, :k]


_GL_ORDER = 128  # Gauss-Legendre nodes per band panel
# Phase span (rad) of e^{-2 pi i tau theta} over one panel for tau <= k - 1:
# a 128-node panel integrates e^{i phi} over 390 rad to about 1e-15 of its length.
_PANEL_PHASE = 390.0
_ROW_BLOCK = 64  # time rows built per phase block
_GRID_SNAP = 1e-12  # a band edge this close to a grid point, in cells, lies on it
_QUADRATURE_TOL = 1e-11  # accepted max|C_hat - C| relative to max|C(0)|


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _GL_ORDER-node Gauss-Legendre rule on [-1, 1], computed once (read-only)."""
    rule = np.polynomial.legendre.leggauss(_GL_ORDER)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _psd_root(mat: np.ndarray) -> np.ndarray:
    """R with R R^H = mat for a Hermitian PSD matrix, eigenvalues clipped at 0."""
    eigval, eigvec = np.linalg.eigh(mat)
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None))


def _spectral_quadrature(model: SpectralModel, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Nodes theta_q and factors A_q = sqrt(w_q) R_q of the spectral measure, on one panel grid.

    The grid has n = ceil(2 pi (k - 1) / _PANEL_PHASE) cells [c/n, (c+1)/n) per
    unit frequency, so lags below k integrate over a cell to rounding.  Bands
    are cut at the grid points inside them.  A piece that fills cell c is a
    whole panel, with the shared nodes c/n + (1 + x_j)/(2n) and weights
    w_j/(2n); every other piece (at most two per band) has its own
    _GL_ORDER-node rule, and a line is one node of weight 1.  R_q is a root of
    the band matrix or line power.  Returns theta, the factors, the whole
    cells c (their nodes come first, _GL_ORDER per cell) and n.
    """
    x, w = _gauss_legendre()
    n = max(1, math.ceil(2 * np.pi * (k - 1) / _PANEL_PHASE))
    cells, whole, edges = [], [], []  # whole and edges: (nodes, factors) per piece
    for b in model.bands:
        root = _psd_root(b.matrix)
        lo, hi = (round(v) if abs(v - round(v)) <= _GRID_SNAP else v for v in (b.lo * n, b.hi * n))
        cuts = [lo, *range(math.floor(lo) + 1, math.ceil(hi)), hi]  # in cells
        for a, z in zip(cuts, cuts[1:]):
            half = (z - a) / (2 * n)
            piece = ((a + z) / (2 * n) + half * x, np.sqrt(half * w).reshape(-1, 1, 1) * root)
            if z - a == 1:  # both ends on the grid: the whole cell a
                cells.append(a)
                whole.append(piece)
            else:
                edges.append(piece)
    pieces = whole + edges + [([ln.theta], _psd_root(ln.power)[None]) for ln in model.lines]
    theta, roots = (np.concatenate(part) for part in zip(*pieces))
    return theta, roots, np.array(cells, dtype=np.int64), n


def _whole_panel_sum(vals: np.ndarray, cells: np.ndarray, n: int, k: int) -> np.ndarray:
    """y_t = sum over the whole-panel nodes of e^{-2 pi i t theta_q} vals_q for t < k, as (k, cols).

    vals holds _GL_ORDER rows per cell, in the order of `cells`.  With t = b n + r,
    y_t = sum_j e^{-2 pi i b n delta_j} e^{-2 pi i r delta_j} S[r, j], where
    S[r] = sum_c e^{-2 pi i r c / n} vals_c: k _GL_ORDER products per column.
    """
    x, _ = _gauss_legendre()
    cols = vals.shape[1]
    r = np.arange(n)
    fourier = np.exp(-2j * np.pi * (np.outer(r, cells) % n) / n)  # (n, cells)
    s = (fourier @ vals.reshape(len(cells), _GL_ORDER * cols)).reshape(n, _GL_ORDER, cols)
    s *= np.exp(-1j * np.pi * np.outer(r, 1 + x) / n)[:, :, None]  # e^{-2 pi i r delta_j}
    blocks = -(-k // n)
    y = np.exp(-1j * np.pi * np.outer(np.arange(blocks), 1 + x)) @ s  # (n, blocks, cols)
    return y.transpose(1, 0, 2).reshape(blocks * n, cols)[:k]


def _spectral_paths(acov: AutocovarianceSequence, k: int, paths: int, seed: int) -> tuple[np.ndarray, float]:
    """`paths` paths from the spectral quadrature and max|C_hat - C| over lags 0..k-1.

    With complex normals z_q, E[z z^H] = 2 I and E[z z^T] = 0, the sum
    y_t = sum_q e^{-2 pi i t theta_q} A_q z_q has real and imaginary parts of
    covariance Re C_hat, uncorrelated when Im C_hat = 0, where
    C_hat(tau) = sum_q e^{-2 pi i tau theta_q} A_q A_q^H.  The whole panels
    are summed through the grid (_whole_panel_sum), the edge pieces and lines
    in blocks of _ROW_BLOCK time rows from e^{-2 pi i (s + b) theta} =
    e^{-2 pi i s theta} e^{-2 pi i b theta}; C_hat takes the same two sums.
    The paths have the exact law when C_hat matches C(tau), imaginary part
    included, to rounding.
    """
    L = acov.L
    theta, roots, cells, n = _spectral_quadrature(acov.model, k)
    nodes, whole = len(theta), _GL_ORDER * len(cells)
    gram = (roots @ roots.conj().transpose(0, 2, 1)).reshape(nodes, L * L)
    chunks = []  # (first path, end path, coloured normals A_q z_q off the whole panels, y as (k, draws * L))
    for chunk, start in enumerate(range(0, paths, _PATH_CHUNK)):
        stop = min(start + _PATH_CHUNK, paths)
        z = derive_rng(seed, "spectral-paths", chunk).standard_normal(((stop - start + 1) // 2, nodes, 2 * L))
        u = (roots @ z.view(complex).transpose(1, 2, 0)).transpose(0, 2, 1).reshape(nodes, -1)
        chunks.append((start, stop, u[whole:], _whole_panel_sum(u[:whole], cells, n, k)))
    c_hat = _whole_panel_sum(gram[:whole], cells, n, k)
    theta, gram = theta[whole:], gram[whole:]
    inner = np.exp(-2j * np.pi * np.arange(min(_ROW_BLOCK, k))[:, None] * theta)
    for row in range(0, k, _ROW_BLOCK):
        phases = np.exp(-2j * np.pi * row * theta) * inner[: k - row]
        rows = slice(row, row + len(phases))
        c_hat[rows] += phases @ gram
        for _, _, u, y in chunks:
            y[rows] += phases @ u
    out = np.empty((paths, k, L))
    for start, stop, _, y in chunks:
        y = y.reshape(k, -1, L).transpose(1, 0, 2)  # (draws, k, L)
        half = len(y)
        out[start:start + half] = y.real
        out[start + half:stop] = y[: stop - start - half].imag
    out += acov.mean
    return out, float(np.abs(c_hat - acov.matrices[:k].reshape(k, L * L)).max())


def _psd_factor(acov: AutocovarianceSequence, k: int) -> tuple[np.ndarray, str]:
    """Square factor F with F F^T = acov.toeplitz(k), and the method that ran.

    Cholesky first; when it fails (a singular law, such as perfectly
    correlated components), the exact eigenvalue factor, which refuses a
    matrix with an eigenvalue below its PSD floor.  Neither factor perturbs
    the covariance, so the law sampled is always the one given.
    """
    sigma = acov.toeplitz(k)
    try:
        return np.linalg.cholesky(sigma), "cholesky"
    except np.linalg.LinAlgError:
        pass
    eigval, eigvec = np.linalg.eigh(sigma)
    floor = -1e-8 * max(eigval.max(), 1e-300)
    if eigval.min() < floor:
        raise NotPositiveDefiniteError(
            f"covariance is not PSD: smallest pivot/eigenvalue {eigval.min():.6e}"
        )
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None)), "eigh"


def sample_paths(acov: AutocovarianceSequence, k: int, paths: int, seed: int) -> SamplePathBatch:
    """Draw `paths` independent exact-law paths of length k.

    Factors are tried in the order circulant -> spectral -> cholesky -> eigh,
    and the batch names the one that ran.  For k*L above _EXACT_FACTOR_DIM
    the block-circulant embedding is used whenever it is PSD; each complex
    draw then gives two paths.  When it is not and the sequence was
    synthesized from a model with no rational terms, the quadrature of the
    spectral measure draws the paths (see _spectral_paths), again two per
    complex draw, provided it reproduces C(0..k-1).  Otherwise the
    block-Toeplitz covariance is factored densely (see _psd_factor).

    Deterministic given (acov, k, paths, seed); paths are generated in fixed
    chunks with per-chunk sub-streams, so chunk order (and hence parallel
    generation) cannot change the result.
    """
    L = acov.L
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > acov.tau_max + 1:
        raise ValueError(f"k={k} needs tau_max >= {k - 1}, have {acov.tau_max}")
    if k * L > MAX_DENSE_DIM:
        raise ValueError(f"k*L={k * L} exceeds the dense-factorization cap {MAX_DENSE_DIM}")
    variance = np.diag(acov.matrices[0]).copy()
    root = _circulant_root(acov, k) if k * L > _EXACT_FACTOR_DIM else None
    if root is not None:
        out = np.empty((paths, k, L))
        for chunk, start in enumerate(range(0, paths, _PATH_CHUNK)):
            stop = min(start + _PATH_CHUNK, paths)
            half = (stop - start + 1) // 2
            rng = derive_rng(seed, "circulant-paths", chunk)
            z = rng.standard_normal((half, 2 * k, 2 * L)).view(complex)  # (half, 2k, L)
            x = _circulant_draw(root, k, z)
            out[start:start + half] = x.real
            out[start + half:stop] = x.imag[: stop - start - half]
        out += acov.mean
        return SamplePathBatch(out, seed, "circulant", variance)
    model = acov.model
    if k * L > _EXACT_FACTOR_DIM and model is not None and not model.arma_terms:
        out, residual = _spectral_paths(acov, k, paths, seed)
        if residual <= _QUADRATURE_TOL * np.abs(acov.matrices[0]).max():
            return SamplePathBatch(out, seed, "spectral", variance)
        del out  # free the paths before the dense factor allocates
    factor, method = _psd_factor(acov, k)
    mu = np.tile(acov.mean, k)
    out = np.empty((paths, k * L))
    for chunk, start in enumerate(range(0, paths, _PATH_CHUNK)):
        stop = min(start + _PATH_CHUNK, paths)
        rng = derive_rng(seed, "gauss-paths", chunk)
        z = rng.standard_normal((stop - start, k * L))
        out[start:stop] = z @ factor.T + mu
    return SamplePathBatch(out.reshape(paths, k, L), seed, method, variance)


@dataclass(frozen=True)
class WelchEstimate:
    """Averaged cross-periodogram matrices of a real input on the Welch frequency grid.

    per_path keeps each path's segment average, mirrored from f >= 0 as
    P(-f) = conj(P(f)); matrices is its path mean, Hermitian PSD with no clip.
    """

    freqs: np.ndarray  # (nf,) ascending in [-1/2, 1/2)
    matrices: np.ndarray  # (nf, L, L) Hermitian PSD
    per_path: np.ndarray  # (paths, nf, L, L) Hermitian PSD
    segments_per_path: int

    def integrated_power(self) -> np.ndarray:
        """Per-component integral of the estimated density over [-1/2, 1/2)."""
        return np.einsum("nii->i", self.matrices).real / len(self.freqs)


def welch_psd(data, nperseg: int = 256) -> WelchEstimate:
    """Welch matrix-spectrum estimate from a real (paths, k, L) array or batch.

    Fixed settings: segments of nperseg samples at stride nperseg - nperseg // 2
    (half overlap), each segment's mean removed, a periodic Hann window
    0.5 - 0.5 cos(2 pi n / nperseg), and two-sided density scaling, so the
    estimate integrates to the process power.  Cross-periodograms conj(X_i) X_j
    come from one rfft per segment: one product per pair i <= j on f = 0..1/2,
    summed over a path's segments, with (j, i) and -f filled by conjugates.
    """
    samples = _extract(data)
    paths, k, L = samples.shape
    if nperseg > k:
        raise InsufficientDataError(f"segment length {nperseg} exceeds path length {k}")
    step = nperseg - nperseg // 2
    segs_per_path = 1 + (k - nperseg) // step
    if segs_per_path * paths < 2:
        raise InsufficientDataError("need at least 2 segments in total for a Welch average")

    series = np.ascontiguousarray(samples.transpose(0, 2, 1))  # (p, L, k): contiguous segments
    segs = np.lib.stride_tricks.sliding_window_view(series, nperseg, axis=-1)[:, :, ::step]  # (p, L, s, n)
    segs = segs - segs.mean(axis=-1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    segs *= window
    spec = np.fft.rfft(segs, axis=-1)  # (p, L, s, nperseg // 2 + 1)
    scale = 1.0 / (segs_per_path * (window * window).sum())
    half = np.empty((paths, spec.shape[-1], L, L), dtype=complex)
    for i in range(L):
        xi = spec[:, i]
        half[:, :, i, i] = (xi.real * xi.real + xi.imag * xi.imag).sum(axis=1) * scale
        for j in range(i + 1, L):
            half[:, :, i, j] = (xi.conj() * spec[:, j]).sum(axis=1) * scale
            half[:, :, j, i] = half[:, :, i, j].conj()
    h = nperseg // 2
    per_path = np.concatenate([half[:, h:0:-1].conj(), half[:, :nperseg - h]], axis=1)
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg))
    return WelchEstimate(freqs, per_path.mean(axis=0), per_path, segs_per_path)
