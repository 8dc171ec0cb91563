"""Autocovariance synthesis, exact Gaussian path sampling, and Welch cross-spectra.

The sampler draws from the exact law of k consecutive samples and tries its
factors in the order circulant -> cholesky -> cholesky+jitter -> eigh.  Paths
with k*L above _EXACT_FACTOR_DIM first try the block-circulant embedding of
C(tau) at size 2k (Wood & Chan 1994; Chan & Wood 1999), used only when it is
PSD: one block FFT and one batched eigh colour complex normals, and one FFT
along time turns each into two exact-law paths.  Otherwise the block-Toeplitz
covariance is filled by one strided copy and Cholesky-factored in place; a
failed attempt has overwritten it, so each retry (Cholesky with a small
diagonal jitter for large matrices, then the eigenvalue factor) rebuilds it
first.  A batch records which factor ran and the jitter, if any, that its
law carries.  Band and line contributions to C(tau) are integrated in closed
form; rational terms are integrated by a dense FFT quadrature whose
resolution grows with tau_max so that long lags stay alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng
from .spectral import FrequencyGrid, SpectralModel, _eval_rational

MAX_DENSE_DIM = 4096
_PATH_CHUNK = 1 << 16


class SymmetryViolationError(ValueError):
    """Synthesized autocovariance came out materially complex."""


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Block-Toeplitz covariance could not be factored even after repair."""


class InsufficientDataError(ValueError):
    """Not enough samples for the requested spectral estimate."""


@dataclass(frozen=True)
class AutocovarianceSequence:
    """Lagged covariances C(0..tau_max), each L x L real, plus the process mean."""

    matrices: np.ndarray  # (tau_max + 1, L, L)
    mean: np.ndarray  # (L,)

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

    Bands and lines integrate in closed form.  Rational terms use a midpoint
    FFT quadrature with at least 8 nodes per lag of tau_max.
    """
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    taus = np.arange(tau_max + 1)
    c = np.zeros((tau_max + 1, model.L, model.L), dtype=complex)

    for b in model.bands:
        weights = np.empty(tau_max + 1, dtype=complex)
        weights[0] = b.hi - b.lo
        if tau_max >= 1:
            t = taus[1:]
            weights[1:] = (np.exp(-2j * np.pi * t * b.lo) - np.exp(-2j * np.pi * t * b.hi)) / (
                2j * np.pi * t
            )
        c += weights[:, None, None] * b.matrix[None, :, :]

    for ln in model.lines:
        c += np.exp(-2j * np.pi * taus * ln.theta)[:, None, None] * ln.power[None, :, :]

    if model.arma_terms:
        n = max(4096, 1 << int(np.ceil(np.log2(8 * (tau_max + 1)))))
        grid = FrequencyGrid(n)
        rat = _eval_rational(model, grid.nodes)
        spec = np.fft.fft(rat, axis=0)[: tau_max + 1]
        phase = np.exp(1j * np.pi * taus * (1.0 - 1.0 / n))
        c += phase[:, None, None] * spec / n

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

    return AutocovarianceSequence(mats, np.asarray(model.mean, float))


@dataclass(frozen=True)
class SamplePathBatch:
    """Independent length-k sample paths: samples[r, t, i] is path r, time t, component i."""

    samples: np.ndarray  # (paths, k, L)
    seed: int
    # The factor that ran, first that applied of: "circulant" (the exact
    # embedding, k*L > _EXACT_FACTOR_DIM only), "cholesky", "cholesky+jitter"
    # (k*L > _EXACT_FACTOR_DIM only), "eigh".
    factor_method: str = "cholesky"
    jitter: float = 0.0  # diagonal load added to the covariance before factoring
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


def _cholesky_in_place(sigma: np.ndarray) -> np.ndarray:
    # sigma is exactly symmetric, so its F-ordered transpose is the same
    # matrix and LAPACK factors it without a copy; the factor is F-ordered.
    # SciPy is imported here so that tasks which draw no dense factor never load it.
    import scipy.linalg

    return scipy.linalg.cholesky(sigma.T, lower=True, overwrite_a=True, check_finite=False)


def _cholesky_succeeds(sigma: np.ndarray) -> bool:
    """Whether the Cholesky factorization of `sigma` (overwritten) succeeds."""
    try:
        _cholesky_in_place(sigma)
    except np.linalg.LinAlgError:
        return False
    return True


def _psd_factor(acov: AutocovarianceSequence, k: int) -> tuple[np.ndarray, str, float]:
    """Square factor F with F F^T = acov.toeplitz(k), its method and the jitter added.

    Cholesky first, in place on the covariance buffer.  A failed attempt has
    overwritten that buffer, so every retry rebuilds the covariance.  Above
    _EXACT_FACTOR_DIM the plain attempt is made only if the leading principal
    block of at most _EXACT_FACTOR_DIM rows factors: when that block fails the
    full matrix fails at the same leading minor.  Small matrices then go
    straight to the exact eigenvalue factor so rank-deficient laws (e.g.
    perfectly correlated components) are sampled exactly; large matrices try
    one Cholesky with jitter = 1e-12 * tr(sigma) / n added to the diagonal
    before paying for the eigendecomposition.  The returned jitter is that
    diagonal load when the jittered factor is used, else 0.0.
    """
    n = k * acov.L
    if n <= _EXACT_FACTOR_DIM or _cholesky_succeeds(acov.toeplitz(_EXACT_FACTOR_DIM // acov.L)):
        try:
            return _cholesky_in_place(acov.toeplitz(k)), "cholesky", 0.0
        except np.linalg.LinAlgError:
            pass
    if n > _EXACT_FACTOR_DIM:
        jittered = acov.toeplitz(k)
        jitter = 1e-12 * np.trace(jittered) / n
        if jitter > 0:
            jittered.flat[:: n + 1] += jitter
            try:
                return _cholesky_in_place(jittered), "cholesky+jitter", float(jitter)
            except np.linalg.LinAlgError:
                pass
        del jittered  # free the n x n buffer before eigh gets a fresh one
    eigval, eigvec = np.linalg.eigh(acov.toeplitz(k))
    floor = -1e-8 * max(eigval.max(), 1e-300)
    if eigval.min() < floor:
        raise NotPositiveDefiniteError(
            f"covariance is not PSD: smallest pivot/eigenvalue {eigval.min():.6e}"
        )
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None)), "eigh", 0.0


def sample_paths(acov: AutocovarianceSequence, k: int, paths: int, seed: int) -> SamplePathBatch:
    """Draw `paths` independent exact-law paths of length k.

    Factors are tried in the order circulant -> cholesky -> cholesky+jitter
    -> eigh, and the batch names the one that ran.  For k*L above
    _EXACT_FACTOR_DIM the block-circulant embedding is used whenever it is
    PSD; each complex draw then gives two paths.  Otherwise the block-Toeplitz
    covariance is factored densely (see _psd_factor).

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
        return SamplePathBatch(out, seed, "circulant", 0.0, variance)
    factor, method, jitter = _psd_factor(acov, k)
    mu = np.tile(acov.mean, k)
    out = np.empty((paths, k * L))
    for chunk, start in enumerate(range(0, paths, _PATH_CHUNK)):
        stop = min(start + _PATH_CHUNK, paths)
        rng = derive_rng(seed, "gauss-paths", chunk)
        z = rng.standard_normal((stop - start, k * L))
        out[start:stop] = z @ factor.T + mu
    return SamplePathBatch(out.reshape(paths, k, L), seed, method, jitter, variance)


@dataclass(frozen=True)
class WelchEstimate:
    """Averaged cross-periodogram matrices on the Welch frequency grid.

    matrices is the path-pooled, eigenvalue-clipped (PSD) estimate;
    per_path keeps the unclipped per-path averages for error bars.
    """

    freqs: np.ndarray  # (nf,) ascending in [-1/2, 1/2)
    matrices: np.ndarray  # (nf, L, L) Hermitian PSD
    per_path: np.ndarray  # (paths, nf, L, L) Hermitian
    segments_per_path: int

    def integrated_power(self) -> np.ndarray:
        """Per-component integral of the estimated density over [-1/2, 1/2)."""
        return np.einsum("nii->i", self.matrices).real / len(self.freqs)


def welch_psd(data, nperseg: int = 256) -> WelchEstimate:
    """Welch matrix-spectrum estimate from a (paths, k, L) array or batch.

    Fixed settings: segments of nperseg samples at stride nperseg - nperseg // 2
    (half overlap), each segment's mean removed, a periodic Hann window
    0.5 - 0.5 cos(2 pi n / nperseg), and two-sided density scaling, so the
    estimate integrates to the process power.  Cross-periodograms are
    conj(X_i) X_j, averaged over a path's segments.
    """
    samples = _extract(data)
    paths, k, L = samples.shape
    if nperseg > k:
        raise InsufficientDataError(f"segment length {nperseg} exceeds path length {k}")
    step = nperseg - nperseg // 2
    segs_per_path = 1 + (k - nperseg) // step
    if segs_per_path * paths < 2:
        raise InsufficientDataError("need at least 2 segments in total for a Welch average")

    segs = np.lib.stride_tricks.sliding_window_view(samples, nperseg, axis=1)[:, ::step]  # (p, s, L, n)
    segs = segs - segs.mean(axis=-1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    spec = np.fft.fftshift(np.fft.fft(segs * window, axis=-1), axes=-1)
    scale = 1.0 / (segs_per_path * (window * window).sum())
    per_path = np.einsum("psif,psjf->pfij", spec.conj(), spec) * scale
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg))

    pooled = per_path.mean(axis=0)
    pooled = 0.5 * (pooled + pooled.conj().transpose(0, 2, 1))
    eigval, eigvec = np.linalg.eigh(pooled)
    eigval = np.clip(eigval, 0.0, None)
    clipped = np.einsum("nij,nj,nkj->nik", eigvec, eigval, eigvec.conj())
    return WelchEstimate(freqs, clipped, per_path, segs_per_path)
