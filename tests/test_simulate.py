"""Autocovariance synthesis, exact-law sampling, and Welch spectrum estimates."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gaussdim
from gaussdim import simulate
from gaussdim.benchmarks import (
    MODELS,
    ar1,
    correlated_pair,
    delayed_copy,
    independent_halfband_pair,
    line_process,
    narrowband,
    proper_complex_flat,
    white_noise,
    zero_process,
)
from gaussdim.entropy import exact_cell_distribution
from gaussdim.quantize import dither_stream, quantize
from gaussdim._rng import derive_rng
from gaussdim.simulate import (
    AutocovarianceSequence,
    InsufficientDataError,
    SymmetryViolationError,
    _psd_factor,
    autocovariance_from_spectrum,
    sample_paths,
    welch_psd,
)
from gaussdim.spectral import Band, RationalTerm, SpectralLine, SpectralModel


class TestAutocovariance:
    def test_white_noise(self):
        acov = autocovariance_from_spectrum(white_noise(), 4)
        assert acov.matrices[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(acov.matrices[1:]).max() < 1e-12

    def test_band_closed_form(self):
        # height 2 on [-1/4, 1/4): C(1) = 2 sin(pi/2) / pi = 2/pi
        model = SpectralModel(L=1, bands=[Band(-0.25, 0.25, [[2.0]])])
        acov = autocovariance_from_spectrum(model, 3)
        assert acov.matrices[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert acov.matrices[1, 0, 0] == pytest.approx(2.0 / np.pi, abs=1e-12)
        assert acov.matrices[2, 0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "builder",
        [white_noise, lambda: narrowband(0.4), correlated_pair, line_process, lambda: ar1(0.6)]
        + [
            pytest.param(builder, id=name)
            for name, (builder, _) in MODELS.items()
            if name not in ("white_noise", "narrowband_0p4", "correlated_pair", "line_process", "ar1_0p6")
        ]
        + [pytest.param(lambda: ar1(0.95), id="ar1_0p95")],
    )
    def test_lag_zero_equals_total_power(self, builder):
        """The normalizing variance is the sampled law's diag C(0), bit for bit."""
        from gaussdim.spectral import component_variances

        model = builder()
        acov = autocovariance_from_spectrum(model, 2)
        assert (np.diag(acov.matrices[0]) == component_variances(model)).all()

    def test_ar1_geometric_decay(self):
        acov = autocovariance_from_spectrum(ar1(0.6), 8)
        assert np.allclose(acov.matrices[:, 0, 0], 0.6 ** np.arange(9), atol=1e-10)

    def test_line_cosine_covariance(self):
        acov = autocovariance_from_spectrum(line_process(theta=0.125, power=0.5), 8)
        expected = np.cos(2 * np.pi * 0.125 * np.arange(9))
        assert np.allclose(acov.matrices[:, 0, 0], expected, atol=1e-12)

    def test_asymmetric_spectrum_raises(self):
        bad = SpectralModel(
            L=1, bands=[Band(0.1, 0.3, [[1.0]])], validate=False
        )  # no mirrored band
        with pytest.raises(SymmetryViolationError):
            autocovariance_from_spectrum(bad, 4)


class TestSamplePaths:
    def test_determinism(self):
        acov = autocovariance_from_spectrum(white_noise(), 0)
        a = sample_paths(acov, 1, 5000, seed=42)
        b = sample_paths(acov, 1, 5000, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = sample_paths(acov, 1, 5000, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_standard_normal_moments(self):
        acov = autocovariance_from_spectrum(white_noise(), 0)
        batch = sample_paths(acov, 1, 100_000, seed=7)
        n = batch.samples.size
        assert abs(batch.samples.mean()) <= 5.0 / np.sqrt(n)
        assert abs(batch.samples.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)

    def test_correlated_pair_exactly_equal(self):
        acov = autocovariance_from_spectrum(correlated_pair(), 0)
        batch = sample_paths(acov, 1, 2000, seed=3)
        assert np.array_equal(batch.samples[:, 0, 0], batch.samples[:, 0, 1])
        assert batch.factor_method == "eigh"

    def test_lag_one_autocorrelation(self):
        model = narrowband(0.5)
        acov = autocovariance_from_spectrum(model, 7)
        batch = sample_paths(acov, 8, 30_000, seed=11)
        x = batch.samples[:, :, 0]
        emp = (x[:, 1:] * x[:, :-1]).mean()
        se = (x[:, 1:] * x[:, :-1]).std() / np.sqrt(x[:, 1:].size)
        assert abs(emp - acov.matrices[1, 0, 0]) <= 5.0 * se * 3  # lag products correlate within paths

    def test_batch_mean_matches_model(self):
        model = SpectralModel(L=1, bands=[Band(-0.5, 0.5, [[1.0]])], mean=[2.5])
        acov = autocovariance_from_spectrum(model, 0)
        batch = sample_paths(acov, 1, 50_000, seed=5)
        assert abs(batch.samples.mean() - 2.5) <= 5.0 / np.sqrt(batch.samples.size)

    def test_lag_zero_sample_covariance(self):
        acov = autocovariance_from_spectrum(correlated_pair(), 0)
        batch = sample_paths(acov, 1, 100_000, seed=29)
        x = batch.samples[:, 0, :]
        emp = np.cov(x, rowvar=False)
        se = np.sqrt(2.0 / len(x))  # var-of-variance scale for unit-variance entries
        assert np.abs(emp - acov.matrices[0]).max() <= 5.0 * se

    @pytest.mark.parametrize("paths", [0, -3])
    def test_path_count_below_one_raises(self, paths):
        """Fewer than one path is refused by the draw, for every estimator that draws, not by the
        entropy or Welch code behind it."""
        from gaussdim.estimators import idr_slope_estimate, invariance_check, surrogate_idr_estimate

        model = white_noise()
        for call in (
            lambda: sample_paths(autocovariance_from_spectrum(model, 0), 1, paths, seed=1),
            lambda: idr_slope_estimate(model, paths=paths),
            lambda: invariance_check(model, [("scale", 2.0)], paths=paths),
            lambda: surrogate_idr_estimate(model, paths=paths),
        ):
            with pytest.raises(ValueError, match="paths must be >= 1"):
                call()

    def test_k_limited_by_tau_max(self):
        acov = autocovariance_from_spectrum(white_noise(), 3)
        with pytest.raises(ValueError, match="tau_max"):
            sample_paths(acov, 5, 10, seed=1)

    def test_dense_cap(self):
        acov = autocovariance_from_spectrum(correlated_pair(), 4000)
        with pytest.raises(ValueError, match="cap"):
            sample_paths(acov, 3000, 2, seed=1)

    def test_indefinite_covariance_names_smallest_pivot(self):
        from gaussdim.simulate import NotPositiveDefiniteError, _psd_factor

        # toeplitz(2) of C(0)=1, C(1)=2 is [[1, 2], [2, 1]]: eigenvalues 3 and -1
        bad = AutocovarianceSequence(np.array([[[1.0]], [[2.0]]]), np.zeros(1))
        with pytest.raises(NotPositiveDefiniteError, match="-1"):
            _psd_factor(bad, 2)

    def test_quantized_cells_match_quadrature_oracle(self):
        """Sampled quantized-cell frequencies against exact cell probabilities."""
        model = ar1(0.6)
        k, m, paths = 2, 2, 200_000
        dist = exact_cell_distribution(model, k, m)
        acov = autocovariance_from_spectrum(model, k - 1)
        batch = sample_paths(acov, k, paths, seed=31)
        codes = quantize(batch, m).astype(np.int64).reshape(paths, -1)
        top = np.argsort(dist.probs)[::-1][:40]
        lookup = {tuple(dist.codes[i]): dist.probs[i] for i in top}
        uniq, counts = np.unique(codes, axis=0, return_counts=True)
        freq = {tuple(row): cnt / paths for row, cnt in zip(uniq, counts)}
        for code, p in lookup.items():
            se = np.sqrt(p * (1 - p) / paths)
            assert abs(freq.get(code, 0.0) - p) <= 5.0 * se


def _block_loop_toeplitz(acov, k):
    L = acov.L
    c0 = acov.matrices[0]
    sigma = np.empty((k * L, k * L))
    for t in range(k):
        for s in range(k):
            lag = t - s
            block = 0.5 * (c0 + c0.T) if lag == 0 else (
                acov.matrices[lag] if lag > 0 else acov.matrices[-lag].T
            )
            sigma[t * L:(t + 1) * L, s * L:(s + 1) * L] = block
    return sigma


def _reference_toeplitz(acov, k):
    """Fancy-index assembly with a full symmetrizing pass (the earlier sampler's)."""
    c = acov.matrices[:k]
    full = np.concatenate([c[:0:-1].transpose(0, 2, 1), c], axis=0)
    lag = np.arange(k)[:, None] - np.arange(k)[None, :]
    L = acov.L
    sigma = full[lag + k - 1].transpose(0, 2, 1, 3).reshape(k * L, k * L)
    return 0.5 * (sigma + sigma.T)


def _reference_factor(sigma):
    """Copy-based factor of the earlier sampler: the input is never overwritten."""
    import scipy.linalg

    try:
        return scipy.linalg.cholesky(sigma, lower=True, check_finite=False), "cholesky"
    except scipy.linalg.LinAlgError:
        pass
    eigval, eigvec = np.linalg.eigh(sigma)
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None)), "eigh"


def _without_model(acov):
    """The same sequence built by hand: no model, so no spectral route."""
    return AutocovarianceSequence(acov.matrices, acov.mean)


def _reference_samples(acov, k, paths, seed):
    factor, method = _reference_factor(_reference_toeplitz(acov, k))
    z = derive_rng(seed, "gauss-paths", 0).standard_normal((paths, k * acov.L))
    return (z @ factor.T + np.tile(acov.mean, k)).reshape(paths, k, acov.L), method


def _whole_chunk_dense_paths(acov, k, paths, seed):
    """Reference dense draw: the one each slice of normals replaces.  Each
    chunk's normals are drawn from its stream at once and multiplied by the
    factor in one product."""
    factor, _ = _psd_factor(acov, k)
    out = np.empty((paths, k * acov.L))
    for chunk, start in enumerate(range(0, paths, simulate._PATH_CHUNK)):
        stop = min(start + simulate._PATH_CHUNK, paths)
        z = derive_rng(seed, "gauss-paths", chunk).standard_normal((stop - start, k * acov.L))
        np.matmul(z, factor.T, out=out[start:stop])
        out[start:stop] += np.tile(acov.mean, k)
    return out.reshape(paths, k, acov.L)


# (k*L, paths) for the sliced dense draw: path counts on both sides of a 1024-row slice and of the
# 65 536-path chunk, up to 2^21 values per batch, and at k*L = 64 and 512 (slices of 2048 and 1024
# rows) counts whose tails join the slice before them or make one of their own.
_DENSE_PATHS = (1, 1023, 1025, 65_536, 65_537, 100_000)
_DENSE_CASES = [
    *((kl, paths) for kl in (1, 2, 4, 8, 64, 512) for paths in _DENSE_PATHS if kl * paths <= 2**21),
    *((64, paths) for paths in (2048, 3071, 3072, 4097)),
    *((512, paths) for paths in (2047, 2048, 3073)),
]


class TestDenseFactor:
    @pytest.mark.parametrize("kl, paths", _DENSE_CASES)
    def test_slices_equal_the_whole_chunk_draw(self, kl, paths):
        acov = autocovariance_from_spectrum(ar1(0.6), kl - 1)
        batch = sample_paths(acov, kl, paths, seed=5)
        assert batch.factor_method == "cholesky"
        assert np.array_equal(batch.samples, _whole_chunk_dense_paths(acov, kl, paths, 5))

    @pytest.mark.parametrize("paths", _DENSE_PATHS)
    def test_slices_equal_the_whole_chunk_draw_bivariate(self, paths):
        model = SpectralModel(L=2, bands=correlated_pair().bands, mean=[1.0, -2.0])
        acov = autocovariance_from_spectrum(model, 3)
        batch = sample_paths(acov, 4, paths, seed=5)
        assert batch.factor_method == "eigh"
        assert np.array_equal(batch.samples, _whole_chunk_dense_paths(acov, 4, paths, 5))

    def test_traced_peak_is_the_output_and_a_slice(self):
        """The entropy route's draw, 100 000 paths of 4 steps of correlated_pair:
        the normals come in slices of about _SLICE_BYTES, so the draw adds about
        1 MiB to its 6.1 MiB output (whole-chunk normals add 6.1 MiB)."""
        acov = autocovariance_from_spectrum(correlated_pair(), 3)
        sample_paths(acov, 4, 100_000, seed=7)  # warm caches outside the trace
        tracemalloc.start()
        try:
            batch = sample_paths(acov, 4, 100_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - batch.samples.nbytes
        assert extra <= 1.5 * 2**20, f"draw peak {extra / 2**20:.2f} MiB over its output"

    @pytest.mark.parametrize("builder", [lambda: ar1(0.6), correlated_pair], ids=["L1", "L2"])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_toeplitz_equals_block_loop(self, builder, k):
        acov = autocovariance_from_spectrum(builder(), k - 1)
        assert acov.toeplitz(k).tobytes() == _block_loop_toeplitz(acov, k).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_toeplitz_symmetrizes_last_bit_asymmetric_c0(self, k):
        rng = np.random.default_rng(4)
        mats = rng.normal(size=(k, 2, 2))
        mats[0] = [[2.0, 0.3], [np.nextafter(0.3, 1.0), 2.0]]
        acov = AutocovarianceSequence(mats, np.zeros(2))
        sigma = acov.toeplitz(k)
        assert sigma.tobytes() == _block_loop_toeplitz(acov, k).tobytes()
        assert sigma.tobytes() == _reference_toeplitz(acov, k).tobytes()
        assert np.array_equal(sigma, sigma.T)

    @pytest.mark.parametrize(
        "builder, k, method, sampled",
        [
            (white_noise, 64, "cholesky", "cholesky"),
            (lambda: SpectralModel(L=1, bands=[Band(-0.5, 0.5, [[1.0]])], mean=[2.5]), 16, "cholesky", "cholesky"),
            (lambda: narrowband(0.4), 600, "eigh", "spectral"),
            (correlated_pair, 4, "eigh", "eigh"),
            (lambda: SpectralModel(L=2, bands=correlated_pair().bands, mean=[1.0, -2.0]), 4, "eigh", "eigh"),
            (correlated_pair, 300, "eigh", "spectral"),
        ],
        ids=["white-k64", "white-mean-k16", "narrowband-k600", "pair-k4", "pair-mean-k4", "pair-k300"],
    )
    def test_samples_equal_copy_based_reference(self, builder, k, method, sampled):
        """The dense factor draws what the copy-based sampler drew, byte for byte:
        z @ factor.T + mean on the chunk's stream, which sample_paths forms in
        place in its output rows.

        Narrowband at k=600 and the pair at k=300 have a spectral quadrature,
        so sample_paths takes that route and their dense factor is reached
        through _psd_factor.
        """
        acov = autocovariance_from_spectrum(builder(), k - 1)
        batch = sample_paths(acov, k, 50, seed=3)
        expected, ref_method = _reference_samples(acov, k, 50, 3)
        assert batch.factor_method == sampled
        if sampled != method:
            factor, got = _psd_factor(acov, k)
            z = derive_rng(3, "gauss-paths", 0).standard_normal((50, k * acov.L))
            samples = (z @ factor.T + np.tile(acov.mean, k)).reshape(expected.shape)
        else:
            got, samples = batch.factor_method, batch.samples
        assert got == ref_method == method
        assert np.array_equal(samples, expected)

    @pytest.mark.parametrize(
        "builder, k",
        [(lambda: narrowband(0.4), 600), (lambda: narrowband(0.4), 300), (correlated_pair, 300)],
        ids=["narrowband-k600", "narrowband-k300", "pair-k300"],
    )
    def test_retry_rebuilds_overwritten_covariance(self, builder, k):
        """Cholesky fails on these singular laws; the eigh retry factors the
        intact covariance, so its factor reproduces toeplitz(k) unperturbed."""
        acov = autocovariance_from_spectrum(builder(), k - 1)
        factor, got = _psd_factor(acov, k)
        assert got == "eigh"
        assert np.abs(factor @ factor.T - acov.toeplitz(k)).max() <= 1e-10


def _asymmetric_lag_one(k):
    """C(0) = diag(1, 2), C(1) = [[0, 0], [1, 0]], C(tau) = 0 beyond: an MA(1)
    pair whose lag-one cross-covariance is not symmetric."""
    mats = np.zeros((k, 2, 2))
    mats[0] = np.diag([1.0, 2.0])
    mats[1] = [[0.0, 0.0], [1.0, 0.0]]
    return AutocovarianceSequence(mats, np.zeros(2))


def _narrowband_ar1():
    """narrowband(0.4) plus 0.01 AR(1): a band and a rational term."""
    nb, rho = narrowband(0.4), 0.6
    term = RationalTerm(0, 0, (0.0, 0.01 * (1.0 - rho**2)), (-rho, 1.0 + rho**2, -rho))
    return SpectralModel(L=1, bands=nb.bands, arma_terms=[term])


def _band_plus_cosine():
    """Band(1) plus 0.5 cos(2 pi theta): a PSD total whose rational part is indefinite on its own."""
    return SpectralModel(
        L=1, bands=[Band(-0.5, 0.5, [[1.0]])], arma_terms=[RationalTerm(0, 0, (0.25, 0.0, 0.25), (0.0, 1.0))]
    )


# Rational laws outside MODELS, each with a PSD total density (delayed_copy's
# rational part [[0, conj(z)^d], [z^d, 0]] is indefinite on its own).
_RATIONAL_LAWS = {
    "narrowband_ar1": _narrowband_ar1,
    "band_plus_cosine": _band_plus_cosine,
    "delayed_copy_d1": lambda: delayed_copy(1),
    "delayed_copy_d4": lambda: delayed_copy(4),
    "ar1_0p99": lambda: ar1(0.99),
}

# Laws whose lagged covariances are checked at k = 600, with the route they take:
# three models on the spectral quadrature, and a sequence built by hand on the dense factor.
_LAGGED_LAWS = {
    "white": (lambda k: autocovariance_from_spectrum(white_noise(), k - 1), "spectral"),
    "ar1": (lambda k: autocovariance_from_spectrum(ar1(0.6), k - 1), "spectral"),
    "pair": (lambda k: autocovariance_from_spectrum(correlated_pair(), k - 1), "spectral"),
    "asymmetric": (_asymmetric_lag_one, "cholesky"),
}


# Band and line laws, each at a k that the spectral quadrature draws.
_SPECTRAL_LAWS = {
    "narrowband": (lambda: narrowband(0.4), 600),
    "halfband-pair": (independent_halfband_pair, 300),
    "complex-flat": (proper_complex_flat, 300),
    "line": (line_process, 600),
}


def _direct_spectral_sum(theta, roots, k, paths, seed):
    """Reference spectral draw: every node phased directly, in blocks of 64 time
    rows, with the normals of the one spectral-paths stream.  Returns the paths
    without the mean and C_hat as (k, L*L)."""
    nodes, L = roots.shape[:2]
    gram = (roots @ roots.conj().transpose(0, 2, 1)).reshape(nodes, L * L)
    half = (paths + 1) // 2
    z = derive_rng(seed, "spectral-paths", 0).standard_normal((half, nodes, 2 * L)).view(complex)
    u = (roots @ z.transpose(1, 2, 0)).transpose(0, 2, 1).reshape(nodes, -1)
    out = np.empty((paths, k, L))
    c_hat = np.empty((k, L * L), dtype=complex)
    inner = np.exp(-2j * np.pi * np.arange(64)[:, None] * theta)
    for row in range(0, k, 64):
        phases = np.exp(-2j * np.pi * row * theta) * inner[: k - row]
        rows = slice(row, row + len(phases))
        c_hat[rows] = phases @ gram
        y = (phases @ u).reshape(len(phases), half, L).transpose(1, 0, 2)
        out[:half, rows] = y.real
        out[half:, rows] = y[: paths - half].imag
    return out, c_hat


def _one_shot_spectral_paths(acov, k, paths, seed):
    """Reference spectral draw: the whole-batch draw that slices replace.  The
    normals are drawn, coloured and panel-summed at once, and the edge pieces
    and lines are added to the complex sums before the real and imaginary
    parts are taken."""
    L = acov.L
    theta, roots, cells, n = simulate._spectral_quadrature(acov.model, k)
    nodes, whole = len(theta), simulate._GL_ORDER * len(cells)
    x, _ = simulate._gauss_legendre()
    r = np.arange(n)
    fourier = np.exp(-2j * np.pi * (np.outer(r, cells) % n) / n)
    twiddle = np.exp(-1j * np.pi * np.outer(r, 1 + x) / n)[:, :, None]
    blocks = -(-k // n)
    block_phase = np.exp(-1j * np.pi * np.outer(np.arange(blocks), 1 + x))

    def panel_sum(vals):
        cols = vals.shape[1]
        s = (fourier @ vals.reshape(len(cells), simulate._GL_ORDER * cols)).reshape(n, simulate._GL_ORDER, cols)
        s *= twiddle
        return (block_phase @ s).transpose(1, 0, 2).reshape(blocks * n, cols)[:k]

    gram = (roots @ roots.conj().transpose(0, 2, 1)).reshape(nodes, L * L)
    z = derive_rng(seed, "spectral-paths", 0).standard_normal(((paths + 1) // 2, nodes, 2 * L))
    u = (roots @ z.view(complex).transpose(1, 2, 0)).transpose(0, 2, 1).reshape(nodes, len(z) * L)
    edges, y = u[whole:], panel_sum(u[:whole])
    c_hat = panel_sum(gram[:whole])
    theta, gram = theta[whole:], gram[whole:]
    inner = np.exp(-2j * np.pi * np.arange(min(64, k))[:, None] * theta)
    for row in range(0, k, 64):
        phases = np.exp(-2j * np.pi * row * theta) * inner[: k - row]
        rows = slice(row, row + len(phases))
        c_hat[rows] += phases @ gram
        y[rows] += phases @ edges
    y = y.reshape(k, -1, L).transpose(1, 0, 2)
    half = len(y)
    out = np.empty((paths, k, L))
    out[:half] = y.real
    out[half:] = y[: paths - half].imag
    out += acov.mean
    return out, float(np.abs(c_hat - acov.matrices[:k].reshape(k, L * L)).max())


def _slice_bytes(model, k, draws):
    """The _SLICE_BYTES budget that draws `draws` complex draws per slice of this law at k."""
    theta, _, _, n = simulate._spectral_quadrature(model, k)
    return draws * 16 * model.L * max(len(theta), n * simulate._GL_ORDER)


# Band layouts for the panel-grid cut, each as n -> [(lo, hi, level)] with exact
# fractional edges, and the line frequencies added to the model.
_CUT_CASES = {
    "straddles-zero": (lambda n: [(Fraction(-1, 1000), Fraction(1, 1000), 500.0)], ()),
    "inside-one-cell": (
        lambda n: [(Fraction(-2005, 10000), Fraction(-2001, 10000), 1250.0),
                   (Fraction(2001, 10000), Fraction(2005, 10000), 1250.0)],
        (),
    ),
    "straddles-one-point": (
        lambda n: [(Fraction(-3, 10), Fraction(-1, 10), 2.5), (Fraction(1, 10), Fraction(3, 10), 2.5)], ()
    ),
    "edges-on-grid": (
        lambda n: [(Fraction(-2, n), Fraction(-1, n), 1.0), (Fraction(-1, n), Fraction(1, n), 2.0),
                   (Fraction(1, n), Fraction(2, n), 1.0)],
        (),
    ),
    "adjacent-inside-a-cell": (
        lambda n: [(Fraction(-1, 4), Fraction(-13, 100), 1.0), (Fraction(-13, 100), Fraction(13, 100), 3.0),
                   (Fraction(13, 100), Fraction(1, 4), 1.0)],
        (),
    ),
    # 0.14 * 50 and 0.28 * 50 round to 7.000000000000001 and 14.000000000000002
    "decimal-edges-on-grid": (
        lambda n: [(Fraction(-28, 100), Fraction(-14, 100), 1.0), (Fraction(-14, 100), Fraction(14, 100), 2.0),
                   (Fraction(14, 100), Fraction(28, 100), 1.0)],
        (),
    ),
    "band-and-lines": (lambda n: [(Fraction(-3, 20), Fraction(3, 20), 2.0)], (-0.3, 0.3)),
}


class TestSpectralRoute:
    @pytest.mark.parametrize("law", sorted(_SPECTRAL_LAWS))
    def test_lag_zero_and_one_sample_covariances_within_5se(self, law):
        builder, k = _SPECTRAL_LAWS[law]
        paths = 400
        acov = autocovariance_from_spectrum(builder(), k - 1)
        batch = sample_paths(acov, k, paths, seed=23)
        assert batch.factor_method == "spectral"
        x = batch.samples
        for tau in range(2):
            per_path = np.einsum("pti,ptj->pij", x[:, tau:], x[:, : k - tau]) / (k - tau)
            se = per_path.std(axis=0, ddof=1) / np.sqrt(paths)
            dev = np.abs(per_path.mean(axis=0) - acov.matrices[tau])
            assert (dev <= 5.0 * se + 1e-12).all(), (tau, dev, se)
        # path r and path r + paths/2 are the real and imaginary parts of one draw: independent
        pair = np.einsum("pti,ptj->pij", x[: paths // 2], x[paths // 2:]) / k
        se = pair.std(axis=0, ddof=1) / np.sqrt(paths // 2)
        assert (np.abs(pair.mean(axis=0)) <= 5.0 * se).all(), (pair.mean(axis=0), se)

    @pytest.mark.parametrize("law", sorted(_LAGGED_LAWS))
    def test_lagged_sample_covariances_within_5se(self, law):
        k, paths = 600, 400
        build, method = _LAGGED_LAWS[law]
        acov = build(k)
        batch = sample_paths(acov, k, paths, seed=17)
        assert batch.factor_method == method
        x = batch.samples
        for tau in range(4):
            per_path = np.einsum("pti,ptj->pij", x[:, tau:], x[:, : k - tau]) / (k - tau)
            se = per_path.std(axis=0, ddof=1) / np.sqrt(paths)
            dev = np.abs(per_path.mean(axis=0) - acov.matrices[tau])
            assert (dev <= 5.0 * se + 1e-12).all(), (tau, dev, se)

    @pytest.mark.parametrize(
        "builder, k, method",
        [
            (lambda: narrowband(0.4), 600, "eigh"),
            (independent_halfband_pair, 300, "eigh"),
            (line_process, 600, "eigh"),
            (lambda: ar1(0.6), 600, "cholesky"),
            (_narrowband_ar1, 600, "cholesky"),
            (_narrowband_ar1, 2048, "cholesky"),
        ],
        ids=["narrowband-k600", "halfband-pair-k300", "line-k600", "ar1-k600", "narrowband-ar1-k600",
             "narrowband-ar1-k2048"],
    )
    def test_route_with_and_without_the_model(self, builder, k, method):
        """A sequence with its model takes the spectral quadrature, rational
        terms or not; the same sequence built without its model takes the
        dense factor."""
        acov = autocovariance_from_spectrum(builder(), k - 1)
        assert sample_paths(acov, k, 4, seed=1).factor_method == "spectral"
        assert _psd_factor(acov, k)[1] == method
        assert sample_paths(_without_model(acov), k, 4, seed=1).factor_method == method

    @pytest.mark.parametrize("k", [600, 4096])
    def test_empty_measure_draws_the_mean(self, k):
        acov = autocovariance_from_spectrum(zero_process(), k - 1)
        batch = sample_paths(acov, k, 5, seed=2)
        assert (batch.factor_method, batch.samples.shape) == ("spectral", (5, k, 1))
        assert (batch.samples == 0.0).all()

    @pytest.mark.parametrize(
        "name",
        [n for n, (b, _) in MODELS.items() if b().bands or b().lines or b().arma_terms] + sorted(_RATIONAL_LAWS),
    )
    def test_quadrature_reproduces_the_autocovariance(self, name):
        model = (MODELS[name][0] if name in MODELS else _RATIONAL_LAWS[name])()
        for k in (300, 600, 4096 // model.L):
            acov = autocovariance_from_spectrum(model, k - 1)
            _, residual = simulate._spectral_paths(acov, k, 2, seed=1)
            assert residual <= 1e-11 * np.abs(acov.matrices[0]).max(), (k, residual)

    @pytest.mark.parametrize("name", ["narrowband_0p4", "correlated_pair", "matched_support_nonproper"])
    def test_panel_grid_sum_matches_the_direct_sum(self, name):
        model = MODELS[name][0]()
        for k in (300, 4096 // model.L):
            acov = autocovariance_from_spectrum(model, k - 1)
            theta, roots, cells, n = simulate._spectral_quadrature(model, k)
            whole = simulate._GL_ORDER * len(cells)
            x, _ = simulate._gauss_legendre()
            assert np.abs(theta[:whole] - (cells[:, None] / n + (1 + x) / (2 * n)).ravel()).max() <= 1e-15
            ref, ref_c_hat = _direct_spectral_sum(theta, roots, k, 9, seed=3)
            out, residual = simulate._spectral_paths(acov, k, 9, seed=3)
            assert np.abs(out - acov.mean - ref).max() <= 1e-12 * np.abs(ref).max(), k
            scale = np.abs(acov.matrices[0]).max()
            gram = (roots @ roots.conj().transpose(0, 2, 1)).reshape(len(theta), -1)
            grid_c_hat = simulate._whole_panel_sum(cells, n, k)(gram[:whole])
            _, whole_c_hat = _direct_spectral_sum(theta[:whole], roots[:whole], k, 1, seed=3)
            assert np.abs(grid_c_hat - whole_c_hat).max() <= 1e-12 * scale, k
            ref_residual = np.abs(ref_c_hat - acov.matrices[:k].reshape(k, -1)).max()
            assert abs(residual - ref_residual) <= 1e-12 * scale, k

    @pytest.mark.parametrize("case", sorted(_CUT_CASES))
    def test_bands_are_cut_at_the_grid_points_inside_them(self, case):
        layout, lines = _CUT_CASES[case]
        for k in (300, 600, 1000, 1500, 3072, 4096):  # n = 6, 10, 18, 26, 50, 66
            n = 2 * math.ceil(np.pi * (k - 1) / simulate._PANEL_PHASE)
            bands = layout(n)
            model = SpectralModel(
                L=1,
                bands=[Band(float(lo), float(hi), [[level]]) for lo, hi, level in bands],
                lines=[SpectralLine(t, [[0.5]]) for t in lines],
            )
            theta, roots, cells, n_used = simulate._spectral_quadrature(model, k)
            assert n_used == n
            # exact counts: pieces = 1 + grid points strictly inside; whole = cells inside the band
            pieces = sum(math.ceil(hi * n) - math.floor(lo * n) for lo, hi, _ in bands)
            whole = sum(max(0, math.floor(hi * n) - math.ceil(lo * n)) for lo, hi, _ in bands)
            assert len(cells) == whole, (k, len(cells), whole)
            assert len(theta) == simulate._GL_ORDER * pieces + len(lines), (k, len(theta), pieces)
            assert (roots.real > 0).all()  # every node has a positive weight: no empty piece
            for lo, hi, level in bands:  # every band's weights add up to its width
                inside = (theta >= float(lo)) & (theta < float(hi))
                assert abs((roots[inside, 0, 0] ** 2).sum() / level - float(hi - lo)) <= 1e-14, (k, lo, hi)
            acov = autocovariance_from_spectrum(model, k - 1)
            _, residual = simulate._spectral_paths(acov, k, 2, seed=1)
            assert residual <= 1e-11 * np.abs(acov.matrices[0]).max(), (k, residual)

    @pytest.mark.parametrize("k", [300, 1000, 1024, 2048])
    def test_a_full_band_is_whole_cells(self, k):
        """The grid has an even cell count, so +-1/2 are grid points and a band
        over [-1/2, 1/2) leaves no edge half-cells."""
        theta, _, cells, n = simulate._spectral_quadrature(white_noise(), k)
        assert n % 2 == 0 and len(cells) == n
        assert len(theta) == simulate._GL_ORDER * len(cells)

    def test_traced_peak_of_a_band_draw(self):
        acov = autocovariance_from_spectrum(narrowband(0.4), 4095)
        tracemalloc.start()
        try:
            simulate._spectral_paths(acov, 4096, 100, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, peak

    @pytest.mark.parametrize("name", ["white_noise", "correlated_pair"])
    def test_traced_peak_is_a_slice_not_the_batch(self, name):
        """100 paths of 4096 samples: the draw's working set is a slice, so the
        peak stays near the 3.1 MiB of paths (the whole-chunk draw reads 26-27 MiB)."""
        model = MODELS[name][0]()
        k = 4096 // model.L
        acov = autocovariance_from_spectrum(model, k - 1)
        simulate._spectral_paths(acov, k, 100, seed=7)  # warm caches outside the trace
        tracemalloc.start()
        try:
            simulate._spectral_paths(acov, k, 100, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, f"draw peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("draws", [1, 3, None], ids=["slice-1", "slice-3", "slice-default"])
    @pytest.mark.parametrize(
        "name", ["narrowband_0p4", "line_process", "matched_support_nonproper", "correlated_pair", "ar1_0p6"]
    )
    def test_slices_equal_the_one_shot_draw(self, name, draws, monkeypatch):
        model = MODELS[name][0]()
        k = 600
        acov = autocovariance_from_spectrum(model, k - 1)
        if draws is not None:
            monkeypatch.setattr(simulate, "_SLICE_BYTES", _slice_bytes(model, k, draws))
        scale = np.abs(acov.matrices[0]).max()
        for paths in (1, 7, 9, 100):
            ref, ref_residual = _one_shot_spectral_paths(acov, k, paths, seed=11)
            out, residual = simulate._spectral_paths(acov, k, paths, seed=11)
            assert out.shape == ref.shape == (paths, k, model.L)
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max(), paths
            assert abs(residual - ref_residual) <= 1e-15 * scale, paths

    def test_small_slices_keep_the_draw_order(self, monkeypatch):
        """With slices of 1 or 2 draws the real parts still come first, then the
        imaginary parts."""
        acov = autocovariance_from_spectrum(narrowband(0.4), 599)
        monkeypatch.setattr(simulate, "_SLICE_BYTES", 1)  # one draw per slice
        odd = sample_paths(acov, 600, 7, seed=42).samples
        even = sample_paths(acov, 600, 8, seed=42).samples
        assert np.array_equal(odd, np.concatenate([even[:4], even[4:7]]))
        monkeypatch.setattr(simulate, "_SLICE_BYTES", _slice_bytes(narrowband(0.4), 600, 2))
        # the same draws; the grid sums of 2 columns may round apart from those of 1
        assert np.abs(sample_paths(acov, 600, 7, seed=42).samples - odd).max() <= 1e-13 * np.abs(odd).max()
        nine = sample_paths(acov, 600, 9, seed=42).samples  # 5 draws: slices of 2, 2 and 1
        ref, _ = _one_shot_spectral_paths(acov, 600, 9, seed=42)
        assert np.abs(nine - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_deterministic_by_seed_and_chunk(self, monkeypatch):
        acov = autocovariance_from_spectrum(narrowband(0.4), 599)
        odd = sample_paths(acov, 600, 7, seed=42)
        assert (odd.factor_method, odd.samples.shape) == ("spectral", (7, 600, 1))
        assert np.array_equal(odd.samples, sample_paths(acov, 600, 7, seed=42).samples)
        assert not np.array_equal(odd.samples, sample_paths(acov, 600, 7, seed=43).samples)
        # real parts of 4 complex draws, then 3 imaginary parts
        even = sample_paths(acov, 600, 8, seed=42).samples
        assert np.array_equal(odd.samples, np.concatenate([even[:4], even[4:7]]))
        # the draw is one stream: _PATH_CHUNK splits only the dense route's draws
        nine = sample_paths(acov, 600, 9, seed=42).samples
        monkeypatch.setattr(simulate, "_PATH_CHUNK", 4)
        assert np.array_equal(sample_paths(acov, 600, 9, seed=42).samples, nine)

    def test_coarse_quadrature_falls_back_to_the_dense_factor(self, monkeypatch):
        # one 128-node panel cannot integrate lags up to 599 over a band of width 0.4
        acov = autocovariance_from_spectrum(narrowband(0.4), 599)
        monkeypatch.setattr(simulate, "_PANEL_PHASE", 1e9)
        assert simulate._spectral_paths(acov, 600, 2, seed=1)[1] > 1e-11
        batch = sample_paths(acov, 600, 6, seed=5)
        dense = sample_paths(_without_model(acov), 600, 6, seed=5)
        assert batch.factor_method == dense.factor_method == "eigh"
        assert np.array_equal(batch.samples, dense.samples)

    def test_rational_quadrature_falls_back_to_the_dense_factor(self):
        # the AR(1) pole lies 1.6e-4 off the frequency axis: 10 cells of 128 nodes reach 2e-6, not rounding
        acov = autocovariance_from_spectrum(ar1(0.999), 599)
        assert simulate._spectral_paths(acov, 600, 2, seed=1)[1] > 1e-11 * acov.matrices[0, 0, 0]
        batch = sample_paths(acov, 600, 6, seed=5)
        dense = sample_paths(_without_model(acov), 600, 6, seed=5)
        assert batch.factor_method == dense.factor_method == "cholesky"
        assert np.array_equal(batch.samples, dense.samples)

    def test_imaginary_residue_trips_the_check(self):
        """Mirrored band levels that differ by 3e-10 pass model validation and
        the autocovariance's imaginary-residue check, but the quadrature's
        imaginary part (the correlation of its real and imaginary paths) then
        exceeds the tolerance, so the dense factor samples the real law."""
        model = SpectralModel(L=1, bands=[Band(-0.2, 0.0, [[2.5]]), Band(0.0, 0.2, [[2.5 + 3e-10]])])
        acov = autocovariance_from_spectrum(model, 599)
        assert simulate._spectral_paths(acov, 600, 2, seed=1)[1] > 1e-11 * acov.matrices[0, 0, 0]
        assert sample_paths(acov, 600, 2, seed=1).factor_method == "eigh"

    @pytest.mark.parametrize(
        "name", ["narrowband_0p4", "line_process", "white_noise", "correlated_pair", "real_only_complex", "ar1_0p6"]
    )
    def test_estimate_at_cli_defaults_makes_no_large_dense_factor(self, name, monkeypatch):
        from gaussdim.experiments import run
        from gaussdim.modelio import model_to_document

        real, rows = simulate._psd_factor, []

        def spy(acov, k):
            rows.append(k * acov.L)
            return real(acov, k)

        monkeypatch.setattr(simulate, "_psd_factor", spy)
        rep = run({"task": "estimate", "model": model_to_document(MODELS[name][0]()), "seed": 7})
        (surrogate,) = [r for r in rep.reports if r.method == "gaussian-surrogate"]
        assert surrogate.settings["factor_method"] == "spectral"
        assert rows and max(rows) <= simulate._EXACT_FACTOR_DIM

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("k, route", [(4, "eigh"), (300, "spectral"), (2048, "spectral")])
    def test_delayed_copy_paths_are_delayed_copies(self, d, k, route):
        # a rank-1 density whose null space turns with theta: each route must
        # reproduce the delay itself, not only the marginal laws
        batch = sample_paths(autocovariance_from_spectrum(delayed_copy(d), k - 1), k, 20, seed=5)
        assert batch.factor_method == route
        x = batch.samples
        assert np.abs(x[:, d:, 0] - x[:, :-d, 1]).max() <= 1e-6


def _full_fft_welch(x, nperseg):
    """Reference Welch pass: the full-length complex FFT of every segment, all
    L x L cross-periodograms by einsum, and an eigenvalue-clipped path mean."""
    step = nperseg - nperseg // 2
    segs = np.lib.stride_tricks.sliding_window_view(x, nperseg, axis=1)[:, ::step]  # (p, s, L, n)
    segs = segs - segs.mean(axis=-1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    spec = np.fft.fftshift(np.fft.fft(segs * window, axis=-1), axes=-1)
    scale = 1.0 / (segs.shape[1] * (window * window).sum())
    per_path = np.einsum("psif,psjf->pfij", spec.conj(), spec) * scale
    pooled = per_path.mean(axis=0)
    pooled = 0.5 * (pooled + pooled.conj().transpose(0, 2, 1))
    eigval, eigvec = np.linalg.eigh(pooled)
    clipped = np.einsum("nij,nj,nkj->nik", eigvec, np.clip(eigval, 0.0, None), eigvec.conj())
    return per_path, clipped


class TestWelch:
    def test_white_noise_flat_within_5se(self):
        acov = autocovariance_from_spectrum(white_noise(), 2047)
        batch = sample_paths(acov, 2048, 100, seed=11)
        est = welch_psd(batch, nperseg=256)
        vals = est.matrices[:, 0, 0].real
        per_path = est.per_path[:, :, 0, 0].real
        se = per_path.std(axis=0, ddof=1) / np.sqrt(batch.paths)
        # detrending wipes the mean: skip DC and its two window-width neighbors
        keep = np.abs(est.freqs) > 1.6 / 256
        z = np.abs(vals - 1.0) / se
        assert z[keep].max() <= 5.0

    def test_integrated_power_roundtrip(self):
        model = narrowband(0.5)
        acov = autocovariance_from_spectrum(model, 2047)
        batch = sample_paths(acov, 2048, 80, seed=13)
        est = welch_psd(batch, nperseg=256)
        per_path_power = est.per_path[:, :, 0, 0].real.mean(axis=1)
        se = per_path_power.std(ddof=1) / np.sqrt(batch.paths)
        integrated_power = np.einsum("nii->i", est.matrices).real / len(est.freqs)
        assert abs(integrated_power[0] - 1.0) <= 5.0 * se

    def test_out_of_band_leakage_bounded(self):
        model = SpectralModel(L=1, bands=[Band(-0.25, 0.25, [[2.0]])])
        acov = autocovariance_from_spectrum(model, 2047)
        batch = sample_paths(acov, 2048, 60, seed=17)
        est = welch_psd(batch, nperseg=256)
        inband = np.abs(est.freqs) < 0.25 - 4.0 / 256
        outband = np.abs(est.freqs) > 0.25 + 4.0 / 256
        assert est.matrices[inband, 0, 0].real.mean() == pytest.approx(2.0, rel=0.05)
        # 4+ bins past the edge, Hann leakage sits far below the passband level
        assert est.matrices[outband, 0, 0].real.max() < 2.0 * 1e-2

    def test_dither_only_floor(self):
        m = 4
        w = quantize(np.zeros((60, 2048, 1)), m) / m + dither_stream(23, m)((60, 2048, 1))
        est = welch_psd(w, nperseg=256)
        level = 1.0 / (12.0 * m * m)
        per_path = est.per_path[:, :, 0, 0].real.mean(axis=1)
        se = per_path.std(ddof=1) / np.sqrt(60)
        integrated_power = np.einsum("nii->i", est.matrices).real / len(est.freqs)
        assert abs(integrated_power[0] - level) <= 5.0 * se

    def test_cross_spectrum_orientation(self):
        """The estimated cross density reproduces the sign of the built-in
        imaginary cross term on positive frequencies."""
        model = proper_complex_flat()
        acov = autocovariance_from_spectrum(model, 2047)
        batch = sample_paths(acov, 2048, 60, seed=19)
        est = welch_psd(batch, nperseg=256)
        pos = (est.freqs > 0.05) & (est.freqs < 0.2)
        neg = (est.freqs < -0.05) & (est.freqs > -0.2)
        assert est.matrices[pos, 0, 1].imag.mean() == pytest.approx(1.0, abs=0.1)
        assert est.matrices[neg, 0, 1].imag.mean() == pytest.approx(-1.0, abs=0.1)

    def test_insufficient_segments(self):
        with pytest.raises(InsufficientDataError):
            welch_psd(np.zeros((1, 100, 1)), nperseg=256)

    def test_psd_clipping(self):
        rng = np.random.default_rng(3)
        est = welch_psd(rng.normal(size=(8, 512, 2)), nperseg=128)
        eig = np.linalg.eigvalsh(est.matrices)
        assert eig.min() >= -1e-15

    @pytest.mark.parametrize("nperseg", [128, 255, 256])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_half_spectrum_matches_full_fft_reference(self, L, nperseg):
        """The rfft half-spectrum, mirrored, reproduces the full-length FFT
        cross-periodograms and their eigen-clipped path mean; an odd segment
        length checks the mirror indexing."""
        rng = np.random.default_rng(41 + L)
        x = rng.normal(size=(6, 1000, L)) @ rng.normal(size=(L, L)) + 0.3
        est = welch_psd(x, nperseg=nperseg)
        per_path, matrices = _full_fft_welch(x, nperseg)
        assert np.abs(est.per_path - per_path).max() <= 1e-13 * np.abs(per_path).max()
        assert np.abs(est.matrices - matrices).max() <= 1e-13 * np.abs(matrices).max()
        # exactly Hermitian, and P(-f) = conj(P(f)) bit for bit; -1/2 is its own mirror
        for mats in (est.per_path, est.matrices[None]):
            assert (mats == mats.conj().transpose(0, 1, 3, 2)).all()
        mirror = np.searchsorted(est.freqs, -est.freqs) % nperseg
        assert (est.freqs[mirror] == np.where(est.freqs == -0.5, -0.5, -est.freqs)).all()
        assert (est.per_path[:, mirror] == est.per_path.conj()).all()

    @pytest.mark.parametrize(
        "model, k, nperseg, m",
        [
            (ar1(0.6), 1000, 128, None),  # 1000 - 128 is not a multiple of the stride 64
            (ar1(0.6), 1000, 128, 16),
            (white_noise(), 1024, 256, 8),
            (correlated_pair(), 700, 100, None),
            (proper_complex_flat(), 900, 256, 32),
            (proper_complex_flat(), 2048, 1024, None),
        ],
        ids=["L1-real", "L1-dithered", "L1-dithered-exact-fit", "L2-real", "L2-dithered", "L2-long"],
    )
    def test_matches_scipy_csd(self, model, k, nperseg, m):
        """The numpy pass reproduces scipy.signal.csd at the fixed settings:
        periodic Hann, half overlap, constant detrend, two-sided density."""
        import scipy.signal

        batch = sample_paths(autocovariance_from_spectrum(model, k - 1), k, 6, seed=29)
        x = batch.samples if m is None else quantize(batch, m) / m + dither_stream(31, m)(batch.samples.shape)
        est = welch_psd(x, nperseg=nperseg)
        L = x.shape[2]
        ref = np.empty((x.shape[0], nperseg, L, L), dtype=complex)
        for i in range(L):
            for j in range(L):
                freqs, ref[:, :, i, j] = scipy.signal.csd(
                    x[:, :, i], x[:, :, j], fs=1.0, window="hann", nperseg=nperseg,
                    noverlap=nperseg // 2, detrend="constant", return_onesided=False,
                    scaling="density", axis=-1,
                )
        order = np.argsort(freqs)
        ref = ref[:, order]
        _, times, _ = scipy.signal.spectrogram(
            x[:, :, 0], fs=1.0, window="hann", nperseg=nperseg, noverlap=nperseg // 2,
            detrend="constant", return_onesided=False, scaling="density", axis=-1,
        )
        assert (est.freqs == freqs[order]).all()
        assert est.segments_per_path == len(times)
        assert np.abs(est.per_path - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_cli_import_and_analyze_leave_out_scipy(self, tmp_path):
        """Importing the CLI and running analyze load no SciPy."""
        code = (
            "import sys, gaussdim.cli\n"
            "from gaussdim.benchmarks import white_noise\n"
            "from gaussdim.modelio import save_model\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            f"path = save_model(white_noise(), {str(tmp_path / 'white.json')!r})\n"
            "status = gaussdim.cli.main(['analyze', str(path)])\n"
            "loaded += sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print('scipy:', loaded, status)\n"
        )
        src = str(Path(gaussdim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "scipy: [] 0"
