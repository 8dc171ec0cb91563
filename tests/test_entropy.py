"""Plug-in entropy and the exact quantized-cell quadrature oracle.

The oracle is the reference for every sampled entropy in the suite, so it is
itself cross-checked two independent ways: against normal-CDF cell
probabilities in one dimension and against large-sample plug-in estimates in
higher dimension.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from gaussdim import entropy, simulate
from gaussdim.benchmarks import MODELS, ar1, correlated_pair, narrowband, white_noise, zero_process
from gaussdim.entropy import (
    DegenerateCovarianceError,
    QuadratureFeasibilityError,
    cell_counts,
    exact_cell_distribution,
    exact_cell_entropy,
    packed_keys,
    plugin_entropy,
)
from gaussdim.estimators import gaussian_surrogate_kl
from gaussdim.experiments import KL_M_LADDER
from gaussdim.quantize import quantize
from gaussdim.simulate import autocovariance_from_spectrum, sample_paths
from gaussdim.spectral import Band, SpectralModel

# standard normal cell entropies via Phi differences, frozen from:
#   p_z = Phi((z+1)/m) - Phi(z/m),  H = -sum p log p
H_STD_NORMAL = {1: 1.4589588284164423, 2: 2.122395352157217, 4: 2.8078303027414924}


def _phi_entropy(m: int) -> float:
    z = np.arange(-12 * m, 12 * m)
    p = norm.cdf((z + 1.0) / m) - norm.cdf(z / m)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


class TestPluginEntropy:
    def test_uniform_four_symbols(self):
        est = plugin_entropy(np.repeat(np.arange(4), 25))
        assert est.value == pytest.approx(np.log(4.0) + 3.0 / 200.0, abs=1e-12)
        assert est.occupied == 4

    def test_single_symbol(self):
        est = plugin_entropy(np.zeros(1000, dtype=int))
        assert est.value == 0.0 and est.error == 0.0

    def test_bounded_by_log_occupied(self):
        rng = np.random.default_rng(0)
        est = plugin_entropy(rng.integers(0, 50, size=5000))
        assert 0.0 <= est.value <= np.log(est.occupied) + (est.occupied - 1) / (2.0 * 5000)

    def test_miller_madow_correction(self):
        codes = np.repeat(np.arange(3), [50, 30, 20])
        p = np.array([0.5, 0.3, 0.2])
        est = plugin_entropy(codes)
        assert est.value == pytest.approx(-(p * np.log(p)).sum() + 2.0 / 200.0, abs=1e-12)

    def test_rows_as_joint_symbols(self):
        codes = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10)
        est = plugin_entropy(codes)
        assert est.value == pytest.approx(np.log(4.0) + 3.0 / 80.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plugin_entropy(np.zeros((0,), dtype=int))


def _row_unique_counts(codes):
    return np.unique(codes, axis=0, return_counts=True)[1]


@st.composite
def _repeating_rows(draw, lo, hi, max_cols=6):
    """Rows drawn from a few values per test, so rows and row prefixes repeat."""
    values = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4))
    d = draw(st.integers(1, max_cols))
    row = st.lists(st.sampled_from(values), min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return np.array([pool[i] for i in picks], dtype=np.int64)


_INTEGER_DTYPES = st.sampled_from(
    [np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
)


class TestCellCounts:
    """The packed-key counting kernel against the row sort it replaces."""

    @given(_repeating_rows(-(2**40), 2**40))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_unique_wide_spans(self, codes):
        assert np.array_equal(cell_counts(codes), _row_unique_counts(codes))

    @given(_repeating_rows(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_unique_small_negative_codes(self, codes):
        assert np.array_equal(cell_counts(codes), _row_unique_counts(codes))

    @given(hnp.arrays(_INTEGER_DTYPES, hnp.array_shapes(min_dims=2, max_dims=2, max_side=10)))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_unique_any_integer_dtype(self, codes):
        # full-range values: int64/uint64 column spans beyond 2^62 included
        assert np.array_equal(cell_counts(codes), _row_unique_counts(codes))

    @given(_repeating_rows(-(2**40), 2**40, max_cols=8), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_prefix_keys_match_row_unique_per_prefix(self, codes, step):
        codes = np.tile(codes, (1, step))  # column count a multiple of step
        keys = list(packed_keys(np.hsplit(codes, codes.shape[1] // step)))
        assert len(keys) == codes.shape[1] // step
        for j, key in enumerate(keys, start=1):
            counts = np.unique(key, return_counts=True)[1]
            assert np.array_equal(counts, _row_unique_counts(codes[:, : j * step]))

    def test_wide_spans_rank_compress_the_key(self, monkeypatch):
        calls = []
        real = entropy._ranks
        monkeypatch.setattr(entropy, "_ranks", lambda v: calls.append(len(v)) or real(v))
        codes = np.array([[2**40, -(2**40), 5], [-(2**40), 2**40, 5], [2**40, -(2**40), 5]] * 3)
        assert np.array_equal(cell_counts(codes), [3, 6])
        assert calls  # two columns of span 2^41 pass 2^62

    @given(_repeating_rows(-(2**40), 2**40, max_cols=8))
    @settings(max_examples=100, deadline=None)
    def test_column_iterator_counts_as_the_array(self, codes):
        counts = cell_counts(codes[:, j] for j in range(codes.shape[1]))
        assert np.array_equal(counts, _row_unique_counts(codes))
        assert plugin_entropy(iter(np.hsplit(codes, codes.shape[1]))) == plugin_entropy(codes)

    def test_one_dimensional_input(self):
        codes = np.array([3, -1, 3, 0, -1, 3])
        assert np.array_equal(cell_counts(codes), [2, 1, 3])

    def test_single_row(self):
        assert np.array_equal(cell_counts(np.array([[-7, 2, 9]])), [1])

    def test_bool_codes(self):
        codes = np.array([[True, False], [False, False], [True, False]])
        assert np.array_equal(cell_counts(codes), _row_unique_counts(codes))
        assert plugin_entropy(codes).occupied == 2

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, object])
    def test_non_integer_codes_rejected(self, dtype):
        with pytest.raises(TypeError, match="integer or bool"):
            plugin_entropy(np.zeros((4, 2), dtype=dtype))


class TestQuadratureOracle:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_standard_normal_against_phi_differences(self, m):
        live = _phi_entropy(m)
        assert live == pytest.approx(H_STD_NORMAL[m], abs=1e-10)
        est = exact_cell_entropy(white_noise(), 1, m)
        assert est.value == pytest.approx(H_STD_NORMAL[m], abs=1e-10)
        assert est.error < 1e-12

    def test_truncation_mass_tiny(self):
        est = exact_cell_entropy(ar1(0.6), 2, 4)
        assert est.error < 1e-12

    def test_independent_components_add(self):
        mat = np.array([[1.0, 0.0], [0.0, 4.0]])
        model = SpectralModel(L=2, bands=[Band(-0.5, 0.5, mat)])
        joint = exact_cell_entropy(model, 1, 2).value
        h1 = _phi_entropy(2)
        # second component has sd 2: cells of width 1/2 on N(0,4)
        z = np.arange(-48, 48)
        p = norm.cdf((z + 1.0) / 2, scale=2.0) - norm.cdf(z / 2, scale=2.0)
        h2 = float(-(p[p > 0] * np.log(p[p > 0])).sum())
        assert joint == pytest.approx(h1 + h2, abs=1e-9)

    def test_degenerate_copy_collapses(self):
        joint = exact_cell_entropy(correlated_pair(), 1, 4).value
        assert joint == pytest.approx(H_STD_NORMAL[4], abs=1e-10)

    def test_shifted_mean(self):
        est = exact_cell_entropy(white_noise(), 1, 1, mean_shift=[0.5])
        z = np.arange(-12, 12)
        p = norm.cdf(z + 1.0, loc=0.5) - norm.cdf(z, loc=0.5)
        h = float(-(p[p > 0] * np.log(p[p > 0])).sum())
        assert est.value == pytest.approx(h, abs=1e-10)

    def test_one_gauss_legendre_rule_per_order(self, monkeypatch):
        """Repeated oracle calls compute the 32-node rule once, read-only, and give equal values."""
        calls = []
        real = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or real(n))
        simulate._gauss_legendre.cache_clear()
        try:
            values = [exact_cell_entropy(ar1(0.6), 2, 4).value for _ in range(3)]
            xs, ws = simulate._gauss_legendre(entropy.QUAD_NODES)
        finally:
            simulate._gauss_legendre.cache_clear()
        assert calls == [entropy.QUAD_NODES]
        assert values[0] == values[1] == values[2]
        ref_xs, ref_ws = real(entropy.QUAD_NODES)
        assert np.array_equal(xs, ref_xs) and np.array_equal(ws, ref_ws)
        assert not (xs.flags.writeable or ws.flags.writeable)

    def test_block_limit_enforced(self):
        with pytest.raises(QuadratureFeasibilityError):
            exact_cell_entropy(white_noise(), 4, 2)

    def test_non_duplicate_singularity_rejected(self):
        mat = np.array([[1.0, -1.0], [-1.0, 1.0]])  # x2 = -x1: not a duplicate
        model = SpectralModel(L=2, bands=[Band(-0.5, 0.5, mat)])
        with pytest.raises(DegenerateCovarianceError):
            exact_cell_entropy(model, 1, 2)

    def test_zero_process_single_cell(self):
        est = exact_cell_entropy(zero_process(), 1, 8)
        assert est.value == 0.0 and est.occupied == 1

    def test_distribution_codes_sum_to_one(self):
        dist = exact_cell_distribution(narrowband(0.4), 2, 2)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.codes.shape[1] == 2


class TestOracleVsPlugin:
    @pytest.mark.parametrize(
        "builder,k,m",
        [
            (white_noise, 1, 1),
            (white_noise, 1, 4),
            (lambda: narrowband(0.4), 2, 2),
            (correlated_pair, 1, 2),
            (lambda: ar1(0.6), 2, 4),
        ],
    )
    def test_agreement_within_5se(self, builder, k, m):
        model = builder()
        paths = 300_000
        oracle = exact_cell_entropy(model, k, m)
        acov = autocovariance_from_spectrum(model, max(k - 1, 0))
        batch = sample_paths(acov, k, paths, seed=41)
        codes = quantize(batch, m).astype(np.int64).reshape(paths, -1)
        emp = plugin_entropy(codes)
        assert abs(emp.value - oracle.value) <= 5.0 * emp.error

    def test_three_dim_block(self):
        model = ar1(0.6)
        oracle = exact_cell_entropy(model, 3, 1)
        paths = 400_000
        acov = autocovariance_from_spectrum(model, 2)
        batch = sample_paths(acov, 3, paths, seed=43)
        codes = quantize(batch, 1).astype(np.int64).reshape(paths, -1)
        emp = plugin_entropy(codes)
        assert abs(emp.value - oracle.value) <= 5.0 * emp.error

    def test_conditioning_reduces_entropy_rate(self):
        """Block entropy rate H_k / k is non-increasing in k."""
        model = ar1(0.6)
        rates = [exact_cell_entropy(model, k, 1).value / k for k in (1, 2, 3)]
        assert rates[0] >= rates[1] - 1e-9
        assert rates[1] >= rates[2] - 1e-9


# exact_cell_entropy (value, occupied cells) and gaussian_surrogate_kl values of
# the full tensor Gauss-Legendre oracle, before the last axis was integrated in
# closed form; the conditional-axis rule must reproduce them to 1e-12.
ORACLE_ENTROPY = [
    ("white_noise", 1, 1, None, 1.4589588284163972, 16),
    ("white_noise", 1, 2, None, 2.1223953521571732, 32),
    ("white_noise", 1, 4, None, 2.8078303027414484, 64),
    ("white_noise", 1, 8, None, 3.4990306930633635, 128),
    ("white_noise", 1, 16, None, 4.191689989375869, 256),
    ("ar1_0p6", 1, 1, None, 1.4589588284164412, 18),
    ("ar1_0p6", 1, 2, None, 2.1223953521572168, 34),
    ("ar1_0p6", 1, 4, None, 2.807830302741487, 66),
    ("ar1_0p6", 1, 8, None, 3.4990306930633928, 130),
    ("ar1_0p6", 2, 4, None, 5.3954155933726575, 4356),
    ("narrowband_0p4", 2, 2, None, 3.845929480981936, 1024),
    ("narrowband_0p4", 2, 2, 0.37, 3.8459294809820084, 1089),
    ("white_noise", 3, 1, None, 4.3768764852491815, 4096),
    ("ar1_0p6", 3, 1, None, 4.009817431520444, 5832),
    ("narrowband_0p4", 3, 1, None, 3.5398228454777154, 3836),
    ("correlated_pair", 1, 4, None, 2.8078303027414484, 64),
    ("independent_halfband_pair", 1, 2, None, 4.244790704314342, 1024),
    ("white_noise", 1, 4, 10.0, 2.8078303027414484, 64),
    ("ar1_0p6", 1, 4, 10.0, 2.807830302741468, 65),
]
ORACLE_KL = [
    ("white_noise", 1, 1, 0.03705504940424409),
    ("white_noise", 1, 2, 0.010101358867531607),
    ("white_noise", 1, 3, 0.0045662419942071875),
    ("white_noise", 1, 4, 0.0025839851008473413),
    ("white_noise", 1, 5, 0.0016583763166544419),
    ("white_noise", 1, 6, 0.0011534030498148162),
    ("white_noise", 1, 7, 0.0008481766243420008),
    ("white_noise", 1, 8, 0.0006497726711325313),
    ("ar1_0p6", 1, 1, 0.03705504940423876),
    ("ar1_0p6", 1, 2, 0.010101358867528498),
    ("ar1_0p6", 1, 3, 0.004566241994204079),
    ("ar1_0p6", 1, 4, 0.0025839851008442327),
    ("ar1_0p6", 1, 5, 0.0016583763166524434),
    ("ar1_0p6", 1, 6, 0.0011534030498117076),
    ("ar1_0p6", 1, 7, 0.0008481766243397804),
    ("ar1_0p6", 1, 8, 0.0006497726711294227),
    ("ar1_0p6", 2, 4, 0.00800548003722712),
]


class TestOracleRegression:
    @pytest.mark.parametrize("name,k,m,shift,value,occupied", ORACLE_ENTROPY)
    def test_entropy_and_occupied_cells(self, name, k, m, shift, value, occupied):
        model = MODELS[name][0]()
        est = exact_cell_entropy(model, k, m, None if shift is None else [shift] * model.L)
        assert abs(est.value - value) <= 1e-12
        assert est.occupied == occupied

    @pytest.mark.parametrize("name,block_len,m,kl", ORACLE_KL)
    def test_surrogate_kl(self, name, block_len, m, kl):
        assert abs(gaussian_surrogate_kl(MODELS[name][0](), block_len, m).kl - kl) <= 1e-12


def _ulps(a, b):
    """Distance in units in the last place between nonnegative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _scipy_tail(u, out=None):
    """Phi(-|u|) by scipy.special.ndtr, in _normal_tail's call form."""
    ndtr = pytest.importorskip("scipy.special").ndtr
    return ndtr(np.negative(np.abs(u)), out=out)


class TestNormalTail:
    """entropy._normal_tail, the Cephes port, against scipy.special.ndtr."""

    def test_within_4_ulp_of_scipy_across_every_branch(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        # z = u / sqrt 2 crosses 1/sqrt 2, 1 and 8, then the underflow edge z^2 = MAXLOG (u ~ 37.68)
        edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * entropy._MAXLOG)])
        around = edges[:, None] + np.linspace(-1e-6, 1e-6, 2001)
        u = np.concatenate([
            np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf), around.ravel(),
            np.linspace(0.0, 40.0, 400_001), [0.0, -0.0, np.inf],
        ])
        got, ref = entropy._normal_tail(u), ndtr(-u)
        assert _ulps(got, ref).max() <= 4
        assert got[-3:].tolist() == [0.5, 0.5, 0.0]
        assert np.all(got[u > 37.68] == 0.0) and np.all(got[u < 37.67] > 0.0)

    def test_nan_stays_nan_and_sign_is_ignored(self):
        u = np.array([np.nan, -np.nan, 1.5, -1.5, -0.0])
        got = entropy._normal_tail(u)
        assert np.isnan(got[:2]).all()
        assert got[2] == got[3] and got[4] == 0.5

    def test_out_may_alias_the_input(self):
        u = np.random.default_rng(2).normal(scale=12.0, size=(3, 70_001))  # several blocks and a partial one
        fresh = entropy._normal_tail(u)
        aliased = u.copy()
        assert entropy._normal_tail(aliased, out=aliased) is aliased
        assert np.array_equal(aliased, fresh)
        assert _ulps(fresh, _scipy_tail(u)).max() <= 4

    def test_out_must_be_contiguous(self):
        u = np.zeros((4, 6))
        with pytest.raises(ValueError):
            entropy._normal_tail(u, out=np.zeros((6, 4)).T)

    @pytest.mark.parametrize("scale", [0.5, 5.0, 20.0], ids=["erf", "erfc", "underflow"])
    def test_in_place_peak_is_the_input(self, scale):
        tracemalloc.start()
        try:
            u = np.random.default_rng(3).normal(scale=scale, size=1_000_000)
            entropy._normal_tail(u, out=u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.nbytes + 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestOracleWithScipyTail:
    """The oracle on SciPy's ndtr and on the NumPy tail agree far inside the 1e-12 regression pins."""

    @pytest.mark.parametrize(
        "name,k,m,shift",
        [("white_noise", 1, 4, None), ("ar1_0p6", 1, 4, 10.0), ("ar1_0p6", 2, 4, None),
         ("narrowband_0p4", 2, 2, 0.37), ("correlated_pair", 1, 4, None),
         ("independent_halfband_pair", 1, 2, None), ("ar1_0p6", 3, 1, None), ("narrowband_0p4", 3, 1, None)],
    )
    def test_cell_entropy(self, monkeypatch, name, k, m, shift):
        model = MODELS[name][0]()
        shift = None if shift is None else [shift] * model.L
        ours = exact_cell_entropy(model, k, m, shift)
        monkeypatch.setattr(entropy, "_normal_tail", _scipy_tail)
        ref = exact_cell_entropy(model, k, m, shift)
        assert abs(ours.value - ref.value) <= 1e-13
        assert abs(ours.error - ref.error) <= 1e-15
        assert ours.occupied == ref.occupied

    @pytest.mark.parametrize("name", ["white_noise", "ar1_0p6"])
    def test_surrogate_kl(self, monkeypatch, name):
        model = MODELS[name][0]()
        ours = [gaussian_surrogate_kl(model, 1, m) for m in KL_M_LADDER]
        monkeypatch.setattr(entropy, "_normal_tail", _scipy_tail)
        for m, rep in zip(KL_M_LADDER, ours):
            ref = gaussian_surrogate_kl(model, 1, m)
            assert abs(rep.kl - ref.kl) <= 1e-13, m
            assert abs(rep.mass_deficit - ref.mass_deficit) <= 1e-15, m
            assert rep.passed == ref.passed, m
