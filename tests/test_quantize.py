"""Floor quantizer semantics, dither, and the gain/spectrum diagnostics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdim.benchmarks import line_process, white_noise
from gaussdim.quantize import (
    PrecisionOverflowError,
    UnitVarianceRequiredError,
    ZeroVarianceComponentError,
    bussgang_gain,
    check_precision,
    dither,
    quantize,
    spectrum_identity_check,
)
from gaussdim.simulate import autocovariance_from_spectrum, sample_paths


def _as_batch(values):
    return np.asarray(values, float).reshape(1, -1, 1)


class TestQuantize:
    @pytest.mark.parametrize(
        "x,m,code,value",
        [
            (1.7, 4, 6, 1.5),
            (-0.3, 2, -1, -0.5),
            (2.0, 5, 10, 2.0),  # exact lattice point
        ],
    )
    def test_examples(self, x, m, code, value):
        q = quantize(_as_batch([x]), m)
        assert q.codes[0, 0, 0] == code
        assert q.values[0, 0, 0] == pytest.approx(value, abs=0)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_sandwich(self, x, m):
        # exact floor semantics in scaled units: code <= m*x < code + 1,
        # which is the sandwich x - 1/m < code/m <= x in real arithmetic
        code = int(quantize(_as_batch([x]), m).codes[0, 0, 0])
        assert code <= m * x < code + 1

    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, x, y, m):
        lo, hi = sorted((x, y))
        q = quantize(_as_batch([lo, hi]), m).codes[0, :, 0]
        assert q[0] <= q[1]

    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=64),
           st.integers(min_value=1, max_value=256))
    @settings(max_examples=100, deadline=None)
    def test_error_range(self, xs, m):
        arr = _as_batch(xs)
        codes = quantize(arr, m).codes
        assert np.array_equal(codes, np.floor(m * arr).astype(np.int64))
        scaled_err = m * arr - codes  # [0, 1); the top end can round to 1.0 for tiny x
        assert (scaled_err >= 0).all() and (scaled_err <= 1.0).all()
        err = arr - codes / m
        assert err.var() <= 1.0 / (4 * m * m) + 1e-15 and 1.0 / (4 * m * m) <= 1.0 / (m * m)

    def test_overflow_guard(self):
        with pytest.raises(PrecisionOverflowError):
            quantize(_as_batch([2.0**53]), 4)

    @pytest.mark.parametrize("x", [np.inf, -np.inf, 2.0**51, -(2.0**51)], ids=["inf", "-inf", "top", "-top"])
    def test_range_check_raises_at_the_peak(self, x):
        # |x| * m >= 2^53 on either side of zero raises in the helper and in quantize
        values = _as_batch([0.5, x, -0.25])
        with pytest.raises(PrecisionOverflowError):
            check_precision(values, 4)
        with pytest.raises(PrecisionOverflowError):
            quantize(values, 4)

    @pytest.mark.parametrize("x", [np.nan, np.nextafter(2.0**51, 0.0), -np.nextafter(2.0**51, 0.0)],
                             ids=["nan", "below-top", "-below-top"])
    def test_range_check_passes_nan_and_values_below_the_top(self, x):
        values = _as_batch([0.5, x, -0.25])
        check_precision(values, 4)
        check_precision(np.empty((0, 3, 1)), 4)
        with np.errstate(invalid="ignore"):  # NaN has no int64 code
            assert quantize(values, 4).codes.shape == values.shape

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            quantize(_as_batch([0.0]), 0)


class TestDither:
    @pytest.fixture
    def qbatch(self):
        acov = autocovariance_from_spectrum(white_noise(), 0)
        batch = sample_paths(acov, 1, 200_000, seed=5)
        return batch, quantize(batch, 4)

    def test_uniform_range_and_determinism(self, qbatch):
        _, q = qbatch
        w1 = dither(q, seed=9)
        w2 = dither(q, seed=9)
        assert np.array_equal(w1.values, w2.values)
        assert w1.dither.min() >= 0.0 and w1.dither.max() < 0.25
        assert not np.array_equal(w1.dither, dither(q, seed=10).dither)

    def test_unit_codes_give_uniform(self):
        q = quantize(np.zeros((1, 100_000, 1)), 1)
        w = dither(q, seed=3)
        assert 0.0 <= w.values.min() and w.values.max() < 1.0
        n = w.values.size
        assert abs(w.values.mean() - 0.5) <= 5.0 * np.sqrt(1.0 / 12 / n)

    def test_variance_adds_uniform_term(self, qbatch):
        _, q = qbatch
        w = dither(q, seed=7)
        m = q.m
        n = w.values.size
        gap = w.values.var() - q.values.var() - 1.0 / (12 * m * m)
        # dominant error: empirical cov(z, u); se ~ 2 sqrt(var_z var_u / n)
        se = 2.0 * np.sqrt(q.values.var() / (12 * m * m) / n)
        assert abs(gap) <= 5.0 * se

    def test_mean_offset_bounded(self, qbatch):
        batch, q = qbatch
        w = dither(q, seed=11)
        offset = abs(w.values.mean() - batch.samples.mean())
        assert offset <= 1.0 / q.m + 1.0 / (2 * q.m)

    def test_dither_independent_of_codes(self, qbatch):
        _, q = qbatch
        w = dither(q, seed=13)
        codes = q.codes.ravel().astype(float)
        u = w.dither.ravel()
        r = np.corrcoef(codes, u)[0, 1]
        assert abs(r) <= 5.0 / np.sqrt(codes.size)


@pytest.fixture(scope="module")
def flat_batch():
    acov = autocovariance_from_spectrum(white_noise(), 0)
    return sample_paths(acov, 1, 1_000_000, seed=17)


class TestBussgang:
    def test_bound_at_m100(self, flat_batch):
        rep = bussgang_gain(flat_batch, 100)
        # unit variance: bound = (1/100) sqrt(2/pi) ~ 0.0079788
        assert rep.gain_bound[0] == pytest.approx(np.sqrt(2.0 / np.pi) / 100, rel=1e-2)
        assert abs(1.0 - rep.gain[0]) <= rep.gain_bound[0] + 5.0 * rep.gain_se[0]

    def test_gain_approaches_one(self, flat_batch):
        gaps = [abs(1.0 - bussgang_gain(flat_batch, m).gain[0]) for m in (2, 16, 256)]
        rep2, rep256 = bussgang_gain(flat_batch, 2), bussgang_gain(flat_batch, 256)
        assert gaps[0] <= rep2.gain_bound[0] + 5 * rep2.gain_se[0]
        assert gaps[2] <= rep256.gain_bound[0] + 5 * rep256.gain_se[0]

    def test_ladder_bound_all_m(self, flat_batch):
        for m in (2, 4, 8, 16, 32, 64, 128, 256):
            rep = bussgang_gain(flat_batch, m)
            assert rep.gain_bound_ok and rep.noise_ok

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceComponentError, match="normalize"):
            bussgang_gain(np.zeros((100, 4, 1)), 4)


def _time_major_report(x, m):
    """The gain statistics as reductions over the time-major (paths, k, L) layout."""
    paths, k, L = x.shape
    z = np.floor(m * x) / m
    mu = x.reshape(-1, L).mean(axis=0)
    zmu = z.reshape(-1, L).mean(axis=0)
    var = ((x - mu) ** 2).reshape(-1, L).mean(axis=0)
    per_path = ((x - mu) * (z - zmu)).mean(axis=1) / var
    gain_se = per_path.std(axis=0, ddof=1) / np.sqrt(paths)
    bound = np.sqrt(2.0 / (np.pi * var)) / m
    noise_var = (x - z).reshape(-1, L).var(axis=0)
    return per_path.mean(axis=0), gain_se, bound, noise_var


def _report_arrays(rep):
    return rep.gain, rep.gain_se, rep.gain_bound, rep.noise_var


@pytest.fixture(scope="module")
def pair_samples():
    """Two correlated components with unequal variances and means, as (paths, k, L)."""
    z = np.random.default_rng(31).standard_normal((3000, 6, 2))
    return z @ np.array([[1.0, 0.6], [0.0, 0.7]]) + [0.3, -1.2]


class TestComponentMajorGain:
    @pytest.mark.parametrize("m", [1, 4, 64])
    def test_pair_matches_each_component_alone(self, pair_samples, m):
        rep = bussgang_gain(pair_samples, m)
        for i in range(2):
            alone = bussgang_gain(pair_samples[..., i:i + 1], m)
            for both, one in zip(_report_arrays(rep), _report_arrays(alone)):
                assert both[i] == pytest.approx(one[0], rel=1e-12, abs=0), (m, i)

    @pytest.mark.parametrize("m", [1, 4, 64])
    def test_one_component_equals_the_time_major_formulas(self, pair_samples, m):
        x = np.ascontiguousarray(pair_samples[..., :1])
        for got, want in zip(_report_arrays(bussgang_gain(x, m)), _time_major_report(x, m)):
            assert np.array_equal(got, want), m

    def test_non_contiguous_inputs_give_the_same_report(self, pair_samples):
        strided = pair_samples[:, ::2, :]
        for x in (strided, np.asfortranarray(pair_samples)):
            assert not x.flags.c_contiguous
            rep, ref = bussgang_gain(x, 8), bussgang_gain(np.ascontiguousarray(x), 8)
            for got, want in zip(_report_arrays(rep), _report_arrays(ref)):
                assert np.array_equal(got, want)

    def test_identity_sample_variance_per_component(self):
        z = np.random.default_rng(37).standard_normal((4, 512, 2))
        x = z / z.std(axis=(0, 1)) * np.sqrt([0.97, 1.03])  # unequal, both inside the unit-variance gate
        (rep,) = spectrum_identity_check(x, [8], nperseg=128)
        assert rep.sample_variance == pytest.approx([x[..., i].var() for i in range(2)], rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def white_batch():
    acov = autocovariance_from_spectrum(white_noise(), 2047)
    return sample_paths(acov, 2048, 128, seed=23)


class TestSpectrumIdentity:
    @pytest.mark.parametrize("m", [1, 8])
    def test_residual_within_5se(self, white_batch, m):
        (rep,) = spectrum_identity_check(white_batch, [m])
        assert rep.mean_ok
        assert abs(rep.mean_residual) <= 5.0 * rep.mean_residual_se

    @pytest.mark.parametrize("m", [1, 8])
    def test_noise_mass_bound(self, white_batch, m):
        (rep,) = spectrum_identity_check(white_batch, [m])
        assert rep.noise_ok
        assert (rep.noise_mass <= 1.0 / m**2 + 1e-12).all()

    def test_requires_unit_variance(self, white_batch):
        with pytest.raises(UnitVarianceRequiredError):
            spectrum_identity_check(white_batch.samples * 3.0, [8])

    def test_batch_gates_on_the_law_variance(self):
        """Paths scaled by 1.25 have a pooled sample variance off the 1 their
        law fixes by construction; the batch carries that law, the raw array
        does not."""
        acov = autocovariance_from_spectrum(line_process(), 1023)
        batch = sample_paths(acov, 1024, 64, seed=1)
        batch = dataclasses.replace(batch, samples=1.25 * batch.samples)
        assert batch.variance == pytest.approx([1.0], rel=1e-12)
        sample_var = batch.samples.var()
        assert abs(sample_var - 1.0) > 0.05
        with pytest.raises(UnitVarianceRequiredError):
            spectrum_identity_check(batch.samples, [8])
        (rep,) = spectrum_identity_check(batch, [8])
        assert rep.sample_variance == pytest.approx([sample_var], rel=1e-12)
