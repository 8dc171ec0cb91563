"""Floor quantizer semantics, dither, and the gain/spectrum diagnostics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdim.benchmarks import correlated_pair, line_process, white_noise
from gaussdim.experiments import IDENTITY_M
from gaussdim.quantize import (
    PrecisionOverflowError,
    UnitVarianceRequiredError,
    ZeroVarianceComponentError,
    bussgang_gain,
    check_precision,
    dither_stream,
    quantize,
    spectrum_identity_check,
)
from gaussdim.simulate import InsufficientDataError, autocovariance_from_spectrum, sample_paths, welch_psd


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
        codes = quantize(_as_batch([x]), m)
        assert codes.dtype == np.float64
        assert codes[0, 0, 0] == code
        assert codes[0, 0, 0] / m == pytest.approx(value, abs=0)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_sandwich(self, x, m):
        # exact floor semantics in scaled units: code <= m*x < code + 1,
        # which is the sandwich x - 1/m < code/m <= x in real arithmetic
        code = int(quantize(_as_batch([x]), m)[0, 0, 0])
        assert code <= m * x < code + 1

    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, x, y, m):
        lo, hi = sorted((x, y))
        q = quantize(_as_batch([lo, hi]), m)[0, :, 0]
        assert q[0] <= q[1]

    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=64),
           st.integers(min_value=1, max_value=256))
    @settings(max_examples=100, deadline=None)
    def test_error_range(self, xs, m):
        arr = _as_batch(xs)
        codes = quantize(arr, m)
        assert np.array_equal(codes, np.floor(m * arr))
        scaled_err = m * arr - codes  # [0, 1); the top end can round to 1.0 for tiny x
        assert (scaled_err >= 0).all() and (scaled_err <= 1.0).all()
        err = arr - codes / m
        assert err.var() <= 1.0 / (4 * m * m) + 1e-15 and 1.0 / (4 * m * m) <= 1.0 / (m * m)

    def test_overflow_guard(self):
        with pytest.raises(PrecisionOverflowError):
            quantize(_as_batch([2.0**53]), 4)

    @pytest.mark.parametrize("x", [np.inf, -np.inf, 2.0**51, -(2.0**51), np.nan],
                             ids=["inf", "-inf", "top", "-top", "nan"])
    def test_range_check_raises_at_the_peak(self, x):
        # |x| * m >= 2^53 on either side of zero raises in the helper and in quantize, and so
        # does NaN, which has no int64 code
        values = _as_batch([0.5, x, -0.25])
        with pytest.raises(PrecisionOverflowError):
            check_precision(values, 4)
        with pytest.raises(PrecisionOverflowError):
            quantize(values, 4)

    @pytest.mark.parametrize("x", [np.nextafter(2.0**51, 0.0), -np.nextafter(2.0**51, 0.0)],
                             ids=["below-top", "-below-top"])
    def test_range_check_passes_nan_and_values_below_the_top(self, x):
        # NaN raises: see test_range_check_raises_at_the_peak
        values = _as_batch([0.5, x, -0.25])
        check_precision(values, 4)
        check_precision(np.empty((0, 3, 1)), 4)
        assert quantize(values, 4).shape == values.shape

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            quantize(_as_batch([0.0]), 0)


def _dithered(codes, m, seed):
    """The dithered values w = codes/m + u and the dither u, drawn from dither_stream(seed, m)."""
    u = dither_stream(seed, m)(codes.shape)
    return codes / m + u, u


_DITHER_M = 4  # the precision of the qbatch fixture


class TestDither:
    @pytest.fixture
    def qbatch(self):
        acov = autocovariance_from_spectrum(white_noise(), 0)
        batch = sample_paths(acov, 1, 200_000, seed=5)
        return batch, quantize(batch, _DITHER_M)

    def test_uniform_range_and_determinism(self, qbatch):
        _, codes = qbatch
        w1, u1 = _dithered(codes, _DITHER_M, seed=9)
        w2, _ = _dithered(codes, _DITHER_M, seed=9)
        assert np.array_equal(w1, w2)
        assert u1.min() >= 0.0 and u1.max() < 0.25
        assert not np.array_equal(u1, _dithered(codes, _DITHER_M, seed=10)[1])

    def test_unit_codes_give_uniform(self):
        w, _ = _dithered(quantize(np.zeros((1, 100_000, 1)), 1), 1, seed=3)
        assert 0.0 <= w.min() and w.max() < 1.0
        n = w.size
        assert abs(w.mean() - 0.5) <= 5.0 * np.sqrt(1.0 / 12 / n)

    def test_variance_adds_uniform_term(self, qbatch):
        _, codes = qbatch
        m = _DITHER_M
        w, _ = _dithered(codes, m, seed=7)
        n = w.size
        gap = w.var() - (codes / m).var() - 1.0 / (12 * m * m)
        # dominant error: empirical cov(z, u); se ~ 2 sqrt(var_z var_u / n)
        se = 2.0 * np.sqrt((codes / m).var() / (12 * m * m) / n)
        assert abs(gap) <= 5.0 * se

    def test_mean_offset_bounded(self, qbatch):
        batch, codes = qbatch
        w, _ = _dithered(codes, _DITHER_M, seed=11)
        offset = abs(w.mean() - batch.samples.mean())
        assert offset <= 1.0 / _DITHER_M + 1.0 / (2 * _DITHER_M)

    def test_dither_independent_of_codes(self, qbatch):
        _, codes = qbatch
        _, u = _dithered(codes, _DITHER_M, seed=13)
        codes = codes.ravel()
        u = u.ravel()
        r = np.corrcoef(codes, u)[0, 1]
        assert abs(r) <= 5.0 / np.sqrt(codes.size)


@pytest.fixture(scope="module")
def flat_batch():
    acov = autocovariance_from_spectrum(white_noise(), 0)
    return sample_paths(acov, 1, 1_000_000, seed=17)


class TestBussgang:
    def test_bound_at_m100(self, flat_batch):
        (rep,) = bussgang_gain(flat_batch, [100])
        # unit variance: bound = (1/100) sqrt(2/pi) ~ 0.0079788
        assert rep.gain_bound[0] == pytest.approx(np.sqrt(2.0 / np.pi) / 100, rel=1e-2)
        assert abs(1.0 - rep.gain[0]) <= rep.gain_bound[0] + 5.0 * rep.gain_se[0]

    def test_gain_approaches_one(self, flat_batch):
        rep2, rep16, rep256 = bussgang_gain(flat_batch, (2, 16, 256))
        gaps = [abs(1.0 - rep.gain[0]) for rep in (rep2, rep16, rep256)]
        assert gaps[0] <= rep2.gain_bound[0] + 5 * rep2.gain_se[0]
        assert gaps[2] <= rep256.gain_bound[0] + 5 * rep256.gain_se[0]

    def test_ladder_bound_all_m(self, flat_batch):
        ladder = (2, 4, 8, 16, 32, 64, 128, 256)
        reports = bussgang_gain(flat_batch, ladder)
        assert [rep.m for rep in reports] == list(ladder)
        for rep in reports:
            assert rep.gain_bound_ok and rep.noise_ok

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceComponentError, match="normalize"):
            bussgang_gain(np.zeros((100, 4, 1)), [4])


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
        (rep,) = bussgang_gain(pair_samples, [m])
        for i in range(2):
            (alone,) = bussgang_gain(pair_samples[..., i:i + 1], [m])
            for both, one in zip(_report_arrays(rep), _report_arrays(alone)):
                assert both[i] == pytest.approx(one[0], rel=1e-12, abs=0), (m, i)

    @pytest.mark.parametrize("m", [1, 4, 64])
    def test_one_component_equals_the_time_major_formulas(self, pair_samples, m):
        x = np.ascontiguousarray(pair_samples[..., :1])
        for got, want in zip(_report_arrays(bussgang_gain(x, [m])[0]), _time_major_report(x, m)):
            assert np.array_equal(got, want), m

    def test_non_contiguous_inputs_give_the_same_report(self, pair_samples):
        strided = pair_samples[:, ::2, :]
        for x in (strided, np.asfortranarray(pair_samples)):
            assert not x.flags.c_contiguous
            (rep,), (ref,) = bussgang_gain(x, [8]), bussgang_gain(np.ascontiguousarray(x), [8])
            for got, want in zip(_report_arrays(rep), _report_arrays(ref)):
                assert np.array_equal(got, want)

    def test_ladder_call_equals_the_single_calls(self, pair_samples):
        """One call over a ladder shares the input's moments across its m; each
        report equals the one a single-m call makes, field by field."""
        ms = (1, 2, 8, 64)
        for ladder_rep, m in zip(bussgang_gain(pair_samples, ms), ms):
            (single,) = bussgang_gain(pair_samples, [m])
            for f in dataclasses.fields(single):
                assert np.array_equal(getattr(ladder_rep, f.name), getattr(single, f.name)), (m, f.name)

    def test_identity_sample_variance_per_component(self):
        z = np.random.default_rng(37).standard_normal((4, 512, 2))
        x = z / z.std(axis=(0, 1)) * np.sqrt([0.97, 1.03])  # unequal, both inside the unit-variance gate
        (rep,) = spectrum_identity_check(x, [8], nperseg=128)
        assert rep.sample_variance == pytest.approx([x[..., i].var() for i in range(2)], rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def white_batch():
    acov = autocovariance_from_spectrum(white_noise(), 2047)
    return sample_paths(acov, 2048, 128, seed=23)


def _three_spectrum_identity(x, m, nperseg=256):
    """The identity report's fields from the three Welch spectra of the input, its
    quantized values z and the error x - z: the residual P_z - (2a-1) P_x - P_n,
    traced over components per node and averaged over frequency."""
    paths, _, L = x.shape
    z = quantize(x, m) / m
    gain = float(bussgang_gain(x, [m])[0].gain.mean())
    wx, wz, wn = (welch_psd(v, nperseg=nperseg) for v in (x, z, x - z))
    resid = wz.per_path - (2.0 * gain - 1.0) * wx.per_path - wn.per_path
    per_path_mean = (np.einsum("pnii->pn", resid).real / L).mean(axis=1)
    mean_resid = float(per_path_mean.mean())
    mean_se = float(per_path_mean.std(ddof=1) / np.sqrt(paths))
    noise_mass = np.einsum("nii->i", wn.matrices).real / len(wn.freqs)
    return {
        "gain": gain, "mean_residual": mean_resid, "mean_residual_se": mean_se, "noise_mass": noise_mass,
        "sample_variance": np.ascontiguousarray(np.moveaxis(x, -1, 0)).reshape(L, -1).var(axis=1),
        "mean_ok": bool(abs(mean_resid) <= 5.0 * mean_se),
        "noise_ok": bool(np.all(noise_mass <= (1.0 + 1e-9) / m**2)),
    }


def _identity_batch(builder, paths=100, k=1024, seed=3):
    return sample_paths(autocovariance_from_spectrum(builder(), k - 1), k, paths, seed)


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

    @pytest.mark.parametrize("builder", [white_noise, correlated_pair, line_process],
                             ids=["white", "pair", "line"])
    def test_equals_the_three_spectrum_formula(self, builder):
        """The segment inner products give the fields of the residual built from
        three Welch spectra; no gain, variance or flag moves."""
        batch = _identity_batch(builder, paths=40)
        ms = (1, 8, 64)
        for m, rep in zip(ms, spectrum_identity_check(batch, ms)):
            ref = _three_spectrum_identity(batch.samples, m)
            assert abs(rep.mean_residual - ref["mean_residual"]) <= 1e-15, m
            assert abs(rep.mean_residual_se - ref["mean_residual_se"]) <= 1e-16, m
            assert np.abs(rep.noise_mass - ref["noise_mass"]).max() <= 1e-14, m
            assert rep.gain == ref["gain"] and np.array_equal(rep.sample_variance, ref["sample_variance"]), m
            assert (rep.mean_ok, rep.noise_ok) == (ref["mean_ok"], ref["noise_ok"]), m

    def test_bivariate_check_peak(self):
        """Each precision's error and segments are freed before the next m quantizes,
        so the ladder peaks at its first m (9.0 MiB; 11.8 while they stayed live),
        with the values of one m at a time."""
        batch = _identity_batch(correlated_pair)
        spectrum_identity_check(batch, IDENTITY_M)  # warm caches outside the trace
        tracemalloc.start()
        try:
            reports = spectrum_identity_check(batch, IDENTITY_M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.5 * 2**20, f"identity check peak {peak / 2**20:.1f} MiB"
        for m, rep in zip(IDENTITY_M, reports, strict=True):
            (alone,) = spectrum_identity_check(batch, [m])
            for field in dataclasses.fields(rep):
                assert np.array_equal(getattr(rep, field.name), getattr(alone, field.name)), (m, field.name)

    @pytest.mark.parametrize("nperseg", [1024, 256], ids=["one-segment", "four-segments"])
    def test_one_path_raises(self, nperseg):
        # the path-based standard error needs two paths, however many segments the one path has
        x = np.random.default_rng(1).standard_normal((1, 1024, 1))
        with pytest.raises(InsufficientDataError):
            spectrum_identity_check(x, [8], nperseg=nperseg)

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
