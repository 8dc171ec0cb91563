"""Entropy-slope and Gaussian-surrogate dimension estimators, the KL check,
and the scale/translation invariance runs."""

import tracemalloc

import numpy as np
import pytest

from gaussdim.benchmarks import (
    MODELS,
    ar1,
    correlated_pair,
    delayed_copy,
    narrowband,
    white_noise,
    zero_process,
)
import gaussdim.estimators as estimators
import gaussdim.quantize as quantize_module
from gaussdim.estimators import (
    K_CAP,
    OCCUPANCY_FRACTION,
    SURROGATE_GROUPS,
    SURROGATE_K,
    SURROGATE_M_LADDER,
    SURROGATE_PATHS,
    SURROGATE_SEGMENT,
    UndersamplingError,
    _choose_k,
    _code_columns,
    _draw,
    _entropy_slope,
    _half_mean_logdet,
    _ls_slope,
    _surrogate_slope,
    gaussian_surrogate_kl,
    idr_slope_estimate,
    invariance_check,
    kl_cap_per_coordinate,
    surrogate_idr_estimate,
)
from gaussdim.entropy import exact_cell_entropy
from gaussdim.experiments import BUSSGANG_M_LADDER, INVARIANCE_TRANSFORMS, TOL_ESTIMATE, TOL_RD
from gaussdim.quantize import PrecisionOverflowError, bussgang_gain, check_precision, dither_stream, quantize
from gaussdim.ratedist import rd_dimension_estimate
from gaussdim.simulate import MAX_DENSE_DIM, autocovariance_from_spectrum, sample_paths, welch_psd
from gaussdim.spectral import Band, SpectralModel, normalize_components, rank_integral


def _pair_samples(paths, seed=9):
    """K_CAP-step correlated_pair paths."""
    return sample_paths(autocovariance_from_spectrum(correlated_pair(), K_CAP - 1), K_CAP, paths, seed).samples


def _inject(monkeypatch, index, value):
    """Make every batch the estimators draw hold `value` at `index`."""
    real = estimators.sample_paths

    def draw(*args, **kwargs):
        batch = real(*args, **kwargs)
        batch.samples[index] = value
        return batch

    monkeypatch.setattr(estimators, "sample_paths", draw)


def _spy_check_precision(monkeypatch) -> list:
    """The m of every check_precision call the estimators and quantize make, in order."""
    calls, real = [], quantize_module.check_precision
    spy = lambda arr, m: calls.append(m) or real(arr, m)  # noqa: E731
    monkeypatch.setattr(quantize_module, "check_precision", spy)
    monkeypatch.setattr(estimators, "check_precision", spy)
    return calls


class TestSlopeEstimator:
    def test_iid_standard_normal(self):
        est = idr_slope_estimate(white_noise(), paths=200_000, seed=1)
        assert abs(est.value - 1.0) <= 0.05
        assert est.k == 1 and est.notes == ""

    def test_constant_process(self):
        est = idr_slope_estimate(zero_process(), paths=10_000, seed=2)
        assert est.value == 0.0
        assert "zero variance" in est.notes

    def test_fully_correlated_pair_gives_one_not_two(self):
        est = idr_slope_estimate(correlated_pair(), paths=200_000, seed=3)
        assert abs(est.value - 1.0) <= 0.05

    def test_undersampling_guard_raises(self):
        with pytest.raises(UndersamplingError, match="occupied"):
            idr_slope_estimate(white_noise(), k=3, paths=5_000, seed=4)

    def test_guard_drives_k_selection(self):
        small = idr_slope_estimate(white_noise(), paths=20_000, seed=5)
        assert small.k == 1  # occupied(k=2) ~ 400^2 >> paths/10

    def test_ladder_widening_stays_consistent(self):
        narrow = idr_slope_estimate(white_noise(), m_ladder=(8, 16, 32), paths=150_000, seed=6)
        wide = idr_slope_estimate(white_noise(), m_ladder=(8, 16, 32, 64), paths=150_000, seed=6)
        ref = rank_integral(white_noise()).value
        assert abs(wide.value - ref) <= abs(narrow.value - ref) + 2.0 * (narrow.se + wide.se)

    def test_ladder_spread_reported(self):
        est = idr_slope_estimate(white_noise(), paths=100_000, seed=7)
        assert len(est.pairwise_slopes) == 3
        assert est.ladder_spread < 0.1

    def test_occupancy_reported_per_ladder_m(self):
        est = idr_slope_estimate(white_noise(), m_ladder=(2, 8, 32), paths=20_000, seed=8)
        assert len(est.occupancy) == 3
        assert 0.0 < est.occupancy[0] <= est.occupancy[1] <= est.occupancy[2] <= OCCUPANCY_FRACTION

    @pytest.mark.parametrize("builder", [white_noise, lambda: ar1(0.6), correlated_pair])
    def test_choose_k_matches_row_unique_loop(self, builder):
        paths = 20_000
        acov = autocovariance_from_spectrum(builder(), K_CAP - 1)
        samples = sample_paths(acov, K_CAP, paths, seed=9).samples
        for m_max in (1, 2, 4, 64):
            expected = 1
            for k in range(1, K_CAP + 1):
                codes = quantize(samples[:, :k, :], m_max).reshape(paths, -1)
                if len(np.unique(codes, axis=0)) > paths * OCCUPANCY_FRACTION:
                    break
                expected = k
            assert _choose_k(samples, m_max) == expected

    @pytest.mark.parametrize("builder", [white_noise, correlated_pair], ids=["L1", "L2"])
    def test_code_columns_are_the_floor_codes_column_by_column(self, builder):
        samples = sample_paths(autocovariance_from_spectrum(builder(), K_CAP - 1), K_CAP, 1_000, seed=9).samples
        for k, m in ((1, 1), (2, 8), (K_CAP, 64)):
            columns = list(_code_columns(samples, k, m))
            assert len(columns) == k * samples.shape[2] and all(col.dtype == np.int64 for col in columns)
            # step-major: column t * L + i holds component i of step t
            expected = quantize(samples[:, :k], m).astype(np.int64).reshape(len(samples), -1)
            assert np.array_equal(np.stack(columns, axis=1), expected)

    @pytest.mark.parametrize("owner", [
        lambda: idr_slope_estimate(white_noise(), paths=20_000, seed=9),
        lambda: invariance_check(white_noise(), INVARIANCE_TRANSFORMS, paths=20_000, seed=9),
    ], ids=["slope", "invariance"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_choose_k_range_checks_beyond_the_chosen_k(self, owner, value, monkeypatch):
        """The guard checks no column: the owner's one range check covers every
        drawn step, those past the chosen k included."""
        assert idr_slope_estimate(white_noise(), paths=20_000, seed=9).k < K_CAP
        _inject(monkeypatch, (5, K_CAP - 1, 0), value)  # a step the guard never quantizes
        with pytest.raises(PrecisionOverflowError):
            owner()

    @pytest.mark.parametrize("move", [(np.multiply, (3.0, 0.5)), (np.add, (10.0, -2.5))], ids=["scale", "translate"])
    def test_moved_code_columns_are_the_codes_of_the_moved_copy(self, move):
        samples = _pair_samples(2_000)
        op, amounts = move
        copy = op(samples, np.asarray(amounts))  # the whole-batch transform the walker replaces
        for k in range(1, K_CAP + 1):
            for m in (1, 8, 64):
                columns = np.stack(list(_code_columns(samples, k, m, (op, np.asarray(amounts)))), axis=1)
                assert np.array_equal(columns, quantize(copy[:, :k], m).astype(np.int64).reshape(len(samples), -1))

    @pytest.mark.parametrize("move", [(np.multiply, (3.0, 0.5)), (np.add, (10.0, -2.5))], ids=["scale", "translate"])
    def test_moved_guard_is_the_guard_on_the_moved_copy(self, move):
        samples = _pair_samples(20_000)
        op, amounts = move
        copy = op(samples, np.asarray(amounts))
        for m_max in (1, 2, 4, 64):
            full = _choose_k(copy, m_max)
            assert _choose_k(samples, m_max, (op, np.asarray(amounts))) == full
            for k_max in range(1, K_CAP + 1):  # a capped guard is the guard, capped
                assert _choose_k(samples, m_max, (op, np.asarray(amounts)), k_max) == min(k_max, full)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_entropy_slope_range_checks_its_block_only(self, value, monkeypatch):
        """With k given, the draw is the k-block and its one range check covers
        it: a value at step 2 raises at k = 2, and a k = 1 draw has no step 2."""
        _inject(monkeypatch, (5, slice(1, 2), 0), value)  # an empty slice of a one-step batch
        with pytest.raises(PrecisionOverflowError):
            idr_slope_estimate(white_noise(), (2, 4, 8, 16), k=2, paths=20_000, seed=9)
        assert np.isfinite(idr_slope_estimate(white_noise(), (2, 4, 8, 16), k=1, paths=20_000, seed=9).value)

    def test_entropy_slope_range_checks_once_per_ladder(self, monkeypatch):
        """The batch is checked once, at the top of the ladder, and once more per
        transform; the code columns are floored with no check of their own."""
        calls = _spy_check_precision(monkeypatch)
        idr_slope_estimate(correlated_pair(), (1, 2, 4, 8), k=1, paths=20_000, seed=9)
        assert calls == [8]
        calls.clear()
        invariance_check(correlated_pair(), [("scale", [3.0, 0.5])], (1, 2, 4, 8), k=1, paths=20_000, seed=9)
        assert calls == [8, 8]

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("name", ["ar1_0p6", "narrowband_0p4", "line_process"])
    def test_blocked_process_slope_is_b_times_the_block_slope(self, name, b):
        """Y_t = (X_bt, ..., X_bt+b-1) has b times X's dimension rate.  X's b-step
        paths reshaped to (paths, 1, b) are Y's one-step paths, and both slopes
        count the same cells over the same code columns in the same order, so
        Y's slope at block length 1 is b times X's at block length b, to rounding."""
        _, batch = _draw(MODELS[name][0](), b, 100_000, seed=7)
        x = _entropy_slope(batch.samples, (1, 2), b, batch, 1)
        y = _entropy_slope(batch.samples.reshape(-1, 1, b), (1, 2), 1, batch, b)
        assert abs(y.value - b * x.value) <= 1e-14 and abs(y.se - b * x.se) <= 1e-14
        assert y.occupancy == x.occupancy

    @pytest.mark.parametrize(
        "name, bound_mib", [("correlated_pair", 9.5), ("white_noise", 6.5)], ids=["correlated_pair", "white_noise"]
    )
    def test_entropy_slope_peak_is_a_few_columns(self, name, bound_mib):
        """At 100 000 paths the batch is the one batch-sized array: the dense
        draw adds a slice of normals, and the block-length guard and the slope
        add a few code columns, made one component of one step at a time
        (the batch is 6.1 MiB for correlated_pair, 3.1 MiB for white_noise)."""
        model = MODELS[name][0]()
        idr_slope_estimate(model, paths=100_000, seed=7)  # warm caches outside the trace
        tracemalloc.start()
        try:
            idr_slope_estimate(model, paths=100_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, f"entropy-slope peak {peak / 2**20:.2f} MiB"


class TestSurrogateEstimator:
    def test_white_noise(self):
        est = surrogate_idr_estimate(white_noise(), paths=60, k=2048, seed=8)
        assert abs(est.value - 1.0) <= 0.05

    def test_half_band(self):
        est = surrogate_idr_estimate(narrowband(0.5), paths=60, k=2048, seed=9)
        assert abs(est.value - 0.5) <= 0.05

    def test_zero_process_dither_only(self):
        est = surrogate_idr_estimate(zero_process(), paths=40, k=2048, seed=10)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_dither_only_slope_is_minus_dimension(self):
        """Quantizing an exactly-zero signal leaves only dither: the half
        log-det integral must fall like -log(12 m^2)/2 per component."""
        for m in (16, 64):
            w = quantize(np.zeros((40, 2048, 1)), m) / m + dither_stream(11, m)((40, 2048, 1))
            est = welch_psd(w, nperseg=1024)
            g = _half_mean_logdet(est.matrices, 0.01 / (12 * m * m))
            assert g == pytest.approx(-0.5 * np.log(12.0 * m * m), abs=0.02)

    def test_group_se_positive(self):
        est = surrogate_idr_estimate(white_noise(), paths=40, k=2048, seed=12)
        assert est.se >= 0.0 and np.isfinite(est.se)

    def test_bivariate_k_capped(self):
        est = surrogate_idr_estimate(correlated_pair(), paths=40, k=4096, seed=13)
        assert est.k == 2048  # k*L stays within the dense-factorization cap
        assert abs(est.value - 1.0) <= 0.05

    def test_spectral_line_contributes_no_dimension(self):
        """A random sinusoid has positive power but its spectral distribution
        only jumps; the surrogate must land near 0, matching the rank route."""
        from gaussdim.benchmarks import line_process

        est = surrogate_idr_estimate(line_process(theta=0.125, power=0.5), paths=60, k=2048, seed=20)
        assert abs(est.value) <= 0.05

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "rotating null space: the Hann lag window's autocorrelation rho(d) lifts "
            "1 - rho(d) of the delayed copy's null direction above the m=64 and m=256 "
            "dither floors, so at k=2048 (k*L capped at 4096) with 1024-sample segments "
            "the surrogate reads 1.3198 (SE 4.4e-4) at seed 7 and 1.3208 at seed 11; "
            "the expected-Welch closed form predicts 1.3177"
        ),
    )
    def test_delayed_copy_rotating_null_space(self):
        model = delayed_copy(1)
        reference = rank_integral(model).value  # 1.0
        est = surrogate_idr_estimate(model, paths=100, k=4096, seed=7)
        assert abs(est.value - reference) <= TOL_ESTIMATE


def _surrogate_batch(model, paths, seed, k=4096):
    """The batch surrogate_idr_estimate draws for `model` at these settings."""
    norm = normalize_components(model)
    k_eff = min(k, MAX_DENSE_DIM // norm.model.L)
    return sample_paths(autocovariance_from_spectrum(norm.model, k_eff - 1), k_eff, paths, seed)


def _whole_batch_surrogate(batch, seed, ladder=SURROGATE_M_LADDER, nperseg=SURROGATE_SEGMENT):
    """(value, se, pairwise slopes) of the surrogate formed on the whole batch at
    once: one dithered quantized batch and one Welch estimate per m, each group
    read as its slice of the per-path spectra."""
    paths, _, L = batch.samples.shape
    groups = max(1, min(SURROGATE_GROUPS, paths))
    bounds = np.linspace(0, paths, groups + 1).astype(int)
    g_pooled, g_groups = [], []
    for m in ladder:
        west = welch_psd(quantize(batch, m) / m + dither_stream(seed, m)(batch.samples.shape), nperseg=nperseg)
        floor = 0.01 / (12.0 * m * m)
        g_pooled.append(_half_mean_logdet(west.matrices, floor))
        g_groups.append([_half_mean_logdet(west.per_path[a:b].mean(axis=0), floor)
                         for a, b in zip(bounds, bounds[1:])])
    logm = np.log(np.asarray(ladder, float))
    slope, _, pairwise = _ls_slope(logm, g_pooled)
    group_vals = [L + _ls_slope(logm, col)[0] for col in np.asarray(g_groups).T]
    se = float(np.std(group_vals, ddof=1) / np.sqrt(groups))
    return L + slope, se, tuple(L + p for p in pairwise)


class TestSurrogateGroups:
    """The surrogate runs one path group at a time and gives the whole-batch values."""

    @pytest.mark.parametrize("paths", [100, 24, 4])  # equal groups, unequal groups, fewer paths than groups
    @pytest.mark.parametrize("builder", [white_noise, correlated_pair], ids=["white", "pair"])
    def test_equals_the_whole_batch_formula(self, builder, paths):
        batch = _surrogate_batch(builder(), paths, 5)
        expected = _whole_batch_surrogate(batch, 5)
        est = surrogate_idr_estimate(builder(), paths=paths, seed=5)
        assert (est.value, est.se, est.pairwise_slopes) == expected
        assert _surrogate_slope(batch.samples, SURROGATE_M_LADDER, 5) == expected  # the core on the same batch

    @pytest.mark.parametrize("builder", [white_noise, correlated_pair], ids=["L1", "L2"])
    def test_ladder_peak_is_a_group_not_the_batch(self, builder):
        samples = _surrogate_batch(builder(), SURROGATE_PATHS, 7).samples  # the CLI's fixed settings
        _surrogate_slope(samples, SURROGATE_M_LADDER, 7)  # warm caches outside the trace
        tracemalloc.start()
        try:
            _surrogate_slope(samples, SURROGATE_M_LADDER, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"ladder peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize(
        "value", [np.inf, -np.inf, 2.0**53 / 256, -(2.0**53) / 256, 2.0**53 / 16, np.nan],
        ids=["inf", "-inf", "top", "-top", "every-m", "nan"],
    )
    def test_range_check_raises_before_the_ladder(self, value, monkeypatch):
        _inject(monkeypatch, (2, 100, 0), value)
        monkeypatch.setattr(estimators, "welch_psd", lambda *a, **kw: pytest.fail("ladder ran"))
        with pytest.raises(PrecisionOverflowError):
            surrogate_idr_estimate(white_noise(), paths=4, seed=3)

    @pytest.mark.parametrize("value", [np.nextafter(2.0**53 / 256, 0.0)], ids=["below-top"])
    def test_range_check_passes_nan_and_values_below_the_top(self, value, monkeypatch):
        # NaN raises: see test_range_check_raises_before_the_ladder
        _inject(monkeypatch, (2, 100, 0), value)
        assert np.isfinite(surrogate_idr_estimate(white_noise(), paths=4, seed=3).se)


@pytest.fixture(scope="class")
def fixed_draw():
    """X's paths at the surrogate's fixed settings, drawn once per (model, seed) for a test class."""
    cache = {}

    def draw(name, seed=7):
        if (name, seed) not in cache:
            cache[name, seed] = _surrogate_batch(MODELS[name][0](), SURROGATE_PATHS, seed).samples
        return cache[name, seed]

    return draw


def _acov(model, tau_max=8):
    return autocovariance_from_spectrum(model, tau_max).matrices


MIX = np.array([[1.0, 0.5], [0.0, 1.0]])


class TestExactRelations:
    """Relations the dimension rate obeys exactly, checked on the rank integral, the rd slope
    and the surrogate core run on transformed paths of one draw per model (seed 7).  Each
    transformed model is tied to its path transform through its autocovariance."""

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("name", [
        "white_noise", "ar1_0p6", "line_process",
        pytest.param("narrowband_0p4", marks=pytest.mark.xfail(strict=True, reason=(
            "blocked narrowband: the null space of Y's polyphase density turns with frequency, and "
            "Welch leakage at 1024-sample segments reads +0.0915 (b=2), +0.1296 (b=3) and +0.1407 "
            "(b=4) above b * 0.4 at seed 7; longer segments (ROADMAP item 3) are the expected cure"
        ))),
    ])
    def test_blocked_process_has_b_times_the_dimension(self, fixed_draw, name, b):
        """Y_t = (X_bt, ..., X_bt+b-1) is X's paths reshaped, and d(Y) = b d(X).  At b = 3 and 4
        each of Y's paths holds one Welch segment."""
        n = SURROGATE_K // b
        y = fixed_draw(name)[:, : b * n, 0].reshape(SURROGATE_PATHS, n, b)
        reference = b * rank_integral(MODELS[name][0]()).value
        assert abs(_surrogate_slope(y, SURROGATE_M_LADDER, 7)[0] - reference) <= TOL_ESTIMATE

    def test_modulation_keeps_the_dimension(self, fixed_draw):
        """(-1)^t X moves narrowband's band across the +-1/2 wrap; d is unchanged."""
        moved = SpectralModel(L=1, bands=[Band(-0.5, -0.3, [[2.5]]), Band(0.3, 0.5, [[2.5]])])
        sign = (-1.0) ** np.arange(9)
        assert np.allclose(_acov(moved), sign[:, None, None] * _acov(narrowband(0.4)), rtol=0, atol=1e-12)
        reference = rank_integral(narrowband(0.4)).value
        ri = rank_integral(moved)
        assert abs(ri.value - reference) <= 1e-12
        assert abs(rd_dimension_estimate(ri).value - reference) <= TOL_RD
        x = fixed_draw("narrowband_0p4")
        value = _surrogate_slope(x * (-1.0) ** np.arange(x.shape[1])[:, None], SURROGATE_M_LADDER, 7)[0]
        assert abs(value - reference) <= TOL_ESTIMATE

    def test_direct_sum_adds_the_dimensions(self, fixed_draw):
        """Narrowband beside independent white noise: d = 0.4 + 1."""
        total = SpectralModel(L=2, bands=[
            Band(-0.5, -0.2, np.diag([0.0, 1.0])), Band(-0.2, 0.2, np.diag([2.5, 1.0])),
            Band(0.2, 0.5, np.diag([0.0, 1.0])),
        ])
        parts = (narrowband(0.4), white_noise())
        assert np.allclose(_acov(total)[:, [0, 1], [0, 1]], np.concatenate([_acov(p)[:, 0] for p in parts], axis=1),
                           rtol=0, atol=1e-12)
        assert np.abs(_acov(total)[:, [0, 1], [1, 0]]).max() <= 1e-12
        reference = sum(rank_integral(p).value for p in parts)
        ri = rank_integral(total)
        assert abs(ri.value - reference) <= 1e-12
        assert abs(rd_dimension_estimate(ri).value - reference) <= TOL_RD
        k = MAX_DENSE_DIM // 2  # the surrogate's L = 2 path length
        # independent draws: the white paths come from their own seed
        paths = np.concatenate([fixed_draw("narrowband_0p4")[:, :k], fixed_draw("white_noise", 8)[:, :k]], axis=2)
        assert abs(_surrogate_slope(paths, SURROGATE_M_LADDER, 7)[0] - reference) <= TOL_ESTIMATE

    @pytest.mark.parametrize(
        "name", ["independent_halfband_pair", "correlated_pair", "proper_complex_flat", "matched_support_nonproper"]
    )
    def test_invertible_mix_keeps_the_dimension(self, fixed_draw, name):
        """d(AX) = d(X) for A = [[1, 0.5], [0, 1]] on each L = 2 model with two components of
        positive variance.  The mixed surrogate moved by at most 1.2e-3 at seeds 7 and 11."""
        model = MODELS[name][0]()
        mixed = SpectralModel(L=2, bands=[Band(b.lo, b.hi, MIX @ b.matrix @ MIX.T) for b in model.bands])
        assert np.allclose(_acov(mixed), MIX @ _acov(model) @ MIX.T, rtol=0, atol=1e-12)
        reference = rank_integral(model).value
        ri = rank_integral(mixed)
        assert abs(ri.value - reference) <= 1e-12
        assert abs(rd_dimension_estimate(ri).value - reference) <= TOL_RD
        x = fixed_draw(name)
        base, moved = (_surrogate_slope(s, SURROGATE_M_LADDER, 7)[0] for s in (x, x @ MIX.T))
        assert abs(moved - reference) <= TOL_ESTIMATE
        assert abs(moved - base) <= 4e-3


class TestKLCheck:
    def test_constant_value(self):
        k = kl_cap_per_coordinate()
        assert k == pytest.approx(0.5 * np.log(2 * np.pi * (1 + 1 / 12)) + 37.5 + 24 / np.pi, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_within_bound_block1(self, m):
        rep = gaussian_surrogate_kl(white_noise(), 1, m)
        assert rep.passed and rep.kl <= rep.bound
        assert rep.kl >= 0.0
        assert rep.mass_deficit < 1e-12

    def test_block2_bound_doubles(self):
        rep = gaussian_surrogate_kl(ar1(0.6), 2, 4)
        assert rep.bound == pytest.approx(2.0 * kl_cap_per_coordinate())
        assert rep.passed

    def test_kl_decreases_with_precision(self):
        vals = [gaussian_surrogate_kl(white_noise(), 1, m).kl for m in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_closed_form_matches_brute_force_integral(self):
        """The per-cell closed-form KL against a dense numerical integration
        of f log(f/phi) over the piecewise-constant dithered density."""
        from gaussdim.entropy import exact_cell_distribution

        m = 2
        dist = exact_cell_distribution(white_noise(), 1, m)
        z, p = dist.codes[:, 0], dist.probs
        centers = z / m + 0.5 / m
        mu_w = float((p * centers).sum())
        var_w = float((p * (centers - mu_w) ** 2).sum()) + 1.0 / (12 * m * m)
        w = np.linspace(-12, 12, 600_001)
        lookup = dict(zip(z.tolist(), p.tolist()))
        f = np.array([m * lookup.get(c, 0.0) for c in np.floor(m * w).astype(int)])
        phi = np.exp(-0.5 * (w - mu_w) ** 2 / var_w) / np.sqrt(2 * np.pi * var_w)
        mask = f > 0
        kl_brute = float(np.trapezoid(f[mask] * np.log(f[mask] / phi[mask]), w[mask]))
        rep = gaussian_surrogate_kl(white_noise(), 1, m)
        assert rep.kl == pytest.approx(kl_brute, abs=1e-9)

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError, match="univariate"):
            gaussian_surrogate_kl(correlated_pair(), 1, 2)

    def test_block_length_limited(self):
        with pytest.raises(ValueError, match="block_len"):
            gaussian_surrogate_kl(white_noise(), 3, 2)


def _copy_invariance_check(model, transforms, m_ladder=(8, 16, 32, 64), k=None, paths=100_000, seed=0):
    """invariance_check as it was before its walker took the transforms: each
    transform makes a moved copy of the batch, range checked as a whole, and
    the guard and the slope run on that copy."""
    ladder = tuple(m_ladder)
    norm, batch = _draw(model, K_CAP if k is None else k, paths, seed)
    kept = list(norm.kept)
    check_precision(batch.samples, ladder[-1])
    k_base = k if k is not None else _choose_k(batch.samples, ladder[-1])
    base_at, reports = {}, []
    for kind, amount in transforms:
        amount = np.broadcast_to(np.asarray(amount, float), (model.L,)).copy()
        moved = batch.samples * amount[kept] if kind == "scale" else batch.samples + amount[kept]
        check_precision(moved, ladder[-1])
        k_t = k_base if k is not None else min(k_base, _choose_k(moved, ladder[-1]))
        if k_t not in base_at:
            base_at[k_t] = _entropy_slope(batch.samples, ladder, k_t, batch, model.L)
        base = base_at[k_t]
        notes = f"{kind} by {np.array2string(amount, precision=3)}"
        trans = _entropy_slope(moved, ladder, k_t, batch, model.L, notes)
        reports.append(estimators.InvarianceReport(kind, base, trans, float(abs(trans.value - base.value))))
    return reports


class TestInvariance:
    def test_scale_by_three(self):
        (rep,) = invariance_check(white_noise(), [("scale", 3.0)], paths=150_000, seed=14)
        assert rep.delta <= 0.05

    def test_translate_by_ten(self):
        (rep,) = invariance_check(white_noise(), [("translate", 10.0)], paths=150_000, seed=15)
        assert rep.delta <= 0.05

    def test_translate_off_lattice_exact_bound(self):
        # the finite-precision translation inequality |H([x]_4) - H([x + 0.3]_4)| <= log 4, by quadrature
        h0 = exact_cell_entropy(white_noise(), 1, 4).value
        h1 = exact_cell_entropy(white_noise(), 1, 4, mean_shift=[0.3]).value
        assert 0.0 < abs(h1 - h0) <= np.log(4.0)

    def test_narrowband_invariance(self):
        (rep,) = invariance_check(narrowband(0.4), [("scale", 2.0)], paths=100_000, seed=17)
        # base and transformed share paths, so the gap is purely quantizer-level
        assert rep.delta <= 0.05

    def test_scale_k_passes_guard_on_transformed_paths(self):
        # k=2 passes the guard on the unscaled paths only; scaling by 3
        # multiplies the occupied cells, so both slopes must use k=1
        (rep,) = invariance_check(white_noise(), [("scale", 3.0)], m_ladder=(1, 2), paths=5000, seed=5)
        assert rep.base.k == rep.transformed.k == 1
        assert max(rep.transformed.occupancy) <= OCCUPANCY_FRACTION

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            invariance_check(white_noise(), [("scale", -1.0)], paths=1000, seed=18)

    @pytest.mark.parametrize("kind", ["scale", "translate"])
    @pytest.mark.parametrize("amount", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_amount_rejected_before_the_draw(self, kind, amount, monkeypatch):
        monkeypatch.setattr(estimators, "sample_paths", lambda *a, **kw: pytest.fail("paths drawn"))
        with pytest.raises(ValueError, match="finite"):
            invariance_check(white_noise(), [(kind, amount)], seed=18)
        with pytest.raises(ValueError, match="finite"):  # one bad component of an L = 2 amount
            invariance_check(correlated_pair(), [("translate", 1.0), (kind, [1.0, amount])], seed=18)

    @pytest.mark.parametrize("seed", [5, 7])
    @pytest.mark.parametrize("name", ["white_noise", "correlated_pair"])
    def test_reports_equal_the_copy_based_reference(self, name, seed):
        """At the default ladder every block length is 1; on (1, 2) the base
        guard allows k = 3 and the scale by 3 caps its pair at k = 2."""
        model = MODELS[name][0]()
        transforms = INVARIANCE_TRANSFORMS + (("scale", [0.5, 2.0][:model.L]),)
        for ladder, ks in (((8, 16, 32, 64), [1, 1, 1]), ((1, 2), [2, 3, 3])):
            reports = invariance_check(model, transforms, m_ladder=ladder, seed=seed)
            assert reports == _copy_invariance_check(model, transforms, m_ladder=ladder, seed=seed)
            assert [r.transformed.k for r in reports] == ks

    @pytest.mark.parametrize("factor, error", [(1.01, PrecisionOverflowError), (0.99, UndersamplingError)])
    def test_one_component_past_the_range_raises_as_the_copy_did(self, factor, error):
        """A scale that takes component 0 past 2^53 / m at the top of the
        ladder, and only there, fails the range check while component 1
        stays in range; just below, the range check passes and every path
        is its own cell, so the undersampling guard raises instead."""
        model, paths, seed = correlated_pair(), 5_000, 3
        _, batch = _draw(model, K_CAP, paths, seed)
        scale = [factor * 2.0**53 / (64 * np.abs(batch.samples[..., 0]).max()), 1.0]
        for check in (invariance_check, _copy_invariance_check):
            with pytest.raises(error):
                check(model, [("scale", scale)], m_ladder=(8, 64), paths=paths, seed=seed)

    @pytest.mark.parametrize(
        "name, bound_mib", [("correlated_pair", 11.0), ("white_noise", 7.0)], ids=["correlated_pair", "white_noise"]
    )
    def test_peak_holds_no_moved_batch(self, name, bound_mib):
        """At 100 000 paths the batch (6.1 MiB for correlated_pair, 3.1 MiB
        for white_noise) is the one batch-sized array: a moved copy per
        transform would add another."""
        model = MODELS[name][0]()
        invariance_check(model, INVARIANCE_TRANSFORMS, paths=100_000, seed=7)  # warm caches outside the trace
        tracemalloc.start()
        try:
            invariance_check(model, INVARIANCE_TRANSFORMS, paths=100_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, f"invariance peak {peak / 2**20:.2f} MiB"

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError, match="transform"):
            invariance_check(white_noise(), [("rotate", 1.0)], paths=1000, seed=19)

    def test_one_draw_serves_every_transform(self, monkeypatch):
        import gaussdim.estimators as estimators

        transforms = [("scale", 3.0), ("translate", 10.0)]
        singles = [invariance_check(white_noise(), [t], paths=20_000, seed=5)[0] for t in transforms]
        calls = []
        real_draw, real_choose = estimators.sample_paths, estimators._choose_k
        monkeypatch.setattr(estimators, "sample_paths", lambda *a, **kw: calls.append("draw") or real_draw(*a, **kw))
        monkeypatch.setattr(estimators, "_choose_k", lambda *a: calls.append("choose_k") or real_choose(*a))
        both = invariance_check(white_noise(), transforms, paths=20_000, seed=5)
        assert both == singles
        # one draw; k is chosen once on the base paths and once per moved path set
        assert calls.count("draw") == 1 and calls.count("choose_k") == 1 + len(transforms)

    def test_zero_process_one_zero_report_per_transform(self):
        reps = invariance_check(zero_process(), [("scale", 2.0), ("translate", 1.0)], paths=1000, seed=20)
        assert [r.transform for r in reps] == ["scale", "translate"]
        assert all(r.delta == 0.0 and r.base.value == r.transformed.value == 0.0 for r in reps)


class TestOneRangeCheckPerBatch:
    """The function that draws or receives a batch range-checks it once, at the
    top of its ladder, and once more per invariance transform; every later
    floor goes through _floor_codes, which checks nothing."""

    @pytest.mark.parametrize("owner, checks", [
        (lambda: idr_slope_estimate(white_noise(), paths=20_000, seed=9), [64]),
        (lambda: invariance_check(white_noise(), INVARIANCE_TRANSFORMS, paths=20_000, seed=9),
         [64] * (1 + len(INVARIANCE_TRANSFORMS))),
        (lambda: surrogate_idr_estimate(correlated_pair(), paths=4, seed=9), [max(SURROGATE_M_LADDER)]),
        (lambda: bussgang_gain(_pair_samples(2_000), BUSSGANG_M_LADDER), [max(BUSSGANG_M_LADDER)]),
    ], ids=["idr_slope_estimate", "invariance_check", "surrogate_idr_estimate", "bussgang_gain"])
    def test_check_precision_calls(self, owner, checks, monkeypatch):
        calls = _spy_check_precision(monkeypatch)
        owner()
        assert calls == checks
