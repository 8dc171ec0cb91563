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
from gaussdim.estimators import (
    K_CAP,
    OCCUPANCY_FRACTION,
    SURROGATE_GROUPS,
    SURROGATE_M_LADDER,
    SURROGATE_SEGMENT,
    UndersamplingError,
    _choose_k,
    _half_mean_logdet,
    _ls_slope,
    gaussian_surrogate_kl,
    idr_slope_estimate,
    invariance_check,
    kl_cap_per_coordinate,
    surrogate_idr_estimate,
)
from gaussdim.entropy import exact_cell_entropy
from gaussdim.experiments import TOL_ESTIMATE, ExperimentConfig
from gaussdim.quantize import PrecisionOverflowError, dither_stream, quantize
from gaussdim.simulate import MAX_DENSE_DIM, autocovariance_from_spectrum, sample_paths, welch_psd
from gaussdim.spectral import normalize_components, rank_integral


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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_choose_k_range_checks_beyond_the_chosen_k(self, value):
        acov = autocovariance_from_spectrum(white_noise(), K_CAP - 1)
        samples = sample_paths(acov, K_CAP, 20_000, seed=9).samples
        assert _choose_k(samples, 64) < K_CAP
        samples[5, K_CAP - 1, 0] = value  # a step the guard never quantizes
        with pytest.raises(PrecisionOverflowError):
            _choose_k(samples, 64)

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
        est = surrogate_idr_estimate(builder(), paths=paths, seed=5)
        value, se, pairwise = _whole_batch_surrogate(_surrogate_batch(builder(), paths, 5), 5)
        assert (est.value, est.se, est.pairwise_slopes) == (value, se, pairwise)

    @pytest.mark.parametrize("builder", [white_noise, correlated_pair], ids=["L1", "L2"])
    def test_ladder_peak_is_a_group_not_the_batch(self, builder, monkeypatch):
        paths = ExperimentConfig.surrogate_paths  # the CLI default
        batch = _surrogate_batch(builder(), paths, 7)
        monkeypatch.setattr(estimators, "sample_paths", lambda *a: batch)
        surrogate_idr_estimate(builder(), paths=paths, seed=7)  # warm caches outside the trace
        tracemalloc.start()
        try:
            surrogate_idr_estimate(builder(), paths=paths, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"ladder peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize(
        "value", [np.inf, -np.inf, 2.0**53 / 256, -(2.0**53) / 256, 2.0**53 / 16, np.nan],
        ids=["inf", "-inf", "top", "-top", "every-m", "nan"],
    )
    def test_range_check_raises_before_the_ladder(self, value, monkeypatch):
        batch = _surrogate_batch(white_noise(), 4, 3)
        batch.samples[2, 100, 0] = value
        monkeypatch.setattr(estimators, "sample_paths", lambda *a: batch)
        monkeypatch.setattr(estimators, "welch_psd", lambda *a, **kw: pytest.fail("ladder ran"))
        with pytest.raises(PrecisionOverflowError):
            surrogate_idr_estimate(white_noise(), paths=4, seed=3)

    @pytest.mark.parametrize("value", [np.nextafter(2.0**53 / 256, 0.0)], ids=["below-top"])
    def test_range_check_passes_nan_and_values_below_the_top(self, value, monkeypatch):
        # NaN raises: see test_range_check_raises_before_the_ladder
        batch = _surrogate_batch(white_noise(), 4, 3)
        batch.samples[2, 100, 0] = value
        monkeypatch.setattr(estimators, "sample_paths", lambda *a: batch)
        est = surrogate_idr_estimate(white_noise(), paths=4, seed=3)
        assert est.paths == 4


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
