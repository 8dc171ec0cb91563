"""Spectral models, the rank integral, and the complex-process helpers."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdim import spectral
from gaussdim.benchmarks import MODELS, ar1, correlated_pair, line_process, white_noise
from gaussdim.experiments import run
from gaussdim.modelio import model_to_document
from gaussdim.spectral import (
    RANK_ABS_FLOOR,
    Band,
    FrequencyGrid,
    ModelValidationError,
    RationalTerm,
    SpectralModel,
    _band_segments,
    _check_nodes,
    _congruence,
    _numerical_ranks,
    _scalar_density,
    _segment_support_measure,
    _stack_eigvalsh,
    component_variances,
    eval_spectrum,
    normalize_components,
    properness_check,
    rank_integral,
    support_bound,
)


class TestEvalSpectrum:
    def test_white_noise_constant(self, white, grid):
        mats = eval_spectrum(white, grid)
        assert mats.shape == (4096, 1, 1)
        assert np.allclose(mats[:, 0, 0], 1.0)

    def test_band_indicator(self, grid):
        model = SpectralModel(L=1, bands=[Band(-0.25, 0.25, [[2.0]])])
        vals = eval_spectrum(model, grid)[:, 0, 0].real
        inside = np.abs(grid.nodes) < 0.25
        assert np.allclose(vals[inside], 2.0)
        assert np.allclose(vals[~inside], 0.0)

    def test_all_ones_pair_eigenvalues(self, corr_pair, grid):
        mats = eval_spectrum(corr_pair, grid)
        eig = np.linalg.eigvalsh(mats)
        assert np.allclose(eig[:, 0], 0.0, atol=1e-12)
        assert np.allclose(eig[:, 1], 2.0)

    def test_lines_do_not_contribute(self, grid):
        mats = eval_spectrum(line_process(), grid)
        assert np.abs(mats).max() == 0.0

    def test_non_hermitian_band_rejected(self):
        with pytest.raises(ModelValidationError, match="Hermitian"):
            SpectralModel(L=2, bands=[Band(-0.5, 0.5, [[1.0, 1.0], [0.0, 1.0]])])

    def test_non_psd_band_rejected(self):
        with pytest.raises(ModelValidationError, match="semidefinite"):
            SpectralModel(L=2, bands=[Band(-0.5, 0.5, [[1.0, 2.0], [2.0, 1.0]])])

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ModelValidationError, match="overlap"):
            SpectralModel(L=1, bands=[Band(-0.25, 0.25, [[1.0]]), Band(0.0, 0.5, [[1.0]])])

    def test_asymmetric_band_rejected(self):
        with pytest.raises(ModelValidationError, match="mirror"):
            SpectralModel(L=1, bands=[Band(0.1, 0.3, [[1.0]])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_band_matrix_rejected(self, bad):
        with pytest.raises(ModelValidationError, match="band matrix has a non-finite entry"):
            SpectralModel(L=1, bands=[Band(-0.5, 0.5, [[bad]])])

    def test_non_finite_line_power_rejected(self):
        with pytest.raises(ModelValidationError, match="line power has a non-finite entry"):
            SpectralModel(L=1, lines=[(-0.125, [[np.inf]]), (0.125, [[np.inf]])])

    def test_non_finite_mean_rejected(self):
        with pytest.raises(ModelValidationError, match="mean has a non-finite entry"):
            SpectralModel(L=1, bands=[Band(-0.5, 0.5, [[1.0]])], mean=[np.nan])

    @pytest.mark.parametrize("num, den", [((np.nan,), (1.0,)), ((1.0,), (1.0, complex(0.0, np.inf)))])
    def test_non_finite_rational_coefficient_rejected(self, num, den):
        with pytest.raises(ModelValidationError, match=re.escape("rational term (0,0) has a non-finite coefficient")):
            SpectralModel(L=1, arma_terms=[RationalTerm(0, 0, num, den)])


class TestRankIntegral:
    @pytest.mark.parametrize(
        "fixture,expected",
        [
            ("white", 1.0),
            ("band04", 0.4),
            ("halfband_pair", 1.0),
            ("corr_pair", 1.0),
            ("zero", 0.0),
            ("proper_flat", 1.0),
        ],
    )
    def test_benchmark_values(self, fixture, expected, grid, request):
        model = request.getfixturevalue(fixture)
        result = rank_integral(model, grid)
        assert result.value == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= result.value <= model.L

    def test_support_measure_example(self, grid):
        model = SpectralModel(L=1, bands=[Band(-0.2, 0.2, [[1.0]])])
        assert rank_integral(model, grid).value == pytest.approx(0.4, abs=1e-12)

    def test_grid_profile_close_to_exact(self, band04, grid):
        result = rank_integral(band04, grid)
        assert result.method == "segment-exact"
        assert abs(result.profile.mean_rank - result.value) <= 2.0 / grid.n

    def test_min_resolution_enforced(self, white):
        with pytest.raises(ValueError, match="resolution"):
            rank_integral(white, FrequencyGrid(32))

    def test_rank_histogram(self, halfband_pair, grid):
        hist = rank_integral(halfband_pair, grid).profile.histogram()
        assert hist == {1: 1.0}

    def test_arma_model_uses_grid(self, ar_model, grid):
        result = rank_integral(ar_model, grid)
        assert result.method == "grid"
        assert result.value == pytest.approx(1.0, abs=1e-12)


def _random_psd(rng, L, rank=None):
    rank = rank if rank is not None else L
    b = rng.normal(size=(L, max(rank, 1))) + 1j * rng.normal(size=(L, max(rank, 1)))
    mat = b @ b.conj().T
    return mat if rank > 0 else np.zeros((L, L), dtype=complex)


@st.composite
def band_model_params(draw):
    L = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_pairs = draw(st.integers(min_value=0, max_value=2))
    edges = draw(
        st.lists(st.integers(min_value=1, max_value=32), min_size=2 * n_pairs, max_size=2 * n_pairs, unique=True)
    )
    ranks = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n_pairs, max_size=n_pairs))
    return L, seed, sorted(edges), ranks


def _build_band_model(L, seed, edges, ranks):
    rng = np.random.default_rng(seed)
    bands = []
    for i in range(len(edges) // 2):
        lo, hi = edges[2 * i] / 64.0, edges[2 * i + 1] / 64.0
        mat = _random_psd(rng, L, rank=min(ranks[i], L))
        bands.append(Band(lo, hi, mat))
        bands.append(Band(-hi, -lo, mat.conj()))
    return SpectralModel(L=L, bands=bands)


class TestRankIntegralProperties:
    @given(band_model_params())
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, params):
        model = _build_band_model(*params)
        value = rank_integral(model, FrequencyGrid(128)).value
        assert 0.0 <= value <= model.L

    @given(band_model_params(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, params, scale_seed):
        model = _build_band_model(*params)
        factors = np.random.default_rng(scale_seed).uniform(0.25, 4.0, size=model.L)
        scaled = _congruence(model, np.arange(model.L), factors)
        g = FrequencyGrid(128)
        assert rank_integral(scaled, g).value == pytest.approx(rank_integral(model, g).value, abs=1e-12)

    @given(band_model_params(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, params, perm_seed):
        model = _build_band_model(*params)
        perm = np.random.default_rng(perm_seed).permutation(model.L)
        g = FrequencyGrid(128)
        assert rank_integral(_congruence(model, perm, np.ones(model.L)), g).value == pytest.approx(
            rank_integral(model, g).value, abs=1e-12
        )

    @given(band_model_params(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_block_diagonal_additivity(self, params, other_seed):
        model_a = _build_band_model(*params)
        L_a, seed, edges, ranks = params
        model_b = _build_band_model(2, other_seed, edges, ranks)
        La, Lb = model_a.L, model_b.L
        by_interval = {}
        for b in model_a.bands:
            by_interval.setdefault((b.lo, b.hi), np.zeros((La + Lb, La + Lb), complex))[:La, :La] += b.matrix
        for b in model_b.bands:
            by_interval.setdefault((b.lo, b.hi), np.zeros((La + Lb, La + Lb), complex))[La:, La:] += b.matrix
        joint = SpectralModel(
            L=La + Lb, bands=[Band(lo, hi, m) for (lo, hi), m in sorted(by_interval.items())]
        )
        g = FrequencyGrid(128)
        total = rank_integral(model_a, g).value + rank_integral(model_b, g).value
        assert rank_integral(joint, g).value == pytest.approx(total, abs=1e-12)

    @given(band_model_params())
    @settings(max_examples=25, deadline=None)
    def test_grid_refinement_stability(self, params):
        model = _build_band_model(*params)
        n = 128
        coarse = rank_integral(model, FrequencyGrid(n)).profile.mean_rank
        fine = rank_integral(model, FrequencyGrid(2 * n)).profile.mean_rank
        n_endpoints = 2 * len(model.bands)
        assert abs(coarse - fine) <= max(n_endpoints, 1) / n + 1e-12


_AR1 = ((0.0, 0.64), (-0.6, 1.36, -0.6))  # ar1(0.6) as num/den coefficients in z


def _rational_pair():
    """Proper pair with rational terms: equal AR(1) marginals and the purely
    imaginary antisymmetric cross density -0.2i sin(2 pi theta); rank 2 everywhere."""
    return SpectralModel(L=2, arma_terms=[
        RationalTerm(0, 0, *_AR1), RationalTerm(1, 1, *_AR1), RationalTerm(0, 1, (-0.1, 0.0, 0.1), (0.0, 1.0)),
    ])


def _crossed_tolerance_pair():
    """Full-rank weak band inside |theta| < 1/4, rank-1 strong band outside: at
    rel_tol 0.3 the dimension is 1.5 while S_Z clears the threshold outside only."""
    outer = [[1.0, 0.0], [0.0, 0.0]]
    inner = [[0.1, 0.0], [0.0, 0.1]]
    return SpectralModel(L=2, bands=[Band(-0.5, -0.25, outer), Band(-0.25, 0.25, inner), Band(0.25, 0.5, outer)])


class TestComplexHelpers:
    def test_scalar_density_from_cross_term(self, grid):
        nodes = grid.nodes
        on = (np.abs(nodes) < 0.25).astype(float)
        q = np.where(nodes > 0, 0.5, -0.5) * on  # antisymmetric
        pos = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        model = SpectralModel(L=2, bands=[Band(-0.25, 0.0, pos.conj()), Band(0.0, 0.25, pos)])
        s_z = _scalar_density(rank_integral(model, grid).matrices)
        assert np.allclose(s_z, 2.0 * on + 2.0 * q * on)

    def test_degenerate_imaginary_part(self, grid):
        s_r = (np.abs(grid.nodes) < 0.25).astype(float)
        model = SpectralModel(L=2, bands=[Band(-0.25, 0.25, [[1.0, 0.0], [0.0, 0.0]])])
        assert np.allclose(_scalar_density(rank_integral(model, grid).matrices), s_r)

    def test_identical_parts_rank_one(self, grid):
        s = (np.abs(grid.nodes) < 0.25).astype(float) * 1.5
        model = SpectralModel(L=2, bands=[Band(-0.25, 0.25, np.full((2, 2), 1.5))])
        ri = rank_integral(model, grid)
        eig = np.linalg.eigvalsh(ri.matrices)
        # eigenvalues of [[s, s], [s, s]] are {2s, 0}
        assert np.allclose(eig[:, 1], 2.0 * s)
        assert np.allclose(eig[:, 0], 0.0, atol=1e-12)
        assert ri.value == pytest.approx(0.5, abs=1e-3)

    def test_psd_violation_names_node(self, grid):
        # constant S_R = S_I = 1 with a cross density of 1.5: S_R * S_I < |S_RI|^2 everywhere
        terms = [RationalTerm(0, 0, (1.0,), (1.0,)), RationalTerm(1, 1, (1.0,), (1.0,)),
                 RationalTerm(0, 1, (1.5,), (1.0,))]
        model = SpectralModel(L=2, arma_terms=terms, validate=False)
        with pytest.raises(ModelValidationError, match="not PSD at theta="):
            rank_integral(model, grid)

    def test_properness_of_benchmarks(self, proper_flat, corr_pair, grid):
        assert properness_check(rank_integral(proper_flat, grid)).proper
        # identical real and imaginary parts: real positive cross density
        assert not properness_check(rank_integral(corr_pair, grid)).proper

    def test_unequal_marginals_not_proper(self, grid):
        model = SpectralModel(L=2, bands=[Band(-0.25, 0.25, [[2.0, 0.0], [0.0, 1.0]])])
        rep = properness_check(rank_integral(model, grid))
        assert not rep.proper
        assert rep.max_density_mismatch == pytest.approx(1.0)

    def test_support_bound_cases(self, grid):
        from gaussdim.benchmarks import (
            matched_support_nonproper,
            proper_complex_flat,
            real_only_complex,
        )

        sb = support_bound(rank_integral(proper_complex_flat(), grid))
        assert sb.tight and sb.dimension == pytest.approx(1.0, abs=1e-12)
        sb = support_bound(rank_integral(real_only_complex(), grid))
        assert sb.dimension == pytest.approx(0.5, abs=1e-12)
        assert sb.bound == pytest.approx(1.0, abs=1e-12)
        assert not sb.tight
        sb = support_bound(rank_integral(matched_support_nonproper(), grid))
        assert sb.tight and sb.dimension == pytest.approx(1.0, abs=1e-12)

    def test_bound_never_violated_on_random_bivariate(self):
        rng = np.random.default_rng(8)
        g = FrequencyGrid(128)
        for _ in range(20):
            lo = rng.integers(1, 16) / 64.0
            hi = lo + rng.integers(1, 16) / 64.0
            mat = _random_psd(rng, 2, rank=rng.integers(1, 3))
            model = SpectralModel(L=2, bands=[Band(lo, min(hi, 0.5), mat), Band(-min(hi, 0.5), -lo, mat.conj())])
            sb = support_bound(rank_integral(model, g))
            assert sb.dimension <= sb.bound + sb.tolerance


    def test_support_bound_counts_grid_nodes_for_rational_terms(self, grid):
        ri = rank_integral(_rational_pair(), grid)
        assert ri.method == "grid" and properness_check(ri).proper
        sb = support_bound(ri)
        assert (sb.dimension, sb.bound, sb.tolerance) == (2.0, 2.0, 4.0 / grid.n) and sb.tight
        # AR(1) real part, imaginary part on |theta| < 1/4 only: rank 2 inside, 1 outside
        model = SpectralModel(
            L=2, bands=[Band(-0.25, 0.25, [[0.0, 0.0], [0.0, 1.0]])], arma_terms=[RationalTerm(0, 0, *_AR1)]
        )
        sb = support_bound(rank_integral(model, grid))
        assert (sb.dimension, sb.bound, sb.gap) == (1.5, 2.0, 0.5) and not sb.tight

    def test_support_bound_grid_measure_counts_scalar_density_nodes(self, grid):
        model = SpectralModel(L=2, arma_terms=[RationalTerm(0, 0, *_AR1), RationalTerm(1, 1, (0.1,), (1.0,))])
        ri = rank_integral(model, grid, rel_tol=0.3)
        mats = eval_spectrum(model, grid)
        s_z = mats[:, 0, 0].real + mats[:, 1, 1].real
        assert support_bound(ri).bound == 2.0 * np.count_nonzero(s_z > 0.3 * s_z.max()) / grid.n

    def test_violated_bound_is_a_negative_gap(self, grid):
        sb = support_bound(rank_integral(_crossed_tolerance_pair(), grid, rel_tol=0.3))
        assert (sb.dimension, sb.bound, sb.gap) == (1.5, 1.0, -0.5) and not sb.tight
        model = SpectralModel(L=2, arma_terms=[RationalTerm(0, 0, *_AR1), RationalTerm(1, 1, (0.1,), (1.0,))])
        sb = support_bound(rank_integral(model, grid, rel_tol=0.3))
        assert sb.gap < -sb.tolerance and not sb.tight

    def test_complex_checks_need_a_bivariate_model(self, white, grid):
        ri = rank_integral(white, grid)
        for check in (properness_check, support_bound):
            with pytest.raises(ValueError, match="bivariate"):
                check(ri)


class TestNormalization:
    def test_unit_variance_is_identity(self, white, grid):
        res = normalize_components(white, grid)
        assert res.dropped == ()
        assert np.allclose(res.scales, 1.0)
        assert rank_integral(res.model, grid).value == pytest.approx(1.0)

    def test_zero_variance_component_dropped(self, grid):
        mat = np.array([[2.0, 0.0], [0.0, 0.0]])
        model = SpectralModel(L=2, bands=[Band(-0.25, 0.25, mat)])
        res = normalize_components(model, grid)
        assert res.model.L == 1 and res.dropped == (1,)
        assert rank_integral(res.model, grid).value == pytest.approx(
            rank_integral(model, grid).value, abs=1e-12
        )
        assert component_variances(res.model, grid)[0] == pytest.approx(1.0)

    def test_scaling_leaves_rank_unchanged(self, halfband_pair, grid):
        scaled = _congruence(halfband_pair, np.arange(2), np.array([3.0, 1.0]))
        assert rank_integral(scaled, grid).value == pytest.approx(
            rank_integral(halfband_pair, grid).value, abs=1e-12
        )

    def test_total_power_includes_lines(self, grid):
        var = component_variances(line_process(theta=0.125, power=0.5), grid)
        assert var[0] == pytest.approx(1.0)  # two conjugate lines of power 0.5


def _s_z(mat):
    return float(mat[0, 0].real + mat[1, 1].real + 2 * mat[0, 1].imag)


def _per_band_support_measure(model, rel_tol, abs_floor):
    """Reference: the support measure with the S_Z peak taken over the bands
    and S_Z summed per band on each segment, as before the segment walker."""
    edges = sorted({-0.5, 0.5, *(b.lo for b in model.bands), *(b.hi for b in model.bands)})
    peak = max((_s_z(b.matrix) for b in model.bands), default=0.0)
    thresh = rel_tol * max(peak, abs_floor)
    measure = 0.0
    for a, b in zip(edges, edges[1:]):
        if b - a <= 1e-15:
            continue
        mid = 0.5 * (a + b)
        s_z = 0.0
        for band in model.bands:
            if band.lo <= mid < band.hi:
                s_z += _s_z(band.matrix)
        if s_z > thresh:
            measure += b - a
    return 2.0 * measure


class TestBandSegments:
    @pytest.mark.parametrize("name", sorted(n for n, (builder, _) in MODELS.items() if not builder().arma_terms))
    def test_values_equal_recorded_reference(self, name, grid):
        model = MODELS[name][0]()
        reference = Path(__file__).parents[1] / "perfbench" / "reference.json"
        ref = json.loads(reference.read_text())["analytic_fine_grid"]
        result = rank_integral(model, grid)
        assert result.method == "segment-exact"
        assert result.value == ref[f"analyze/{name}/rank_integral/segment-exact/value"]
        if model.L == 2:
            assert support_bound(rank_integral(model, grid)).bound == ref[f"analyze/{name}/support_bound/segment/reference"]

    @given(band_model_params(), st.sampled_from([1e-9, 0.3, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_support_peak_over_segments_equals_peak_over_bands(self, params, rel_tol):
        # Validated bands do not overlap, so every segment carries at most one
        # band and the largest segment S_Z is the largest band S_Z; a rel_tol
        # near 1 makes the peak decide which segments count.
        _, seed, edges, ranks = params
        model = _build_band_model(2, seed, edges, ranks)
        seg_peak = max((_s_z(mat) for _, mat in _band_segments(model)), default=0.0)
        band_peak = max((_s_z(b.matrix) for b in model.bands), default=0.0)
        assert max(seg_peak, RANK_ABS_FLOOR) == max(band_peak, RANK_ABS_FLOOR)
        expected = _per_band_support_measure(model, rel_tol, RANK_ABS_FLOOR)
        assert _segment_support_measure(model, rel_tol, RANK_ABS_FLOOR) == expected

    def test_support_bound_uses_its_tolerances_for_the_dimension(self, grid):
        model = SpectralModel(L=2, bands=[Band(-0.5, 0.5, [[1.0, 0.0], [0.0, 1e-6]])])
        assert support_bound(rank_integral(model, grid)).dimension == 2.0
        sb = support_bound(rank_integral(model, grid, rel_tol=1e-3))
        assert sb.dimension == rank_integral(model, grid, rel_tol=1e-3).value == 1.0
        assert sb.bound == 2.0


def _grid_eigen_passes(monkeypatch, config, n):
    """Run one task and count eigen-passes over n-node stacks: calls of the
    grid eigenvalue helper, plus np.linalg.eigvalsh calls made outside it."""
    real_helper, real_eigvalsh = spectral._stack_eigvalsh, np.linalg.eigvalsh
    calls, depth = [], []

    def helper_spy(mats):
        if len(mats) == n:
            calls.append("helper")
        depth.append(1)
        try:
            return real_helper(mats)
        finally:
            depth.pop()

    def eigvalsh_spy(a, *args, **kwargs):
        if not depth and np.ndim(a) == 3 and len(a) == n:
            calls.append("eigvalsh")
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(spectral, "_stack_eigvalsh", helper_spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
    run(config)
    return len(calls)


# Small Monte Carlo settings: the spy counts grid eigen-passes, not estimate quality.
_SMALL_ESTIMATE = {
    "seed": 3, "paths": 2000, "m_ladder": [2, 4],
    "surrogate_m_ladder": [16, 64], "surrogate_paths": 4, "surrogate_k": 2048,
}
_SMALL_VERIFY = {"seed": 3, "verify_paths": 2000, "m_ladder": [2, 4]}


class TestEigenPasses:
    @pytest.mark.parametrize(
        "task, builder",
        [
            ("analyze", white_noise),
            ("analyze", lambda: ar1(0.6)),
            ("analyze", correlated_pair),
            ("analyze", _rational_pair),
            ("complex", correlated_pair),
            ("complex", _rational_pair),
            ("rd", white_noise),
            ("rd", correlated_pair),
            ("estimate", white_noise),
            ("estimate", correlated_pair),
            ("verify", white_noise),
            ("verify", correlated_pair),
        ],
        ids=["analyze-white", "analyze-ar1", "analyze-pair", "analyze-rational-pair", "complex-pair",
             "complex-rational-pair", "rd-white", "rd-pair", "estimate-white", "estimate-pair",
             "verify-white", "verify-pair"],
    )
    def test_passes_per_task(self, monkeypatch, tmp_path, task, builder):
        config = {"task": task, "model": model_to_document(builder()), "grid_n": 2048}
        if task == "rd":
            config["out"] = str(tmp_path / "rd.json")
        config.update({"estimate": _SMALL_ESTIMATE, "verify": _SMALL_VERIFY}.get(task, {}))
        passes = _grid_eigen_passes(monkeypatch, config, 2048)
        assert passes == 1


@st.composite
def psd_pair_stacks(draw):
    """(n, 2, 2) Hermitian PSD stacks [[a, conj b], [b, d]]: generic, rank-1
    (|b|^2 = a d, as in correlated_pair), diagonal with zero entries, and
    a ~ d with |b| ~ 1e-12 a, scaled by 10^-150 .. 10^150."""
    kind = draw(st.sampled_from(["generic", "rank1", "diagonal", "near_equal"]))
    exponent = draw(st.integers(min_value=-150, max_value=150))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    n = 64
    a, d = rng.exponential(size=n), rng.exponential(size=n)
    phase = np.exp(2j * np.pi * rng.uniform(size=n))
    if kind == "generic":
        b = np.sqrt(a * d) * rng.uniform(size=n) * phase
    elif kind == "rank1":
        b = np.sqrt(a * d) * phase
        b[::4] = a[::4] = d[::4]  # exactly [[c, c], [c, c]] on every fourth node
    elif kind == "diagonal":
        a[rng.uniform(size=n) < 0.25] = 0.0
        d[rng.uniform(size=n) < 0.25] = 0.0
        b = np.zeros(n)
    else:
        d = a * (1.0 + 1e-12 * rng.normal(size=n))
        b = 1e-12 * a * rng.uniform(0.5, 1.5, size=n) * phase
    mats = np.empty((n, 2, 2), dtype=complex)
    mats[:, 0, 0], mats[:, 1, 1], mats[:, 1, 0], mats[:, 0, 1] = a, d, b, np.conj(b)
    return mats * 10.0**exponent


def _three_component_model():
    """correlated_pair beside an independent narrowband component: rank 2 on
    |theta| < 0.2 and rank 1 outside, so dimension 1.4."""
    pair = np.zeros((3, 3))
    pair[:2, :2] = 1.0
    inner = pair.copy()
    inner[2, 2] = 2.5
    return SpectralModel(L=3, bands=[Band(-0.5, -0.2, pair), Band(-0.2, 0.2, inner), Band(0.2, 0.5, pair)])


class TestStackEigvalsh:
    @given(psd_pair_stacks())
    @settings(max_examples=80, deadline=None)
    def test_closed_form_agrees_with_lapack(self, mats):
        ref = np.linalg.eigvalsh(mats)
        got = _stack_eigvalsh(mats)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert got.shape == ref.shape
        assert (np.abs(got - ref) <= 8 * np.finfo(float).eps * scale).all()

    def test_scalar_stack_is_its_real_diagonal(self):
        mats = np.arange(5.0).reshape(5, 1, 1) + 0j
        assert np.array_equal(_stack_eigvalsh(mats), np.linalg.eigvalsh(mats))

    @pytest.mark.parametrize("n", [4096, 65536])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_ranks_match_lapack_on_every_model(self, name, n):
        ri = rank_integral(MODELS[name][0](), FrequencyGrid(n))
        lapack = np.linalg.eigvalsh(ri.matrices)[:, ::-1]
        assert np.array_equal(ri.profile.ranks, _numerical_ranks(lapack, ri.profile.rel_tol, ri.profile.abs_floor))

    def test_three_components_take_lapack(self, monkeypatch, grid):
        model = _three_component_model()
        real, stacks = np.linalg.eigvalsh, []

        def spy(a, *args, **kwargs):
            if np.ndim(a) == 3:
                stacks.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        ri = rank_integral(model, grid)
        assert len(stacks) == 1 and stacks[0] is ri.matrices
        assert np.array_equal(ri.profile.eigenvalues, real(ri.matrices)[:, ::-1])
        assert ri.value == pytest.approx(1.4, abs=1e-12)
        assert ri.profile.mean_rank == pytest.approx(1.4, abs=2.0 / grid.n)


def _identity_stack(L, n=64):
    nodes = FrequencyGrid(n).nodes
    return np.broadcast_to(np.eye(L, dtype=complex), (n, L, L)).copy(), nodes


class TestCheckNodes:
    """Each failure names its first offending node, as the per-node check did."""

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_valid_stack_returns_its_eigenvalues(self, L):
        mats, nodes = _identity_stack(L)
        assert np.array_equal(_check_nodes(mats, nodes), np.ones((64, L)))

    @pytest.mark.parametrize("L", [2, 3])
    def test_non_hermitian_stack(self, L):
        mats, nodes = _identity_stack(L)
        mats[10, 0, 1] += 1.0
        mats[53, 0, 1] += 2.0
        with pytest.raises(ModelValidationError, match=re.escape("density not Hermitian at theta=+0.335938")):
            _check_nodes(mats, nodes)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_unmirrored_stack(self, L):
        mats, nodes = _identity_stack(L)
        mats[10] *= 2.0
        with pytest.raises(
            ModelValidationError, match=re.escape("S(-t)=conj(S(t)) violated at theta=-0.335938 (error 1.000e+00)")
        ):
            _check_nodes(mats, nodes)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_non_psd_stack(self, L):
        mats, nodes = _identity_stack(L)
        for j, value in ((20, -0.5), (43, -0.5), (25, -1.0), (38, -1.0)):
            mats[j, 0, 0] = value
        with pytest.raises(
            ModelValidationError, match=re.escape("density not PSD at theta=-0.179688 (min eigenvalue -5.000e-01)")
        ):
            _check_nodes(mats, nodes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_stack(self, bad):
        mats, nodes = _identity_stack(2)
        mats[7, 1, 1] = bad
        mats[56, 1, 1] = np.conj(bad)
        with pytest.raises(ModelValidationError, match=re.escape("density not finite at theta=-0.382812")):
            _check_nodes(mats, nodes)
