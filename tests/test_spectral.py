"""Spectral models, the rank integral, and the complex-process helpers."""

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussdim import spectral
from gaussdim.benchmarks import (
    MODELS,
    ar1,
    correlated_pair,
    delayed_copy,
    line_process,
    narrowband,
    proper_complex_flat,
    white_noise,
)
from gaussdim.experiments import run
from gaussdim.modelio import model_from_document, model_to_document
from gaussdim.ratedist import rd_dimension_estimate
from gaussdim.simulate import autocovariance_from_spectrum
from gaussdim.spectral import (
    RANK_ABS_FLOOR,
    Band,
    PROPERNESS_TOL,
    FrequencyGrid,
    ModelValidationError,
    PropernessReport,
    RationalTerm,
    SpectralModel,
    _band_pieces,
    _check_nodes,
    _congruence,
    _numerical_ranks,
    _scalar_density,
    _stack_eigvalsh,
    component_variances,
    normalize_components,
    properness_check,
    rank_integral,
    support_bound,
)

from conftest import per_node


class TestEvalSpectrum:
    def test_white_noise_constant(self, white, grid):
        ri = rank_integral(white, grid)
        mats = per_node(ri, ri.piece_matrices)
        assert mats.shape == (4096, 1, 1)
        assert np.allclose(mats[:, 0, 0], 1.0)

    def test_band_indicator(self, grid):
        model = SpectralModel(L=1, bands=[Band(-0.25, 0.25, [[2.0]])])
        ri = rank_integral(model, grid)
        vals = per_node(ri, ri.piece_matrices)[:, 0, 0].real
        inside = np.abs(grid.nodes) < 0.25
        assert np.allclose(vals[inside], 2.0)
        assert np.allclose(vals[~inside], 0.0)

    def test_all_ones_pair_eigenvalues(self, corr_pair, grid):
        ri = rank_integral(corr_pair, grid)
        eig = np.linalg.eigvalsh(per_node(ri, ri.piece_matrices))
        assert np.allclose(eig[:, 0], 0.0, atol=1e-12)
        assert np.allclose(eig[:, 1], 2.0)

    def test_lines_do_not_contribute(self, grid):
        ri = rank_integral(line_process(), grid)
        assert np.abs(per_node(ri, ri.piece_matrices)).max() == 0.0

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

    @pytest.mark.parametrize("bands, value", [
        ([Band(-0.5, 0.1, [[1.0]]), Band(0.1, 0.5, [[1.0]])], 1.0),  # white noise, split off the origin
        ([Band(-0.1 - 0.2, -0.1, [[1.0]]), Band(0.1, 0.3, [[1.0]])], 0.4),  # edges that mirror up to rounding
        ([Band(0.1, 0.3, [[1.0]])], None),
        ([Band(0.1, 0.1005, [[1.0]])], None),  # narrower than 1/512: no node of the probe grid falls in it
    ], ids=["split", "rounded-edges", "unmirrored", "narrow-unmirrored"])
    def test_mirror_check_reads_the_piece_stack(self, bands, value):
        """The mirror rule is checked on the density, piece against mirrored piece, not band
        against band: a band's mirror may be cut across two bands, and a piece no grid node
        falls in is still checked at construction."""
        if value is None:
            with pytest.raises(ModelValidationError, match="mirror"):
                SpectralModel(L=1, bands=bands)
        else:
            assert rank_integral(SpectralModel(L=1, bands=bands)).value == value

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


def _polyval_rational(model, nodes):
    """Reference: each rational term by np.polynomial's polyval, into its own zero stack."""
    out = np.zeros((len(nodes), model.L, model.L), dtype=complex)
    z = np.exp(-2j * np.pi * nodes)
    for t in model.arma_terms:
        val = np.polynomial.polynomial.polyval(z, np.asarray(t.num)) / np.polynomial.polynomial.polyval(
            z, np.asarray(t.den)
        )
        out[:, t.row, t.col] += val
        if t.row != t.col:
            out[:, t.col, t.row] += val.conj()
    return out


class TestAssembly:
    @pytest.mark.parametrize("n", [66, 4098])
    def test_band_edge_on_a_node_fills_mirror_symmetrically(self, n):
        # the edges +-1/4 of narrowband(0.5) are grid nodes when n = 2 mod 4
        nodes = FrequencyGrid(n).nodes
        assert -0.25 in nodes and 0.25 in nodes
        ri = rank_integral(narrowband(0.5), FrequencyGrid(n))
        assert abs(ri.value - 0.5) <= 1.0 / n
        assert abs(ri.mean_rank - 0.5) <= 1.0 / n + 1e-15
        stack = per_node(ri, ri.piece_matrices)
        assert np.array_equal(stack[::-1], stack.conj())

    def test_edge_index_is_mirror_symmetric(self):
        nodes = FrequencyGrid(66).nodes
        edges = np.concatenate([nodes, [0.0, 0.5, 0.3, 0.25 + 1e-3]])
        got = spectral._band_edge_index(nodes, edges)
        assert np.array_equal(spectral._band_edge_index(nodes, -edges), len(nodes) - got)

    @pytest.mark.parametrize("n", [64, 4096, 65536])
    def test_dyadic_fill_is_the_half_open_searchsorted_fill(self, n):
        nodes = FrequencyGrid(n).nodes
        for name, (builder, _) in MODELS.items():
            model = builder()
            ref = np.zeros((n, model.L, model.L), dtype=complex)
            for b in model.bands:
                lo, hi = np.searchsorted(nodes, (b.lo, b.hi))
                ref[lo:hi] += b.matrix
            ref += _polyval_rational(model, nodes)
            ri = rank_integral(model, FrequencyGrid(n))
            assert per_node(ri, ri.piece_matrices).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("builder", [lambda: ar1(0.6), lambda: _rational_pair()], ids=["ar1", "pair"])
    def test_horner_equals_polyval(self, builder):
        model, nodes = builder(), FrequencyGrid(65536).nodes
        assert np.array_equal(spectral._eval_rational(model, nodes), _polyval_rational(model, nodes))


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
        assert abs(result.mean_rank - result.value) <= 2.0 / grid.n

    def test_min_resolution_enforced(self, white):
        with pytest.raises(ValueError, match="resolution"):
            rank_integral(white, FrequencyGrid(32))

    @pytest.mark.parametrize(
        "rel_tol, abs_floor",
        [(-1.0, 0.0), (1.0, 0.0), (2.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (1e-9, -5.0), (1e-9, np.nan), (1e-9, np.inf)],
    )
    def test_invalid_rank_tolerances_rejected(self, band04, grid, rel_tol, abs_floor):
        with pytest.raises(ValueError, match="rank tolerances"):
            rank_integral(band04, grid, rel_tol, abs_floor)

    def test_rank_histogram(self, halfband_pair, grid):
        hist = rank_integral(halfband_pair, grid).histogram()
        assert hist == {1: 1.0}

    def test_band_result_keeps_one_row_per_piece(self):
        ri = rank_integral(narrowband(0.4), FrequencyGrid(65536))
        assert "matrices" not in {f.name for f in dataclasses.fields(ri)}
        assert ri.piece_matrices.shape == (3, 1, 1) and ri.piece_lengths.shape == (3,)
        assert ri.eigenvalues.shape == (3, 1) and ri.ranks.shape == (3,)
        assert ri.counts.tolist() == [19661, 26214, 19661]
        assert ri.mean_rank == 26214 / 65536

    def test_band_result_memory_is_independent_of_the_grid(self):
        rank_integral(correlated_pair(), FrequencyGrid(64))  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ri = rank_integral(correlated_pair(), FrequencyGrid(65536))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ri.value == 1.0 and kept < 2**20  # a per-node (65536, 2, 2) stack alone is 4 MiB

    def test_arma_model_uses_grid(self, ar_model, grid):
        result = rank_integral(ar_model, grid)
        assert result.method == "grid"
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_rational_value_is_exact_at_every_grid(self):
        """A node-per-piece value is the integer rank sum over n, so a full-rank
        rational model reads exactly 1 on non-dyadic grids too (a float sum of
        1/n per node reads 0.9999999999999999 at n = 68)."""
        model = ar1(0.6)
        wrong = [n for n in range(64, 8193, 2) if rank_integral(model, FrequencyGrid(n)).value != 1.0]
        assert wrong == []


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
        coarse = rank_integral(model, FrequencyGrid(n)).mean_rank
        fine = rank_integral(model, FrequencyGrid(2 * n)).mean_rank
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
        ri = rank_integral(model, grid)
        s_z = _scalar_density(per_node(ri, ri.piece_matrices))
        assert np.allclose(s_z, 2.0 * on + 2.0 * q * on)

    def test_degenerate_imaginary_part(self, grid):
        s_r = (np.abs(grid.nodes) < 0.25).astype(float)
        model = SpectralModel(L=2, bands=[Band(-0.25, 0.25, [[1.0, 0.0], [0.0, 0.0]])])
        ri = rank_integral(model, grid)
        assert np.allclose(_scalar_density(per_node(ri, ri.piece_matrices)), s_r)

    def test_identical_parts_rank_one(self, grid):
        s = (np.abs(grid.nodes) < 0.25).astype(float) * 1.5
        model = SpectralModel(L=2, bands=[Band(-0.25, 0.25, np.full((2, 2), 1.5))])
        ri = rank_integral(model, grid)
        eig = np.linalg.eigvalsh(per_node(ri, ri.piece_matrices))
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
        mats = per_node(ri, ri.piece_matrices)
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


class TestDelayedCopy:
    """The paper's rotating null space: delayed_copy(d) has rank 1 at every
    theta, but its null space turns with theta, so its dimension is 1."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_exact_references(self, d):
        model = delayed_copy(d)
        for n in (64, 66, 4096, 4098, 65536):
            ri = rank_integral(model, FrequencyGrid(n))
            assert ri.method == "grid" and abs(ri.value - 1.0) <= 1e-12, n
            assert abs(rd_dimension_estimate(ri).value - 1.0) <= 1e-10, n
            assert not properness_check(ri).proper
            sb = support_bound(ri)
            assert sb.dimension <= sb.bound + sb.tolerance, n
        doc = model_to_document(model)
        assert model_to_document(model_from_document(doc)[0]) == doc


class TestNormalization:
    def test_unit_variance_is_identity(self, white, grid):
        res = normalize_components(white)
        assert res.kept == (0,)
        assert autocovariance_from_spectrum(res.model, 0).matrices[0, 0, 0] == 1.0
        assert rank_integral(res.model, grid).value == pytest.approx(1.0)

    def test_zero_variance_component_dropped(self, grid):
        mat = np.array([[2.0, 0.0], [0.0, 0.0]])
        model = SpectralModel(L=2, bands=[Band(-0.25, 0.25, mat)])
        res = normalize_components(model)
        assert res.model.L == 1 and res.kept == (0,)
        assert rank_integral(res.model, grid).value == pytest.approx(
            rank_integral(model, grid).value, abs=1e-12
        )
        assert component_variances(res.model)[0] == pytest.approx(1.0)

    def test_scaling_leaves_rank_unchanged(self, halfband_pair, grid):
        scaled = _congruence(halfband_pair, np.arange(2), np.array([3.0, 1.0]))
        assert rank_integral(scaled, grid).value == pytest.approx(
            rank_integral(halfband_pair, grid).value, abs=1e-12
        )

    def test_total_power_includes_lines(self):
        var = component_variances(line_process(theta=0.125, power=0.5))
        assert var[0] == pytest.approx(1.0)  # two conjugate lines of power 0.5

    @pytest.mark.parametrize("rho", [0.6, 0.95, 0.99])
    def test_rational_model_normalizes_to_its_own_lag_zero(self, rho):
        """The variance comes from the lag integral, not from a rank-integral
        grid: a 64-node midpoint sum gives 1.078 at rho = 0.95 and 3.216 at 0.99."""
        res = normalize_components(ar1(rho))
        c0 = autocovariance_from_spectrum(res.model, 0).matrices[0, 0, 0]
        assert abs(c0 - 1.0) <= 1e-12

    def test_near_unit_root_law_does_not_depend_on_the_path_length(self):
        # the quadrature is sized from the pole radius too: 65536 nodes at every tau_max for rho = 0.999,
        # where 4096 nodes gave C(0) = 0.967 at tau_max 0 and a normalized C(0) of 1.034 at tau_max 4095
        model = normalize_components(ar1(0.999)).model
        c0 = [autocovariance_from_spectrum(model, tau_max).matrices[0, 0, 0] for tau_max in (0, 4095)]
        assert c0[0] == c0[1] and abs(c0[0] - 1.0) <= 1e-12

    @pytest.mark.parametrize("rho", [0.6, 0.95, 0.99])
    @pytest.mark.parametrize("tau_max", [0, 4095])
    def test_quadrature_away_from_the_unit_circle_is_sized_from_tau_max(self, rho, tau_max):
        ref = _tau_sized_rational_lags(ar1(rho), tau_max)
        assert spectral._lag_integrals(ar1(rho), tau_max).tobytes() == ref.tobytes()
        assert autocovariance_from_spectrum(ar1(rho), tau_max).matrices.tobytes() == ref.real.tobytes()

    def test_pole_too_close_to_the_unit_circle_is_refused(self):
        with pytest.raises(ModelValidationError, match="unit circle"):
            component_variances(ar1(0.99999))


def _tau_sized_rational_lags(model, tau_max):
    """Reference: the lag integrals of a rational-only model on a midpoint FFT
    quadrature of max(4096, 8 (tau_max + 1)) nodes, sized from tau_max alone."""
    n = max(4096, 1 << int(np.ceil(np.log2(8 * (tau_max + 1)))))
    c = np.zeros((tau_max + 1, model.L, model.L), dtype=complex)
    spec = np.fft.fft(spectral._eval_rational(model, FrequencyGrid(n).nodes), axis=0)[: tau_max + 1]
    c += np.exp(1j * np.pi * np.arange(tau_max + 1) * (1.0 - 1.0 / n))[:, None, None] * spec / n
    return c


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
        # Validated bands do not overlap, so every piece carries at most one
        # band and the largest piece S_Z is the largest band S_Z; a rel_tol
        # near 1 makes the peak decide which pieces count.
        _, seed, edges, ranks = params
        model, grid = _build_band_model(2, seed, edges, ranks), FrequencyGrid(128)
        piece_peak = max(_s_z(mat) for mat in _band_pieces(model, grid.nodes)[1])
        band_peak = max((_s_z(b.matrix) for b in model.bands), default=0.0)
        assert max(piece_peak, RANK_ABS_FLOOR) == max(band_peak, RANK_ABS_FLOOR)
        expected = _per_band_support_measure(model, rel_tol, RANK_ABS_FLOOR)
        assert support_bound(rank_integral(model, grid, rel_tol=rel_tol)).bound == expected

    def test_support_bound_uses_its_tolerances_for_the_dimension(self, grid):
        model = SpectralModel(L=2, bands=[Band(-0.5, 0.5, [[1.0, 0.0], [0.0, 1e-6]])])
        assert support_bound(rank_integral(model, grid)).dimension == 2.0
        sb = support_bound(rank_integral(model, grid, rel_tol=1e-3))
        assert sb.dimension == rank_integral(model, grid, rel_tol=1e-3).value == 1.0
        assert sb.bound == 2.0

    @pytest.mark.parametrize(
        "w, pinned",
        [
            (0.3, {4096: 1.2998046875, 65536: 1.29998779296875}),
            (0.37, {4096: 1.3701171875, 65536: 1.3699951171875}),
            (0.1234, {4096: 1.12353515625, 65536: 1.1234130859375}),
        ],
    )
    def test_band_beside_rational_term_counts_nodes(self, w, pinned):
        # narrowband(w) beside an independent AR(0.6): each node is its own
        # piece, so the value is 1 + (nodes inside the band) / n, and S_Z > 0
        # everywhere
        model = SpectralModel(L=2, bands=[Band(-w / 2, w / 2, [[1 / w, 0.0], [0.0, 0.0]])],
                              arma_terms=[RationalTerm(1, 1, *_AR1)])
        for n, value in pinned.items():
            ri = rank_integral(model, FrequencyGrid(n))
            assert (ri.method, ri.value) == ("grid", value)
            assert support_bound(ri).bound == 2.0


def _grid_eigen_passes(monkeypatch, config, n):
    """Run one task and count its grid eigen-passes: every call of the grid
    eigenvalue helper at any stack size (a band model's pass diagonalizes one
    matrix per piece between its band edges), except those of the 512-node
    probe that `_validate_model` runs on rational models, plus
    np.linalg.eigvalsh calls on n-node stacks made outside the helper."""
    real_helper, real_eigvalsh = spectral._stack_eigvalsh, np.linalg.eigvalsh
    real_validate = spectral._validate_model
    calls, depth, probing = [], [], []

    def helper_spy(mats):
        if not probing:
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

    def validate_spy(model):
        probing.append(1)
        try:
            return real_validate(model)
        finally:
            probing.pop()

    monkeypatch.setattr(spectral, "_stack_eigvalsh", helper_spy)
    monkeypatch.setattr(spectral, "_validate_model", validate_spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
    run(config)
    return len(calls)


# Small Monte Carlo settings (the surrogate's are fixed): the spy counts grid eigen-passes, not estimate quality.
_SMALL_ESTIMATE = {"seed": 3, "paths": 2000, "m_ladder": [2, 4]}
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
        lapack = np.linalg.eigvalsh(per_node(ri, ri.piece_matrices))[:, ::-1]
        ranks = _numerical_ranks(lapack, ri.rel_tol, ri.abs_floor)
        assert np.array_equal(per_node(ri, ri.ranks), ranks)

    def test_three_components_take_lapack(self, monkeypatch, grid):
        model = _three_component_model()
        real, stacks = np.linalg.eigvalsh, []

        def spy(a, *args, **kwargs):
            if np.ndim(a) == 3:
                stacks.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        ri = rank_integral(model, grid)
        # one matrix per piece, and each of the three pieces holds nodes: the
        # first node and every node where the stack changes
        stack = per_node(ri, ri.piece_matrices)
        changes = np.flatnonzero((stack[1:] != stack[:-1]).any(axis=(1, 2))) + 1
        representatives = stack[np.concatenate(([0], changes))]
        assert len(stacks) == 1 and len(stacks[0]) == 3 and np.array_equal(stacks[0], representatives)
        assert np.array_equal(per_node(ri, ri.eigenvalues), real(stack)[:, ::-1])
        assert ri.value == pytest.approx(1.4, abs=1e-12)
        assert ri.mean_rank == pytest.approx(1.4, abs=2.0 / grid.n)


def _identity_stack(L, n=64):
    nodes = FrequencyGrid(n).nodes
    return np.broadcast_to(np.eye(L, dtype=complex), (n, L, L)).copy(), nodes


_EVERY_NODE = np.ones(64, dtype=int)  # each node its own piece, as for a model with rational terms


class TestCheckNodes:
    """Each failure names its first offending node, as the per-node check did."""

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_valid_stack_returns_its_eigenvalues(self, L):
        mats, nodes = _identity_stack(L)
        assert np.array_equal(_check_nodes(mats, nodes, _EVERY_NODE), np.ones((64, L)))

    @pytest.mark.parametrize("L", [2, 3])
    def test_non_hermitian_stack(self, L):
        mats, nodes = _identity_stack(L)
        mats[10, 0, 1] += 1.0
        mats[53, 0, 1] += 2.0
        with pytest.raises(ModelValidationError, match=re.escape("density not Hermitian at theta=+0.335938")):
            _check_nodes(mats, nodes, _EVERY_NODE)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_unmirrored_stack(self, L):
        mats, nodes = _identity_stack(L)
        mats[10] *= 2.0
        with pytest.raises(
            ModelValidationError, match=re.escape("S(-t)=conj(S(t)) violated at theta=-0.335938 (error 1.000e+00)")
        ):
            _check_nodes(mats, nodes, _EVERY_NODE)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_non_psd_stack(self, L):
        mats, nodes = _identity_stack(L)
        for j, value in ((20, -0.5), (43, -0.5), (25, -1.0), (38, -1.0)):
            mats[j, 0, 0] = value
        with pytest.raises(
            ModelValidationError, match=re.escape("density not PSD at theta=-0.179688 (min eigenvalue -5.000e-01)")
        ):
            _check_nodes(mats, nodes, _EVERY_NODE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_stack(self, bad):
        mats, nodes = _identity_stack(2)
        mats[7, 1, 1] = bad
        mats[56, 1, 1] = np.conj(bad)
        with pytest.raises(ModelValidationError, match=re.escape("density not finite at theta=-0.382812")):
            _check_nodes(mats, nodes, _EVERY_NODE)

    def test_pieces_without_a_node_are_diagonalized_not_checked(self):
        # five mirror-closed pieces over 64 nodes; pieces 1 and 3 hold none
        nodes = FrequencyGrid(64).nodes
        counts = np.array([20, 0, 24, 0, 20])
        mats = np.ones((5, 1, 1), dtype=complex)
        mats[1, 0, 0] = -3.0  # not PSD, but holds no node
        assert np.array_equal(_check_nodes(mats, nodes, counts), mats[:, :, 0].real)
        mats[2, 0, 0] = -1.0  # the first node of piece 2 is node 20
        with pytest.raises(ModelValidationError, match=re.escape(f"density not PSD at theta={nodes[20]:+.6f}")):
            _check_nodes(mats, nodes, counts)


def _per_node_check(mats, nodes):
    """Reference: the per-node validation and eigen-pass as it was before the
    run pass, every check over the whole (n, L, L) stack."""
    scale = 1.0 + np.abs(mats).max(initial=0.0)
    if not np.isfinite(scale):
        j = int(np.argmin(np.isfinite(mats).all(axis=(1, 2))))
        raise ModelValidationError(f"density not finite at theta={nodes[j]:+.6f}")
    herm = np.abs(mats - mats.conj().transpose(0, 2, 1))
    if herm.max(initial=0.0) > spectral.PSD_TOL * scale:
        j = int(herm.max(axis=(1, 2)).argmax())
        raise ModelValidationError(f"density not Hermitian at theta={nodes[j]:+.6f}")
    sym = np.abs(mats[::-1] - mats.conj())
    if sym.max(initial=0.0) > spectral.SYMMETRY_TOL * scale:
        sym_err = sym.max(axis=(1, 2))
        j = int(sym_err.argmax())
        raise ModelValidationError(
            f"S(-t)=conj(S(t)) violated at theta={nodes[j]:+.6f} (error {sym_err[j]:.3e})"
        )
    eig = _stack_eigvalsh(mats)
    viol = eig[:, 0] < -spectral.PSD_TOL * np.maximum(1.0, eig[:, -1])
    if viol.any():
        j = int(np.argmax(viol))
        raise ModelValidationError(
            f"density not PSD at theta={nodes[j]:+.6f} (min eigenvalue {eig[j, 0]:.3e})"
        )
    return eig


def _slice_fill(model, nodes):
    """Reference: the density stack with each band added on its own slice of
    nodes, as before the pieces were shared."""
    out = spectral._eval_rational(model, nodes)
    for b in model.bands:
        lo, hi = spectral._band_edge_index(nodes, (b.lo, b.hi))
        out[lo:hi] += b.matrix
    return out


def _segment_value(model, rel_tol, abs_floor):
    """Reference: the band-only rank integral summed in order over the
    segments between the sorted band edges, one LAPACK call per segment."""
    edges = sorted({-0.5, 0.5, *(b.lo for b in model.bands), *(b.hi for b in model.bands)})
    value = 0.0
    for a, b in zip(edges, edges[1:]):
        if b - a <= 1e-15:
            continue
        mat = np.zeros((model.L, model.L), dtype=complex)
        for band in model.bands:
            if band.lo <= 0.5 * (a + b) < band.hi:
                mat += band.matrix
        value += int(_numerical_ranks(np.linalg.eigvalsh(mat)[::-1], rel_tol, abs_floor)) * (b - a)
    return value


def _assert_same_as_per_node_pass(model, grid):
    """rank_integral's pieces, eigenvalues and ranks repeated over their nodes, or its error
    message, equal the per-node reference's, and so do its mean rank and rank
    histogram; a band-only value is within 2 ulps of the segment loop's."""
    mats = _slice_fill(model, grid.nodes)
    try:
        eig = _per_node_check(mats, grid.nodes)[:, ::-1]
    except ModelValidationError as err:
        with pytest.raises(ModelValidationError) as got:
            rank_integral(model, grid)
        assert str(got.value) == str(err)
        return False
    ri = rank_integral(model, grid)
    ranks = _numerical_ranks(eig, ri.rel_tol, ri.abs_floor)
    assert per_node(ri, ri.piece_matrices).tobytes() == mats.tobytes()
    assert per_node(ri, ri.eigenvalues).tobytes() == np.ascontiguousarray(eig).tobytes()
    assert np.array_equal(per_node(ri, ri.ranks), ranks)
    assert ri.mean_rank == float(ranks.mean())
    values, counts = np.unique(ranks, return_counts=True)
    assert ri.histogram() == {int(v): float(c) / len(ranks) for v, c in zip(values, counts)}
    if not model.arma_terms:
        ref = _segment_value(model, ri.rel_tol, ri.abs_floor)
        assert abs(ri.value - ref) <= 2 * np.spacing(ref)
    return True


@st.composite
def run_pass_band_models(draw):
    """(bands, L, grid): 1-4 mirrored band pairs of L = 1..3 random PSD matrices
    (ranks 0..L) on an even grid of 64..8192 nodes.  Band edges fall anywhere,
    exactly on a grid node, at 0 or at +-1/2; bands may be narrower than one
    node spacing and may touch; an optional real band straddles 0."""
    L = draw(st.integers(min_value=1, max_value=3))
    n = 2 * draw(st.integers(min_value=32, max_value=4096))
    positive = FrequencyGrid(n).nodes[n // 2:]
    point = st.one_of(
        st.floats(min_value=0.0, max_value=0.5),
        st.sampled_from([0.0, 0.5]),
        st.integers(min_value=0, max_value=n // 2 - 1).map(lambda j: float(positive[j])),
    )
    starts = sorted(set(draw(st.lists(point, min_size=1, max_size=4))))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))

    def matrix():
        return _random_psd(rng, L, rank=int(rng.integers(0, L + 1))) * 10.0 ** rng.uniform(-3, 3)

    bands = []
    if starts[0] > 1e-9 and draw(st.booleans()):
        bands.append(Band(-starts[0], starts[0], matrix().real))
    for lo, nxt in zip(starts, starts[1:] + [0.5]):
        if nxt - lo <= 1e-9:
            continue
        kind = draw(st.sampled_from(["narrow", "touch", "node", "fraction"]))
        if kind == "narrow":
            hi = lo + draw(st.floats(min_value=0.05, max_value=0.95)) / n
        elif kind == "node":
            above = positive[positive > lo]
            hi = float(above[draw(st.integers(min_value=0, max_value=3)) % len(above)]) if len(above) else nxt
        elif kind == "fraction":
            hi = lo + draw(st.floats(min_value=0.05, max_value=1.0)) * (nxt - lo)
        else:
            hi = nxt
        hi = min(hi, nxt)
        if hi - lo <= 1e-9:
            continue
        mat = matrix()
        bands += [Band(lo, hi, mat), Band(-hi, -lo, mat.conj())]
    return bands, L, FrequencyGrid(n)


class TestRunPass:
    """The once-per-piece validation and eigen-pass equals the per-node one."""

    @given(run_pass_band_models())
    @settings(max_examples=120, deadline=None)
    def test_band_models_match_the_per_node_pass(self, case):
        bands, L, grid = case
        _assert_same_as_per_node_pass(SpectralModel(L=L, bands=bands), grid)

    @given(run_pass_band_models())
    @settings(max_examples=60, deadline=None)
    def test_pieces_are_their_own_mirror_image(self, case):
        bands, L, grid = case
        lengths, mats, counts = _band_pieces(SpectralModel(L=L, bands=bands), grid.nodes)
        assert np.array_equal(lengths, lengths[::-1]) and np.array_equal(counts, counts[::-1])
        assert np.array_equal(mats[::-1], mats.conj()) and counts.sum() == grid.n

    @given(run_pass_band_models(), st.sampled_from(["unmirrored", "non_psd", "non_hermitian", "non_finite"]),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=120, deadline=None)
    def test_invalid_bands_raise_the_per_node_message(self, case, fault, which):
        bands, L, grid = case
        assume(bands)
        model = SpectralModel(L=L, bands=bands, validate=False)
        bands = list(model.bands)
        j = which % len(bands)
        if fault == "unmirrored":
            del bands[j]
        else:
            mat = np.array(bands[j].matrix)
            if fault == "non_psd":
                mat[0, 0] -= 1.0 + np.abs(mat).max()
            elif fault == "non_hermitian":
                mat[-1, 0] += 0.5 + 1j
            else:
                mat[0, -1] = np.nan
            bands[j] = Band(bands[j].lo, bands[j].hi, mat)  # a matrix SpectralModel would reject
        object.__setattr__(model, "bands", tuple(bands))  # bypass the per-band checks of __post_init__
        _assert_same_as_per_node_pass(model, grid)

    @pytest.mark.parametrize("n", [64, 4096])
    def test_edges_on_nodes_and_narrow_bands(self, n):
        nodes = FrequencyGrid(n).nodes
        below = float(nodes[nodes < 0.3][-1])
        narrow = (below + 0.25 / n, below + 0.75 / n)  # strictly between two nodes, so no node is filled
        cases = {
            "on-node": [Band(-float(nodes[n - 3]), -float(nodes[n // 2 + 2]), [[1.0]]),
                        Band(float(nodes[n // 2 + 2]), float(nodes[n - 3]), [[1.0]])],
            "narrow": [Band(-narrow[1], -narrow[0], [[2.0]]), Band(*narrow, [[2.0]])],
            "to-half": [Band(-0.5, -0.25, [[1.0]]), Band(-0.25, 0.25, [[3.0]]), Band(0.25, 0.5, [[1.0]])],
        }
        assert _assert_same_as_per_node_pass(SpectralModel(L=1, bands=cases["on-node"]), FrequencyGrid(n))
        _, mats, counts = _band_pieces(SpectralModel(L=1, bands=cases["narrow"]), nodes)
        assert counts[mats[:, 0, 0] != 0].tolist() == [0, 0]
        assert _assert_same_as_per_node_pass(SpectralModel(L=1, bands=cases["narrow"]), FrequencyGrid(n))
        assert _assert_same_as_per_node_pass(SpectralModel(L=1, bands=cases["to-half"]), FrequencyGrid(n))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_every_model_matches_the_per_node_pass(self, name):
        for n in (4096, 65536):
            assert _assert_same_as_per_node_pass(MODELS[name][0](), FrequencyGrid(n))

    def test_rational_model_is_checked_on_the_stack_itself(self, monkeypatch, grid):
        model, real, stacks = _rational_pair(), spectral._stack_eigvalsh, []

        def spy(mats):
            stacks.append(mats)
            return real(mats)

        monkeypatch.setattr(spectral, "_stack_eigvalsh", spy)
        ri = rank_integral(model, grid)
        assert len(stacks) == 1 and stacks[0] is ri.piece_matrices


def _packed_properness(ri):
    """Reference: properness_check with the per-node norm of a packed copy of every node."""
    mats = per_node(ri, ri.piece_matrices)
    s_r = np.maximum(mats[:, 0, 0].real, 0.0)
    s_i = np.maximum(mats[:, 1, 1].real, 0.0)
    s_ri = mats[:, 0, 1]
    packed = np.empty_like(mats)
    packed[:, 0, 0], packed[:, 1, 1], packed[:, 0, 1], packed[:, 1, 0] = s_r, s_i, s_ri, s_ri.conj()
    norm = np.linalg.norm(packed, axis=(1, 2))
    tol = float(PROPERNESS_TOL * (1.0 + norm.max(initial=0.0)))
    ok = bool(
        np.all(np.abs(s_r - s_i) <= PROPERNESS_TOL * (1.0 + norm))
        and np.all(np.abs(s_ri.real) <= PROPERNESS_TOL * (1.0 + norm))
    )
    return PropernessReport(
        ok, float(np.abs(s_r - s_i).max(initial=0.0)), float(np.abs(s_ri.real).max(initial=0.0)), tol
    )


class TestPropernessNorm:
    @pytest.mark.parametrize("n", [4096, 65536])
    @pytest.mark.parametrize("name", sorted(n for n, (b, _) in MODELS.items() if b().L == 2))
    def test_reports_equal_the_packed_norm(self, name, n):
        ri = rank_integral(MODELS[name][0](), FrequencyGrid(n))
        assert properness_check(ri) == _packed_properness(ri)

    def test_a_piece_without_a_node_is_not_read(self):
        # proper_complex_flat plus a real-only band between two nodes, which no node sees
        n, narrow, real_only = 64, (0.3125, 0.3125 + 0.25 / 64), [[1.0, 0.0], [0.0, 0.0]]
        bands = [*proper_complex_flat().bands, Band(-narrow[1], -narrow[0], real_only), Band(*narrow, real_only)]
        ri = rank_integral(SpectralModel(L=2, bands=bands), FrequencyGrid(n))
        assert 0 in ri.counts
        rep = properness_check(ri)
        assert rep == _packed_properness(ri) and rep.proper and rep.max_density_mismatch == 0.0

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_each_node_norm_equals_the_packed_norm_bit_for_bit(self, seed, exponent):
        # one node per report, so each node's norm shows in its tolerance; the
        # marginals differ by about the tolerance and every other cross density
        # is nearly imaginary, so the verdict can hinge on the last bit
        rng = np.random.default_rng(seed)
        mats = np.empty((64, 2, 2), dtype=complex)
        mats[:, 0, 0] = rng.exponential(size=64)
        mats[:, 1, 1] = mats[:, 0, 0].real * (1.0 + PROPERNESS_TOL * rng.uniform(0.5, 2.0, size=64))
        mats[:, 0, 1] = rng.normal(size=64) * np.resize([1e-12, 1.0], 64) + 1j * rng.normal(size=64)
        mats[:, 1, 0] = mats[:, 0, 1].conj()
        mats *= 10.0**exponent
        for j in range(64):
            ri = spectral.RankIntegralResult(
                0.0, "grid", 1, correlated_pair(), np.ones(1), mats[j:j + 1], np.ones(1, dtype=int), None, None, 0.0, 0.0
            )
            assert properness_check(ri) == _packed_properness(ri)
