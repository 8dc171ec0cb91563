"""Reverse water-filling and the rate-distortion route to the dimension."""

import numpy as np
import pytest

from gaussdim import spectral
from gaussdim.benchmarks import ar1, correlated_pair, narrowband, white_noise, zero_process
from gaussdim.experiments import run
from gaussdim.modelio import model_to_document
from gaussdim.ratedist import _waterfill, rd_curve, rd_dimension_estimate
from gaussdim.simulate import autocovariance_from_spectrum
from gaussdim.spectral import Band, SpectralModel, _ascending_prefix_sums, rank_integral

from conftest import per_node


def _curve_point(model, distortion, grid):
    """One point of the spectral rate-distortion curve."""
    return rd_curve(rank_integral(model, grid), [distortion]).points[0]


def _block_waterfill_rate(model, k, distortion):
    """Rate per time step from water-filling the eigenvalues of the k-step block
    covariance (clipped at 0, weight 1/k each) with the closed-form solver."""
    acov = autocovariance_from_spectrum(model, max(k - 1, 0))
    lam = np.clip(np.linalg.eigvalsh(acov.toeplitz(k)), 0.0, None)
    return _waterfill(_ascending_prefix_sums(lam), 1.0 / k, distortion).rate


def _scan_waterfill(model, grid, distortion):
    """Independent oracle: walk the sorted eigenvalues and solve the
    piecewise-linear water-level equation segment by segment in closed form."""
    ri = rank_integral(model, grid)
    mu = np.sort(np.linalg.eigvalsh(per_node(ri, ri.piece_matrices)).ravel())
    w8 = grid.weight
    csum = np.concatenate([[0.0], np.cumsum(mu) * w8])
    n = len(mu)
    for i in range(n):
        rest = n - i
        w = (distortion - csum[i]) / (rest * w8)
        lo_ok = i == 0 or mu[i - 1] <= w * (1 + 1e-12)
        if w >= 0 and lo_ok and w <= mu[i] * (1 + 1e-12):
            return float(0.5 * np.log(mu[i:] / w).sum() * w8), float(w)
    return 0.0, float(mu[-1])


def _two_level():
    """Density 3 on |theta| >= 1/4 and 1 inside: D = 1 is the breakpoint w = 1."""
    return SpectralModel(
        L=1, bands=[Band(-0.5, -0.25, [[3.0]]), Band(-0.25, 0.25, [[1.0]]), Band(0.25, 0.5, [[3.0]])]
    )


def _bisection_block_rate(model, k, distortion):
    """Reference: the bisection solver the block water-filling used before the closed form."""
    acov = autocovariance_from_spectrum(model, max(k - 1, 0))
    lam = np.clip(np.linalg.eigvalsh(acov.toeplitz(k)), 0.0, None)
    target = k * distortion
    if target >= float(lam.sum()):
        return 0.0
    lo, hi = 0.0, float(lam.max())
    for _ in range(200):
        w = 0.5 * (lo + hi)
        d = float(np.minimum(w, lam).sum())
        if abs(d - target) <= 1e-12 * target:
            break
        if d < target:
            lo = w
        else:
            hi = w
    return float(np.where(lam > w, 0.5 * np.log(np.maximum(lam, w) / w), 0.0).sum() / k)


class TestWaterfill:
    def test_flat_spectrum_closed_form(self, grid):
        pt = _curve_point(white_noise(), 0.25, grid)
        assert pt.rate == pytest.approx(0.5 * np.log(4.0), abs=1e-10)
        assert pt.water_level == pytest.approx(0.25, abs=1e-10)

    def test_distortion_above_power_gives_zero_rate(self, grid):
        pt = _curve_point(white_noise(), 1.5, grid)
        assert pt.rate == 0.0

    @pytest.mark.parametrize("distortion", [0.3, 1e-2, 1e-4])
    def test_against_scan_oracle(self, grid, distortion):
        model = narrowband(0.5)
        pt = _curve_point(model, distortion, grid)
        rate_oracle, w_oracle = _scan_waterfill(model, grid, distortion)
        assert pt.rate == pytest.approx(rate_oracle, abs=1e-9)
        assert pt.water_level == pytest.approx(w_oracle, rel=1e-6)

    @pytest.mark.parametrize(
        "builder, distortion",
        [
            (white_noise, 0.25),  # every eigenvalue tied
            (white_noise, 1e-6),
            (lambda: narrowband(0.4), 0.1),  # 60% of the eigenvalues are 0
            (lambda: narrowband(0.4), 1e-6),
            (_two_level, 1.0),  # exactly on the breakpoint w = 1
            (correlated_pair, 1e-2),  # a zero eigenvalue at every node
            (correlated_pair, 1e-6),
        ],
        ids=["white", "white-low", "narrowband", "narrowband-low", "breakpoint", "pair", "pair-low"],
    )
    def test_against_scan_oracle_edge_cases(self, grid, builder, distortion):
        model = builder()
        pt = _curve_point(model, distortion, grid)
        rate_oracle, w_oracle = _scan_waterfill(model, grid, distortion)
        assert pt.rate == pytest.approx(rate_oracle, rel=1e-12, abs=1e-12)
        assert pt.water_level == pytest.approx(w_oracle, rel=1e-12)

    def test_breakpoint_closed_form(self, grid):
        pt = _curve_point(_two_level(), 1.0, grid)
        assert pt.water_level == 1.0
        assert pt.rate == pytest.approx(0.25 * np.log(3.0), abs=1e-15)

    def test_water_level_reproduces_distortion(self, grid):
        model = ar1(0.6)
        d = 0.01
        pt = _curve_point(model, d, grid)
        ri = rank_integral(model, grid)
        mu = np.linalg.eigvalsh(per_node(ri, ri.piece_matrices))
        achieved = np.minimum(pt.water_level, mu).sum() * grid.weight
        assert achieved == pytest.approx(d, rel=1e-11)

    def test_nonpositive_distortion_rejected(self, grid):
        with pytest.raises(ValueError, match="distortion"):
            _curve_point(white_noise(), 0.0, grid)


class TestRDCurve:
    def test_monotone_and_convex_on_log_grid(self, grid):
        model = ar1(0.8)
        d_ladder = np.geomspace(0.5, 1e-6, 24)
        curve = rd_curve(rank_integral(model, grid), d_ladder)
        rates = np.array([p.rate for p in curve.points])
        assert (np.diff(rates) >= -1e-12).all()  # rate grows as distortion falls
        second = np.diff(rates, 2)  # convex in log D (equispaced log grid)
        assert (second >= -1e-9).all()

    def test_rows_export_shape(self, grid):
        curve = rd_curve(rank_integral(white_noise(), grid), (1e-1, 1e-2))
        rows = curve.as_rows()
        assert len(rows) == 2 and len(rows[0]) == 3


class TestRDDimension:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (white_noise, 1.0),
            (lambda: narrowband(0.4), 0.4),
            (correlated_pair, 1.0),
            (zero_process, 0.0),
        ],
    )
    def test_matches_rank_integral(self, builder, expected, grid):
        ri = rank_integral(builder(), grid)
        est = rd_dimension_estimate(ri, (1e-2, 1e-4, 1e-6))
        assert abs(est.value - ri.value) <= 0.01
        assert est.value == pytest.approx(expected, abs=0.01)

    def test_flat_spectrum_is_exact(self, grid):
        est = rd_dimension_estimate(rank_integral(white_noise(), grid), (1e-2, 1e-4, 1e-6))
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_ladder_validation(self, grid):
        ri = rank_integral(white_noise(), grid)
        with pytest.raises(ValueError, match="decreasing"):
            rd_dimension_estimate(ri, (1e-6, 1e-4))
        with pytest.raises(ValueError, match="total power"):
            rd_dimension_estimate(ri, (0.5, 1e-4))

    def test_zero_power_short_circuits(self, grid):
        est = rd_dimension_estimate(rank_integral(zero_process(), grid), (1e-2, 1e-4))
        assert est.value == 0.0 and "zero total power" in est.notes


def test_rd_task_sorts_the_eigenvalues_once(monkeypatch, tmp_path):
    """The rd slope and the rd curve (written with --out) share one sort."""
    real, sorted_sizes = spectral._ascending_prefix_sums, []

    def spy(values):
        sorted_sizes.append(values.size)
        return real(values)

    monkeypatch.setattr(spectral, "_ascending_prefix_sums", spy)
    model = model_to_document(correlated_pair())
    run({"task": "rd", "model": model, "grid_n": 2048, "out": str(tmp_path / "rd.json")})
    assert sorted_sizes == [2 * 2048]


class TestFiniteBlockCrossCheck:
    def test_converges_to_spectral_limit(self, grid):
        model = ar1(0.6)
        d = 0.05
        spectral = _curve_point(model, d, grid).rate
        gaps = [abs(_block_waterfill_rate(model, k, d) - spectral) for k in (16, 64)]
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.01

    @pytest.mark.parametrize("k", [16, 64])
    @pytest.mark.parametrize("distortion", [0.05, 1e-3])
    @pytest.mark.parametrize(
        "builder", [lambda: ar1(0.6), lambda: narrowband(0.4), correlated_pair], ids=["ar1", "narrowband", "pair"]
    )
    def test_matches_bisection_reference(self, builder, k, distortion):
        model = builder()
        closed = _block_waterfill_rate(model, k, distortion)
        assert closed == pytest.approx(_bisection_block_rate(model, k, distortion), rel=0.0, abs=1e-12)
