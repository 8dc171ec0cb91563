"""Acceptance gate: every criterion at its stated tolerance, one per test.

Each test prints one "ACCEPTANCE <criterion>: PASS" line (visible with
`pytest -s` or `-rA`) after its assertions, together with the measured wall
time against the budget.

Criteria 1 and 2 run on every model of gaussdim.benchmarks.MODELS, the ten
exported processes with their closed-form dimensions:
    white noise 1.0, narrowband(0.4) 0.4, independent half-band pair 1.0,
    fully correlated pair 1.0, zero process 0.0, proper complex flat band 1.0,
    real-only complex 0.5, matched-support non-proper 1.0, AR(1) (pole 0.6) 1.0,
    spectral-line pair 0.0.
The spectral surrogate of criterion 3 runs on the paper's six: the first six
of that list.
"""

import time

import numpy as np
import pytest

from gaussdim.benchmarks import (
    MODELS,
    ar1,
    correlated_pair,
    independent_halfband_pair,
    matched_support_nonproper,
    narrowband,
    proper_complex_flat,
    real_only_complex,
    white_noise,
    zero_process,
)
from gaussdim.entropy import exact_cell_entropy, plugin_entropy
from gaussdim.estimators import (
    gaussian_surrogate_kl,
    idr_slope_estimate,
    invariance_check,
    surrogate_idr_estimate,
)
from gaussdim.quantize import bussgang_gain, quantize, spectrum_identity_check
from gaussdim.ratedist import rd_dimension_estimate
from gaussdim.simulate import autocovariance_from_spectrum, sample_paths
from gaussdim.spectral import FrequencyGrid, rank_integral, support_bound

GRID = FrequencyGrid(4096)
SEED = 20260808
# The paper's six reference processes, for the spectral surrogate.
SURROGATE_MODELS = (
    "white_noise",
    "narrowband_0p4",
    "independent_halfband_pair",
    "correlated_pair",
    "zero_process",
    "proper_complex_flat",
)


def _stamp(name: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded the {budget_s}s budget"
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s < {budget_s:.0f}s)")


def test_criterion_1_rank_integral_fidelity():
    """Every closed-form model within 1e-6 at grid resolution 4096, <1s each."""
    started = time.perf_counter()
    for name, (builder, expected) in MODELS.items():
        t0 = time.perf_counter()
        value = rank_integral(builder(), GRID).value
        assert abs(value - expected) <= 1e-6, f"{name}: {value} vs {expected}"
        assert time.perf_counter() - t0 < 1.0, f"{name} rank integral too slow"
    _stamp("1 rank-integral fidelity", started, 10.0)


def test_criterion_2_rate_distortion_equivalence():
    """|rd slope - rank integral| <= 0.01 on every model, <10s each."""
    started = time.perf_counter()
    for name, (builder, expected) in MODELS.items():
        t0 = time.perf_counter()
        ri = rank_integral(builder(), GRID)
        est = rd_dimension_estimate(ri, (1e-2, 1e-4, 1e-6))
        assert abs(est.value - ri.value) <= 0.01, f"{name}: {est.value} vs {ri.value}"
        assert ri.value == pytest.approx(expected, abs=1e-6)
        assert time.perf_counter() - t0 < 10.0, f"{name} rd estimate too slow"
    _stamp("2 rate-distortion equivalence", started, 60.0)


@pytest.mark.parametrize(
    "name,builder,expected",
    [
        ("white_noise", white_noise, 1.0),
        ("zero_process", zero_process, 0.0),
        ("correlated_pair", correlated_pair, 1.0),
    ],
)
def test_criterion_3_entropy_slope(name, builder, expected):
    """Entropy-slope estimate within 0.05 of the rank integral at R=1e6."""
    started = time.perf_counter()
    model = builder()
    reference = rank_integral(model, GRID).value
    est = idr_slope_estimate(model, m_ladder=(8, 16, 32, 64), paths=1_000_000, seed=SEED)
    assert reference == pytest.approx(expected, abs=1e-9)
    assert abs(est.value - reference) <= 0.05, f"{name}: {est.value} vs {reference}"
    _stamp(f"3 entropy slope [{name}]", started, 300.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "cell-counting cannot reach a narrowband process dimension at desk "
        "scale: the occupancy guard caps the block length near k=1 at R=1e6, "
        "and every short block of a narrowband process has a nonsingular "
        "covariance, so the entropy slope reads the marginal dimension 1.0 "
        "instead of 0.4; the spectral surrogate below is the estimator that "
        "covers this regime"
    ),
)
def test_criterion_3_entropy_slope_narrowband():
    reference = rank_integral(narrowband(0.4), GRID).value
    est = idr_slope_estimate(narrowband(0.4), m_ladder=(8, 16, 32, 64), paths=1_000_000, seed=SEED)
    assert abs(est.value - reference) <= 0.05


def test_criterion_3_surrogate():
    """Spectral-surrogate estimate within 0.05 on the paper's six models,
    200 paths x 4096 steps (k*L capped at 4096), <5min per model."""
    started = time.perf_counter()
    for name in SURROGATE_MODELS:
        builder, expected = MODELS[name]
        t0 = time.perf_counter()
        model = builder()
        reference = rank_integral(model, GRID).value
        est = surrogate_idr_estimate(model, m_ladder=(16, 64, 256), paths=200, k=4096, seed=SEED)
        assert abs(est.value - reference) <= 0.05, f"{name}: {est.value} vs {reference}"
        assert reference == pytest.approx(expected, abs=1e-9)
        assert time.perf_counter() - t0 < 300.0, f"{name} surrogate too slow"
    _stamp("3 spectral surrogate", started, 1500.0)


def test_criterion_4_complex_support_bound():
    """Equality for the proper model, a >=0.45 gap for the real-only model,
    equality for the matched-support non-proper model; <1s each."""
    started = time.perf_counter()
    sb = support_bound(rank_integral(proper_complex_flat(), GRID))
    assert abs(sb.dimension - sb.bound) <= sb.tolerance and sb.tight

    sb = support_bound(rank_integral(real_only_complex(), GRID))
    assert sb.dimension == pytest.approx(0.5, abs=1e-9)
    assert sb.bound == pytest.approx(1.0, abs=1e-9)
    assert sb.gap >= 0.45

    sb = support_bound(rank_integral(matched_support_nonproper(), GRID))
    assert abs(sb.dimension - sb.bound) <= sb.tolerance and sb.tight
    _stamp("4 complex support bound", started, 3.0)


def test_criterion_5_quantizer_diagnostics():
    """Gain bound |1-a| <= (1/m) sqrt(2/(pi sigma^2)) + 5 SE over m=2..256,
    error power <= 1/m^2 deterministically, spectral identity residual within
    5 SE at m in {1, 8}; <2min."""
    started = time.perf_counter()
    acov = autocovariance_from_spectrum(white_noise(), 0)
    flat = sample_paths(acov, 1, 1_000_000, SEED)
    ladder = (2, 4, 8, 16, 32, 64, 128, 256)
    for m, rep in zip(ladder, bussgang_gain(flat, ladder)):
        assert np.all(np.abs(1.0 - rep.gain) <= rep.gain_bound + 5.0 * rep.gain_se), f"m={m}"
        assert np.all(rep.noise_var <= 1.0 / m**2), f"m={m} noise power"

    acov_long = autocovariance_from_spectrum(white_noise(), 2047)
    long_batch = sample_paths(acov_long, 2048, 128, SEED)
    for m, rep in zip((1, 8), spectrum_identity_check(long_batch, (1, 8))):
        assert abs(rep.mean_residual) <= 5.0 * rep.mean_residual_se, f"m={m}"
        assert np.all(rep.noise_mass <= 1.0 / m**2 + 1e-12), f"m={m}"
    _stamp("5 quantizer diagnostics", started, 120.0)


def test_criterion_6_invariance():
    """|delta d| <= 0.05 under scale 3 and translation 10 with shared paths;
    exact finite-precision translation bound |delta H| <= k L log 4; <5min."""
    started = time.perf_counter()
    scale, trans = invariance_check(
        white_noise(), [("scale", 3.0), ("translate", 10.0)], paths=1_000_000, seed=SEED,
    )
    assert scale.delta <= 0.05
    assert trans.delta <= 0.05
    h0 = exact_cell_entropy(white_noise(), 1, 4)
    h1 = exact_cell_entropy(white_noise(), 1, 4, mean_shift=[10.0])
    assert abs(h1.value - h0.value) <= 1 * 1 * np.log(4.0)

    # off-lattice shift at a 2-step block exercises the bound away from zero
    h0 = exact_cell_entropy(narrowband(0.4), 2, 2)
    h1 = exact_cell_entropy(narrowband(0.4), 2, 2, mean_shift=[0.37])
    assert abs(h1.value - h0.value) <= 2 * 1 * np.log(4.0)
    _stamp("6 scale/translation invariance", started, 300.0)


def test_criterion_7_kl_bound():
    """Dithered-quantized vs Gaussian-fit KL stays below the closed-form cap
    (1/2) log(2 pi (1 + 1/12)) + 75/2 + 24/pi per coordinate; <1min."""
    started = time.perf_counter()
    cap = 0.5 * np.log(2.0 * np.pi * (1.0 + 1.0 / 12.0)) + 75.0 / 2.0 + 24.0 / np.pi
    for m in (1, 2, 4, 8):
        rep = gaussian_surrogate_kl(white_noise(), 1, m)
        assert rep.kl <= 1 * cap, f"m={m}: {rep.kl}"
        assert rep.bound == pytest.approx(cap, abs=1e-12)
        assert rep.passed
    _stamp("7 Gaussian-surrogate KL bound", started, 60.0)


def test_criterion_8_oracle_equivalence():
    """Plug-in entropy (R=1e6) against the quadrature oracle within 5 SE for
    five models at block dimension <= 3 and m in {1, 2, 4}; <3min."""
    started = time.perf_counter()
    cases = [
        (white_noise(), 1),
        (narrowband(0.4), 2),
        (correlated_pair(), 1),
        (ar1(0.6), 2),
        (independent_halfband_pair(), 1),
    ]
    paths = 1_000_000
    for model, k in cases:
        acov = autocovariance_from_spectrum(model, max(k - 1, 0))
        batch = sample_paths(acov, k, paths, SEED)
        for m in (1, 2, 4):
            oracle = exact_cell_entropy(model, k, m)
            codes = quantize(batch, m).astype(np.int64).reshape(paths, -1)
            emp = plugin_entropy(codes)
            gap = abs(emp.value - oracle.value)
            assert gap <= 5.0 * emp.error, f"k={k} m={m}: gap {gap:.5f} vs 5se {5 * emp.error:.5f}"
            assert oracle.error < 1e-12
    _stamp("8 oracle equivalence", started, 180.0)
