"""Benchmark processes with closed-form information dimension rates.

These are the reference models the test suite and the example scripts run:
every constructor documents the exact dimension its spectrum implies, and
MODELS is the one list of the models exported as documents.
"""

from __future__ import annotations

import numpy as np

from .spectral import Band, RationalTerm, SpectralLine, SpectralModel


def white_noise() -> SpectralModel:
    """Unit-variance white noise; dimension 1."""
    return SpectralModel(L=1, bands=[Band(-0.5, 0.5, [[1.0]])])


def narrowband(measure: float = 0.4) -> SpectralModel:
    """Unit-variance band-limited process supported on measure `measure`;
    dimension = measure."""
    half = measure / 2.0
    return SpectralModel(L=1, bands=[Band(-half, half, [[1.0 / measure]])])


def independent_halfband_pair() -> SpectralModel:
    """Two independent unit-variance components, each supported on measure 1/2
    (one in-band, one out-of-band); dimension 1 regardless of where the
    supports sit."""
    inner = np.array([[2.0, 0.0], [0.0, 0.0]])
    outer = np.array([[0.0, 0.0], [0.0, 2.0]])
    return SpectralModel(
        L=2,
        bands=[Band(-0.5, -0.25, outer), Band(-0.25, 0.25, inner), Band(0.25, 0.5, outer)],
    )


def correlated_pair() -> SpectralModel:
    """Perfectly correlated unit-variance pair (rank-1 density everywhere);
    dimension 1, not 2."""
    return SpectralModel(L=2, bands=[Band(-0.5, 0.5, np.ones((2, 2)))])


def zero_process() -> SpectralModel:
    """Almost-surely constant process; dimension 0."""
    return SpectralModel(L=1)


def proper_complex_flat() -> SpectralModel:
    """Proper complex process as a (real, imaginary) pair on [-1/4, 1/4):
    equal marginals, purely imaginary antisymmetric cross density.
    Density eigenvalues are {3, 1} on the band, so dimension = 2 * 1/2 = 1,
    meeting the complex support bound with equality."""
    pos = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    neg = pos.conj()
    return SpectralModel(L=2, bands=[Band(-0.25, 0.0, neg), Band(0.0, 0.25, pos)])


def real_only_complex() -> SpectralModel:
    """Complex process with identically zero imaginary part, real part limited
    to [-1/4, 1/4); dimension 0.5 against a support bound of 1.0."""
    mat = np.array([[1.0, 0.0], [0.0, 0.0]])
    return SpectralModel(L=2, bands=[Band(-0.25, 0.25, mat)])


def matched_support_nonproper() -> SpectralModel:
    """Independent real and imaginary parts with matching support but unequal
    levels: non-proper, yet the support bound still holds with equality."""
    mat = np.array([[2.0, 0.0], [0.0, 1.0]])
    return SpectralModel(L=2, bands=[Band(-0.25, 0.25, mat)])


def ar1(rho: float = 0.6) -> SpectralModel:
    """Unit-variance AR(1) with pole rho, as a rational spectrum; dimension 1.

    (1 - rho^2) / |1 - rho e^{-i 2 pi theta}|^2 written as a ratio of
    polynomials in z = e^{-i 2 pi theta}:
    (1 - rho^2) z / (-rho + (1 + rho^2) z - rho z^2).
    """
    if not -1 < rho < 1:
        raise ValueError("rho must be in (-1, 1)")
    return SpectralModel(
        L=1,
        arma_terms=[RationalTerm(0, 0, (0.0, 1.0 - rho**2), (-rho, 1.0 + rho**2, -rho))],
    )


def delayed_copy(d: int = 1) -> SpectralModel:
    """A white unit-variance component 1 and its copy delayed by d steps,
    x0_t = x1_{t-d}.  The density [[1, z^-d], [z^d, 1]], z = e^{-i 2 pi theta},
    has rank 1 at every frequency but a null space that turns with theta;
    dimension 1.  Not in MODELS."""
    return SpectralModel(
        L=2, bands=[Band(-0.5, 0.5, np.eye(2))], arma_terms=[RationalTerm(1, 0, (0.0,) * d + (1.0,), (1.0,))]
    )


def line_process(theta: float = 0.125, power: float = 0.5) -> SpectralModel:
    """Pure spectral-line pair at +-theta (a random sinusoid); the spectral
    derivative vanishes almost everywhere, so dimension 0 despite positive
    power."""
    p = np.array([[power]])
    return SpectralModel(L=1, lines=[SpectralLine(-theta, p), SpectralLine(theta, p)])


# Every exported model by document name: (builder, closed-form dimension).
MODELS = {
    "white_noise": (white_noise, 1.0),
    "narrowband_0p4": (narrowband, 0.4),
    "independent_halfband_pair": (independent_halfband_pair, 1.0),
    "correlated_pair": (correlated_pair, 1.0),
    "zero_process": (zero_process, 0.0),
    "proper_complex_flat": (proper_complex_flat, 1.0),
    "real_only_complex": (real_only_complex, 0.5),
    "matched_support_nonproper": (matched_support_nonproper, 1.0),
    "ar1_0p6": (lambda: ar1(0.6), 1.0),
    "line_process": (line_process, 0.0),
}
