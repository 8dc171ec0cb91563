"""Uniform floor quantization, the dither stream, and quantizer-gain diagnostics.

`quantize` returns the floor codes floor(m*x) as float64; the quantized value
is codes / m, so the error n = x - floor(m*x)/m always lies in [0, 1/m).
`dither_stream` draws the uniform dither on [0, 1/m) that the Gaussian
surrogate adds.  The diagnostics estimate the linear-regression gain of the
quantized process on its input and check the gain bound, the error-power
bound, and the spectral decomposition identity that ties the quantized
spectrum to the input and error spectra.  Their sums run on a
contiguous component-major (L, paths, k) copy of the samples, so each is one
reduction over a contiguous trailing axis; over the time-major layout NumPy
would reduce L elements per inner-loop call.  At L = 1 the copy is a view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng
from .simulate import InsufficientDataError, SamplePathBatch, _extract, welch_segments

_MAX_SAFE_PRODUCT = float(2**53)


class PrecisionOverflowError(OverflowError):
    """m * x would leave the exactly-representable integer range."""


class ZeroVarianceComponentError(ValueError):
    """Gain diagnostics need positive variance; normalize the model first."""


class UnitVarianceRequiredError(ValueError):
    """The spectral identity check applies to unit-variance components only."""


def check_precision(arr: np.ndarray, m: int) -> None:
    """Raise PrecisionOverflowError unless |x| * m < 2^53 for every entry.

    The peak |x| is max(max x, -min x), so no |x| array is made.  An
    infinite entry raises, and so does NaN, which has no floor code: the
    peak is then NaN, and NaN fails the comparison.
    """
    peak = max(arr.max(initial=0.0), -arr.min(initial=0.0))
    if not peak * m < _MAX_SAFE_PRODUCT:
        raise PrecisionOverflowError(
            f"|x|*m reaches {peak * m:.3e}; exact floor semantics need |x| < 2^53/m and no NaN"
        )


def quantize(data, m: int) -> np.ndarray:
    """Floor codes floor(m * x) of a batch or an array, as float64 of the samples' shape.

    check_precision keeps |m * x| < 2^53, so every code is an exact integer;
    divide by m for the quantized values, cast to int64 to pack keys.
    """
    arr = _extract(data)
    _check_ladder(arr, (m,))
    return _floor_codes(arr, m)


def _check_ladder(arr: np.ndarray, ms) -> None:
    """Raise unless every m in ms is a positive integer, then check_precision of arr at the largest."""
    for m in ms:
        if m < 1 or int(m) != m:
            raise ValueError(f"precision m must be a positive integer, got {m}")
    if ms:
        check_precision(arr, max(ms))


def _floor_codes(x: np.ndarray, m: int) -> np.ndarray:
    """floor(m * x) as float64, with no range check: the caller has run
    check_precision on x, or on values that bound it, at m or above."""
    codes = m * x
    return np.floor(codes, out=codes)  # in place: one float temporary, not two


def dither_stream(seed: int, m: int):
    """The dither of precision m: a function of a shape that returns i.i.d.
    uniform values on [0, 1/m) from the one derive_rng(seed, "dither", m)
    stream.  Each call continues the stream, so drawing a batch in
    consecutive path slices gives the values of one whole-batch draw."""
    rng = derive_rng(seed, "dither", m)
    return lambda shape: rng.uniform(0.0, 1.0 / m, size=shape)


@dataclass(frozen=True)
class BussgangReport:
    """Quantizer gain estimates and their theoretical bounds, per component.

    gain_bound is (1/m) * sqrt(2 / (pi * sigma^2)); for Gaussian inputs
    |1 - gain| stays below it.  noise_bound = 1/m^2 holds deterministically
    because the error lives on [0, 1/m).
    """

    m: int
    gain: np.ndarray  # (L,)
    gain_se: np.ndarray  # (L,)
    gain_bound: np.ndarray  # (L,)
    noise_var: np.ndarray  # (L,)
    noise_bound: float
    gain_bound_ok: bool
    noise_ok: bool


def bussgang_gain(data, ms) -> list[BussgangReport]:
    """Monte Carlo estimate of the per-component quantizer gain, one report per precision in ms.

    gain_i = cov(x_i, floor(m x_i)/m) / var(x_i), pooled over all samples;
    the standard error comes from the spread of per-path estimates, which are
    independent by construction.  One copy and one range check serve every m.
    """
    xc = np.ascontiguousarray(np.moveaxis(_extract(data), -1, 0))
    _check_ladder(xc, ms)
    mu, var = _moments(xc)
    return [_gain_report(xc, _floor_codes(xc, m) / m, m, mu, var) for m in ms]


def _moments(xc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component mean and variance of a component-major (L, paths, k) array."""
    flat = xc.reshape(len(xc), -1)
    return flat.mean(axis=1), flat.var(axis=1)


def _gain_report(xc: np.ndarray, zc: np.ndarray, m: int, mu: np.ndarray, var: np.ndarray) -> BussgangReport:
    """bussgang_gain of the input from its quantized values, both component-major (L, paths, k),
    and the input's per-component mean and variance (_moments), computed once for every m.

    The callers pass one contiguous component-major copy of the samples (a
    view at L = 1), so every per-component sum reduces over the contiguous
    trailing axes of one component.
    """
    L, paths, k = xc.shape
    zmu = zc.reshape(L, -1).mean(axis=1)
    if (var < 1e-12).any():
        bad = int(np.argmin(var))
        raise ZeroVarianceComponentError(
            f"component {bad} has (near-)zero variance; apply normalize_components first"
        )
    work = xc - mu[:, None, None]  # one scratch array: the cross products, then the error
    work *= zc - zmu[:, None, None]
    per_path = work.mean(axis=2) / var[:, None]  # (L, paths)
    gain = per_path.mean(axis=1)
    if paths > 1:
        gain_se = per_path.std(axis=1, ddof=1) / np.sqrt(paths)
    else:
        gain_se = np.full(L, np.nan)
    bound = np.sqrt(2.0 / (np.pi * var)) / m
    noise_var = np.subtract(xc, zc, out=work).reshape(L, -1).var(axis=1)
    noise_bound = 1.0 / m**2
    gains_ok = bool(np.all(np.abs(1.0 - gain) <= bound + 5.0 * gain_se))
    noise_ok = bool(np.all(noise_var <= noise_bound * (1.0 + 1e-12)))
    return BussgangReport(int(m), gain, gain_se, bound, noise_var, noise_bound, gains_ok, noise_ok)


@dataclass(frozen=True)
class SpectrumIdentityReport:
    """Residual of quantized-spectrum = (2a-1) * input-spectrum + error-spectrum.

    With z = x - n the Welch estimates obey P_z = P_x - 2 Re P_xn + P_n, so the
    residual is 2(1-a) P_x - 2 Re P_xn.  Its frequency mean (trace / L) is zero
    except through the window and the per-segment mean removal, since a is
    fitted on the same samples: (1-a) var x matches cov(x, n).
    """

    m: int
    gain: float
    mean_residual: float
    mean_residual_se: float
    noise_mass: np.ndarray  # (L,) integral of the error spectrum estimate
    noise_mass_bound: float
    mean_ok: bool
    noise_ok: bool
    sample_variance: np.ndarray  # (L,) pooled per-component variance of the input samples


def spectrum_identity_check(data, ms, nperseg: int = 256) -> list[SpectrumIdentityReport]:
    """Check the spectral decomposition of the quantized process empirically,
    one report per precision in ms.

    By Parseval, a frequency mean of a Welch estimate is scale times an inner
    product of `welch_segments` output, so no spectrum is formed: the input's
    segments s_x are cut once, and per m those of the error n = x - z.  The
    per-path residual mean (2(1-a) <s_x, s_x> - 2 <s_x, s_n>) scale / L is
    pooled with a path-based standard error, so a batch of fewer than 2 paths
    raises InsufficientDataError, and the error spectrum's
    integral, <s_n, s_n> scale per component, is checked against 1/m^2 (a
    deterministic consequence of the error range).

    The unit-variance precondition is tested on the variances the law fixes
    when data is a SamplePathBatch, and on the sample variances otherwise: a
    random sinusoid's sample variance strays far from its law's even at many
    paths.
    """
    x = _extract(data)
    paths, k, L = x.shape
    xc = np.ascontiguousarray(np.moveaxis(x, -1, 0))  # (L, paths, k)
    sample_mean, sample_var = _moments(xc)
    var = data.variance if isinstance(data, SamplePathBatch) else sample_var
    if np.abs(var - 1.0).max() > 0.05:
        raise UnitVarianceRequiredError(
            f"component variances {var} are not all ~1; apply normalize_components first"
        )
    sx, scale = welch_segments(xc, nperseg)  # (L, paths, segments, nperseg)
    if paths * sx.shape[2] < 2:
        raise InsufficientDataError("need at least 2 segments in total for a Welch average")
    if paths < 2:
        raise InsufficientDataError("need at least 2 paths for the path-based standard error")
    px = np.einsum("lpst,lpst->p", sx, sx) * scale  # per path: frequency mean of tr P_x
    _check_ladder(xc, ms)
    reports = []
    for m in ms:
        zc = _floor_codes(xc, m)
        zc /= m
        gain = float(_gain_report(xc, zc, m, sample_mean, sample_var).gain.mean())
        np.subtract(xc, zc, out=zc)  # zc now holds the error x - z
        sn, _ = welch_segments(zc, nperseg)
        pxn = np.einsum("lpst,lpst->p", sx, sn) * scale  # per path: frequency mean of tr Re P_xn
        per_path_mean = (2.0 * (1.0 - gain) * px - 2.0 * pxn) / L
        mean_resid = float(per_path_mean.mean())
        mean_se = float(per_path_mean.std(ddof=1) / np.sqrt(paths))

        noise_mass = np.einsum("lpst,lpst->l", sn, sn) * scale / paths
        noise_bound = 1.0 / m**2
        reports.append(
            SpectrumIdentityReport(
                m=int(m),
                gain=gain,
                mean_residual=mean_resid,
                mean_residual_se=mean_se,
                noise_mass=noise_mass,
                noise_mass_bound=noise_bound,
                mean_ok=bool(abs(mean_resid) <= 5.0 * mean_se),
                noise_ok=bool(np.all(noise_mass <= noise_bound * (1.0 + 1e-9))),
                sample_variance=sample_var,
            )
        )
        del zc, sn  # free m's error and its segments before the next m quantizes
    return reports
