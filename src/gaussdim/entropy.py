"""Discrete entropy estimation and an exact small-block quantized-cell oracle.

plugin_entropy is the empirical route: count occupied lattice cells.  The
oracle route enumerates every cell a small Gaussian block can occupy.  Given
the first d-1 coordinates the last one is normal with a mean linear in them
and a constant sd, so each cell's mass is a normal-CDF difference on the last
axis integrated over the first d-1 axes by tensor-product Gauss-Legendre
quadrature (Genz 1992); the density is analytic inside a cell, so 32 nodes
per axis are far beyond what the tolerances need.  Feasible for blocks of
total dimension k*L <= 3.  The normal tail is a NumPy port of the Cephes
ndtr/erf/erfc rational approximations (Moshier 1989), so the module needs
NumPy only.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .simulate import _gauss_legendre, autocovariance_from_spectrum
from .spectral import SpectralModel

TAIL_SIGMAS = 8.0
QUAD_NODES = 32
_BUDGET_NODES = 2.5e9
_CHUNK_TARGET = 3.0e7
_KEY_LIMIT = 2**62  # packed cell keys stay below this span
_TAIL_BLOCK = 2**15  # elements per block of _normal_tail's temporaries

# Cephes ndtr.c coefficients (Moshier 1989), highest degree first; _polevl
# implies the leading 1 of Q, S and U.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


class QuadratureFeasibilityError(ValueError):
    """Requested cell enumeration exceeds the quadrature budget."""


class DegenerateCovarianceError(np.linalg.LinAlgError):
    """Singular block covariance beyond removable constants/duplicates."""


@dataclass(frozen=True)
class EntropyEstimate:
    """A block entropy in nats with its method tag and uncertainty.

    For sampled estimates `error` is a standard error; for the quadrature
    oracle it is the unaccounted probability mass (truncation + roundoff).
    """

    value: float
    method: str  # "miller-madow" | "quadrature-oracle"
    n_samples: int
    error: float
    occupied: int


def _code_rows(codes) -> np.ndarray:
    arr = np.asarray(codes)
    if arr.dtype.kind not in "biu":
        raise TypeError(f"codes must be an integer or bool array, got dtype {arr.dtype}")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("codes must be a nonempty (n,) or (n, d) array")
    return arr


def _ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense int64 ranks 0..r-1 of integer values, in the order of the values."""
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64, copy=False), len(uniq)


def _offset_column(col: np.ndarray) -> tuple[np.ndarray, int]:
    """An integer column as nonnegative int64 in its own order, with its span."""
    lo, hi = int(col.min()), int(col.max())
    span = hi - lo + 1
    if span > _KEY_LIMIT:
        return _ranks(col)
    if col.dtype.kind == "u":  # uint64 values above 2^63 do not fit int64 before the shift
        return (col - col.dtype.type(lo)).astype(np.int64), span
    return np.subtract(col, lo, dtype=np.int64), span  # one int64 array, no cast copy


def packed_keys(blocks):
    """Yield one int64 key per row after each block of code columns in `blocks`.

    blocks is an iterable of (n,) or (n, w) integer code arrays with one n.
    It is read one block at a time, so a caller can make a block only when
    the keys before it are used, and each block is dropped once it is folded.
    The key after a block is that of the row prefix ending with it: keys sort
    in the lexicographic order of the prefix rows, so equal keys mean equal
    rows.  Each column is offset by its minimum straight into int64; the
    first column is the key, and each later one is folded in as
    key * span + column, the sum made in place in the product.  Before the
    key span would pass 2^62 the key is replaced by its dense rank, which
    keeps the order.  The key of each prefix extends the one before it, so
    all prefixes cost one pass, and a yielded key is never changed
    afterwards: a caller may keep it.
    """
    key, span = None, 1
    for block in blocks:
        arr = _code_rows(block)
        del block
        n, width = arr.shape
        for j in range(width):
            col, col_span = _offset_column(arr[:, j])
            if j == width - 1:
                arr = None  # the block is offset: free it before the fold
            if key is None:
                key, span = col, col_span
                continue
            if span * col_span > _KEY_LIMIT:
                key, span = _ranks(key)
                if span * col_span > _KEY_LIMIT:
                    col, col_span = _ranks(col)
            key = key * col_span  # a new array: the key yielded before stays as it was
            key += col
            span *= col_span
        if key is None:  # leading blocks without columns: every row so far is one cell
            key = np.zeros(n, dtype=np.int64)
        arr = col = None  # free the block and its last offset column before the caller runs
        yield key


def cell_counts(codes) -> np.ndarray:
    """Row multiplicities of integer codes, rows in lexicographic order.

    codes is an (n,) or (n, d) integer array, or an iterator of such column
    blocks that packed_keys reads one at a time, so the rows need never be
    whole in memory.  The packed key is sorted in place and its runs are
    counted; the counts equal, element for element, those of a row sort
    (numpy's unique over axis 0), at a fraction of its cost.
    """
    for key in packed_keys(codes if isinstance(codes, Iterator) else [codes]):
        pass  # only the key of the whole rows is counted
    key.sort()  # packed_keys made this key, so no caller sees it change
    ends = np.empty(len(key), dtype=bool)  # the last row of each run of equal keys
    np.not_equal(key[1:], key[:-1], out=ends[:-1])
    ends[-1] = True
    del key
    counts = np.flatnonzero(ends)
    counts[1:] -= counts[:-1]  # run ends to run lengths; numpy buffers the overlap
    counts[0] += 1
    return counts


def plugin_entropy(codes) -> EntropyEstimate:
    """Miller-Madow entropy of a multiset of discrete symbols.

    codes: (n,) scalars or (n, d) rows of integer or bool dtype, any width
    and sign, or an iterator of such column blocks; rows are treated as
    joint symbols.  Any other dtype raises TypeError.  Cells are counted in
    the lexicographic order of their rows (see cell_counts), so the sums
    below run in a fixed order.  The value is the plug-in entropy plus the
    Miller-Madow correction (occupied - 1) / (2n).
    """
    counts = cell_counts(codes)
    n = int(counts.sum())
    p = counts / n
    logp = np.log(p)
    h_plug = float(-(p * logp).sum())
    var_logp = float((p * logp**2).sum() - h_plug**2)
    se = np.sqrt(max(var_logp, 0.0) / n)
    occupied = len(counts)
    return EntropyEstimate(h_plug + (occupied - 1) / (2.0 * n), "miller-madow", n, se, occupied)


def _reduce_degenerate(mu: np.ndarray, cov: np.ndarray, m: int):
    """Split coordinates into kept / constant / exact-duplicate groups.

    Constants quantize to a single deterministic code; an exact duplicate
    (same mean, zero difference variance) always lands in its partner's cell.
    Anything else that leaves the covariance singular has no box-preserving
    reduction and raises.
    """
    d = len(mu)
    var = np.diag(cov).copy()
    scale = max(var.max(initial=0.0), 1.0)
    plan = [None] * d  # ("keep", new_idx) | ("const", code) | ("dup", kept_original)
    kept: list[int] = []
    for i in range(d):
        if var[i] <= 1e-14 * scale:
            plan[i] = ("const", int(np.floor(m * mu[i])))
            continue
        dup_of = None
        for j in kept:
            diff_var = var[i] + var[j] - 2.0 * cov[i, j]
            if diff_var <= 1e-12 * (var[i] + var[j]) and abs(mu[i] - mu[j]) <= 1e-9 * (1.0 + abs(mu[i])):
                dup_of = j
                break
        if dup_of is not None:
            plan[i] = ("dup", dup_of)
        else:
            plan[i] = ("keep", len(kept))
            kept.append(i)
    idx = np.asarray(kept, dtype=int)
    return plan, mu[idx], cov[np.ix_(idx, idx)]


def _axis_cells(mu: np.ndarray, cov: np.ndarray, m: int):
    sd = np.sqrt(np.diag(cov))
    los = np.floor(m * (mu - TAIL_SIGMAS * sd)).astype(np.int64)
    his = np.ceil(m * (mu + TAIL_SIGMAS * sd)).astype(np.int64)
    return los, his


def _grid_rows(shape: tuple) -> np.ndarray:
    """Row-major indices of an array of this shape, one row per entry; shape () has one empty row."""
    return np.indices(shape).reshape(len(shape), int(np.prod(shape))).T


def _gl_nodes(los: np.ndarray, his: np.ndarray, m: int):
    """Tensor Gauss-Legendre grid over the cells [z/m, (z+1)/m), z in [lo, hi), of each axis.

    Returns the nodes (ncells, QUAD_NODES**d, d), cells in row-major order,
    and the node weights (QUAD_NODES**d,).  Over zero axes the grid is a
    single empty point of weight 1.
    """
    xs, ws = _gauss_legendre(QUAD_NODES)
    cells = los + _grid_rows(tuple(his - los))
    q = _grid_rows((QUAD_NODES,) * len(los))
    nodes = (cells[:, None, :] + 0.5 * (xs[q] + 1.0)) / m
    return nodes, np.prod(ws[q] / (2.0 * m), axis=1)


def _polevl(x: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """Horner's rule in Cephes' order: polevl, or p1evl when monic (leading 1 implied)."""
    y = x + coefs[0] if monic else np.full_like(x, coefs[0])
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _normal_tail(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Phi(-|u|) = erfc(|u|/sqrt 2)/2, the standard normal mass beyond |u|.

    Cephes ndtr at -|u| (Moshier 1989), with its branch points in z = |u|/sqrt 2:
    1/2 - erf(z)/2 below 1/sqrt 2 and (1 - erf(z))/2 below 1, with erf(z) =
    z T(z^2)/U(z^2); then exp(-z^2) P(z)/Q(z)/2 below 8 and exp(-z^2) R(z)/S(z)/2
    beyond, and 0 once z^2 > MAXLOG.  NaN stays NaN.  out may alias u and must
    be C-contiguous.  Temporaries are per block of _TAIL_BLOCK elements, so a
    call adds at most about 1.5 MiB however large u is.
    """
    u = np.asarray(u, dtype=float)
    if out is None:
        out = np.empty(u.shape)
    if out.shape != u.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of u's shape")
    src, dst = u.reshape(-1), out.reshape(-1)
    for start in range(0, src.size, _TAIL_BLOCK):
        z = np.abs(src[start:start + _TAIL_BLOCK])
        z *= np.sqrt(0.5)
        y = dst[start:start + _TAIL_BLOCK]
        y.fill(0.0)  # beyond the underflow edge
        np.copyto(y, z, where=np.isnan(z))
        # between 1/sqrt 2 and 1 both 1 - erf and 1/2 - erf/2 are exact (Sterbenz),
        # so 1/2 - erf/2 is Cephes' value on both branches below 1
        near = z < 1.0
        zn = z[near]
        w = zn * zn
        tail = _polevl(w, _ERF_T)
        tail *= zn
        tail /= _polevl(w, _ERF_U, monic=True)
        tail *= -0.5
        tail += 0.5
        y[near] = tail
        for far, num, den in (((z >= 1.0) & (z < 8.0), _ERFC_P, _ERFC_Q),
                              ((z >= 8.0) & (z * z <= _MAXLOG), _ERFC_R, _ERFC_S)):
            zf = z[far]
            tail = zf * zf
            np.exp(np.negative(tail, out=tail), out=tail)
            tail *= _polevl(zf, num)
            tail /= _polevl(zf, den, monic=True)
            tail *= 0.5
            y[far] = tail
    return out


def _cell_probability_grid(mu: np.ndarray, cov: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells (ncells, d) in row-major order and their probabilities, for a
    nondegenerate Gaussian of dimension <= 3.

    The first d-1 (head) axes are integrated by Gauss-Legendre quadrature.
    Given a head point x the last axis is normal with mean
    mu_d + beta.(x - mu_h), beta = cov_hh^-1 cov_hd, and a constant
    conditional sd, so its cell masses are normal-CDF differences (Genz 1992),
    each normal tail from _normal_tail, the Cephes port (Moshier 1989).
    """
    eig = np.linalg.eigvalsh(cov)
    if eig.min() <= 1e-10 * max(eig.max(), 1e-300):
        raise DegenerateCovarianceError(
            "block covariance is singular beyond removable constants/duplicates; "
            f"smallest eigenvalue {eig.min():.3e}"
        )
    los, his = _axis_cells(mu, cov, m)
    counts = his - los
    total_nodes = float(np.prod(counts[:-1] * QUAD_NODES)) * (counts[-1] + 1)
    if total_nodes > _BUDGET_NODES:
        raise QuadratureFeasibilityError(
            f"cell enumeration needs ~{total_nodes:.2e} normal-CDF evaluations; reduce m or the block size"
        )
    cov_hh, cov_hd = cov[:-1, :-1], cov[:-1, -1]
    beta = np.linalg.solve(cov_hh, cov_hd)
    cond_sd = np.sqrt(cov[-1, -1] - cov_hd @ beta)
    nodes, weights = _gl_nodes(los[:-1], his[:-1], m)
    u = nodes - mu[:-1]
    quad = np.einsum("cqi,ij,cqj->cq", u, np.linalg.inv(cov_hh), u)
    lognorm = -0.5 * ((len(mu) - 1) * np.log(2.0 * np.pi) + np.linalg.slogdet(cov_hh)[1])
    head_mass = weights * np.exp(lognorm - 0.5 * quad)  # (head cells, head nodes)
    cond_mean = mu[-1] + u @ beta
    edges = np.arange(los[-1], his[-1] + 1) / m
    probs = np.empty((len(nodes), counts[-1]))
    chunk = max(1, int(_CHUNK_TARGET / (nodes.shape[1] * len(edges))))
    for start in range(0, len(nodes), chunk):
        rows = slice(start, start + chunk)
        t = (edges - cond_mean[rows, :, None]) / cond_sd
        above = t >= 0.0
        # Phi(t) - [t >= 0] from the tail beyond each edge, so a cell on one side
        # of the mean is a difference of two tails and loses no digits to 1 - tail
        tail = _normal_tail(t, out=t)
        np.negative(tail, out=tail, where=above)
        mass = np.diff(tail, axis=-1)
        mass += np.diff(above, axis=-1)
        probs[rows] = (head_mass[rows, None, :] @ mass)[:, 0, :]
    return los + _grid_rows(tuple(counts)), probs.reshape(-1)


@dataclass(frozen=True)
class CellDistribution:
    """Exact lattice-cell distribution of a quantized Gaussian block.

    codes are in the full (k*L)-dimensional space, time-major, matching the
    row layout of quantized sample paths reshaped to (n, k*L).
    """

    codes: np.ndarray  # (ncells, k*L) int64
    probs: np.ndarray  # (ncells,)
    mass_deficit: float
    m: int


def _block_moments(model: SpectralModel, k: int, mean_shift=None):
    acov = autocovariance_from_spectrum(model, max(k - 1, 0))
    cov = acov.toeplitz(k)
    mu = np.tile(acov.mean, k)
    if mean_shift is not None:
        shift = np.asarray(mean_shift, float)
        if shift.shape == (model.L,):
            shift = np.tile(shift, k)
        if shift.shape != (k * model.L,):
            raise ValueError("mean_shift must have shape (L,) or (k*L,)")
        mu = mu + shift
    return mu, cov


def exact_cell_distribution(model: SpectralModel, k: int, m: int, mean_shift=None) -> CellDistribution:
    """Exact cell probabilities for a k-step block of the process.

    Requires k * L <= 3.  Constant and exactly duplicated coordinates are
    folded out first and reinstated in the returned codes.  The last remaining
    coordinate is integrated in closed form given the others (its conditional
    normal CDF), the others by Gauss-Legendre quadrature over each cell.
    """
    if k * model.L > 3:
        raise QuadratureFeasibilityError(f"k*L = {k * model.L} exceeds the quadrature limit 3")
    mu, cov = _block_moments(model, k, mean_shift)
    plan, mu_r, cov_r = _reduce_degenerate(mu, cov, m)
    if len(mu_r) == 0:
        codes = np.array([[code for kind, code in plan]], dtype=np.int64)
        return CellDistribution(codes, np.array([1.0]), 0.0, int(m))
    cells, probs = _cell_probability_grid(mu_r, cov_r, m)
    keep = probs > 0.0
    probs, reduced_codes = probs[keep], cells[keep]
    full = np.empty((len(probs), len(plan)), dtype=np.int64)
    for i, (kind, val) in enumerate(plan):
        if kind == "keep":
            full[:, i] = reduced_codes[:, val]
        elif kind == "dup":
            kept_kind, kept_val = plan[val]
            full[:, i] = reduced_codes[:, kept_val]
        else:
            full[:, i] = val
    deficit = abs(1.0 - float(probs.sum()))
    return CellDistribution(full, probs, deficit, int(m))


def exact_cell_entropy(model: SpectralModel, k: int, m: int, mean_shift=None) -> EntropyEstimate:
    """Exact entropy of the quantized k-block by cell-probability quadrature."""
    dist = exact_cell_distribution(model, k, m, mean_shift)
    p = dist.probs[dist.probs > 0]
    h = float(-(p * np.log(p)).sum())
    return EntropyEstimate(h, "quadrature-oracle", 0, dist.mass_deficit, len(p))
