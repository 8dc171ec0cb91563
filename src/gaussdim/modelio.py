"""Process-definition documents: JSON serialization of spectral models.

Document schema (strict; unknown keys are rejected):
    L          int
    mean       list of L floats (optional, default zeros)
    bands      list of {lo, hi, re: LxL, im: LxL} (im optional)
    arma_terms list of {row, col, num, den}; row and col are ints, the
               coefficients numbers or [re, im] pairs, ascending powers
               of e^{-i 2 pi theta}
    lines      list of {theta, re: LxL, im: LxL} (im optional)
Grid and tolerance overrides may ride alongside the model fields:
    grid_n (int), rank_rel_tol, rank_abs_floor
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .spectral import Band, RationalTerm, SpectralLine, SpectralModel

_MODEL_KEYS = {"L", "mean", "bands", "arma_terms", "lines"}
_OVERRIDE_KEYS = {"grid_n", "rank_rel_tol", "rank_abs_floor"}


class DocumentError(ValueError):
    """Malformed or unknown content in a process-definition document."""


def _field(entry: dict, name: str, what: str):
    if name not in entry:
        raise DocumentError(f"{what} needs the field {name!r}")
    return entry[name]


def _int_field(entry: dict, name: str, what: str) -> int:
    """An integer field; a float or a bool would otherwise be read truncated, as 1.9 -> 1."""
    value = _field(entry, name, what)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DocumentError(f"{what} field {name!r} must be an integer, got {value!r}")
    return int(value)


def _matrix_from(entry: dict, L: int, what: str) -> np.ndarray:
    if "re" not in entry:
        raise DocumentError(f"{what} needs an 're' matrix")
    re = np.asarray(entry["re"], dtype=float)
    im = np.asarray(entry.get("im", np.zeros((L, L))), dtype=float)
    if re.shape != (L, L) or im.shape != (L, L):
        raise DocumentError(f"{what} matrices must be {L}x{L}")
    return re + 1j * im


def _matrix_to(mat: np.ndarray) -> dict:
    out = {"re": np.asarray(mat).real.tolist()}
    if np.abs(np.asarray(mat).imag).max(initial=0.0) > 0:
        out["im"] = np.asarray(mat).imag.tolist()
    return out


def _coeff_from(c):
    if isinstance(c, (list, tuple)):
        if len(c) != 2:
            raise DocumentError(f"complex coefficient must be [re, im], got {c}")
        return complex(c[0], c[1])
    return complex(c)


def _coeff_to(c: complex):
    return [c.real, c.imag] if c.imag != 0 else c.real


def model_from_document(doc: dict) -> tuple[SpectralModel, dict]:
    """Parse a document into (model, overrides); rejects unknown fields."""
    if not isinstance(doc, dict):
        raise DocumentError("process document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS - _OVERRIDE_KEYS
    if unknown:
        raise DocumentError(f"unknown document fields: {sorted(unknown)}")
    L = _int_field(doc, "L", "document")
    bands = []
    for i, b in enumerate(doc.get("bands", [])):
        extra = set(b) - {"lo", "hi", "re", "im"}
        if extra:
            raise DocumentError(f"band {i} has unknown fields {sorted(extra)}")
        what = f"band {i}"
        bands.append(Band(float(_field(b, "lo", what)), float(_field(b, "hi", what)), _matrix_from(b, L, what)))
    lines = []
    for i, ln in enumerate(doc.get("lines", [])):
        extra = set(ln) - {"theta", "re", "im"}
        if extra:
            raise DocumentError(f"line {i} has unknown fields {sorted(extra)}")
        lines.append(SpectralLine(float(_field(ln, "theta", f"line {i}")), _matrix_from(ln, L, f"line {i}")))
    terms = []
    for i, t in enumerate(doc.get("arma_terms", [])):
        extra = set(t) - {"row", "col", "num", "den"}
        if extra:
            raise DocumentError(f"arma term {i} has unknown fields {sorted(extra)}")
        row, col = (_int_field(t, name, f"arma term {i}") for name in ("row", "col"))
        num, den = (_field(t, name, f"arma term {i}") for name in ("num", "den"))
        terms.append(RationalTerm(row, col, tuple(_coeff_from(c) for c in num), tuple(_coeff_from(c) for c in den)))
    mean = doc.get("mean")
    model = SpectralModel(L=L, bands=tuple(bands), arma_terms=tuple(terms), lines=tuple(lines), mean=mean)
    overrides = {k: doc[k] for k in _OVERRIDE_KEYS if k in doc}
    if "grid_n" in doc:
        overrides["grid_n"] = _int_field(doc, "grid_n", "document")
    return model, overrides


def model_to_document(model: SpectralModel) -> dict:
    doc = {"L": model.L}
    if np.abs(model.mean).max(initial=0.0) > 0:
        doc["mean"] = model.mean.tolist()
    if model.bands:
        doc["bands"] = [{"lo": b.lo, "hi": b.hi, **_matrix_to(b.matrix)} for b in model.bands]
    if model.arma_terms:
        doc["arma_terms"] = [
            {
                "row": t.row,
                "col": t.col,
                "num": [_coeff_to(c) for c in t.num],
                "den": [_coeff_to(c) for c in t.den],
            }
            for t in model.arma_terms
        ]
    if model.lines:
        doc["lines"] = [{"theta": ln.theta, **_matrix_to(ln.power)} for ln in model.lines]
    return doc


def load_model(path) -> tuple[SpectralModel, dict]:
    return model_from_document(json.loads(Path(path).read_text()))


def save_model(model: SpectralModel, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(model_to_document(model), indent=2, sort_keys=True))
    return path


def model_fingerprint(model: SpectralModel) -> str:
    canonical = json.dumps(model_to_document(model), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
