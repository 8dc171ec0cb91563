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
A number is a JSON number: a string or a bool in its place, or among a
list's numbers, is rejected with the field named, not converted.  So is an
entry of the wrong JSON type, such as a number where a list or an object goes.
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _number(value, where: str) -> float:
    """A number; float() would also read a string or a bool, as "0.1" -> 0.1 and false -> 0.0."""
    if not _is_number(value):
        raise DocumentError(f"{where} must be a number, got {value!r}")
    return float(value)


def _number_field(entry: dict, name: str, what: str) -> float:
    return _number(_field(entry, name, what), f"{what} field {name!r}")


def _numbers(value, where: str) -> np.ndarray:
    """A (nested) list of numbers as a float array, each entry checked as _number checks one:
    NumPy would read a string among numbers as text and a bool among them as 0 or 1."""
    entries = np.array(value, dtype=object)  # a ragged list keeps its inner lists as entries
    if not all(map(_is_number, entries.flat)):
        raise DocumentError(f"{where} must be numbers, got {value!r}")
    return entries.astype(float)


def _list(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise DocumentError(f"{where} must be a list, got {value!r}")
    return value


def _entries(doc: dict, name: str, what: str, keys: set):
    """(label, entry) for each entry of the document's list `name`: an object with no field outside keys."""
    for i, entry in enumerate(_list(doc.get(name, []), f"document field {name!r}")):
        if not isinstance(entry, dict):
            raise DocumentError(f"{what} {i} must be an object, got {entry!r}")
        extra = set(entry) - keys
        if extra:
            raise DocumentError(f"{what} {i} has unknown fields {sorted(extra)}")
        yield f"{what} {i}", entry


def _matrix_from(entry: dict, L: int, what: str) -> np.ndarray:
    if "re" not in entry:
        raise DocumentError(f"{what} needs an 're' matrix")
    re = _numbers(entry["re"], f"{what} field 're'")
    im = _numbers(entry["im"], f"{what} field 'im'") if "im" in entry else np.zeros((L, L))
    if re.shape != (L, L) or im.shape != (L, L):
        raise DocumentError(f"{what} matrices must be {L}x{L}")
    return re + 1j * im


def _matrix_to(mat: np.ndarray) -> dict:
    out = {"re": np.asarray(mat).real.tolist()}
    if np.abs(np.asarray(mat).imag).max(initial=0.0) > 0:
        out["im"] = np.asarray(mat).imag.tolist()
    return out


def _coeff_from(c, where: str) -> complex:
    if isinstance(c, (list, tuple)):
        if len(c) != 2:
            raise DocumentError(f"{where} coefficients must be numbers or [re, im] pairs, got {c!r}")
        return complex(*_numbers(c, where))
    return complex(_number(c, where))


def _coeffs(entry: dict, name: str, what: str) -> tuple:
    where = f"{what} field {name!r}"
    return tuple(_coeff_from(c, where) for c in _list(_field(entry, name, what), where))


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
    bands = [
        Band(_number_field(b, "lo", what), _number_field(b, "hi", what), _matrix_from(b, L, what))
        for what, b in _entries(doc, "bands", "band", {"lo", "hi", "re", "im"})
    ]
    lines = [
        SpectralLine(_number_field(ln, "theta", what), _matrix_from(ln, L, what))
        for what, ln in _entries(doc, "lines", "line", {"theta", "re", "im"})
    ]
    terms = []
    for what, t in _entries(doc, "arma_terms", "arma term", {"row", "col", "num", "den"}):
        row, col = (_int_field(t, name, what) for name in ("row", "col"))
        num, den = (_coeffs(t, name, what) for name in ("num", "den"))
        terms.append(RationalTerm(row, col, num, den))
    mean = _numbers(doc["mean"], "document field 'mean'") if "mean" in doc else None
    model = SpectralModel(L=L, bands=tuple(bands), arma_terms=tuple(terms), lines=tuple(lines), mean=mean)
    overrides = {key: _number_field(doc, key, "document") for key in ("rank_rel_tol", "rank_abs_floor") if key in doc}
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
