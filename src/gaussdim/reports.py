"""Estimate records and run reports, with JSON and CSV emission.

Every stochastic number carries a standard error and every comparison carries
its tolerance, so a report is self-auditing: the run passes iff every record
with a tolerance passes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

CSV_COLUMNS = ("quantity", "method", "value", "se", "reference", "tolerance", "pass")


@dataclass(frozen=True)
class EstimateReport:
    """One named scalar result with its method, uncertainty, and verdict."""

    quantity: str
    method: str
    value: float
    se: float | None = None
    reference: float | None = None
    tolerance: float | None = None
    passed: bool | None = None
    settings: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = asdict(self)
        rec["pass"] = rec.pop("passed")
        return rec

    @staticmethod
    def from_record(rec: dict) -> "EstimateReport":
        rec = dict(rec)
        rec["passed"] = rec.pop("pass")
        return EstimateReport(**rec)


@dataclass(frozen=True)
class RunReport:
    task: str
    seed: int | None
    model_fingerprint: str
    settings: dict
    reports: tuple
    wall_time_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.reports)

    def to_document(self) -> dict:
        return {
            "task": self.task,
            "seed": self.seed,
            "model_fingerprint": self.model_fingerprint,
            "settings": self.settings,
            "wall_time_s": self.wall_time_s,
            "all_passed": self.all_passed,
            "reports": [r.to_record() for r in self.reports],
        }

    @staticmethod
    def from_document(doc: dict) -> "RunReport":
        return RunReport(
            task=doc["task"],
            seed=doc["seed"],
            model_fingerprint=doc["model_fingerprint"],
            settings=doc["settings"],
            reports=tuple(EstimateReport.from_record(r) for r in doc["reports"]),
            wall_time_s=doc["wall_time_s"],
        )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def render(report: RunReport, fmt: str = "json") -> str:
    """The report's text: lossless JSON, or flat CSV with fixed columns."""
    if fmt == "json":
        return json.dumps(report.to_document(), indent=2, sort_keys=True)
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in report.reports:
            rec = r.to_record()
            lines.append(",".join(_csv_cell(rec[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit(report: RunReport, path, fmt: str = "json") -> Path:
    """Write a run report as `render` gives it."""
    path = Path(path)
    path.write_text(render(report, fmt))
    return path


def load_report(path) -> RunReport:
    return RunReport.from_document(json.loads(Path(path).read_text()))
