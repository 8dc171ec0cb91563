"""The README library quick start and the two documented scripts, run in-process as documented."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

import gaussdim
from gaussdim.benchmarks import MODELS
from gaussdim.modelio import model_to_document

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _benchmark_rows(argv, out: Path) -> list:
    """The benchmarks.json rows of one run_benchmarks.py run, which must list MODELS in order."""
    assert _script("run_benchmarks").main([*argv, "--out", str(out)]) == 0
    rows = json.loads((out / "benchmarks.json").read_text())
    assert [r["model"] for r in rows] == list(MODELS)
    return rows


def test_readme_library_quick_start():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["ri"].value == 0.4
    assert abs(namespace["est"].value - 0.4) <= 0.05
    for name in gaussdim.__all__:
        assert getattr(gaussdim, name) is not None, name


def test_export_script_writes_every_model(tmp_path):
    assert _script("export_models").main([str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.json" for name in MODELS)
    for name, (builder, _) in MODELS.items():
        assert json.loads((tmp_path / f"{name}.json").read_text()) == model_to_document(builder()), name


@pytest.mark.parametrize("argv", [[], ["--grid", "4098"]], ids=["default-grid", "grid-4098"])
def test_benchmark_script_rank_integrals_and_rd_slopes(argv, tmp_path):
    """Each rank integral at its closed form, and each rd slope within 0.01 of it, also on 4098
    nodes, where the nodes are not exact mirrors: a band-only value is exact, a rational model's
    a grid sum."""
    for r in _benchmark_rows(argv, tmp_path):
        if MODELS[r["model"]][0]().arma_terms:
            assert abs(r["rank_integral"] - r["expected"]) <= 1e-12, r
        else:
            assert r["rank_integral"] == r["expected"], r
        assert abs(r["rd_slope"] - r["rank_integral"]) <= 0.01, r


def test_benchmark_script_estimators(tmp_path):
    """With --estimators, each surrogate within 0.05 of its rank integral, and each entropy slope a
    number or the undersampling guard's message; a path count below 1 is refused."""
    for r in _benchmark_rows(["--estimators", "--paths", "20000"], tmp_path):
        assert abs(r["surrogate"] - r["rank_integral"]) <= 0.05, r
        assert isinstance(r["entropy_slope"], float) or "occupied cells" in r["entropy_slope_error"], r
    with pytest.raises(SystemExit) as exc:
        _script("run_benchmarks").main(["--estimators", "--paths", "0"])
    assert exc.value.code == 2
