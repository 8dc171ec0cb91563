"""The 70 CLI documents of scripts/cli_documents.py, written once in-process: the exit code of
every task on every MODELS entry at both seeds, the surrogate, gain, identity and
quadrature-oracle rows of the models the README quick start runs, and the script's `compare`."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from gaussdim.benchmarks import MODELS
from gaussdim.experiments import TASKS

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 11)

# Every (task, model) exits 0 unless listed.  1: the known k=1 entropy-slope limit; 2: the
# UndersamplingError guard on three L=2 models, and complex on an L=1 model, refused by design.
EXPECTED_EXITS = {
    **{("estimate", m): 1 for m in ("narrowband_0p4", "real_only_complex", "line_process")},
    **{
        (task, m): 2
        for task in ("estimate", "verify")
        for m in ("independent_halfband_pair", "proper_complex_flat", "matched_support_nonproper")
    },
    **{("complex", m): 2 for m in ("white_noise", "narrowband_0p4", "zero_process", "ar1_0p6", "line_process")},
}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("cli_documents", ROOT / "scripts" / "cli_documents.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture(scope="module")
def runs(script, tmp_path_factory):
    out = tmp_path_factory.mktemp("documents")
    assert script.main(["write", str(out)]) == 0
    return json.loads((out / "documents.json").read_text())


def _run(runs, task, model, seed):
    """The record of one run; `seed` is dropped for the tasks that take none."""
    return runs[f"{task}/{model}" + (f"/seed{seed}" if "seed" in TASKS[task].fields else "")]


def _rows(runs, task, model, seed, **match):
    rows = _run(runs, task, model, seed)["document"]["reports"]
    return [r for r in rows if all(r[key] == value for key, value in match.items())]


def test_every_task_on_every_model_is_written(runs):
    stochastic = sum("seed" in spec.fields for spec in TASKS.values())
    assert len(runs) == len(MODELS) * (len(TASKS) + stochastic * (len(SEEDS) - 1)) == 70


@pytest.mark.parametrize("seed", SEEDS)
def test_exit_code_table(runs, seed):
    exits = {(task, m): _run(runs, task, m, seed)["exit"] for task in TASKS for m in MODELS}
    assert {key: code for key, code in exits.items() if code} == EXPECTED_EXITS
    assert sum(code == 0 for code in exits.values()) == 36
    for (task, m), code in exits.items():
        record = _run(runs, task, m, seed)
        if code == 2:
            assert record["document"] is None and record["stderr"].startswith("gaussdim: "), record
        else:
            assert record["document"]["all_passed"] is (code == 0), (task, m)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "model, k",
    [("white_noise", 4096), ("line_process", 4096), ("ar1_0p6", 4096), ("narrowband_0p4", 4096),
     ("correlated_pair", 2048)],
)
def test_estimate_surrogate_passes_on_the_spectral_quadrature(runs, model, k, seed):
    """Every surrogate, the rational and the line model's included, draws its paths by the spectral
    quadrature, with no jitter; an L = 2 model runs at k = 4096 // 2."""
    (surrogate,) = _rows(runs, "estimate", model, seed, method="gaussian-surrogate")
    settings = surrogate["settings"]
    assert surrogate["pass"] is True and settings["factor_method"] == "spectral", surrogate
    assert "jitter" not in settings and settings["k"] == k, settings


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model, L", [("white_noise", 1), ("correlated_pair", 2)])
def test_verify_gain_and_identity_rows_pass(runs, model, L, seed):
    gains = _rows(runs, "verify", model, seed, quantity="bussgang_gain")
    identity = _rows(runs, "verify", model, seed, quantity="quantized_spectrum_identity")
    assert (len(gains), len(identity)) == (8, 2)
    assert all(r["pass"] is True for r in gains + identity), gains + identity
    assert all(len(r["settings"]["gain_bound"]) == L for r in gains), gains
    assert all(len(r["settings"]["noise_mass"]) == L for r in identity), identity


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "model, oracles",
    [("white_noise", {"gaussian_surrogate_kl", "translation_entropy_bound"}),
     ("correlated_pair", {"translation_entropy_bound"})],
)
def test_verify_quadrature_oracle_rows(runs, model, oracles, seed):
    """The d = 1 KL and translation oracles on white_noise, the d = 2 translation oracle on
    correlated_pair; CI's documents step runs them all with SciPy blocked."""
    assert _run(runs, "verify", model, seed)["exit"] == 0
    assert {r["quantity"] for r in _rows(runs, "verify", model, seed, method="quadrature-oracle")} == oracles


class TestCompare:
    RUNS = {
        "analyze/a": {"exit": 0, "stderr": "", "document": {"value": 0.1, "se": float("nan"), "n": 1}},
        "estimate/a/seed7": {"exit": 1, "stderr": "gaussdim: checks failed\n", "document": {"value": 0.5}},
    }

    def _compare(self, script, tmp_path, b_runs):
        for name, docs in (("a", self.RUNS), ("b", b_runs)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "documents.json").write_text(json.dumps(docs))
        return script.compare(tmp_path / "a", tmp_path / "b")

    def test_equal_sets_exit_zero_and_nan_equals_nan(self, script, tmp_path, capsys):
        assert self._compare(script, tmp_path, json.loads(json.dumps(self.RUNS))) == 0
        assert capsys.readouterr().out == "2 and 2 runs, 0 differing keys\n"

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda r: r["analyze/a"]["document"].update(n=1.0), "documents.analyze/a.document.n: 1 != 1.0"),
            (lambda r: r["analyze/a"]["document"].update(value=math.nextafter(0.1, 1.0)),
             "documents.analyze/a.document.value: 0.1 != 0.10000000000000002"),
            (lambda r: r["estimate/a/seed7"].update(exit=2), "documents.estimate/a/seed7.exit: 1 != 2"),
            (lambda r: r.pop("estimate/a/seed7"), "documents.estimate/a/seed7 (only in A)"),
            (lambda r: r["analyze/a"]["document"].pop("se"), "documents.analyze/a.document.se (only in A)"),
            (lambda r: r["analyze/a"]["document"].update(extra=None), "documents.analyze/a.document.extra (only in B)"),
        ],
        ids=["int-vs-float", "last-bit", "exit", "missing-run", "missing-key", "extra-key"],
    )
    def test_each_difference_is_named_and_exits_one(self, script, tmp_path, capsys, edit, named):
        b_runs = json.loads(json.dumps(self.RUNS))
        edit(b_runs)
        assert self._compare(script, tmp_path, b_runs) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [named] and lines[-1].endswith(", 1 differing keys"), lines
