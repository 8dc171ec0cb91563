"""Report emission, configuration validation, CLI contract, and determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussdim
from gaussdim.benchmarks import (
    MODELS,
    ar1,
    correlated_pair,
    narrowband,
    proper_complex_flat,
    real_only_complex,
    white_noise,
    zero_process,
)
from gaussdim.cli import _build_parser, _raw_config, main
from gaussdim.entropy import exact_cell_entropy
from gaussdim.estimators import K_CAP, SURROGATE_K, SURROGATE_M_LADDER, SURROGATE_PATHS, _draw
from gaussdim.experiments import (
    BUSSGANG_M_LADDER,
    COMMON_FIELDS,
    INVARIANCE_TRANSFORMS,
    TASKS,
    TRANSLATION_BLOCK,
    ConfigError,
    ExperimentConfig,
    run,
)
from gaussdim.modelio import (
    DocumentError,
    load_model,
    model_from_document,
    model_to_document,
    save_model,
)
from gaussdim.quantize import bussgang_gain
from gaussdim.reports import CSV_COLUMNS, EstimateReport, RunReport, emit, load_report
from gaussdim.simulate import MAX_DENSE_DIM
from gaussdim.spectral import Band, SpectralModel, normalize_components


class TestModelDocuments:
    def test_roundtrip_all_field_kinds(self, tmp_path):
        from gaussdim.benchmarks import ar1, line_process

        for model in (narrowband(0.4), proper_complex_flat(), ar1(0.6), line_process()):
            doc = model_to_document(model)
            back, overrides = model_from_document(doc)
            assert model_to_document(back) == doc
            assert overrides == {}
            p = save_model(model, tmp_path / "m.json")
            again, _ = load_model(p)
            assert model_to_document(again) == doc

    def test_unknown_field_rejected(self):
        with pytest.raises(DocumentError, match="unknown"):
            model_from_document({"L": 1, "bandz": []})

    def test_overrides_extracted(self):
        doc = model_to_document(white_noise())
        doc["grid_n"] = 1024
        model, overrides = model_from_document(doc)
        assert overrides == {"grid_n": 1024}

    def test_band_schema_strict(self):
        with pytest.raises(DocumentError, match="band 0"):
            model_from_document({"L": 1, "bands": [{"lo": -0.5, "hi": 0.5, "re": [[1.0]], "extra": 1}]})

    @pytest.mark.parametrize(
        "kind, index, field",
        [("bands", 0, "lo"), ("bands", 1, "hi"), ("lines", 1, "theta"),
         ("arma_terms", 0, "row"), ("arma_terms", 0, "col"), ("arma_terms", 0, "num"), ("arma_terms", 0, "den")],
    )
    def test_missing_entry_field_is_named(self, kind, index, field):
        doc = model_to_document(narrowband(0.4)) if kind == "bands" else model_to_document(ar1(0.6))
        doc["lines"] = [{"theta": -0.125, "re": [[0.5]]}, {"theta": 0.125, "re": [[0.5]]}]
        doc["bands"] = doc.get("bands", []) + [{"lo": -0.5, "hi": -0.4, "re": [[0.0]]}]
        del doc[kind][index][field]
        what = {"bands": "band", "lines": "line", "arma_terms": "arma term"}[kind]
        with pytest.raises(DocumentError, match=f"^{what} {index} needs the field '{field}'$"):
            model_from_document(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("L", 1.9), ("L", True), ("L", "1"), ("row", 0.7), ("col", True), ("grid_n", 4096.9), ("grid_n", 4096.0)],
    )
    def test_non_integer_field_is_named(self, field, value):
        """An integer field that is not an integer is rejected, not read truncated (1.9 as 1)."""
        doc = model_to_document(ar1(0.6))
        (doc["arma_terms"][0] if field in ("row", "col") else doc)[field] = value
        what = "arma term 0" if field in ("row", "col") else "document"
        with pytest.raises(DocumentError, match=f"^{what} field '{field}' must be an integer, got {value!r}$"):
            model_from_document(doc)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("bands", "lo", "-0.5"), ("bands", "lo", False), ("bands", "hi", [0.5]), ("bands", "re", [["1.0"]]),
            ("bands", "im", [[True]]), ("lines", "theta", "0.1"), ("arma_terms", "num", ["1"]),
            ("arma_terms", "den", [-0.5, ["2", 0], -0.5]), (None, "mean", ["3"]), (None, "rank_rel_tol", "1e-9"),
            (None, "rank_abs_floor", True),
        ],
    )
    def test_non_number_field_is_named(self, kind, field, value):
        """A string or a bool where a number goes is rejected, not read as float() reads it
        ("0.5" as 0.5, false as 0.0); JSON integers are numbers."""
        doc = {
            "L": 1, "mean": [0], "bands": [{"lo": -0.5, "hi": 0.5, "re": [[1]], "im": [[0]]}],
            "lines": [{"theta": 0, "re": [[1]]}], "arma_terms": [{"row": 0, "col": 0, "num": [0, 1], "den": [-0.5, 2, -0.5]}],
            "rank_rel_tol": 1e-9, "rank_abs_floor": 0,
        }
        model_from_document(doc)
        (doc[kind][0] if kind else doc)[field] = value
        what = {"bands": "band 0", "lines": "line 0", "arma_terms": "arma term 0", None: "document"}[kind]
        with pytest.raises(DocumentError, match=f"^{what} field '{field}' must be (a number|numbers), got "):
            model_from_document(doc)

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("bands", "re", [[1.0, True], [True, 1]],
             "band 0 field 're' must be numbers, got [[1.0, True], [True, 1]]"),
            (None, "mean", [0.5, False], "document field 'mean' must be numbers, got [0.5, False]"),
            ("arma_terms", "num", [[True, 0.0]], "arma term 0 field 'num' must be numbers, got [True, 0.0]"),
            ("arma_terms", "num", 1, "arma term 0 field 'num' must be a list, got 1"),
            ("arma_terms", "den", [1, [2, 0, 0]],
             "arma term 0 field 'den' coefficients must be numbers or [re, im] pairs, got [2, 0, 0]"),
            ("bands", "im", [[0, 0], [0]], "band 0 field 'im' must be numbers, got [[0, 0], [0]]"),
            (None, "bands", 5, "document field 'bands' must be a list, got 5"),
            (None, "bands", [5], "band 0 must be an object, got 5"),
            (None, "lines", [3], "line 0 must be an object, got 3"),
            (None, "arma_terms", [7], "arma term 0 must be an object, got 7"),
        ],
    )
    def test_malformed_entry_is_named(self, kind, field, value, message):
        """A bool inside a list of numbers is rejected, not promoted to 1 or 0 as NumPy would,
        and an entry of the wrong JSON type is a DocumentError that names it, not a TypeError."""
        doc = model_to_document(correlated_pair())
        doc["lines"] = [{"theta": -0.25, "re": [[1, 0], [0, 1]]}, {"theta": 0.25, "re": [[1, 0], [0, 1]]}]
        doc["arma_terms"] = [{"row": 0, "col": 0, "num": [0, 1], "den": [-0.5, 2, -0.5]}]
        model_from_document(doc)
        (doc[kind][0] if kind else doc)[field] = value
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            model_from_document(doc)

    def test_missing_model_size_is_named(self):
        with pytest.raises(DocumentError, match="^document needs the field 'L'$"):
            model_from_document({"bands": []})


class TestReports:
    def _sample_report(self):
        return RunReport(
            task="analyze",
            seed=None,
            model_fingerprint="abc123",
            settings={"grid_n": 4096},
            reports=(
                EstimateReport("rank_integral", "segment-exact", 0.5, settings={"grid_n": 4096}),
                EstimateReport("dimension", "rate-distortion", 0.5, se=1e-14, reference=0.5,
                               tolerance=0.01, passed=True),
            ),
            wall_time_s=0.01,
        )

    def test_json_roundtrip(self, tmp_path):
        rep = self._sample_report()
        p = emit(rep, tmp_path / "r.json", "json")
        back = load_report(p)
        assert back.to_document() == rep.to_document()

    def test_csv_columns_fixed(self, tmp_path):
        rep = self._sample_report()
        p = emit(rep, tmp_path / "r.csv", "csv")
        lines = p.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[2].split(",")[0] == "dimension"
        assert lines[2].split(",")[-1] == "true"

    def test_empty_report_header_only(self, tmp_path):
        rep = RunReport("analyze", None, "x", {}, ())
        p = emit(rep, tmp_path / "empty.csv", "csv")
        assert p.read_text().splitlines() == [",".join(CSV_COLUMNS)]

    def test_all_passed_semantics(self):
        ok = EstimateReport("q", "m", 1.0, passed=True)
        unknown = EstimateReport("q", "m", 1.0)
        bad = EstimateReport("q", "m", 1.0, passed=False)
        assert RunReport("analyze", None, "", {}, (ok, unknown)).all_passed
        assert not RunReport("analyze", None, "", {}, (ok, bad)).all_passed


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"task": "analyze", "model": {"L": 1}, "bogus": 1})

    def test_field_of_another_task_rejected(self):
        doc = model_to_document(white_noise())
        with pytest.raises(ConfigError, match="'paths'"):
            ExperimentConfig.from_dict({"task": "verify", "model": doc, "seed": 1, "paths": 2000})
        with pytest.raises(ConfigError, match="unknown configuration fields for task 'verify': \\['paths'\\]"):
            ExperimentConfig(task="verify", model=doc, seed=1, paths=2000)
        with pytest.raises(ConfigError, match="'m_ladder'"):
            run({"task": "rd", "model": doc, "m_ladder": [2, 4]})

    def test_every_field_is_common_or_read_by_a_task(self):
        read = set(COMMON_FIELDS).union(*(task.fields for task in TASKS.values()))
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} == read

    @pytest.mark.parametrize("field", ["paths", "verify_paths"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_counts_below_one_rejected(self, field, value):
        task = "verify" if field == "verify_paths" else "estimate"
        doc = model_to_document(white_noise())
        with pytest.raises(ConfigError, match=f"{field} must be at least 1, got {value}"):
            ExperimentConfig(task=task, model=doc, seed=7, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("surrogate_paths", 4), ("surrogate_k", 2048), ("surrogate_m_ladder", [16, 64]),
    ])
    def test_surrogate_settings_are_not_configuration_fields(self, field, value):
        """The surrogate's ladder, path count and path length are fixed, like verify's settings."""
        doc = model_to_document(white_noise())
        with pytest.raises(ConfigError, match=f"unknown configuration fields for task 'estimate': \\['{field}'\\]"):
            ExperimentConfig.from_dict({"task": "estimate", "model": doc, "seed": 7, field: value})

    def test_seed_required_for_stochastic_tasks(self):
        doc = model_to_document(white_noise())
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"task": "estimate", "model": doc})
        ExperimentConfig.from_dict({"task": "analyze", "model": doc})  # fine without seed

    def test_bad_task(self):
        with pytest.raises(ConfigError, match="task"):
            ExperimentConfig.from_dict({"task": "train", "model": {"L": 1}})

    def test_model_doc_grid_override_vs_explicit(self, tmp_path):
        doc = model_to_document(narrowband(0.4))
        doc["grid_n"] = 512
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        rep = run({"task": "analyze", "model": str(path)})
        assert rep.settings["grid_n"] == 512
        rep2 = run({"task": "analyze", "model": str(path), "grid_n": 1024})
        assert rep2.settings["grid_n"] == 1024
        rep3 = run(ExperimentConfig(task="analyze", model=doc, grid_n=1024))
        assert rep3.settings["grid_n"] == 1024

    def test_model_doc_rank_tolerance_override(self):
        doc = model_to_document(narrowband(0.4))
        doc["rank_rel_tol"] = 1e-6
        rep = run({"task": "analyze", "model": doc})
        assert rep.reports[0].settings["rank_rel_tol"] == 1e-6
        assert rep.reports[0].value == pytest.approx(0.4, abs=1e-12)


    @pytest.mark.parametrize("task", ["analyze", "complex"])
    def test_support_bound_reads_document_rank_tolerance(self, task):
        # eigenvalues {1, 1e-6}: rank 2 at the default tolerance, 1 at 1e-3
        doc = model_to_document(SpectralModel(L=2, bands=[Band(-0.5, 0.5, [[1.0, 0.0], [0.0, 1e-6]])]))
        doc["rank_rel_tol"] = 1e-3
        rows = {r.quantity: r for r in run({"task": task, "model": doc}).reports}
        assert rows["support_bound"].value == 1.0
        if task == "analyze":
            assert rows["rank_integral"].value == 1.0

    @pytest.mark.parametrize("task", ["estimate", "rd"])
    def test_dimension_reference_reads_document_rank_tolerance(self, task):
        # eigenvalues {1, 1e-6}: rank 2 at the default tolerance, 1 at 1e-3
        doc = model_to_document(SpectralModel(L=2, bands=[Band(-0.5, 0.5, [[1.0, 0.0], [0.0, 1e-6]])]))
        doc["rank_rel_tol"] = 1e-3
        config = {"task": task, "model": doc, "grid_n": 1024}
        if task == "estimate":
            config.update({"seed": 3, "paths": 5000, "m_ladder": [1, 2]})
        rows = [r for r in run(config).reports if r.quantity == "dimension"]
        assert len(rows) == (2 if task == "estimate" else 1)
        assert all(r.reference == 1.0 for r in rows)


class TestRunTasks:
    def test_analyze_band_model(self):
        rep = run({"task": "analyze", "model": model_to_document(narrowband(0.5))})
        ri = rep.reports[0]
        assert ri.quantity == "rank_integral"
        assert ri.value == pytest.approx(0.5, abs=1e-12)
        assert rep.all_passed

    def test_analyze_bivariate_includes_complex_checks(self):
        rep = run({"task": "analyze", "model": model_to_document(proper_complex_flat())})
        quantities = [r.quantity for r in rep.reports]
        assert quantities == ["rank_integral", "properness", "support_bound"]
        hist = rep.reports[0].settings["rank_histogram"]
        assert set(hist) == {0, 2}  # rank-2 on the band, rank-0 outside

    def test_complex_on_every_bivariate_model_at_4098_nodes(self):
        """At 4098 nodes, where the nodes are not exact mirrors, only proper_complex_flat is
        proper, and every support bound keeps its closed form and passes."""
        expected = {  # model: (properness, support_bound value, support_bound reference)
            "independent_halfband_pair": (0.0, 1.0, 2.0),
            "correlated_pair": (0.0, 1.0, 2.0),
            "proper_complex_flat": (1.0, 1.0, 1.0),
            "real_only_complex": (0.0, 0.5, 1.0),
            "matched_support_nonproper": (0.0, 1.0, 1.0),
        }
        assert [name for name, (builder, _) in MODELS.items() if builder().L == 2] == list(expected)
        for name, (proper, value, bound) in expected.items():
            rep = run({"task": "complex", "model": model_to_document(MODELS[name][0]()), "grid_n": 4098})
            properness, support = rep.reports
            assert properness.quantity == "properness" and properness.value == proper, (name, properness)
            assert support.quantity == "support_bound", name
            assert (support.value, support.reference, support.passed) == (value, bound, True), (name, support)

    def test_estimate_deterministic(self):
        cfg = {
            "task": "estimate",
            "model": model_to_document(white_noise()),
            "seed": 11,
            "paths": 20_000,
        }
        r1, r2 = run(dict(cfg)), run(dict(cfg))
        d1, d2 = r1.to_document(), r2.to_document()
        d1.pop("wall_time_s"), d2.pop("wall_time_s")
        assert d1 == d2

    def test_estimate_reports_occupancy_next_to_k(self):
        rep = run({
            "task": "estimate",
            "model": model_to_document(white_noise()),
            "seed": 12,
            "paths": 20_000,
        })
        slope, surrogate = rep.reports
        assert slope.settings["k"] == 1
        assert len(slope.settings["occupancy"]) == len(slope.settings["m_ladder"])
        assert max(slope.settings["occupancy"]) <= 0.1
        assert surrogate.settings["occupancy"] == []

    @pytest.mark.parametrize(
        "builder, method",
        [(lambda: narrowband(0.4), "spectral"), (white_noise, "spectral")],
        ids=["narrowband", "white"],
    )
    def test_estimate_reports_factor_method_and_jitter(self, builder, method):
        """Every factor samples the exact law, so no row reports a jitter."""
        rep = run({
            "task": "estimate",
            "model": model_to_document(builder()),
            "seed": 12,
            "paths": 20_000,
        })
        slope, surrogate = rep.reports
        assert surrogate.settings["factor_method"] == method
        assert list(surrogate.settings)[:4] == ["m_ladder", "k", "factor_method", "occupancy"]
        assert slope.settings["factor_method"] == "cholesky"
        assert "jitter" not in slope.settings

    def test_verify_rows_report_factor_method(self):
        rep = run({"task": "verify", "model": model_to_document(white_noise()), "seed": 3,
                   "m_ladder": [2, 4], "verify_paths": 2000})
        sampled = [r for r in rep.reports if r.method != "quadrature-oracle"]
        assert {r.quantity for r in sampled} == {
            "invariance_scale", "invariance_translate", "bussgang_gain", "quantized_spectrum_identity",
        }
        for r in sampled:
            # only the identity check draws paths long enough (k=1024) for the spectral quadrature
            method = "spectral" if r.quantity == "quantized_spectrum_identity" else "cholesky"
            assert r.settings["factor_method"] == method, r.quantity
            assert "jitter" not in r.settings, r.quantity
        bussgang = [r for r in sampled if r.quantity == "bussgang_gain"]
        assert bussgang
        for r in bussgang:
            # the tolerance is the threshold the gate applies, above the theory bound
            assert r.tolerance > max(r.settings["gain_bound"])
            assert (abs(1.0 - r.value) <= r.tolerance) == r.passed, r.settings["m"]

    def test_no_task_loads_scipy(self, tmp_path):
        """The runtime is NumPy only: no CLI task, the quadrature oracles of `verify`
        included, imports any scipy module."""
        white = save_model(white_noise(), tmp_path / "white.json")
        pair = save_model(correlated_pair(), tmp_path / "pair.json")
        est = tmp_path / "estimate.json"
        est.write_text(json.dumps({"seed": 3, "paths": 20_000}))
        small = ["--seed", "3", "--m-ladder", "2,4", "--paths", "2000"]
        runs = {
            "analyze": ["analyze", str(white)],
            "rd": ["rd", str(white)],
            "complex": ["complex", str(pair)],
            "estimate": ["estimate", str(pair), "--config", str(est)],
            "verify-white": ["verify", str(white), *small],  # d = 1 KL and translation oracles
            "verify-pair": ["verify", str(pair), *small],  # the d = 2 translation oracle
        }
        runs = {name: [*argv, "--out", str(tmp_path / f"{name}.json")] for name, argv in runs.items()}
        code = (
            "import json, sys\n"
            "from gaussdim.cli import main\n"
            "loaded = {}\n"
            "for name, argv in json.loads(sys.argv[1]).items():\n"
            "    status = main(argv)\n"
            "    loaded[name] = [status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]\n"
            "print(json.dumps(loaded))\n"
        )
        src = str(Path(gaussdim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)],
            env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
        )
        loaded = json.loads(out.stdout.strip().splitlines()[-1])
        assert loaded == {name: [0, []] for name in runs}
        oracles = {"verify-white": {"translation_entropy_bound", "gaussian_surrogate_kl"},
                   "verify-pair": {"translation_entropy_bound"}}
        for name, expected in oracles.items():
            rows = json.loads((tmp_path / f"{name}.json").read_text())["reports"]
            assert {r["quantity"] for r in rows if r["method"] == "quadrature-oracle"} == expected, name

    def test_verify_draws_each_batch_once(self, monkeypatch):
        import gaussdim.estimators as estimators
        import gaussdim.experiments as experiments

        lengths, normalized = [], []
        real = estimators.sample_paths
        spy = lambda acov, k, *a, **kw: lengths.append(k) or real(acov, k, *a, **kw)  # noqa: E731
        monkeypatch.setattr(estimators, "sample_paths", spy)  # every batch comes from estimators._draw
        for module in (estimators, experiments):
            real_norm = module.normalize_components
            monkeypatch.setattr(module, "normalize_components", lambda m, f=real_norm: normalized.append(m) or f(m))
        run({"task": "verify", "model": model_to_document(white_noise()), "seed": 3,
             "m_ladder": [2, 4], "verify_paths": 2000})
        # one batch shared by both invariance transforms and the Bussgang gains, then the identity batch
        assert lengths == [estimators.K_CAP, 1024]
        # one normalization behind both batches
        assert len(normalized) == 1

    @pytest.mark.parametrize("builder", [white_noise, correlated_pair, ar1])
    def test_verify_gain_rows_read_step_one_of_the_invariance_batch(self, builder):
        """The Bussgang rows are bussgang_gain on the first step of the K_CAP-step
        batch that the invariance rows read: verify draws no batch of its own for them."""
        model = builder(0.6) if builder is ar1 else builder()
        rep = run({"task": "verify", "model": model_to_document(model), "seed": 3,
                   "m_ladder": [2, 4], "verify_paths": 2000})
        batch = _draw(normalize_components(model), K_CAP, 2000, 3)
        expected = bussgang_gain(batch.samples[:, :1], BUSSGANG_M_LADDER)
        rows = [r for r in rep.reports if r.quantity == "bussgang_gain"]
        assert [r.settings["m"] for r in rows] == list(BUSSGANG_M_LADDER)
        for row, gain in zip(rows, expected):
            assert row.value == float(gain.gain.mean()) and row.se == float(gain.gain_se.mean())
            assert row.settings["noise_var"] == gain.noise_var.tolist()
            assert row.settings["gain_bound"] == gain.gain_bound.tolist()
            assert row.settings["factor_method"] == batch.factor_method

    @pytest.mark.parametrize("builder", [white_noise, correlated_pair, real_only_complex])
    def test_verify_translation_row_is_the_oracle_delta(self, builder):
        """The row right after invariance_translate is the quadrature delta at
        TRANSLATION_BLOCK against k*L*log 4; correlated_pair takes the oracle's
        duplicate-coordinate path, real_only_complex its constant-coordinate path."""
        model = builder()
        rep = run({"task": "verify", "model": model_to_document(model), "seed": 3,
                   "m_ladder": [2, 4], "verify_paths": 2000})
        quantities = [r.quantity for r in rep.reports]
        assert quantities.count("translation_entropy_bound") == 1
        row = rep.reports[quantities.index("invariance_translate") + 1]
        (amount,) = [amount for kind, amount in INVARIANCE_TRANSFORMS if kind == "translate"]
        k, m = TRANSLATION_BLOCK
        h0 = exact_cell_entropy(model, k, m).value
        h1 = exact_cell_entropy(model, k, m, mean_shift=[amount] * model.L).value
        assert (row.quantity, row.method) == ("translation_entropy_bound", "quadrature-oracle")
        assert (row.value, row.reference, row.tolerance) == (abs(h1 - h0), k * model.L * np.log(4.0), 0.0)
        assert row.passed is True and row.settings == {"offset": amount}

    def test_verify_zero_process_has_no_translation_row(self):
        rep = run({"task": "verify", "model": model_to_document(zero_process()), "seed": 3,
                   "m_ladder": [2, 4], "verify_paths": 2000})
        assert [r.quantity for r in rep.reports] == ["invariance_scale", "invariance_translate"]

    def test_verify_line_process_gates_on_the_law_variance(self):
        """A random sinusoid's sample variance strays from 1 at few paths; the
        identity row still runs, since the law fixes the variance at 1."""
        from gaussdim.benchmarks import line_process

        rep = run({"task": "verify", "model": model_to_document(line_process()), "seed": 3,
                   "m_ladder": [2, 4], "verify_paths": 2000})
        rows = [r for r in rep.reports if r.quantity == "quantized_spectrum_identity"]
        assert rows
        for r in rows:
            assert len(r.settings["sample_variance"]) == 1
        assert abs(rows[0].settings["sample_variance"][0] - 1.0) > 0.05

    @pytest.mark.parametrize(
        "task, extra, keys",
        [
            ("analyze", {}, ["grid_n"]),
            ("complex", {}, ["grid_n"]),
            ("rd", {}, ["grid_n"]),
            (
                "estimate",
                {"seed": 3, "m_ladder": [2, 4], "paths": 2000},
                ["grid_n", "m_ladder", "paths"],
            ),
            (
                "verify",
                {"seed": 3, "m_ladder": [2, 4], "verify_paths": 2000},
                ["grid_n", "m_ladder", "verify_paths"],
            ),
        ],
    )
    def test_run_settings_list_only_what_the_task_used(self, task, extra, keys):
        model = proper_complex_flat() if task == "complex" else white_noise()
        cfg = {"task": task, "model": model_to_document(model), "grid_n": 1024, **extra}
        rep = run(cfg)
        assert list(rep.settings) == keys
        config = ExperimentConfig.from_dict(cfg)
        for key in keys[1:]:
            value = getattr(config, key)
            assert rep.settings[key] == (list(value) if isinstance(value, tuple) else value)

    def test_verify_white_noise_passes(self):
        rep = run({
            "task": "verify",
            "model": model_to_document(white_noise()),
            "seed": 21,
            "verify_paths": 20_000,
        })
        assert rep.all_passed
        quantities = {r.quantity for r in rep.reports}
        assert {"invariance_scale", "invariance_translate", "bussgang_gain",
                "quantized_spectrum_identity", "gaussian_surrogate_kl"} <= quantities

    def test_verify_rows_do_not_depend_on_the_rank_grid(self):
        """The sampled law is normalized by its own C(0), so grid_n moves only
        the rank integral; a variance summed on 64 nodes would leave ar1(0.95)
        at 1.078 and fail the unit-variance gate."""
        doc = model_to_document(ar1(0.95))
        rows = {
            n: run({"task": "verify", "model": doc, "grid_n": n, "seed": 7, "verify_paths": 20_000}).reports
            for n in (64, 4096)
        }
        assert rows[64] == rows[4096]

    @pytest.mark.parametrize("builder", [white_noise, correlated_pair], ids=["L1", "L2"])
    def test_estimate_surrogate_runs_at_its_fixed_settings(self, builder):
        model = builder()
        rep = run({"task": "estimate", "model": model_to_document(model), "seed": 3,
                   "m_ladder": [2, 4], "paths": 2000})
        (surrogate,) = [r for r in rep.reports if r.method == "gaussian-surrogate"]
        assert surrogate.settings["m_ladder"] == list(SURROGATE_M_LADDER)
        assert surrogate.settings["paths"] == SURROGATE_PATHS
        assert surrogate.settings["k"] == min(SURROGATE_K, MAX_DENSE_DIM // model.L)

    def test_rd_task(self):
        rep = run({"task": "rd", "model": model_to_document(narrowband(0.4))})
        assert rep.all_passed
        assert rep.reports[0].value == pytest.approx(0.4, abs=0.01)


class TestCLI:
    def test_analyze_exit_zero_and_report(self, tmp_path, capsys):
        model_path = save_model(narrowband(0.5), tmp_path / "band.json")
        out = tmp_path / "rep.json"
        code = main(["analyze", str(model_path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert doc["reports"][0]["value"] == pytest.approx(0.5)

    def test_csv_output(self, tmp_path):
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        out = tmp_path / "rep.csv"
        code = main(["rd", str(model_path), "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_csv_to_stdout(self, tmp_path, capsys):
        """Without --out, --format csv prints the CSV that --out writes."""
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        out = tmp_path / "rep.csv"
        assert main(["rd", str(model_path), "--out", str(out), "--format", "csv"]) == 0
        capsys.readouterr()
        assert main(["rd", str(model_path), "--format", "csv"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_flags_override_config(self, tmp_path):
        model_path = save_model(narrowband(0.4), tmp_path / "m.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": str(model_path), "grid_n": 512}))
        out = tmp_path / "rep.json"
        code = main(["analyze", "--config", str(cfg), "--grid", "2048", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["settings"]["grid_n"] == 2048

    @pytest.mark.parametrize("task, field", [("verify", "verify_paths"), ("estimate", "paths")])
    def test_paths_flag_sets_the_task_path_count(self, task, field):
        args = _build_parser().parse_args([task, "m.json", "--seed", "1", "--paths", "2000"])
        assert getattr(ExperimentConfig.from_dict(_raw_config(args)), field) == 2000

    @pytest.mark.parametrize("flag", ["--paths", "--m-ladder"])
    def test_flag_of_another_task_exit_code(self, flag, tmp_path, capsys):
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(model_path), flag, "10"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["analyze"], {"model": {"L": 1}, "nope": True}, "unknown configuration fields"),
            # a surrogate setting is fixed, not configured
            (["estimate", "{model}", "--seed", "7"], {"surrogate_paths": 50}, "unknown configuration fields"),
        ],
        ids=["unknown-field", "surrogate-setting"],
    )
    def test_invalid_config_exit_code(self, args, config, message, tmp_path, capsys):
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([arg.format(model=model_path) for arg in args] + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gaussdim: configuration error: ") and message in err, err

    @pytest.mark.parametrize(
        "task, field, value",
        [
            ("estimate", "paths", "10"),
            ("estimate", "paths", 2000.0),
            ("estimate", "paths", True),
            ("verify", "verify_paths", 2000.0),
            ("estimate", "seed", 7.5),
            ("estimate", "seed", "7"),
            ("estimate", "m_ladder", [2, 4.5]),
            ("estimate", "m_ladder", 8),
            ("analyze", "grid_n", 1024.0),
        ],
    )
    def test_config_value_of_the_wrong_type_exit_code(self, task, field, value, tmp_path, capsys):
        """A count, seed, precision or grid size that is not an integer is a configuration error,
        not a failure inside the task or a value run rounded and recorded as given."""
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": str(model_path), "seed": 7, field: value}))
        assert main([task, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gaussdim: configuration error: ") and field in err, err

    @pytest.mark.parametrize("task", ["estimate", "verify"])
    @pytest.mark.parametrize("paths", ["0", "-5"])
    def test_path_count_below_one_exit_code(self, task, paths, tmp_path, capsys):
        """A path count below 1 is a configuration error, not a failure deep in the task."""
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        assert main([task, str(model_path), "--seed", "7", "--paths", paths]) == 2
        assert capsys.readouterr().err.startswith("gaussdim: configuration error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--seed", "7", "--m-ladder", "4,2"], "m_ladder must be"),
            (["estimate", "--seed", "7", "--m-ladder", "0,2"], "m_ladder must be"),
            (["estimate", "--seed", "7", "--m-ladder", "8"], "m_ladder must be"),
            (["verify", "--seed", "7", "--m-ladder", "4,4"], "m_ladder must be"),
            (["analyze", "--grid", "1023"], "grid resolution must be even and >= 64"),
            (["analyze", "--grid", "32"], "grid resolution must be even and >= 64"),
            (["rd", "--grid", "0"], "grid resolution must be even and >= 64"),
        ],
        ids=["ladder-decreasing", "ladder-zero", "ladder-one-rung", "verify-ladder-repeat", "grid-odd",
             "grid-coarse", "grid-zero"],
    )
    def test_config_value_out_of_range_exit_code(self, argv, message, tmp_path, capsys):
        """An integer ladder or grid size outside the estimator's or the grid's own rules is a
        configuration error, caught before any task work, not a failure inside the task."""
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        assert main([argv[0], str(model_path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gaussdim: configuration error: ") and message in err, err

    def test_missing_seed_exit_code(self, tmp_path):
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        assert main(["estimate", str(model_path)]) == 2

    def test_failing_check_exit_code(self, tmp_path, capsys):
        """A failing gate fails the run: the narrowband entropy slope reads ~1 against 0.4."""
        model_path = save_model(narrowband(0.4), tmp_path / "nb.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": str(model_path), "seed": 5, "m_ladder": [2, 4, 8], "paths": 5_000,
        }))
        code = main(["estimate", "--config", str(cfg)])
        assert code == 1
        assert "checks failed" in capsys.readouterr().err

    def test_complex_subcommand(self, tmp_path):
        model_path = save_model(proper_complex_flat(), tmp_path / "pc.json")
        out = tmp_path / "rep.json"
        assert main(["complex", str(model_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [r["quantity"] for r in doc["reports"]] == ["properness", "support_bound"]

    @pytest.mark.parametrize("task", ["analyze", "complex"])
    def test_violated_support_bound_fails_the_run(self, task, tmp_path, capsys):
        # rank-1 strong band on |theta| >= 1/4, full-rank weak band inside: at
        # rank_rel_tol 0.3 the dimension is 1.5 and S_Z clears the threshold outside only
        outer = [[1.0, 0.0], [0.0, 0.0]]
        inner = [[0.1, 0.0], [0.0, 0.1]]
        model = SpectralModel(L=2, bands=[Band(-0.5, -0.25, outer), Band(-0.25, 0.25, inner), Band(0.25, 0.5, outer)])
        doc = model_to_document(model)
        doc["rank_rel_tol"] = 0.3
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        assert main([task, str(model_path), "--out", str(out)]) == 1
        assert "support_bound" in capsys.readouterr().err
        row = {r["quantity"]: r for r in json.loads(out.read_text())["reports"]}["support_bound"]
        assert row["pass"] is False
        assert (row["value"], row["reference"]) == (1.5, 1.0)
        assert row["settings"]["gap"] == -0.5 and row["settings"]["tight"] is False

    def test_missing_band_edge_exit_code(self, tmp_path, capsys):
        model_path = tmp_path / "edge.json"
        model_path.write_text('{"L": 1, "bands": [{"hi": 0.5, "re": [[1.0]]}]}')
        assert main(["analyze", str(model_path)]) == 2
        assert "analyze failed: DocumentError: band 0 needs the field 'lo'" in capsys.readouterr().err

    def test_non_integer_document_grid_exit_code(self, tmp_path, capsys):
        """A document grid_n of 4096.9 once ran truncated, exiting 0 and reporting grid_n 4096."""
        doc = model_to_document(white_noise())
        doc["grid_n"] = 4096.9
        model_path = tmp_path / "grid.json"
        model_path.write_text(json.dumps(doc))
        assert main(["analyze", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert "analyze failed: DocumentError: document field 'grid_n' must be an integer, got 4096.9" in err, err

    def test_non_finite_model_exit_code(self, tmp_path, capsys):
        model_path = tmp_path / "nan.json"
        model_path.write_text('{"L": 1, "bands": [{"lo": -0.5, "hi": 0.5, "re": [[NaN]]}]}')
        assert main(["analyze", str(model_path)]) == 2
        assert "band matrix has a non-finite entry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("rank_rel_tol", -1.0), ("rank_rel_tol", 2.0), ("rank_rel_tol", float("nan")), ("rank_abs_floor", -5.0)]
    )
    def test_invalid_rank_tolerance_exit_code(self, key, value, tmp_path, capsys):
        # these once reported narrowband_0p4 as 1.0 or 0.0 with exit 0
        doc = model_to_document(narrowband(0.4))
        doc[key] = value
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        assert main(["analyze", str(model_path)]) == 2
        assert "rank tolerances" in capsys.readouterr().err

    def test_complex_on_univariate_fails_cleanly(self, tmp_path, capsys):
        model_path = save_model(white_noise(), tmp_path / "wn.json")
        assert main(["complex", str(model_path)]) == 2
        assert "bivariate" in capsys.readouterr().err
