"""The README library quick start and the model export script, run as documented."""

import importlib.util
import json
import re
from pathlib import Path

import gaussdim
from gaussdim.benchmarks import MODELS
from gaussdim.modelio import model_to_document

ROOT = Path(__file__).resolve().parents[1]


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
    spec = importlib.util.spec_from_file_location("export_models", ROOT / "scripts" / "export_models.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.json" for name in MODELS)
    for name, (builder, _) in MODELS.items():
        assert json.loads((tmp_path / f"{name}.json").read_text()) == model_to_document(builder()), name

