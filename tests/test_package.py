"""Package-level checks."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fiberae

ROOT = Path(__file__).resolve().parents[1]

# __main__ runs the command line on import
MODULES = [m.name for m in pkgutil.iter_modules(fiberae.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fiberae.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_traced_function_exists(monkeypatch):
    # the benchmark's tracer silently skips a (module, function) it cannot
    # find, so a renamed function would drop out of the per-layer figures
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{fn}" for mod, fn, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"fiberae.{mod}"), fn, None))
    ]
    assert spans.TRACED and missing == []


@pytest.mark.parametrize("demo", [
    "01_channel_tour.py", "03_ml_detection_and_regions.py", "04_information_rates.py",
])
def test_demo_runs(demo, tmp_path):
    # each calls the library directly; 04 finds no checkpoint in its fresh
    # directory and skips the decoder part
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
