"""Package-level checks."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fiberae
from fiberae.autoencoder import build_model, decode, detect
from fiberae.channel import (
    ChannelParams,
    backprop_channel,
    draw_noise,
    make_rng,
    propagate,
    propagate_tape,
    watts_from_dbm,
)
from fiberae.cli import _setup, build_parser
from fiberae.evaluation import qam
from fiberae.likelihood import build_oracle, log_densities, ml_detect

ROOT = Path(__file__).resolve().parents[1]

# __main__ runs the command line on import
MODULES = [m.name for m in pkgutil.iter_modules(fiberae.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fiberae.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_and_class_has_a_docstring(name):
    # a dataclass without one gets the generated "Name(field: type, ...)"
    module = importlib.import_module(f"fiberae.{name}")
    objects = [getattr(module, n) for n in getattr(module, "__all__", ())]
    bare = [obj.__name__ for obj in objects
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and (not obj.__doc__ or obj.__doc__.startswith(f"{obj.__name__}("))]
    assert bare == []


def _perfbench(monkeypatch, name: str):
    """perfbench/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    # the benchmark's tracer silently skips a (module, function) it cannot
    # find, so a renamed function would drop out of the per-layer figures
    spans = _perfbench(monkeypatch, "spans")
    missing = [
        f"{mod}.{fn}" for mod, fn, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"fiberae.{mod}"), fn, None))
    ]
    assert spans.TRACED and missing == []


def test_oracle_counter_counts_each_grid_once(monkeypatch):
    # the benchmark's grid-cell figure is the work an oracle build does: each
    # amplitude ring's grid once, not once for every symbol on the ring
    spans = _perfbench(monkeypatch, "spans")
    (count,) = [c for mod, fn, c in spans.TRACED if (mod, fn) == ("likelihood", "build_oracle")]
    oracle = build_oracle(qam(16, watts_from_dbm(5.0)), ChannelParams())
    grids = {id(d.grid): d.grid.size for d in oracle.densities}
    assert len(grids) == 3
    assert count((), {}, oracle)["cells"] == sum(grids.values()) == 33_408


def test_channel_counters_count_each_segment_update(monkeypatch):
    # the benchmark's channel figures come from these counters, run on a
    # call's arguments and result; one that raises prints a warning and
    # leaves its layer at zero, so a change to the tape's fields must not
    params = ChannelParams()
    rng = make_rng(2)
    x = 0.04 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    noise = draw_noise(params, x.shape, rng)
    g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    result = propagate_tape(x, noise, params)
    grad = backprop_channel(result[1], g)
    counters = {fn: c for mod, fn, c in _perfbench(monkeypatch, "spans").TRACED if mod == "channel"}
    forward = counters["propagate_tape"]((x, noise, params), {}, result)
    backward = counters["backprop_channel"]((), {"tape": result[1], "grad_output": g}, grad)
    assert forward["updates"] == backward["updates"] == 6 * params.segments
    assert forward["bytes"] > 0 and backward["bytes"] > 0


def test_cli_accepts_every_benchmark_command(monkeypatch, tmp_path):
    # the benchmark drives fiberae.cli.main with these command lines, and the
    # README shows its own; a renamed or retired flag, or a flag value the
    # config rejects, breaks them
    workloads = _perfbench(monkeypatch, "workloads")
    argvs = [workload.argv(call, 1, tmp_path / "out", 2, warmup)
             for workload in workloads.WORKLOADS.values()
             for call in workload.calls for warmup in (False, True)]
    readme = [shlex.split(line, comments=True)[1:]
              for line in (ROOT / "README.md").read_text().splitlines()
              if line.startswith("fiberae ")]
    for argv in argvs + readme:
        _setup(build_parser().parse_args(argv), "outputs")
    assert argvs and len(readme) >= 10 and not (tmp_path / "out").exists()


def _bound_name(node):
    """The name a node reads, imports or calls an attribute by, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def test_one_seeding_scheme():
    # every generator comes from channel.make_rng and every Monte-Carlo
    # message from channel.simulate's arange, so no other code in src seeds
    # a stream or draws integers (docstrings may name them); a stream apart
    # from a seed's root is a tuple that starts with the seed, such as
    # simulate's (seed, 1, b + 1) for stream b, never arithmetic on the seed,
    # which would be another seed's root stream
    stray = []
    for path in sorted((ROOT / "src" / "fiberae").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "channel.py":
            (make_rng,) = [n for n in tree.body if getattr(n, "name", None) == "make_rng"]
            allowed = set(map(id, ast.walk(make_rng)))
        for node in ast.walk(tree):
            name = _bound_name(node)
            if (name in ("SeedSequence", "Philox", "default_rng") and id(node) not in allowed
                    or name == "integers" and isinstance(node, ast.Attribute)):
                stray.append(f"{path.name}:{node.lineno}: {name}")
            if (isinstance(node, ast.Call) and _bound_name(node.func) == "make_rng"
                    and any(isinstance(a, ast.BinOp)
                            for a in [*node.args, *(k.value for k in node.keywords)])):
                stray.append(f"{path.name}:{node.lineno}: make_rng of arithmetic")
    assert stray == []


@pytest.fixture
def golden(monkeypatch):
    """tools/golden.py as a module."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_commands_parse(golden, tmp_path):
    # the refactor contract's command set; a renamed or retired flag, or a
    # flag value the config rejects, would otherwise fail only a golden run
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "gamma0.json").write_text(json.dumps(golden.GAMMA0_CONFIG))
    out = tmp_path / "out"
    fill = {"ckpt": out / "ckpt" / "ae_m4_p-3.00dbm.json", "dir": out / "ckpt"}
    cmds = golden.commands(inputs)
    for sub, argv in cmds:
        argv = [str(a).format(**fill) for a in argv] + ["--threads", "2", "--out", str(out / sub)]
        _setup(build_parser().parse_args(argv), "outputs")
    assert cmds and not out.exists()


def test_golden_names_thread_mismatches(golden):
    # tools/golden.py fails when a file's digest depends on the thread count
    same = {"t1/a.csv": "0", "t2/a.csv": "0", "t1/d/b.txt": "1", "t2/d/b.txt": "1"}
    assert golden.thread_mismatches(same) == []
    changed = dict(same, **{"t2/d/b.txt": "2", "t1/only.csv": "3"})
    assert golden.thread_mismatches(changed) == ["d/b.txt", "only.csv"]


COLD_START = """
import sys
from fiberae.cli import main

out = sys.argv[1]
for argv in (["train", "--power", "5", "--batches", "2", "--out", out + "/ckpt"],
             ["ser", "--source", "qam", "--detector", "mindist", "--power", "5", "--samples", "2000",
              "--out", out + "/mindist"],
             ["ser", "--source", out + "/ckpt", "--detector", "ae", "--power", "5", "--samples", "2000",
              "--out", out + "/ae"]):
    assert main(argv + ["--threads", "2"]) == 0, argv
assert "scipy.special" not in sys.modules

from fiberae.channel import ChannelParams, simulate, watts_from_dbm
from fiberae.evaluation import qam
from fiberae.likelihood import build_oracle, ml_detect

points = qam(16, watts_from_dbm(5.0))
oracle = build_oracle(points, ChannelParams(), threads=2)  # scipy's first import, on pool threads
assert "scipy.special" in sys.modules
_, y = simulate(points.points, ChannelParams(), 2000, 0)
assert (ml_detect(oracle, y) == ml_detect(build_oracle(points, ChannelParams()), y)).all()
"""


def test_commands_without_an_oracle_never_import_scipy(tmp_path):
    # scipy.special is most of a command's start-up time and only the
    # exact-law oracle calls it; its first import may run on pool threads
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


AWGN = ChannelParams(gamma=0.0)

# the functions that take received or sent samples, each on a fixed input
BATCH_FUNCTIONS = {
    "propagate": lambda y: propagate(y, AWGN, make_rng(0)),
    "decode": lambda y: decode(build_model(4, AWGN, 1e-3, seed=0), y),
    "detect": lambda y: detect(build_model(4, AWGN, 1e-3, seed=0), y),
    "log_densities": lambda y: log_densities(build_oracle(qam(4, 1e-3), AWGN), y)[1],
    "ml_detect": lambda y: ml_detect(build_oracle(qam(4, 1e-3), AWGN), y),
}


@pytest.mark.parametrize("name", BATCH_FUNCTIONS)
def test_scalar_input_is_a_batch_of_one(name):
    # batch in, batch out: a 0-d input gives the result of a one-row batch
    fn = BATCH_FUNCTIONS[name]
    out = fn(np.asarray(0.01 + 0.02j))
    assert isinstance(out, np.ndarray) and out.shape[0] == 1
    assert np.array_equal(out, fn(np.array([0.01 + 0.02j])))


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


def test_demo_04_reads_the_checkpoint_demo_02_saves(tmp_path):
    # 02 trains and writes demo_checkpoint.json into its working directory;
    # 04 run in the same one finds it and reports the decoder's AIR
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for demo in ("02_train_autoencoder.py", "04_information_rates.py"):
        result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
    assert "decoder AIR" in result.stdout
