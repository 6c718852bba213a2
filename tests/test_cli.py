"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fiberae
from awgn_reference import awgn_qam_ser
from fiberae.channel import watts_from_dbm
from fiberae.cli import MAX_SWEEP_POINTS, CliError, _parse_powers, build_parser, main
from fiberae.config import _BLOCKS, ConfigError, config_hash, load_config, resolved_json

AWGN_CONFIG = {
    "channel": {"gamma": 0.0},
    "model": {"m": 4, "tx_hidden_layers": 1, "rx_hidden_layers": 1},
    "train": {"batches": 50, "batch_size": 16},
    "eval": {"n_samples": 20000, "oracle_samples": 2000},
}


@pytest.fixture
def awgn_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(AWGN_CONFIG))
    return path


@pytest.fixture
def ckpt(tmp_path, awgn_config):
    """A 2-batch AWGN checkpoint trained at -3 dBm, in its own directory."""
    out = tmp_path / "ckpt"
    assert run_cli("train", "--config", awgn_config, "--power", "-3",
                   "--batches", "2", "--out", out, "--seed", "3") == 0
    return out / "ae_m4_p-3.00dbm.json"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def echoed_config(path: Path) -> dict:
    """The config echo named by a result file's `# config-hash:` line."""
    digest = next(line.split(": ")[1] for line in path.read_text().splitlines()
                  if line.startswith("# config-hash: "))
    return json.loads((path.parent / f"config-{digest}.json").read_text())


class TestConfig:
    def test_unknown_block_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"chanel": {}}')
        assert run_cli("gradcheck", "--config", path, "--out", tmp_path) == 1
        assert "unknown config block" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"channel": {"gamma": 0.0, "gama": 1}}')
        assert run_cli("gradcheck", "--config", path, "--out", tmp_path) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_resolved_config_echoed(self, tmp_path, awgn_config):
        out = tmp_path / "out"
        assert run_cli("ser", "--config", awgn_config, "--source", "qam",
                       "--power", "-10", "--samples", "5000",
                       "--out", out, "--seed", "1") == 0
        resolved = echoed_config(out / "ser_qam_mindist.csv")
        assert resolved["channel"]["gamma"] == 0.0
        assert resolved["channel"]["link_length_km"] == 5000.0
        assert resolved["model"]["m"] == 4
        # the echo is the config that ran: flags are overrides of its fields
        assert resolved["eval"]["n_samples"] == 5000
        assert resolved["eval"]["seed"] == 1


class TestFlagOverrides:
    """A flag that sets a run value overrides its config field and passes
    the same checks as a value read from the config file."""

    @pytest.mark.parametrize("argv, field", [
        (("ser", "--source", "qam", "--power", "0", "--samples", "0"), "eval.n_samples"),
        (("regions", "--source", "qam", "--detector", "mindist", "--power", "0",
          "--resolution", "0"), "eval.raster_resolution"),
        (("regions", "--source", "qam", "--detector", "mindist", "--power", "0",
          "--half-width", "0"), "eval.raster_half_width"),
        (("regions", "--source", "qam", "--detector", "mindist", "--power", "0",
          "--half-width", "inf"), "eval.raster_half_width"),
        (("ser", "--source", "qam", "--detector", "mindist", "--power", "0",
          "--oracle-samples", "0"), "eval.oracle_samples"),
        (("train", "--power", "0", "--batches", "0"), "train.batches"),
    ], ids=["samples", "resolution", "half-width-0", "half-width-inf", "oracle-samples",
            "batches"])
    def test_bad_flag_rejected(self, tmp_path, awgn_config, capsys, argv, field):
        out = tmp_path / "out"
        assert run_cli(*argv, "--config", awgn_config, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    def test_export_records_flag_seed(self, tmp_path):
        out = tmp_path / "out"
        fixture = Path(__file__).resolve().parents[1] / "perfbench/fixture/ae_m16_p+0.00dbm.json"
        assert run_cli("export-constellation", "--checkpoint", fixture, "--seed", "5",
                       "--out", out) == 0
        assert "# seed: 5" in (out / "constellation.csv").read_text().splitlines()


def _config_docs():
    """Valid config documents: any subset of blocks, any subset of keys."""
    finite = dict(allow_nan=False, allow_infinity=False)
    name = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)

    def block(**keys):
        return st.fixed_dictionaries({}, optional=keys)

    @st.composite
    def docs(draw):
        m = draw(st.integers(2, 32))
        doc = {
            "channel": draw(block(
                link_length_km=st.floats(1.0, 1e4, **finite),
                gamma=st.floats(0.0, 10.0, **finite),
                noise_power_dbm=st.floats(-40.0, 0.0, **finite),
                segments=st.integers(1, 100),
            )),
            "model": {"m": m, **draw(block(
                tx_hidden_layers=st.integers(0, 6),
                rx_hidden_layers=st.integers(0, 6),
                hidden_width=st.none() | st.integers(1, 64),
                init_seed=st.integers(0, 2**32 - 1),
            ))},
            "train": draw(block(
                learning_rate=st.floats(0.0, 1.0, **finite),
                batch_size=st.none() | st.integers(1, 64).map(lambda k: k * m),
                batches=st.integers(1, 10**6),
                seed=st.integers(0, 2**32 - 1),
            )),
            "eval": draw(block(
                n_samples=st.integers(1, 10**7),
                oracle_samples=st.integers(1000, 10**7),
                seed=st.integers(0, 2**32 - 1),
                raster_resolution=st.integers(16, 2000),
                raster_half_width=st.none() | st.floats(1e-6, 1.0, **finite),
            )),
            "paths": draw(block(checkpoints=name, outputs=name)),
        }
        # the model block stays: train.batch_size depends on model.m
        keep = draw(st.sets(st.sampled_from(sorted(doc)))) | {"model"}
        return {k: v for k, v in doc.items() if k in keep}

    return docs()


def _load_doc(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        return load_config(path)


INT_FIELDS = [
    (name, f.name) for name, cls in _BLOCKS.items() for f in fields(cls) if f.type.startswith("int")
]
FLOAT_FIELDS = [
    (name, f.name) for name, cls in _BLOCKS.items() for f in fields(cls) if "float" in f.type
]


class TestConfigProperties:
    @settings(max_examples=60, deadline=None)
    @given(_config_docs())
    def test_resolved_json_round_trips(self, doc):
        config = _load_doc(doc)
        again = _load_doc(json.loads(resolved_json(config)))
        assert config_hash(again) == config_hash(config)
        assert resolved_json(again) == resolved_json(config)

    @settings(max_examples=60, deadline=None)
    @given(_config_docs(), st.sampled_from(sorted(_BLOCKS)), st.text(min_size=1, max_size=12))
    def test_unknown_key_rejected(self, doc, block, key):
        if key in {f.name for f in fields(_BLOCKS[block])}:
            key += "_"
        doc.setdefault(block, {})[key] = 1
        with pytest.raises(ConfigError):
            _load_doc(doc)

    @pytest.mark.parametrize("block, key", FLOAT_FIELDS)
    def test_nan_rejected(self, block, key):
        # NaN passes a check written as x < 0 and then poisons every output
        with pytest.raises(ConfigError):
            _load_doc({block: {key: math.nan}})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("block, key", FLOAT_FIELDS)
    def test_infinity_rejected(self, block, key, value):
        # json reads Infinity; an infinite gamma made every output NaN
        with pytest.raises(ConfigError):
            _load_doc({block: {key: value}})

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(INT_FIELDS), st.one_of(
        st.booleans(), st.floats(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
        st.integers(-10**6, 10**6).map(float),
    ))
    def test_int_field_takes_only_ints(self, field, value):
        # 5.0 or true in an int field ended in a TypeError or ran with K = 1
        block, key = field
        with pytest.raises(ConfigError):
            _load_doc({block: {key: value}})

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(INT_FIELDS), st.integers(-10**6, 10**6))
    def test_int_field_int_loads_or_is_rejected(self, field, value):
        block, key = field
        try:
            config = _load_doc({block: {key: value}})
        except ConfigError:
            return
        assert getattr(getattr(config, block), key) == value

    def test_channel_seed_key_rejected(self):
        # the channel block no longer has a seed: nothing read it
        with pytest.raises(ConfigError):
            _load_doc({"channel": {"seed": 1}})


def powers(text):
    return _parse_powers(SimpleNamespace(powers=text, power=None))


NUMBER = st.floats(-1e3, 1e3).map(repr)


class TestPowers:
    @given(st.integers(-200, 200), st.integers(1, 40), st.integers(0, 60), st.integers(0, 7))
    def test_quarter_db_grids_exact(self, start, step, n, eighths):
        # quarter-dB values are exact in binary, so the sweep is exact too
        a, d = start / 4, step / 4
        stop = a + n * d + eighths * d / 8
        assert powers(f"{a!r}:{d!r}:{stop!r}") == [a + i * d for i in range(n + 1)]

    @given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.floats(0.0, 1e3))
    def test_any_valid_triple(self, start, step, span):
        stop = start + span
        assume(span / step < MAX_SWEEP_POINTS - 2)
        got = powers(f"{start!r}:{step!r}:{stop!r}")
        assert abs(len(got) - (span / step + 1)) <= 1
        assert got[0] == round(start, 10) + 0.0
        assert all(b > a for a, b in zip(got, got[1:]))
        assert got[-1] <= stop + 1e-9 + 1e-10

    @pytest.mark.parametrize("text", [
        "0:1:inf", "nan:1:2", "0:nan:1", "-inf:1:0", "0:1:1e999",
        "1e300:1:1e300",  # a step below the resolution of the start
        "0:0.001:10.001",  # 10002 points
        "0:0:1", "0:-1:-5", "0:1", "0:1:2:3", "a:b:c", "",
    ])
    def test_examples_rejected(self, text):
        with pytest.raises(CliError):
            powers(text)

    @given(st.one_of(
        # a field count other than three
        st.lists(NUMBER, max_size=5).filter(lambda f: len(f) != 3).map(":".join),
        # one field not a finite number
        st.tuples(st.lists(NUMBER, min_size=3, max_size=3), st.integers(0, 2),
                  st.sampled_from(["nan", "inf", "-inf", "1e400", "x", ""]))
        .map(lambda t: ":".join(t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])),
        # a step that is not positive
        st.tuples(NUMBER, st.floats(-1e3, 0.0).map(repr), NUMBER).map(":".join),
        # more points than the cap
        st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e-1))
        .map(lambda t: f"{t[0]!r}:{t[1]!r}:{t[0] + t[1] * (MAX_SWEEP_POINTS + 5)!r}"),
    ))
    def test_invalid_rejected(self, text):
        with pytest.raises(CliError):
            powers(text)


class TestGradcheck:
    def test_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("gradcheck", "--out", out) == 0
        report = (out / "gradcheck.txt").read_text()
        assert report.count("PASS") == 3
        assert "FAIL" not in report


class TestTrainAndExport:
    def test_train_export_roundtrip(self, tmp_path, awgn_config):
        out = tmp_path / "out"
        assert run_cli("train", "--config", awgn_config, "--power", "-3",
                       "--out", out, "--seed", "3") == 0
        ckpt = out / "ae_m4_p-3.00dbm.json"
        assert ckpt.is_file()
        assert (out / "train_loss_m4_p-3.00dbm.csv").is_file()

        assert run_cli("export-constellation", "--config", awgn_config,
                       "--checkpoint", ckpt, "--out", out) == 0
        rows = [
            line for line in (out / "constellation.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("index")
        ]
        assert len(rows) == 4
        pts = np.array([complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows])
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(watts_from_dbm(-3.0), rel=1e-9)

    def test_train_determinism(self, tmp_path, awgn_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("train", "--config", awgn_config, "--power", "0",
                           "--out", out, "--seed", "3") == 0
        name = "ae_m4_p+0.00dbm.json"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_warm_start(self, tmp_path, awgn_config):
        out = tmp_path / "out"
        assert run_cli("train", "--config", awgn_config, "--power", "-3",
                       "--out", out, "--seed", "3") == 0
        assert run_cli("train", "--config", awgn_config, "--power", "-2",
                       "--warm-start", out / "ae_m4_p-3.00dbm.json",
                       "--out", out, "--seed", "4") == 0
        assert (out / "ae_m4_p-2.00dbm.json").is_file()

    def test_shared_out_keeps_each_config_echo(self, tmp_path, awgn_config):
        # two runs into one directory: each loss trace's hash names the echo
        # of its own run, not of the last run
        out = tmp_path / "out"
        for power, seed in (("-3", 3), ("-2", 4)):
            assert run_cli("train", "--config", awgn_config, "--power", power,
                           "--out", out, "--seed", seed) == 0
        for power, seed in (("-3", 3), ("-2", 4)):
            trace = out / f"train_loss_m4_p{float(power):+.2f}dbm.csv"
            assert echoed_config(trace)["train"]["seed"] == seed
        assert len(list(out.glob("config-*.json"))) == 2


class TestSer:
    def test_awgn_qam_matches_closed_form(self, tmp_path, awgn_config):
        out = tmp_path / "out"
        n = 100_000
        assert run_cli("ser", "--config", awgn_config, "--source", "qam",
                       "--detector", "mindist", "--power", "-16",
                       "--samples", n, "--out", out, "--seed", "2") == 0
        line = [
            l for l in (out / "ser_qam_mindist.csv").read_text().splitlines()
            if l and not l.startswith(("#", "power_dbm"))
        ][0]
        est = float(line.split(",")[2])
        exact = awgn_qam_ser(4, watts_from_dbm(-16.0), watts_from_dbm(-21.3))
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(est - exact) <= 3 * se

    def test_rerun_byte_identical(self, tmp_path, awgn_config):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("ser", "--config", awgn_config, "--source", "qam",
                           "--detector", "ml", "--powers=-12:2:-10",
                           "--samples", "4000", "--out", out, "--seed", "6") == 0
            outs.append((out / "ser_qam_ml.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_threads_do_not_change_output(self, tmp_path, awgn_config):
        contents = []
        for name, threads in (("a", 1), ("b", 3)):
            out = tmp_path / name
            assert run_cli("ser", "--config", awgn_config, "--source", "qam",
                           "--detector", "mindist", "--powers=-14:2:-10",
                           "--samples", "20000", "--threads", threads,
                           "--out", out, "--seed", "6") == 0
            contents.append((out / "ser_qam_mindist.csv").read_bytes())
        assert contents[0] == contents[1]

    def test_sweep_row_is_the_one_point_run(self, tmp_path):
        # a row depends on its power and the seed, not on its place in the
        # sweep; 16-QAM on the default channel errs at 5 dBm, so the row
        # carries the noise of its stream
        rows = []
        for name, powers in (("sweep", "--powers=-2:7:5"), ("one", "--power=5")):
            out = tmp_path / name
            assert run_cli("ser", "--source", "qam", "--detector", "ml", powers,
                           "--samples", "4000", "--out", out, "--seed", "6") == 0
            text = (out / "ser_qam_ml.csv").read_bytes()
            rows.append([l for l in text.splitlines() if l.startswith(b"5.0,")])
        assert len(rows[1]) == 1 and float(rows[1][0].split(b",")[2]) > 0.0
        assert rows[0] == rows[1]


class TestAirMiRegions:
    @pytest.fixture
    def trained(self, tmp_path, awgn_config):
        out = tmp_path / "ckpt"
        assert run_cli("train", "--config", awgn_config, "--power", "-3",
                       "--out", out, "--seed", "3") == 0
        return out / "ae_m4_p-3.00dbm.json"

    def test_air_defaults_to_checkpoint_power(self, tmp_path, awgn_config, trained):
        out = tmp_path / "out"
        assert run_cli("air", "--config", awgn_config, "--checkpoint", trained,
                       "--samples", "5000", "--out", out, "--seed", "4") == 0
        line = [
            l for l in (out / "air.csv").read_text().splitlines()
            if l and not l.startswith(("#", "power_dbm"))
        ][0]
        power, metric, value = line.split(",")[:3]
        assert float(power) == pytest.approx(-3.0, abs=1e-9)
        assert metric == "air"
        assert 0.0 <= float(value) <= 2.0 + 1e-9

    def test_air_wrong_power_for_file_checkpoint(self, tmp_path, awgn_config, trained, capsys):
        assert run_cli("air", "--config", awgn_config, "--checkpoint", trained,
                       "--power", "5", "--out", tmp_path) == 1
        assert "trained at" in capsys.readouterr().err

    def test_air_overlay_passthrough(self, tmp_path, awgn_config, trained):
        overlay = tmp_path / "bounds.csv"
        overlay.write_text("power_dbm,metric,value\n0.0,upper_bound,7.5\n1.0,lower_bound,6.2\n")
        out = tmp_path / "out"
        assert run_cli("air", "--config", awgn_config, "--checkpoint", trained,
                       "--samples", "2000", "--overlay", overlay,
                       "--out", out, "--seed", "4") == 0
        text = (out / "air.csv").read_text()
        assert "0.0,upper_bound,7.5,0,0" in text
        assert "1.0,lower_bound,6.2,0,0" in text

    def test_mi_qam(self, tmp_path, awgn_config):
        out = tmp_path / "out"
        assert run_cli("mi", "--config", awgn_config, "--source", "qam",
                       "--power", "-10", "--samples", "4000",
                       "--oracle-samples", "4000", "--out", out, "--seed", "9") == 0
        line = [
            l for l in (out / "mi_qam.csv").read_text().splitlines()
            if l and not l.startswith(("#", "power_dbm"))
        ][0]
        assert 0.0 <= float(line.split(",")[2]) <= 2.0 + 0.05

    def test_regions_grid_and_ppm(self, tmp_path, awgn_config, trained):
        out = tmp_path / "out"
        assert run_cli("regions", "--config", awgn_config, "--source", trained,
                       "--detector", "ae", "--resolution", "32", "--ppm",
                       "--out", out, "--seed", "4") == 0
        grid_path = out / "regions_ae_p-3.00dbm.txt"
        lines = [l for l in grid_path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "32"
        rows = [list(map(int, l.split())) for l in lines[1:]]
        assert len(rows) == 32 and all(len(r) == 32 for r in rows)
        assert all(0 <= v < 4 for r in rows for v in r)
        ppm = (out / "regions_ae_p-3.00dbm.ppm").read_text().splitlines()
        assert ppm[0] == "P3"
        assert ppm[1] == "32 32"

    def test_regions_determinism(self, tmp_path, awgn_config, trained):
        contents = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("regions", "--config", awgn_config, "--source", trained,
                           "--detector", "ml", "--oracle-samples", "2000",
                           "--resolution", "24", "--out", out, "--seed", "4") == 0
            contents.append((out / "regions_ml_p-3.00dbm.txt").read_bytes())
        assert contents[0] == contents[1]


class TestConflictingInputs:
    """A checkpoint run on a config whose channel (or, to warm-start, whose
    layer plan) differs from the one it was trained with is refused."""

    def other_config(self, tmp_path, **blocks):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({**AWGN_CONFIG, **blocks}))
        return path

    @pytest.mark.parametrize("argv", [
        ("ser", "--source", "{ckpt}", "--detector", "ae"),
        ("ser", "--source", "{dir}", "--detector", "ml", "--power", "-3"),
        ("mi", "--source", "{ckpt}"),
        ("air", "--checkpoint", "{ckpt}"),
        ("air", "--checkpoint", "{dir}", "--power", "-3"),
        ("regions", "--source", "{ckpt}", "--detector", "ml"),
        ("train", "--power", "-3", "--warm-start", "{ckpt}"),
    ])
    @pytest.mark.parametrize("channel", [{"gamma": 0.0, "segments": 10}, {}])
    def test_other_channel_rejected(self, tmp_path, ckpt, argv, channel, capsys):
        config = self.other_config(tmp_path, channel=channel)
        argv = [a.format(ckpt=ckpt, dir=ckpt.parent) for a in argv]
        out = tmp_path / "out"
        assert run_cli(*argv, "--config", config, "--out", out) == 1
        assert "trained on" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == [] and list(out.glob("ae_*")) == []

    @pytest.mark.parametrize("model", [
        {"m": 4, "tx_hidden_layers": 2, "rx_hidden_layers": 1},
        {"m": 4, "tx_hidden_layers": 1, "rx_hidden_layers": 1, "hidden_width": 8},
        {"m": 8, "tx_hidden_layers": 1, "rx_hidden_layers": 1},
    ])
    def test_warm_start_other_layer_plan_rejected(self, tmp_path, ckpt, model, capsys):
        config = self.other_config(tmp_path, model=model)
        assert run_cli("train", "--config", config, "--power", "-2", "--batches", "2",
                       "--warm-start", ckpt, "--out", tmp_path / "out") == 1
        assert "layer plan" in capsys.readouterr().err


class TestInputsResolvedFirst:
    """Every input is loaded and checked before any Monte-Carlo work."""

    @pytest.fixture
    def ckpt_dir(self, tmp_path, awgn_config):
        out = tmp_path / "ckpt"
        for power in ("-3", "-2"):
            assert run_cli("train", "--config", awgn_config, "--power", power,
                           "--batches", "2", "--out", out, "--seed", "3") == 0
        return out

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("argv, message", [
        # the -1 dBm checkpoint is missing from the directory
        (("ser", "--source", "{dir}", "--detector", "ae", "--powers=-3:1:-1"), "does not exist"),
        # a file checkpoint serves only the power it was trained at
        (("air", "--checkpoint", "{dir}/ae_m4_p-3.00dbm.json", "--powers=-3:1:0"), "trained at"),
        # -2.996 dBm rounds to the -3 dBm file name, but that model is not trained there
        (("ser", "--source", "{dir}", "--detector", "ae", "--powers=-3:0.004:-2.996"),
         "trained at"),
    ], ids=["dir-missing-file", "file-other-power", "dir-file-other-power"])
    def test_bad_source_fails_before_simulation(self, tmp_path, awgn_config, ckpt_dir, monkeypatch,
                                                capsys, argv, message, threads):
        def no_propagate(*args, **kwargs):
            pytest.fail("propagate ran before every input was resolved")

        monkeypatch.setattr("fiberae.channel.propagate", no_propagate)
        out = tmp_path / "out"
        argv = [a.format(dir=ckpt_dir) for a in argv]
        assert run_cli(*argv, "--config", awgn_config, "--threads", threads, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

    @pytest.mark.parametrize("argv, needs", [
        (("ser", "--source", "qam", "--detector", "ae"), "the ae detector"),
        (("regions", "--source", "qam", "--detector", "ae"), "the ae detector"),
        (("air", "--checkpoint", "qam"), "air"),
    ], ids=["ser", "regions", "air"])
    def test_qam_source_without_decoder_rejected(self, tmp_path, awgn_config, capsys, argv,
                                                 needs):
        out = tmp_path / "out"
        assert run_cli(*argv, "--power", "0", "--config", awgn_config, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: {needs} needs a trained decoder: pass a checkpoint, not qam" in err
        assert not out.exists()

    def test_regions_takes_no_power_sweep(self, tmp_path, awgn_config):
        # regions draws one raster at one power
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("regions", "--config", awgn_config, "--source", "qam", "--detector",
                    "mindist", "--powers=0:1:3", "--out", out)
        assert exc.value.code == 2
        assert not out.exists() or list(out.glob("regions_*")) == []

    def test_non_finite_center_rejected(self, tmp_path, awgn_config, capsys):
        out = tmp_path / "out"
        assert run_cli("regions", "--config", awgn_config, "--source", "qam", "--detector",
                       "mindist", "--power", "0", "--center", "nan,0", "--out", out) == 1
        assert "center" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_window_rejected(self, tmp_path, awgn_config, capsys):
        # finite center and half width whose edges overflow gave an all-zero raster
        out = tmp_path / "out"
        assert run_cli("regions", "--config", awgn_config, "--source", "qam", "--detector",
                       "mindist", "--power", "0", "--half-width", "1e308", "--center", "1e308,0",
                       "--resolution", "16", "--out", out) == 1
        assert "window" in capsys.readouterr().err
        assert not out.exists()


class TestPowerValues:
    """A power must be a finite dBm value whose power in watts is a finite
    positive double; anything else ends in an error line and no result."""

    @pytest.mark.parametrize("argv", [
        ("train", "--power", "nan"),
        ("train", "--power", "inf"),
        ("train", "--power", "1e308"),
        ("ser", "--source", "qam", "--power", "1e308"),
        ("ser", "--source", "qam", "--power", "nan"),
        ("ser", "--source", "qam", "--power=-inf"),
        ("mi", "--source", "qam", "--powers=3000:200:3400"),
        ("air", "--checkpoint", "{ckpt}", "--power", "nan"),
        ("regions", "--source", "qam", "--detector", "mindist", "--power", "inf"),
    ])
    def test_rejected(self, tmp_path, awgn_config, ckpt, capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(ckpt=ckpt) for a in argv]
        assert run_cli(*argv, "--config", awgn_config, "--out", out, "--threads", "1") == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("ser", "--source", "qam", "--power", "0", "--powers=-2:1:-1"),
        ("mi", "--source", "qam", "--powers=-2:1:-1", "--power", "0"),
        ("air", "--checkpoint", "{ckpt}", "--power", "-3", "--powers=-3:1:-3"),
    ], ids=lambda a: a[0])
    def test_power_and_powers_conflict(self, tmp_path, awgn_config, ckpt, capsys, argv):
        # ser used to drop --power without a word
        out = tmp_path / "out"
        argv = [a.format(ckpt=ckpt) for a in argv]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--config", awgn_config, "--out", out, "--threads", "1")
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("ser", "--source", "qam", "--powers=5:1:0"),
        ("mi", "--source", "qam", "--powers=5:1:0"),
        # a checkpoint file would fall back to its own power
        ("air", "--checkpoint", "{ckpt}", "--powers=5:1:0"),
    ], ids=lambda a: a[0])
    def test_empty_powers_range_rejected(self, tmp_path, awgn_config, ckpt, capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(ckpt=ckpt) for a in argv]
        assert run_cli(*argv, "--config", awgn_config, "--out", out, "--threads", "1") == 1
        assert "--powers 5:1:0 gives no power" in capsys.readouterr().err
        assert not out.exists()


class TestOverlayRows:
    def air_with_overlay(self, tmp_path, awgn_config, ckpt, rows: str) -> int:
        overlay = tmp_path / "bounds.csv"
        overlay.write_text(f"power_dbm,metric,value\n{rows}\n")
        return run_cli("air", "--config", awgn_config, "--checkpoint", ckpt, "--samples", "1000",
                       "--overlay", overlay, "--out", tmp_path / "out", "--threads", "1")

    def test_three_fields_padded_five_kept(self, tmp_path, awgn_config, ckpt):
        rows = "-3.0,upper_bound,1.9\n-2.0,lower_bound,1.7,10,3"
        assert self.air_with_overlay(tmp_path, awgn_config, ckpt, rows) == 0
        lines = (tmp_path / "out" / "air.csv").read_text().splitlines()
        assert lines[-2:] == ["-3.0,upper_bound,1.9,0,0", "-2.0,lower_bound,1.7,10,3"]

    @pytest.mark.parametrize("row", [
        "2,ub,inf,1",  # four fields
        "2,ub,1,2,3,4",
        "2,ub,inf,1,2,3,4",  # was cut to its first five fields
        "nan,ub,1",
        "1,ub,nan",
        "1,ub,-inf",
        "inf,ub,1,10,3",
        "x,ub,1",
        "1,ub",
        # n_samples and seed are written as they are, so they must be counts
        "1,ub,2,x,y",
        "1,ub,2,10,-3",
        "1,ub,2,1.5,3",
        "1,ub,2,1e3,3",
        "1,ub,2,10,",
        "1,ub,2,\u00b2,3",
    ])
    def test_rejected(self, tmp_path, awgn_config, ckpt, capsys, row):
        assert self.air_with_overlay(tmp_path, awgn_config, ckpt, row) == 1
        assert "overlay row" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEditedCheckpoint:
    """A checkpoint records its normalization scale for its readers; every
    command refuses one whose record disagrees with its weights."""

    @pytest.mark.parametrize("factor", [2.0, 1.0 + 1e-6])
    @pytest.mark.parametrize("argv", [
        ("air", "--checkpoint"),
        ("ser", "--detector", "ae", "--source"),
        ("mi", "--source"),
        ("regions", "--detector", "ae", "--source"),
        ("export-constellation", "--checkpoint"),
    ], ids=["air", "ser-ae", "mi", "regions-ae", "export-constellation"])
    def test_edited_norm_scale_rejected(self, tmp_path, awgn_config, ckpt, argv, factor,
                                        capsys):
        doc = json.loads(ckpt.read_text())
        doc["norm_scale"] *= factor
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli(*argv, ckpt, "--config", awgn_config, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "norm_scale" in err
        assert not out.exists()


class TestUnderflowedReceiver:
    """A receiver whose sigmoid outputs underflow to 0 is reported, not
    replaced: a zero true posterior is an infinite loss, and a row with no
    posterior at all is an error."""

    @staticmethod
    def underflow(ckpt, messages) -> Path:
        doc = json.loads(ckpt.read_text())
        biases = doc["receiver"]["layers"][-1]["biases"]
        for i in messages:
            biases[i] = -1000.0
        ckpt.write_text(json.dumps(doc))
        return ckpt

    @pytest.mark.filterwarnings("error")
    def test_train_from_zero_posterior_exits_1(self, tmp_path, awgn_config, ckpt, capsys):
        dead = self.underflow(ckpt, [0])
        assert run_cli("train", "--config", awgn_config, "--power", "-3", "--batches", "2",
                       "--warm-start", dead, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") and err.count("\n") == 1

    def test_air_of_zero_posterior_is_minus_inf(self, tmp_path, awgn_config, ckpt):
        dead = self.underflow(ckpt, [0])
        out = tmp_path / "out"
        assert run_cli("air", "--config", awgn_config, "--checkpoint", dead,
                       "--samples", "2000", "--out", out) == 0
        rows = [l for l in (out / "air.csv").read_text().splitlines()
                if l and not l.startswith(("#", "power_dbm"))]
        assert [r.split(",")[2] for r in rows] == ["-inf"]

    def test_regions_of_underflowed_rows_exits_1(self, tmp_path, awgn_config, ckpt, capsys):
        dead = self.underflow(ckpt, range(4))
        assert run_cli("regions", "--config", awgn_config, "--source", dead, "--detector", "ae",
                       "--resolution", "24", "--out", tmp_path / "out") == 1
        assert "576 of 576 receiver output rows in one decoded batch" in capsys.readouterr().err

    def test_regions_underflow_counts_one_block(self, tmp_path, awgn_config, ckpt, capsys):
        # 200 x 200 = 40 000 pixels, decoded channel.NET_BLOCK = 1024 at a
        # time: the count is of the first decoded block, and the message says so
        dead = self.underflow(ckpt, range(4))
        assert run_cli("regions", "--config", awgn_config, "--source", dead, "--detector", "ae",
                       "--resolution", "200", "--out", tmp_path / "out") == 1
        assert "1024 of 1024 receiver output rows in one decoded batch" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(fiberae.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "fiberae", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "fiberae" in proc.stdout

    def test_unallocatable_sample_count_fails_cleanly(self, tmp_path, capsys):
        # 10^17 samples ask numpy for 711 PiB, more than any address space
        # holds, so the request fails at once under every overcommit policy
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eval": {"n_samples": 10**17}}))
        assert run_cli("ser", "--config", config, "--source", "qam", "--power", "0",
                       "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ("train", "--power", "0"),
        ("ser", "--source", "qam", "--power", "0"),
        ("air", "--checkpoint", "x.json"),
        ("mi", "--source", "qam", "--power", "0"),
        ("regions", "--source", "qam", "--detector", "mindist", "--power", "0"),
        ("gradcheck",),
        ("export-constellation", "--checkpoint", "x.json"),
    ], ids=lambda a: a[0])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, argv, threads):
        # such a count used to run serially without a word
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--threads", threads, "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert run_cli("export-constellation", "--checkpoint",
                       tmp_path / "nope.json", "--out", tmp_path) == 1
        assert "does not exist" in capsys.readouterr().err


class TestThreadsDefault:
    """--threads defaults to the CPUs this process may run on, not to the
    machine's count, so a process limited by its affinity mask does not
    oversubscribe its CPUs."""

    ARGV = ["ser", "--source", "qam", "--power", "0"]

    def test_default_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert build_parser().parse_args(self.ARGV).threads == 3

    def test_default_without_affinity_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert build_parser().parse_args(self.ARGV).threads == 5
