"""Tests for the end-to-end trainable system."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberae.autoencoder import (
    AutoencoderModel,
    CheckpointError,
    TrainingDivergedError,
    batch_loss_and_grads,
    build_model,
    constellation_points,
    decode,
    detect,
    load_checkpoint,
    model_parameters,
    save_checkpoint,
    train,
)
from fiberae.channel import ChannelParams, draw_noise, make_rng, propagate, watts_from_dbm
from fiberae.gradcheck import end_to_end_error
from fiberae.nets import DenseLayer, DenseNetwork

AWGN = ChannelParams(gamma=0.0)
NLPN = ChannelParams()


def toy_model(points_2d, p_in, params=AWGN):
    """Model whose tx is a single linear layer emitting fixed raw symbols."""
    pts = np.asarray(points_2d, dtype=float)
    m = pts.shape[0]
    tx = DenseNetwork([DenseLayer(pts, np.zeros(2), "linear")])
    rx_layers = [
        DenseLayer(np.zeros((2, m)), np.zeros(m), "tanh"),
        DenseLayer(np.zeros((m, m)), np.zeros(m), "sigmoid"),
    ]
    return AutoencoderModel(tx=tx, rx=DenseNetwork(rx_layers), params=params, input_power_w=p_in)


UNIT_CIRCLE = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])


class TestRenormalize:
    """The normalization layer: symbols are the raw transmitter outputs times
    sqrt(P_in / their mean power), a scale derived from the weights."""

    def test_unit_circle_points(self):
        # raw symbols 1, -1, j, -j all at power 1; P_in = 1e-3
        pts = constellation_points(toy_model(UNIT_CIRCLE, 1e-3))
        scale = 0.03162277660168379
        assert np.allclose(pts, scale * np.array([1, -1, 1j, -1j]), rtol=1e-12, atol=0)

    def test_fixed_point(self):
        raw = UNIT_CIRCLE * math.sqrt(1e-3)
        pts = constellation_points(toy_model(raw, 1e-3))
        assert np.allclose(pts, raw[:, 0] + 1j * raw[:, 1], rtol=1e-12, atol=0)

    def test_doubling_halves_scale(self):
        # the scale absorbs any gain of the raw symbols
        p1 = constellation_points(toy_model(UNIT_CIRCLE, 1e-3))
        p2 = constellation_points(toy_model(2.0 * UNIT_CIRCLE, 1e-3))
        assert np.allclose(p2, p1, rtol=1e-12, atol=0)

    def test_zero_power_rejected(self):
        model = toy_model(np.zeros((4, 2)), 1e-3)
        with pytest.raises(ValueError):
            constellation_points(model)

    def test_power_constraint_after_renormalize(self):
        model = build_model(16, NLPN, watts_from_dbm(3.0), seed=0)
        pts = constellation_points(model)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(
            model.input_power_w, rel=1e-12
        )

    def test_constraint_holds_as_weights_change(self):
        # no stored scale to refresh: an edit of the live weights is seen
        model = build_model(4, AWGN, 1e-3, seed=1)
        model.tx.layers[-1].weights *= 3.0
        model.tx.layers[-1].biases += 0.5
        pts = constellation_points(model)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1e-3, rel=1e-12)


class TestEncode:
    def test_antipodal_toy(self):
        model = toy_model([[1, 0], [-1, 0]], 1e-3)
        root = math.sqrt(1e-3)
        pts = constellation_points(model)
        assert pts[0] == pytest.approx(complex(root, 0), rel=1e-12)
        assert pts[1] == pytest.approx(complex(-root, 0), rel=1e-12)

    def test_mean_power_forced(self):
        model = build_model(8, AWGN, 2e-3, seed=1)
        pts = constellation_points(model)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(2e-3, rel=1e-12)


class TestDecode:
    def test_posterior_sums_to_one(self):
        model = build_model(16, NLPN, 1e-3, seed=2)
        rng = make_rng(3)
        y = 0.03 * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
        post = decode(model, y)
        assert post.shape == (50, 16)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(post >= 0)

    def test_zero_receiver_gives_uniform(self):
        model = toy_model([[1, 0], [-1, 0], [0, 1], [0, -1]], 1e-3)
        post = decode(model, np.array([0.01 + 0.02j]))
        assert post.shape == (1, 4)
        assert np.allclose(post, 0.25, atol=1e-15)

    def test_detect_tie_breaks_low(self):
        model = toy_model([[1, 0], [-1, 0], [0, 1], [0, -1]], 1e-3)
        # uniform posterior everywhere: argmax must return message 0
        assert np.array_equal(detect(model, np.array([0.005 - 0.003j])), [0])

    def test_underflowed_rows_rejected(self):
        # every sigmoid output underflows to 0: no posterior can be formed
        model = build_model(4, AWGN, 1e-3, seed=2)
        model.rx.layers[-1].biases[:] = -1000.0
        with pytest.raises(ValueError, match="3 of 3 receiver output rows"):
            decode(model, np.array([0.0, 0.01, 0.02j]))


class TestEndToEndGradients:
    def test_full_pipeline_matches_finite_differences(self):
        # M=4, K=5, N=8, fixed noise
        assert end_to_end_error(m=4, segments=5, batch=8, seed=0) < 1e-5

    def test_gradients_flow_through_norm_scale(self):
        # scaling all tx output weights leaves the loss invariant, so the
        # projection of the gradient onto that direction must vanish
        params = ChannelParams(segments=3)
        model = build_model(4, params, 1e-3, seed=4)
        messages = np.arange(8) % 4
        noise = draw_noise(params, messages.shape, make_rng(5))
        _, grads = batch_loss_and_grads(model, messages, noise)
        plist = model_parameters(model)
        # last tx layer: weights at index 2*(len(tx.layers)-1), biases next
        wi = 2 * (len(model.tx.layers) - 1)
        w, b = plist[wi], plist[wi + 1]
        dot = float(np.sum(grads[wi] * w) + np.sum(grads[wi + 1] * b))
        norm = float(np.sum(np.abs(grads[wi] * w)) + np.sum(np.abs(grads[wi + 1] * b)))
        assert abs(dot) < 1e-12 * max(norm, 1e-30)


class TestTrain:
    def test_lr_zero_keeps_weights(self):
        model = build_model(4, AWGN, 1e-3, seed=6)
        before = [p.copy() for p in model_parameters(model)]
        train(model, batch_size=16, batches=5, learning_rate=0.0, seed=7)
        after = model_parameters(model)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_first_loss_near_log_m(self):
        for m in (4, 16):
            model = build_model(m, NLPN, 1e-3, seed=8)
            losses = train(model, batch_size=4 * m, batches=1, learning_rate=1e-3, seed=9)
            assert losses[0] == pytest.approx(math.log(m), rel=0.10)

    def test_reproducible_trace(self):
        settings = {"batch_size": 16, "batches": 20, "learning_rate": 1e-3, "seed": 10}
        model_a = build_model(4, AWGN, 1e-3, seed=11)
        model_b = build_model(4, AWGN, 1e-3, seed=11)
        assert np.array_equal(train(model_a, **settings), train(model_b, **settings))
        for a, b in zip(model_parameters(model_a), model_parameters(model_b)):
            assert np.array_equal(a, b)

    def test_batch_size_must_be_multiple_of_m(self):
        model = build_model(4, AWGN, 1e-3, seed=0)
        with pytest.raises(ValueError):
            train(model, batch_size=10, batches=1, learning_rate=1e-3, seed=0)

    @pytest.mark.parametrize(
        "bad",
        [{"batch_size": 0}, {"batch_size": 6}, {"batches": 0},
         {"learning_rate": -1.0}, {"learning_rate": math.nan}, {"learning_rate": math.inf}],
        ids=["batch_size-0", "batch_size-6", "batches-0", "learning_rate--1", "learning_rate-nan",
             "learning_rate-inf"],
    )
    def test_bad_settings_rejected_before_training(self, bad):
        # M = 4: a batch of 0 or 6 is no positive multiple of M
        model = build_model(4, AWGN, 1e-3, seed=14)
        before = [p.copy() for p in model_parameters(model)]
        with pytest.raises(ValueError, match=next(iter(bad))):
            train(model, **{"batch_size": 8, "batches": 1, "learning_rate": 1e-3, "seed": 15, **bad})
        for a, b in zip(before, model_parameters(model)):
            assert np.array_equal(a, b)

    def test_divergence_aborts_with_report(self):
        model = build_model(4, AWGN, 1e-3, seed=12)
        model.rx.layers[-1].weights[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            train(model, batch_size=8, batches=2, learning_rate=1e-3, seed=13)

    @pytest.mark.filterwarnings("error")
    def test_zero_true_posterior_diverges(self):
        # message 0's sigmoid underflows to 0: its samples have infinite loss
        model = build_model(4, AWGN, 1e-3, seed=12)
        model.rx.layers[-1].biases[0] = -1000.0
        with pytest.raises(TrainingDivergedError, match="at batch 0"):
            train(model, batch_size=8, batches=2, learning_rate=1e-3, seed=13)

    def test_awgn_high_snr_learns_clean_constellation(self):
        # M=4 at 40 dB SNR: after training, the measured SER must be < 1e-3
        params = ChannelParams(gamma=0.0, noise_power_w=watts_from_dbm(-40.0))
        model = build_model(4, params, watts_from_dbm(0.0), seed=0, hidden_width=16)
        train(model, batch_size=256, batches=2000, learning_rate=1e-3, seed=16)
        rng = make_rng(17)
        n = 40_000
        msgs = np.arange(n) % 4
        y = propagate(constellation_points(model)[msgs], params, rng)
        assert np.mean(detect(model, y) != msgs) < 1e-3


class TestCheckpoints:
    def test_round_trip_bytes_identical(self, tmp_path):
        model = build_model(4, NLPN, 1e-3, seed=18)
        cfg = {"batch_size": 8, "batches": 1, "learning_rate": 1e-3, "seed": 19}
        train(model, **cfg)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(model, p1, cfg)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_forward_exactly(self, tmp_path):
        model = build_model(8, NLPN, 1e-3, seed=20)
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        rng = make_rng(21)
        y = 0.05 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
        assert np.array_equal(decode(model, y), decode(loaded, y))
        assert np.array_equal(constellation_points(model), constellation_points(loaded))

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(4, AWGN, 1e-3, seed=22)
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        model = build_model(4, AWGN, 1e-3, seed=23)
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_saved_channel_has_no_seed(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(build_model(4, NLPN, 1e-3, seed=24), path)
        assert "seed" not in json.loads(path.read_text())["channel"]

    def test_saved_norm_scale_is_derived(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(toy_model(UNIT_CIRCLE, 1e-3), path)
        doc = json.loads(path.read_text())
        assert doc["m"] == 4
        assert doc["norm_scale"] == pytest.approx(0.03162277660168379, rel=1e-12)

    @staticmethod
    def saved_with(tmp_path, key, edit):
        """A saved M=4 checkpoint whose field `key` holds edit(saved value)."""
        path = tmp_path / "m.json"
        save_checkpoint(build_model(4, AWGN, 1e-3, seed=25), path)
        doc = json.loads(path.read_text())
        doc[key] = edit(doc[key])
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("factor", [2.0, 1.0 + 1e-6, 1.0 - 1e-8])
    def test_norm_scale_other_than_weights_give_rejected(self, tmp_path, factor):
        path = self.saved_with(tmp_path, "norm_scale", lambda v: v * factor)
        with pytest.raises(CheckpointError, match="norm_scale"):
            load_checkpoint(path)

    def test_last_bit_norm_scale_difference_loads(self, tmp_path):
        # a tanh evaluated on another machine may differ in its last bit
        loaded = load_checkpoint(self.saved_with(tmp_path, "norm_scale", lambda v: v * (1 + 1e-12)))
        expected = constellation_points(build_model(4, AWGN, 1e-3, seed=25))
        assert np.array_equal(constellation_points(loaded), expected)

    def test_m_other_than_weights_give_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="m is 8"):
            load_checkpoint(self.saved_with(tmp_path, "m", lambda v: 8))

    def test_benchmark_fixture_with_channel_seed_loads(self):
        # written before the unused channel seed was dropped; it stores one
        path = Path(__file__).parent.parent / "perfbench" / "fixture" / "ae_m16_p+0.00dbm.json"
        assert json.loads(path.read_text())["channel"]["seed"] == 1
        model = load_checkpoint(path)
        assert model.params == NLPN
        assert model.m == 16

    @pytest.mark.parametrize("key, value", [
        ("m", 4.0),
        ("m", True),
        ("norm_scale", math.inf),
        ("norm_scale", "0.5"),
        ("input_power_w", math.inf),
        ("input_power_w", math.nan),
        ("input_power_w", 10**400),
    ])
    def test_invalid_field_rejected(self, tmp_path, key, value):
        path = tmp_path / "m.json"
        save_checkpoint(build_model(4, AWGN, 1e-3, seed=25), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _saved_checkpoint() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_checkpoint(build_model(4, NLPN, 1e-3, seed=26), path)
        return json.loads(path.read_text())


SAVED = _saved_checkpoint()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _near_misses(value) -> list:
    """Edits of a saved field's value that random JSON seldom reaches."""
    out = [None, True, math.inf, -math.inf, math.nan, str(value), [value]]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [float(value), value + 0.5, -value, 0, 10**400]
    if isinstance(value, dict):
        out += [{k: v for k, v in value.items() if k != drop} for drop in value]
    return out


FIELD_EDITS = st.sampled_from(sorted(SAVED)).flatmap(
    lambda key: st.tuples(st.just(key), JSON_VALUES | st.sampled_from(_near_misses(SAVED[key])))
)


class TestCheckpointProperties:
    @settings(max_examples=300, deadline=None)
    @given(FIELD_EDITS)
    def test_any_field_value_loads_or_is_rejected(self, edit):
        key, value = edit
        doc = dict(SAVED, **{key: value})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            path.write_text(json.dumps(doc))
            try:
                model = load_checkpoint(path)
            except CheckpointError:
                return
        constellation_points(model)
        detect(model, np.array([0.0, 0.01 + 0.02j]))
