"""Transmitter network, power normalization, channel, and receiver network.

The trainable system maps a message s in {0, ..., M-1} to a one-hot vector,
through the transmitter net to a complex symbol, normalizes the M-symbol
constellation to the average-power budget, sends it through the nonlinear
channel, and decodes a batch of received samples with the receiver net,
whose sigmoid outputs are normalized to one posterior per sample.

Default layer plan (overridable): the transmitter has 5 hidden tanh layers
of width M and a linear 2-neuron output; the receiver takes the 2 real
channel outputs through 6 hidden tanh layers of width M into a sigmoid
M-neuron output.

A model is its two networks, its channel and its input power.  M and the
normalization scale sqrt(P_in / mean raw symbol power) are derived from
the weights; a checkpoint records both, and loading checks them.

Training minimizes the batch-averaged cross-entropy (natural log) with
Adam, backpropagating through the receiver, the recorded channel tape, the
normalization scale, and the transmitter in one exact reverse pass.  The
normalization scale is treated as a differentiable function of the current
batch's M symbol powers, so the power constraint stays exact throughout
optimization.  Channel noise is sampled outside the differentiated path
and held fixed per backward pass; `train` says how it is drawn.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from fiberae import channel
from fiberae.channel import (
    ChannelParams,
    backprop_channel,
    draw_noise,
    in_blocks,
    make_rng,
    propagate_tape,
)
from fiberae.nets import (
    DenseLayer,
    DenseNetwork,
    adam_init,
    adam_step,
    backward,
    cross_entropy,
    forward,
    network,
)

__all__ = [
    "AutoencoderModel",
    "TrainingDivergedError",
    "CheckpointError",
    "build_model",
    "constellation_points",
    "decode",
    "detect",
    "train",
    "batch_loss_and_grads",
    "model_parameters",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "fiberae-autoencoder-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Raised when the batch loss stops being finite."""


class CheckpointError(ValueError):
    """Raised for malformed, truncated, or wrong-version checkpoint files."""


@dataclass
class AutoencoderModel:
    """Transmitter net, receiver net, the channel they are trained on, and
    the input power in watts.

    These four are the whole state.  `m` is a property, the transmitter's
    input width, and the power normalization is computed from the weights
    wherever symbols are needed, never stored.
    """

    tx: DenseNetwork
    rx: DenseNetwork
    params: ChannelParams
    input_power_w: float

    def __post_init__(self):
        if self.m < 2 or self.tx.n_out != 2:
            raise ValueError(f"transmitter must map m >= 2 inputs to 2, not {self.m} to {self.tx.n_out}")
        if self.rx.n_in != 2 or self.rx.n_out != self.m:
            raise ValueError(f"receiver must map 2 -> {self.m}")
        value = self.input_power_w
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("input_power_w must be a number")
        # float() turns a huge JSON integer into an OverflowError
        self.input_power_w = float(value)
        if not 0 < self.input_power_w < math.inf:
            raise ValueError("input_power_w must be finite and positive")

    @property
    def m(self) -> int:
        """Constellation size: the transmitter's one-hot input width."""
        return self.tx.n_in


def build_model(
    m: int,
    params: ChannelParams,
    input_power_w: float,
    seed: int,
    tx_hidden: int = 5,
    rx_hidden: int = 6,
    hidden_width: int | None = None,
) -> AutoencoderModel:
    """Glorot-initialized model with the default layer plan."""
    width = m if hidden_width is None else hidden_width
    rng = make_rng(seed)
    tx = network(
        [m] + [width] * tx_hidden + [2],
        ["tanh"] * tx_hidden + ["linear"],
        rng,
    )
    rx = network(
        [2] + [width] * rx_hidden + [m],
        ["tanh"] * rx_hidden + ["sigmoid"],
        rng,
    )
    return AutoencoderModel(tx=tx, rx=rx, params=params, input_power_w=input_power_w)


def _normalize(tx: DenseNetwork, input_power_w: float):
    """The transmitter's M symbols scaled to mean power input_power_w, as
    (complex points, scale, raw (M, 2) outputs, their mean power, activations)."""
    raw, activations = forward(tx, np.eye(tx.n_in))
    mean_power = float(np.mean(np.sum(raw * raw, axis=1)))
    if not 0.0 < mean_power < math.inf:
        raise ValueError(f"transmitter outputs have mean power {mean_power}, cannot normalize")
    scale = np.sqrt(input_power_w / mean_power)
    return scale * (raw[:, 0] + 1j * raw[:, 1]), scale, raw, mean_power, activations


def constellation_points(model: AutoencoderModel) -> np.ndarray:
    """The M normalized complex symbols in message order."""
    return _normalize(model.tx, model.input_power_w)[0]


def _rx_input_scale(model: AutoencoderModel) -> float:
    # receiver inputs are divided by sqrt(P_in) so first-layer activations are
    # O(1) at every operating power; a fixed reparameterization of the first
    # receiver layer, absorbed into the learned weights
    return 1.0 / np.sqrt(model.input_power_w)


def _posteriors(model: AutoencoderModel, y: np.ndarray):
    """Receiver posteriors for n complex samples; returns (P (n, M), activations, sums)."""
    k = _rx_input_scale(model)
    rx_in = np.column_stack([k * y.real, k * y.imag])
    sig, activations = forward(model.rx, rx_in)
    sums = sig.sum(axis=1)
    dead = np.count_nonzero(sums == 0.0)
    if dead:
        raise ValueError(f"{dead} of {len(sums)} receiver output rows in one decoded batch underflow to 0")
    return sig / sums[:, None], activations, sums


def decode(model: AutoencoderModel, y) -> np.ndarray:
    """Posteriors (n, M) over messages for n received samples.

    Components are nonnegative and each row sums to 1 by construction;
    raises ValueError if every sigmoid output of a row underflows to 0,
    counting the rows of this call (evaluations decode channel.NET_BLOCK
    rows per call).
    """
    return _posteriors(model, np.atleast_1d(np.asarray(y, dtype=complex)))[0]


def detect(model: AutoencoderModel, y, threads: int = 1) -> np.ndarray:
    """argmax of each posterior row; ties break to the lowest message index.

    Decodes in `in_blocks` slices of channel.NET_BLOCK samples on `threads`.
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    return in_blocks(lambda yb: np.argmax(decode(model, yb), axis=1), y,
                     block=channel.NET_BLOCK, threads=threads)


def model_parameters(model: AutoencoderModel) -> list[np.ndarray]:
    """Transmitter parameters followed by receiver parameters (the live arrays)."""
    return model.tx.parameters() + model.rx.parameters()


def batch_loss_and_grads(model: AutoencoderModel, messages: np.ndarray, noise: np.ndarray):
    """Mean cross-entropy of one batch for a fixed noise realization, plus
    exact gradients for every transmitter/receiver parameter.

    Returns (loss, grads aligned with model_parameters()).
    The reverse pass runs decode -> channel tape -> normalization scale ->
    transmitter, with the scale differentiated through the batch's M symbol
    powers.
    """
    points, scale, raw, mean_power, acts_tx = _normalize(model.tx, model.input_power_w)
    y, tape = propagate_tape(points[messages], noise, model.params)
    post, acts_rx, sums = _posteriors(model, y)
    loss = float(np.mean(cross_entropy(post, messages)))

    # a zero true posterior: infinite loss, which train reports, so no warnings
    rows = np.arange(messages.shape[0])
    d_post = np.zeros_like(post)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_post[rows, messages] = -1.0 / (messages.shape[0] * post[rows, messages])
        # posterior = sig / sum(sig): pull gradient through the normalization
        row_dot = np.sum(d_post * post, axis=1, keepdims=True)
    d_sig = (d_post - row_dot) / sums[:, None]

    rx_grads, d_rx_in = backward(model.rx, acts_rx, d_sig)
    k = _rx_input_scale(model)
    g_y = k * (d_rx_in[:, 0] + 1j * d_rx_in[:, 1])
    g_x = backprop_channel(tape, g_y)

    # scatter per-sample gradients onto the M constellation rows
    g_points = np.zeros((model.m, 2))
    np.add.at(g_points, messages, np.column_stack([g_x.real, g_x.imag]))

    # points = scale(raw) * raw with scale = sqrt(P_in / mean_power(raw))
    t = float(np.sum(g_points * raw))
    d_raw = scale * (g_points - (t / (model.m * mean_power)) * raw)
    tx_grads, _ = backward(model.tx, acts_tx, d_raw)

    return loss, tx_grads + rx_grads


def train(model: AutoencoderModel, batch_size: int, batches: int, learning_rate: float, seed: int) -> np.ndarray:
    """Adam-train the model in place at its own power; returns the per-batch mean loss trace.

    Batches are balanced: each message appears batch_size/M times.  Noise is
    redrawn every batch from the root stream make_rng(seed), so identical
    settings reproduce identical traces.  One worker thread draws batch
    b+1's noise while batch b's step runs, which takes the draw off the
    step's critical path.  It alone uses the stream, in batch order, so the
    trace and the weights are those of drawing each batch just before its
    step.  The worker is joined before this returns or raises.  Raises
    ValueError before the model changes unless batch_size is a positive
    multiple of M, batches >= 1 and learning_rate is finite and >= 0, and
    TrainingDivergedError if the loss stops being finite.
    """
    if not (batch_size >= 1 and batch_size % model.m == 0):
        raise ValueError(f"batch_size must be a positive multiple of M = {model.m}, not {batch_size}")
    if not batches >= 1:
        raise ValueError(f"batches must be at least 1, not {batches}")
    if not 0 <= learning_rate < math.inf:
        raise ValueError(f"learning_rate must be finite and at least 0, not {learning_rate}")
    messages = np.arange(batch_size) % model.m
    rng = make_rng(seed)
    params = model_parameters(model)
    state = adam_init(params, learning_rate=learning_rate)
    losses = np.empty(batches)

    def draw():
        return draw_noise(model.params, messages.shape, rng)

    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(draw)
        for b in range(batches):
            noise = ahead.result()
            if b + 1 < batches:
                ahead = pool.submit(draw)
            loss, grads = batch_loss_and_grads(model, messages, noise)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss {loss} at batch {b}")
            losses[b] = loss
            adam_step(state, params, grads)
    return losses


# ---------------------------------------------------------------------------
# checkpoint files: versioned, self-describing JSON; see README for the schema


def _net_to_dict(net: DenseNetwork) -> dict:
    return {
        "layers": [
            {
                "activation": layer.activation,
                "weights": layer.weights.tolist(),
                "biases": layer.biases.tolist(),
            }
            for layer in net.layers
        ]
    }


def _net_from_dict(d: dict) -> DenseNetwork:
    layers = [
        DenseLayer(np.array(l["weights"]), np.array(l["biases"]), l["activation"])
        for l in d["layers"]
    ]
    return DenseNetwork(layers)


def save_checkpoint(model: AutoencoderModel, path, train_config: dict | None = None) -> None:
    """Write the model (and optionally a record of its training settings) as JSON text.

    Doubles are serialized via their shortest round-tripping decimal
    representation, so save -> load -> save is byte-identical.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "m": model.m,
        "input_power_w": model.input_power_w,
        "norm_scale": float(_normalize(model.tx, model.input_power_w)[1]),
        "channel": asdict(model.params),
        "transmitter": _net_to_dict(model.tx),
        "receiver": _net_to_dict(model.rx),
        "train_config": train_config,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _channel_from_dict(d: dict) -> ChannelParams:
    # files written before ChannelParams lost its unused `seed` field carry it
    return ChannelParams(**{k: v for k, v in d.items() if k != "seed"})


def load_checkpoint(path) -> AutoencoderModel:
    """Read a checkpoint written by save_checkpoint; its `m` and `norm_scale`
    must be what its weights give (the scale to 1e-9 relative)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not an autoencoder checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {doc.get('version')!r}"
        )
    try:
        model = AutoencoderModel(
            tx=_net_from_dict(doc["transmitter"]),
            rx=_net_from_dict(doc["receiver"]),
            params=_channel_from_dict(doc["channel"]),
            input_power_w=doc["input_power_w"],
        )
        m, saved = doc["m"], doc["norm_scale"]
        scale = float(_normalize(model.tx, model.input_power_w)[1])
        if type(m) is not int or m != model.m:
            raise ValueError(f"m is {m!r}, but the weights give {model.m}")
        number = not isinstance(saved, bool) and isinstance(saved, (int, float))
        if not (number and abs(saved - scale) <= 1e-9 * scale):
            raise ValueError(f"norm_scale is {saved!r}, but the weights and power give {scale!r}")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint contents in {path}: {exc}") from exc
    return model
