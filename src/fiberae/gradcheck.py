"""Finite-difference verification of every gradient path in the package.

Three checks, one per gradient implementation:

* dense networks alone (forward/backward),
* the channel's carried derivative (backprop_channel) for several segment counts,
* the full training loss through transmitter, normalization, channel,
  and receiver with a fixed noise realization.

All three run through `finite_difference_error`, the one place central
differences are taken: every parameter is perturbed by +-FD_STEP and the
figure is the worst mixed error |analytic - numeric| / max(|analytic|,
|numeric|, 1).  A gradient path passes when its figure is at most
TOLERANCE.  Every check seeds its streams from `channel.make_rng`.
"""

from __future__ import annotations

import numpy as np

from fiberae.autoencoder import batch_loss_and_grads, build_model, model_parameters
from fiberae.channel import (
    ChannelParams,
    backprop_channel,
    draw_noise,
    make_rng,
    propagate_tape,
    watts_from_dbm,
)
from fiberae.nets import DenseNetwork, backward, forward, network

__all__ = [
    "FD_STEP",
    "TOLERANCE",
    "finite_difference_error",
    "grad_check",
    "dense_network_error",
    "channel_error",
    "end_to_end_error",
    "run_all",
]

FD_STEP = 1e-6
TOLERANCE = 1e-5


def finite_difference_error(params: list[np.ndarray], analytic: list[np.ndarray], loss) -> float:
    """Worst mixed error of analytic gradients against central differences.

    Every entry of every array in `params` is perturbed by +-FD_STEP in
    place and restored; `loss()` must evaluate the loss on the live arrays.
    The figure is max |analytic - numeric| / max(|analytic|, |numeric|, 1).
    """
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.reshape(-1)
        ga = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + FD_STEP
            plus = loss()
            flat[j] = orig - FD_STEP
            minus = loss()
            flat[j] = orig
            numeric = (plus - minus) / (2.0 * FD_STEP)
            worst = max(worst, abs(ga[j] - numeric) / max(abs(ga[j]), abs(numeric), 1.0))
    return worst


def grad_check(net: DenseNetwork, loss_fn, x) -> float:
    """Compare backward() at the batch x against central finite differences.

    `loss_fn(output)` must return (value, grad_wrt_output) for the (n, n_out)
    output; the figure is `finite_difference_error` over every parameter.
    """
    out, activations = forward(net, x)
    analytic, _ = backward(net, activations, loss_fn(out)[1])
    return finite_difference_error(
        net.parameters(), analytic, lambda: loss_fn(forward(net, x)[0])[0]
    )


def dense_network_error(seed: int = 0) -> float:
    """Worst grad_check figure over a spread of small architectures."""
    rng = make_rng(seed)
    cases = [
        ([5, 3], ["linear"]),
        ([4, 8, 4], ["tanh", "tanh"]),
        ([2, 16, 16, 16, 16], ["tanh", "tanh", "tanh", "sigmoid"]),
        ([16, 16, 16, 2], ["tanh", "tanh", "linear"]),
        ([1, 1], ["sigmoid"]),
    ]
    worst = 0.0
    for widths, acts in cases:
        net = network(widths, acts, rng)
        x = rng.standard_normal((1, widths[0]))
        target = rng.standard_normal(widths[-1])

        def loss(out, target=target):
            d = out - target
            return 0.5 * float(d[0] @ d[0]), d

        worst = max(worst, grad_check(net, loss, x))
    return worst


def channel_error(segment_counts=(1, 5, 50), seed: int = 0) -> float:
    """Worst error of backprop_channel against differencing propagate_tape's output."""
    worst = 0.0
    rng = make_rng(seed)
    for segments in segment_counts:
        params = ChannelParams(segments=segments)
        # a one-sample batch; its float view (Re x, Im x) is what gets perturbed
        x = np.array([complex(0.02 * rng.standard_normal(), 0.02 * rng.standard_normal())])
        noise = draw_noise(params, (1,), rng)
        g_out = complex(rng.standard_normal(), rng.standard_normal())

        def loss():
            (y,), _ = propagate_tape(x, noise, params)
            return g_out.real * y.real + g_out.imag * y.imag

        g = backprop_channel(propagate_tape(x, noise, params)[1], g_out)
        worst = max(worst, finite_difference_error([x.view(float)], [g.view(float)], loss))
    return worst


def end_to_end_error(m: int = 4, segments: int = 5, batch: int = 8, seed: int = 0) -> float:
    """Worst parameter-gradient error of the full training loss at 0 dBm.

    Differentiates the batch cross-entropy through receiver, channel,
    power normalization, and transmitter against central differences over
    every weight and bias, holding one noise realization, drawn from
    make_rng((seed, 1)), fixed.
    """
    params = ChannelParams(segments=segments)
    model = build_model(m, params, watts_from_dbm(0.0), seed)
    messages = np.arange(batch) % m
    noise = draw_noise(params, messages.shape, make_rng((seed, 1)))
    _, grads = batch_loss_and_grads(model, messages, noise)
    return finite_difference_error(
        model_parameters(model), grads, lambda: batch_loss_and_grads(model, messages, noise)[0]
    )


def run_all(seed: int = 0) -> dict[str, float]:
    """All three checks; keys: dense_networks, channel, end_to_end."""
    return {
        "dense_networks": dense_network_error(seed),
        "channel": channel_error(seed=seed),
        "end_to_end": end_to_end_error(seed=seed),
    }
