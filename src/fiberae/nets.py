"""Minimal dense-network engine: forward, exact backprop, Adam.

Everything is plain numpy in double precision.  Networks are small stacks
of dense layers with tanh, sigmoid, or linear activations; layers follow
the row-convention ``out = f(x @ W + b)`` so each column of W is one
neuron's weight vector.  Inputs are (batch, features) arrays, one row
per sample.

The training loss is the cross-entropy of a one-hot target against a
posterior, taken with the natural log (information rates elsewhere use
log2).  `cross_entropy` gives it per sample, so a posterior of 0 for the
true message reads as an infinite loss.

Adam, with the fixed ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON, updates the
arrays of `DenseNetwork.parameters()` in place, where the network holds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPSILON",
    "AdamState",
    "DenseLayer",
    "DenseNetwork",
    "adam_init",
    "adam_step",
    "backward",
    "cross_entropy",
    "forward",
    "network",
]

# Adam's moment decay rates and denominator offset (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _sigmoid(z):
    # exp of -|z| only, so it cannot overflow: 1 / (1 + e^-z) for z >= 0 and
    # e^z / (1 + e^z) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# name: (activation of z, its derivative from the activation's output a)
ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
    "linear": (lambda z: z, np.ones_like),
}


@dataclass
class DenseLayer:
    """One layer out = f(x @ weights + biases), f the activation named by
    `activation` (a key of ACTIVATIONS).  The parameters must be finite and
    are stored as float arrays."""

    weights: np.ndarray  # (n_in, n_out)
    biases: np.ndarray  # (n_out,)
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[1],):
            raise ValueError("layer weights must be (n_in, n_out) with matching biases")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]


@dataclass
class DenseNetwork:
    """A stack of layers, each one's input width the previous one's output
    width."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.n_out != cur.n_in:
                raise ValueError(
                    f"layer widths do not chain: {prev.n_out} -> {cur.n_in}"
                )

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def n_out(self) -> int:
        return self.layers[-1].n_out

    def parameters(self) -> list[np.ndarray]:
        """Flat list [W0, b0, W1, b1, ...] referencing the live arrays."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out


def network(widths: list[int], activations: list[str], rng: np.random.Generator) -> DenseNetwork:
    """Build a stack with uniform Glorot weights, drawn layer by layer from
    `rng`, and zero biases; widths has one more entry than activations."""
    if len(widths) != len(activations) + 1:
        raise ValueError("need len(widths) == len(activations) + 1")
    layers = []
    for n_in, n_out, activation in zip(widths, widths[1:], activations):
        limit = np.sqrt(6.0 / (n_in + n_out))
        layers.append(DenseLayer(rng.uniform(-limit, limit, size=(n_in, n_out)), np.zeros(n_out), activation))
    return DenseNetwork(layers)


def forward(net: DenseNetwork, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a batch (n, n_in); returns (output (n, n_out),
    activations), where activations = [x, layer 1 output, ..., output] is
    what backward() reads.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != net.n_in:
        raise ValueError(f"input has shape {a.shape}, network expects (n, {net.n_in})")
    activations = [a]
    for layer in net.layers:
        a = ACTIVATIONS[layer.activation][0](a @ layer.weights + layer.biases)
        activations.append(a)
    return a, activations


def backward(net: DenseNetwork, activations: list[np.ndarray], grad_output) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact reverse-mode gradients for a forward() pass.

    grad_output holds dLoss/d(output), one row per sample; parameter
    gradients are summed over rows.  Returns (param_grads aligned with
    net.parameters(), grad_input of shape (n, n_in)).
    """
    if len(activations) != len(net.layers) + 1:
        raise ValueError("activations do not match this network")
    g = np.asarray(grad_output, dtype=float)
    if g.shape != activations[-1].shape:
        raise ValueError("grad_output shape does not match the forward output")
    param_grads: list[np.ndarray] = []
    for layer, a_in, a_out in reversed(list(zip(net.layers, activations, activations[1:]))):
        delta = g * ACTIVATIONS[layer.activation][1](a_out)
        param_grads[:0] = [a_in.T @ delta, delta.sum(axis=0)]
        g = delta @ layer.weights.T
    return param_grads, g


def cross_entropy(posteriors: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """The n losses -log(posterior of the true message), natural log.

    `posteriors` is (n, M), `messages` the n true indices.  A zero posterior
    gives +inf.
    """
    with np.errstate(divide="ignore"):
        return -np.log(posteriors[np.arange(messages.shape[0]), messages])


@dataclass
class AdamState:
    """Adam step count, learning rate and moments shaped like the parameter list."""

    step_count: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    learning_rate: float


def adam_init(params: list[np.ndarray], learning_rate: float) -> AdamState:
    """Adam state at step 0 for `params`: zero moments of their shapes."""
    return AdamState(
        step_count=0,
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
    )


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One bias-corrected Adam update of `params` and of the state, in place."""
    if not (len(params) == len(grads) == len(state.first_moment)):
        raise ValueError("params/grads/state length mismatch")
    state.step_count += 1
    c1 = 1.0 - ADAM_BETA1**state.step_count
    c2 = 1.0 - ADAM_BETA2**state.step_count
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)

