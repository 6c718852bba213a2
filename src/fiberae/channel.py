"""Memoryless nonlinear fiber channel: per-sample split-step recursion.

The channel acts on each complex sample of a batch (an array) on its own.
Propagation applies K segments; each segment rotates the sample by an
intensity-dependent phase and adds circularly-symmetric complex Gaussian noise:

    x[k+1] = x[k] * exp(j * L * gamma * |x[k]|^2 / K) + n[k+1]

with n[k+1] ~ CN(0, P_N / K), i.e. each real component has variance
P_N / (2K).  Dispersion is neglected, so samples never interact.

One loop runs this recursion.  `propagate` feeds it noise drawn segment by
segment and keeps nothing; `propagate_tape` feeds it the caller's noise and
carries the output's derivative with respect to the input along, updated in
place in one pair of arrays, which `backprop_channel` pulls a gradient back
through.

Unit conventions: powers are stored in watts (user-facing dBm values are
converted at the boundary), lengths in km, and the nonlinearity parameter
in rad / (W * km), so L * gamma * |x|^2 is a phase in radians.

Randomness.  Every generator in the package comes from `make_rng`, a numpy
Generator backed by the counter-based Philox bit generator and seeded from
a SeedSequence of an int or tuple entropy, with real and imaginary normal
deviates drawn in that order at every segment, so identical seeds give
bit-identical outputs.  Training and model initialisation read a seed's
root stream make_rng(seed).  Every Monte-Carlo estimate reads `simulate`:
message i is i mod M, and the noise of samples [STREAM*b, STREAM*(b+1))
comes from the stream make_rng((seed, 1, b + 1)).  The streams define the
outputs, so STREAM is fixed apart from the block sizes and thread counts
that only divide the work: an output depends on nothing but the points, the
channel, the sample count and the seed.

Evaluations run their per-sample work in `in_blocks` slices (see BLOCK and
NET_BLOCK), and `pool_map` runs independent tasks on a thread pool;
`evaluation`'s "Threads." paragraph says which tasks, and why no value
depends on the thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelParams",
    "PropagationTape",
    "watts_from_dbm",
    "dbm_from_watts",
    "make_rng",
    "draw_noise",
    "propagate",
    "simulate",
    "STREAM",
    "BLOCK",
    "NET_BLOCK",
    "pool_map",
    "in_blocks",
    "propagate_tape",
    "backprop_channel",
]


def watts_from_dbm(p_dbm: float) -> float:
    """10^((p_dbm - 30) / 10) watts; ValueError unless that is finite and positive."""
    try:
        p_w = 10.0 ** ((p_dbm - 30.0) / 10.0)
    except OverflowError:
        p_w = math.inf
    if not 0 < p_w < math.inf:
        raise ValueError(f"{p_dbm} dBm is not a finite positive power in watts")
    return p_w


def dbm_from_watts(p_w: float) -> float:
    """Convert a power in watts to dBm; ValueError unless it is finite and positive."""
    if not 0 < p_w < math.inf:
        raise ValueError("power must be finite and positive to express in dBm")
    return 10.0 * np.log10(p_w) + 30.0


def make_rng(entropy) -> np.random.Generator:
    """Counter-based generator (Philox 4x64) used for all sampling.

    Seeded from SeedSequence(entropy): `make_rng(s)` is the root stream of
    seed s, and a tuple entropy such as (s, tag) with a nonzero last word
    names a disjoint stream.  SeedSequence pads short entropy with zero
    words, so (s, 0) is the root stream s itself.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class ChannelParams:
    """Physical constants of the simplified fiber link.

    Defaults are the operating point used throughout: a 5000 km link,
    gamma = 1.27 rad/(W km), noise power -21.3 dBm, 50 segments.
    """

    link_length_km: float = 5000.0
    gamma: float = 1.27
    noise_power_w: float = field(default_factory=lambda: watts_from_dbm(-21.3))
    segments: int = 50

    def __post_init__(self):
        # written so that NaN and infinity fail every check
        if not 0 < self.link_length_km < math.inf:
            raise ValueError("link_length_km must be finite and > 0")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")
        if not 0 <= self.noise_power_w < math.inf:
            raise ValueError("noise_power_w must be finite and >= 0")
        if type(self.segments) is not int or self.segments < 1:
            raise ValueError("segments must be an int >= 1")

    @property
    def phase_rate(self) -> float:
        """Per-segment phase factor L * gamma / K in rad/W."""
        return self.link_length_km * self.gamma / self.segments


@dataclass
class PropagationTape:
    """The derivative of one propagation's output y with respect to its
    input x, for the fixed noise of that propagation.

    Each segment is R-linear in a perturbation of its input, and so is the
    whole channel: per sample, dy = a*dx + b*conj(dx), with a = dy/dx and
    b = dy/d(conj x) in Wirtinger form.  a and b have the batch shape; at
    gamma = 0 they are exactly 1 and 0.  The name "tape" is kept, like
    `propagate_tape` and `backprop_channel`, because the benchmark's
    per-layer figures and counters are keyed on them.
    """

    a: np.ndarray
    b: np.ndarray
    params: ChannelParams


def _complex_noise(re: np.ndarray, im: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """out <- scale * (re + j im), written into the real and imaginary views of
    out, so no complex temporary is made."""
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


def _noise_scale(params: ChannelParams) -> float:
    """Standard deviation of each real component of one segment's noise."""
    return np.sqrt(params.noise_power_w / (2.0 * params.segments))


def draw_noise(params: ChannelParams, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw the full (K, *shape) noise tensor for one propagation: the values
    `propagate` draws segment by segment from the same generator state.

    Segments are drawn in order, each one's real parts before its imaginary
    parts, so one draw for K segments and K draws of one give the same values.
    It is one call, not `propagate`'s per-segment loop, because K small draws
    on `train`'s draw-ahead worker contend with the step for the GIL and
    cost the worker most of its gain.
    """
    shape = tuple(shape)
    z = rng.standard_normal((params.segments, 2) + shape)
    out = np.empty((params.segments,) + shape, dtype=complex)
    return _complex_noise(z[:, 0], z[:, 1], _noise_scale(params), out)


def _recurse(y: np.ndarray, c: float, noise, ab=None) -> np.ndarray:
    """y <- w + n with w = y*rot, rot = exp(j*c*|y|^2), for each segment's
    noise n, in order, never writing the input y.  With ab = (a, b), the pair
    of `PropagationTape`, both are updated in place from dw = rot*dy +
    j*c*w*(conj(y)*dy + y*conj(dy)), since noise adds nothing: with
    u = conj(y)*a + y*conj(b), a <- rot*a + j*c*w*u, b <- rot*b + j*c*w*conj(u).
    """
    phase = np.empty(y.shape)  # c*|y|^2, refilled each segment
    sq = np.empty(y.shape)
    rot, *outs = (np.empty(y.shape, dtype=complex) for _ in range(3))
    if ab is not None:
        a, b = ab
        u, v, t = (np.empty_like(rot) for _ in range(3))
    for k, n in enumerate(noise):
        np.square(y.real, out=phase)
        phase += np.square(y.imag, out=sq)
        phase *= c
        # cos and sin give the bits of np.exp(1j * phase)
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        # a complex product is not bitwise commutative, numpy swaps y * <temporary>
        # from 256 KiB on, and a one-element product into one of its operands takes
        # another path: every product names its operand order and a third output
        w = np.multiply(y, rot, out=outs[k % 2])
        if ab is not None:
            np.multiply(np.conjugate(y, out=t), a, out=u)
            u += np.multiply(y, np.conjugate(b, out=v), out=t)
            np.multiply(w, 1j * c, out=v)
            np.multiply(rot, a, out=t)
            np.multiply(v, u, out=a)
            a += t
            np.multiply(rot, b, out=t)
            np.multiply(v, np.conjugate(u, out=u), out=b)
            b += t
        w += n
        y = w
    return y


def propagate(x, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Send a batch of complex samples (a scalar is a batch of one) through
    the channel with freshly drawn noise; returns an array of its shape.

    Noise is drawn segment by segment from `rng`; nothing is recorded.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=complex))
    scale = _noise_scale(params)
    n = np.empty(xs.shape, dtype=complex)  # one segment's noise, refilled each segment

    def noise():
        for _ in range(params.segments):
            z = rng.standard_normal((2,) + xs.shape)
            yield _complex_noise(z[0], z[1], scale, n)

    return _recurse(xs, params.phase_rate, noise())


# samples per noise stream of `simulate` (see the module docstring)
STREAM = 8192


def simulate(points, params: ChannelParams, n_samples: int, seed: int, threads: int = 1):
    """(msgs, y): messages arange(n_samples) % M and the channel outputs of
    their points, noised by the streams of the module docstring.

    The streams run on `pool_map` with `threads`, each returning its slice
    of y, and the slices are joined in order.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    msgs = np.arange(n_samples) % points.size

    def stream(lo):
        return propagate(points[msgs[lo:lo + STREAM]], params, make_rng((seed, 1, lo // STREAM + 1)))

    return msgs, np.concatenate(pool_map(stream, range(0, n_samples, STREAM), threads))


# Samples per `in_blocks` slice of every n-sized evaluation.  Slicing bounds
# its working memory whatever n is, and the cuts never move a value.  The two
# sizes suit two kinds of per-sample work:
# - BLOCK, for the exact-law log-densities and minimum distance:
#   `log_densities` loops over rings and symbols in Python once per slice,
#   so smaller slices pay that loop more often;
# - NET_BLOCK, for the receiver net: at this many rows an M = 16 net's layer
#   outputs stay in cache and its gemms below OpenBLAS's own threading, so
#   its slices can be pooled without contending with OpenBLAS's threads.
BLOCK = 8192
NET_BLOCK = 1024


def pool_map(fn, items, threads: int) -> list:
    """The list of fn(item) for each item, in item order; every call has run
    when this returns.

    With threads >= 2 and more than one item, the calls run on a pool of up
    to `threads` threads that is shut down before this returns, also when a
    call raises (the first error in item order is raised); otherwise they
    run one after another on the calling thread.
    """
    items = list(items)
    if threads < 2 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def in_blocks(fn, *arrays, block: int | None = None, threads: int = 1) -> np.ndarray:
    """fn applied to consecutive slices of `block` samples (BLOCK when None,
    read at call time) of the arrays, all cut at the same edges, its results
    joined in order along the first (sample) axis by np.concatenate.  The
    slices run on `pool_map` with `threads`.

    fn must treat each sample on its own.  A one-sample tail joins the block
    before it: numpy multiplies a one-row matrix through BLAS gemv, which
    rounds differently from the gemm of longer blocks, so blocks of two or
    more samples keep every value bitwise equal to one call on whole arrays.
    """
    n = len(arrays[0])
    block = BLOCK if block is None else block
    edges = [0, *range(block, n - 1, block), n]
    cuts = zip(edges, edges[1:])
    return np.concatenate(pool_map(lambda cut: fn(*(a[slice(*cut)] for a in arrays)), cuts, threads))


def propagate_tape(x, noise: np.ndarray, params: ChannelParams):
    """Propagate with caller-supplied noise, carrying the derivative along.

    Deterministic given `noise` (shape (K, ...) matching the batch shape
    of `x`), and its output is bitwise that of `propagate` on the same
    noise.  Returns (output, PropagationTape).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=complex))
    if noise.shape[0] != params.segments:
        raise ValueError(f"noise has {noise.shape[0]} segments, params require {params.segments}")
    if noise.shape[1:] != xs.shape:
        raise ValueError(f"noise batch shape {noise.shape[1:]} != input shape {xs.shape}")
    tape = PropagationTape(np.ones(xs.shape, dtype=complex), np.zeros(xs.shape, dtype=complex), params)
    return _recurse(xs, params.phase_rate, noise, (tape.a, tape.b)), tape


def backprop_channel(tape: PropagationTape, grad_output: np.ndarray) -> np.ndarray:
    """Pull a loss gradient at the channel output back to the input.

    Gradients are encoded as complex numbers: Re(g) = dL/dRe, Im(g) =
    dL/dIm.  A real loss changes by Re(conj(g_y)*dy), and dy = a*dx +
    b*conj(dx), so the exact gradient for the tape's fixed noise is

        g_x = conj(a)*g_y + b*conj(g_y).
    """
    g = grad_output  # first in both products, whatever the batch size (see _recurse)
    return np.multiply(g, np.conj(tape.a)) + np.multiply(np.conj(g), tape.b)
