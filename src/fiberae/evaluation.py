"""Experiment layer: baselines, error rates, information rates, rasters.

Detectors are plain callables mapping a complex sample array to integer
message indices: `detect` bound to a trained model, `ml_detect` bound to
an exact-likelihood oracle, or a minimum-distance rule.  They all plug
into the same measurement code.  A sweep takes its sources already
resolved, one (power, constellation or model) pair per point, and returns
one value per pair.

Every Monte-Carlo estimate reads the balanced messages and channel outputs
of `channel.simulate` at the caller's seed, so at one seed every metric of
one constellation scores the same outputs.  Each detector, and `air`'s
decoder, runs its per-sample work on `channel.in_blocks` slices of those
outputs or of a raster's pixels: `channel.NET_BLOCK` samples for the
receiver net (the "ae" detector and `air`'s decoder), `channel.BLOCK` for
the others.  Only the n-sized results (indices, or AIR's per-sample
losses) grow with n.

Threads.  `threads` never changes a value.  A pool runs only independent
tasks whose work is fixed without reference to the thread count: a noise
stream of `channel.STREAM` samples, an `in_blocks` slice cut at multiples
of its block size, or an oracle's amplitude ring.  Each task computes in
its own buffers, and `channel.pool_map` returns the results in task order.
With threads >= 2 an estimate propagates its noise streams on a pool,
`build_oracle` builds its rings on one, and the dense-net and exact-law
detectors and `air`'s decoder run their slices on one.  The
minimum-distance detector keeps its slices on the calling thread whatever
`threads` is: a nearest-point block is too cheap for pooling to save more
than the calls' spread.  A sweep runs its points one after another, each
on every thread, so no pool task starts a pool, and the first point that
raises ends the sweep with its error.  Training takes no `threads`; see
`autoencoder.train` for its one worker.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from fiberae import channel
from fiberae.autoencoder import AutoencoderModel, constellation_points, decode, detect
from fiberae.channel import ChannelParams, in_blocks, simulate
from fiberae.likelihood import Constellation, build_oracle, ml_detect, mutual_information
from fiberae.nets import cross_entropy

__all__ = [
    "RasterSpec",
    "qam",
    "min_distance_detector",
    "detector_for",
    "ser",
    "air",
    "decision_regions",
    "sweep",
]


@dataclass(frozen=True)
class RasterSpec:
    """Square window and resolution for decision-region rasters."""

    half_width: float
    resolution: int
    center: complex = 0j

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")
        # written so that NaN and infinity fail
        if not 0 < self.half_width < math.inf:
            raise ValueError("half_width must be finite and positive")
        if not cmath.isfinite(self.center):
            raise ValueError("center must be finite")
        edges = [self.center.real - self.half_width, self.center.real + self.half_width,
                 self.center.imag - self.half_width, self.center.imag + self.half_width]
        if not all(map(math.isfinite, edges + [2.0 * self.half_width])):
            raise ValueError(f"window {self.center:g} +- {self.half_width:g} overflows a double")

    def mesh(self):
        """(res, res) complex pixel centers; rows run along ascending imag."""
        xs = np.linspace(self.center.real - self.half_width, self.center.real + self.half_width, self.resolution)
        ys = np.linspace(self.center.imag - self.half_width, self.center.imag + self.half_width, self.resolution)
        gx, gy = np.meshgrid(xs, ys)
        return gx + 1j * gy


def _gray_decode(g: int) -> int:
    mask = g >> 1
    while mask:
        g ^= mask
        mask >>= 1
    return g


def qam(m: int, p_in_w: float) -> Constellation:
    """Square Gray-ordered m-QAM scaled to mean power p_in_w exactly.

    Message s splits into high bits (in-phase) and low bits (quadrature);
    each half is a Gray codeword selecting a PAM level, so messages of
    grid-adjacent points differ in exactly one bit.
    """
    side = int(round(np.sqrt(m)))
    if side * side != m or m < 4:
        raise ValueError(f"need a square constellation size, got {m}")
    bits_q = int(np.log2(side))
    if 2**bits_q != side:
        raise ValueError(f"side {side} must be a power of two for Gray labeling")
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    idx = np.arange(m)
    level_i = np.array([_gray_decode(s >> bits_q) for s in idx])
    level_q = np.array([_gray_decode(s & (side - 1)) for s in idx])
    pts = levels[level_i] + 1j * levels[level_q]
    pts *= np.sqrt(p_in_w / np.mean(np.abs(pts) ** 2))
    return Constellation(points=pts)


def _as_constellation(source) -> Constellation:
    """The constellation itself, or a trained model's normalized symbols."""
    if isinstance(source, Constellation):
        return source
    if isinstance(source, AutoencoderModel):
        return Constellation(points=constellation_points(source))
    raise TypeError(f"cannot interpret {type(source).__name__} as a constellation")


def min_distance_detector(constellation: Constellation):
    """Nearest-point decisions in `in_blocks` slices; ties break to the
    lowest index."""
    pts = constellation.points

    def nearest(y):
        return np.argmin(np.abs(y[..., None] - pts), axis=-1)

    return partial(in_blocks, nearest)


def detector_for(kind: str, source, params: ChannelParams, threads: int = 1):
    """Detector of the given kind ("mindist", "ml" or "ae") for a source,
    using `threads` as the module's Threads paragraph sets out.

    "mindist" picks the nearest point.  "ml" decides on the channel's exact
    law.  "ae" needs a trained model as the source and decodes in
    `channel.NET_BLOCK` slices.
    """
    if kind == "mindist":
        return min_distance_detector(_as_constellation(source))
    if kind == "ae":
        if not isinstance(source, AutoencoderModel):
            raise ValueError(f"the ae detector needs a trained model, not a {type(source).__name__}")
        return partial(detect, source, threads=threads)
    if kind == "ml":
        oracle = build_oracle(_as_constellation(source), params, threads)
        return partial(ml_detect, oracle, threads=threads)
    raise ValueError(f"unknown detector {kind!r}")


def ser(source, detector, params: ChannelParams, n_samples: int, seed: int, threads: int = 1) -> float:
    """Monte-Carlo symbol error rate on `simulate`'s balanced messages, drawn
    on `threads`.

    A trained model must have been trained on `params`; ValueError otherwise,
    before any draw.  The detector gets all n outputs at once; to bound its
    working memory it must cut them into `in_blocks` slices itself, as the
    detectors of `detector_for` do.
    """
    if isinstance(source, AutoencoderModel) and source.params != params:
        raise ValueError(f"the model was trained on {source.params}, not on {params}")
    msgs, y = simulate(_as_constellation(source).points, params, n_samples, seed, threads=threads)
    return float(np.mean(detector(y) != msgs))


def air(model: AutoencoderModel, n_samples: int, seed: int, threads: int = 1) -> float:
    """Achievable information rate of the model's own decoder, in bits.

    Scores the decoder's posteriors at `simulate`'s outputs with its
    training loss: log2 M minus the mean per-sample cross-entropy in bits.
    The outputs are drawn, and decoded in `channel.NET_BLOCK` slices, on
    `threads`.  This auxiliary-channel rate lower-bounds the mutual
    information of the learned constellation.
    """
    msgs, y = simulate(constellation_points(model), model.params, n_samples, seed, threads=threads)
    losses = in_blocks(lambda yb, mb: cross_entropy(decode(model, yb), mb), y, msgs,
                       block=channel.NET_BLOCK, threads=threads)
    return math.log2(model.m) - float(np.mean(losses)) / math.log(2.0)


def decision_regions(detector, spec: RasterSpec) -> np.ndarray:
    """(res, res) grid of detected message indices over the raster window.

    The detector gets all res^2 pixels at once and, as in `ser`, must cut
    them into `in_blocks` slices itself to bound its working memory.
    """
    mesh = spec.mesh()
    return detector(mesh.ravel()).reshape(mesh.shape).astype(int)


def sweep(
    sources,
    metric: str,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    detector: str = "mindist",
    threads: int = 1,
) -> list[float]:
    """The value of one metric for each (power_dbm, source) pair, in order.

    Each source is the constellation or trained model sent at its power; a
    model must have been trained on `params`, the channel every metric
    runs on.  metric is one of "ser", "air", "mi"; for "ser" `detector`
    selects "mindist", "ml" (exact-likelihood oracle), or "ae"; "ae" and
    "air" need a model at every power.  Every pair runs at `seed` itself, so
    a value does not depend on its position in the sweep.  The pairs run in
    turn, each on all `threads`, as the module's Threads paragraph sets out.
    """
    if metric not in ("ser", "air", "mi"):
        raise ValueError(f"unknown metric {metric!r}")
    sources = list(sources)
    other = [p for p, s in sources if isinstance(s, AutoencoderModel) and s.params != params]
    if other:
        raise ValueError(f"the models at {other} dBm were trained on another channel than {params}")
    untrained = [p for p, s in sources if not isinstance(s, AutoencoderModel)]
    if untrained and (metric == "air" or metric == "ser" and detector == "ae"):
        raise ValueError(f"{metric} with the ae decoder needs a trained model at {untrained} dBm")

    def one_power(source) -> float:
        if metric == "ser":
            det = detector_for(detector, source, params, threads)
            return ser(source, det, params, n_samples, seed, threads)
        if metric == "air":
            return air(source, n_samples, seed, threads)
        oracle = build_oracle(_as_constellation(source), params, threads)
        return mutual_information(oracle, n_samples, seed, threads)

    return [one_power(s) for _, s in sources]
