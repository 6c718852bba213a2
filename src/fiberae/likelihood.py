"""Exact per-symbol channel densities: ML detection and mutual information.

The baselines use the exact law of the simulated channel at finite K and
draw no sample to build it; only the autoencoder learns from samples.

Law.  For an input rho0 on the real axis, write y = r e^(j theta) and
expand p(r, theta) = sum_m a_m(r) e^(j m theta), with a_-m = conj(a_m).
After the first segment y ~ CN(rho0 e^(j c rho0^2), s^2), s^2 = P_N/K and
c = L gamma/K, so a_m(r) = A_m exp(-alpha_m r^2) I_m(beta_m r) with
log A_m = -rho0^2/s^2 - j m c rho0^2 - log(pi s^2), alpha_m = 1/s^2 and
beta_m = 2 rho0/s^2.  A further segment's rotation by c r^2 adds j m c to
alpha_m; by Weber's second exponential integral (Watson, Theory of Bessel
Functions, 13.31) its noise keeps the form, with P = alpha_m + 1/s^2:
log A_m += beta_m^2/(4P) - log(s^2 P), alpha_m = 1/s^2 - 1/(s^4 P) and
beta_m /= s^2 P.  Each mode is thus a recursion of three complex scalars
over the K segments, and a_0 is the Rician law of |y|.

Grid.  a_0 is evaluated exactly, in log form, at every query.  The angular
profile p / a_0 = 1 + 2 Re sum_{m>=1} (a_m/a_0)(r) e^(j m theta) has unit
mean over theta; one inverse real FFT per ring tabulates it on a polar
grid, and bilinear interpolation keeps the unit mean.  Each radial row is
stored centred on its mean direction -arg(a_1/a_0), unwrapped along r, and
rows are blended at the interpolated direction, so interpolation follows
the crescent instead of smearing it.  The mode count doubles from 32 until
the last mode's ratio is below MODE_CUTOFF at every radial node, with four
angular cells per mode up to MAX_GRID_SIDE.  Radial nodes span rho0 +-
RADIAL_SPAN Rician sigmas (sigma^2 = P_N/2), NODES_PER_SIGMA per sigma;
beyond them the profile of the nearest edge is used.  The Fourier sum is
exact only to about 1e-16 of its scale, so the profile is floored at
DENSITY_FLOOR, far below that.  The floor is chosen so that a floored corner
times two interpolation weights of 2^-53 or more is still a normal double:
up to a quarter of a grid's cells sit at the floor, and a product that
falls into the subnormal range costs about ten normal ones.

Rings.  The noise is circularly symmetric, so turning the input turns the
output law.  An oracle holds one law per distinct |x| and the index of each
symbol's ring; a symbol's density is its ring's law turned by the phase of
its point.

A constellation is its points alone.  An oracle holds the constellation
and channel it was built for, and `mutual_information` simulates exactly
those, so its density and channel cannot disagree; it is log2 M less the
mean entropy of the exact posterior.  ML decisions and mutual information
use log-densities, which stay finite where a density underflows a double.

Cost.  `log_densities` finds each ring's radial cell (the flat offsets of
its two grid rows, the radial weights and the interpolated direction) once;
each symbol of the ring then reads its four corners from the flat grid with
np.take and blends them into the gathered arrays.  `mutual_information`
and `ml_detect` evaluate their outputs in `channel.in_blocks` slices of
`channel.BLOCK` samples; only the per-sample results grow with n.
`threads` is used as `evaluation`'s "Threads." paragraph sets out.
scipy.special, whose import is most of a command's start-up time, loads at
the first oracle build, so commands that build no oracle never import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from fiberae.channel import ChannelParams, in_blocks, pool_map, simulate

__all__ = [
    "Constellation",
    "LikelihoodOracle",
    "build_oracle",
    "log_densities",
    "ml_detect",
    "mutual_information",
]

DENSITY_FLOOR = 1e-250  # at least 2^-916: DENSITY_FLOOR * 2^-106 is a normal double

MAX_GRID_SIDE = 1024
RADIAL_SPAN = 8.0
NODES_PER_SIGMA = 4
MODE_CUTOFF = 1e-17


@dataclass(frozen=True)
class Constellation:
    """M finite complex symbols with uniform prior."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("need at least two constellation points")
        if not np.isfinite(pts).all():
            raise ValueError("constellation points must be finite")

    @property
    def m(self) -> int:
        return self.points.size


def _mode_law(rho0: float, params: ChannelParams, modes: int):
    """(log A_m, alpha_m, beta_m) for m = 0..modes-1 at the channel output."""
    s2 = params.noise_power_w / params.segments
    c = params.phase_rate
    m = np.arange(modes)
    log_a = -rho0 * rho0 / s2 - 1j * m * c * rho0 * rho0 - math.log(math.pi * s2)
    alpha = np.full(modes, 1.0 / s2, dtype=complex)
    beta = np.full(modes, 2.0 * rho0 / s2, dtype=complex)
    for _ in range(params.segments - 1):
        alpha = alpha + 1j * m * c
        p = alpha + 1.0 / s2
        log_a = log_a + beta * beta / (4.0 * p) - np.log(s2 * p)
        alpha = 1.0 / s2 - 1.0 / (s2 * s2 * p)
        beta = beta / (s2 * p)
    return log_a, alpha, beta


def _log_modes(law, m: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(len r, len m) complex log of a_m(r); -inf where a_m is 0."""
    from scipy.special import ive  # on first use: commands with no oracle start without scipy

    log_a, alpha, beta = law
    z = np.multiply.outer(r, beta[m])
    with np.errstate(divide="ignore"):  # I_m(0) = 0 for m >= 1
        return log_a[m] - np.multiply.outer(r * r, alpha[m]) + np.log(ive(m, z)) + np.abs(z.real)


@dataclass(frozen=True)
class _RingDensity:
    """Exact output law of the input |x| + 0j, its angular profile gridded.

    a_0(r) = exp(log_a0 - alpha0 r^2) I_0(beta0 r), and grid[i, k] is the
    profile at r_lo + i dr and theta = -shift[i] + 2 pi k / n_theta.
    """

    log_a0: float
    alpha0: float
    beta0: float
    grid: np.ndarray
    r_lo: float
    dr: float
    shift: np.ndarray

    def log_radial(self, r: np.ndarray) -> np.ndarray:
        from scipy.special import i0e  # on first use: commands with no oracle start without scipy

        z = self.beta0 * r
        return self.log_a0 - self.alpha0 * r * r + np.log(i0e(z)) + z

    def radial_cell(self, r: np.ndarray):
        """(lo, hi, fa, 1 - fa, shift): the flat offsets in grid.ravel() of
        the rows of the radial nodes below and above each r, the weight of
        the node above, its complement, and the row direction interpolated
        between the two."""
        n_r, n_t = self.grid.shape
        a = np.clip((r - self.r_lo) / self.dr, 0.0, n_r - 1)
        i = np.minimum(a.astype(int), n_r - 2)
        fa = a - i
        shift = self.shift[i] + fa * (self.shift[i + 1] - self.shift[i])
        return i * n_t, (i + 1) * n_t, fa, 1 - fa, shift

    def log_profile(self, cell, theta: np.ndarray) -> np.ndarray:
        """Log of the profile at the radial cell of `radial_cell` and angle
        theta: the four corners are read from grid.ravel() and blended as
        (g[i, j] (1 - fb) + g[i, j1] fb) (1 - fa) + (g[i + 1, j] (1 - fb) +
        g[i + 1, j1] fb) fa, in that order, into the gathered arrays."""
        lo, hi, fa, ga, shift = cell
        n_t = self.grid.shape[1]  # four cells a mode, and modes = 32 * 2^k
        x = (theta + shift) * (n_t / (2.0 * np.pi))
        # np.mod(x, n_t) to the bit, at a fifth of its cost: n_t is a power of
        # two, so x / n_t and its floor k are exact and x - n_t k is np.mod's
        # one rounding.  Only a negative x whose quotient underflows to -0
        # stays below 0; clamped to 0 it reads the corners and weights that
        # np.mod's n_t reads
        b = x - n_t * np.floor(x / n_t)
        np.maximum(b, 0.0, out=b)
        j = b.astype(int)
        fb = b - j
        gb = 1 - fb
        j &= n_t - 1  # b can round up to n_t itself
        j1 = (j + 1) & (n_t - 1)
        g = self.grid.ravel()

        def row(offset):  # g[., j] (1 - fb) + g[., j1] fb on one radial node's row
            v = np.take(g, offset + j)
            v *= gb
            v += np.take(g, offset + j1) * fb
            return v

        v = row(lo)
        v *= ga
        v += row(hi) * fa
        return np.log(v, out=v)


def _ring_density(rho0: float, params: ChannelParams) -> _RingDensity:
    """The law of the input rho0 + 0j, gridded."""
    sigma = math.sqrt(params.noise_power_w / 2.0)
    r_lo = max(rho0 - RADIAL_SPAN * sigma, 0.0)
    r_hi = rho0 + RADIAL_SPAN * sigma
    r = np.linspace(r_lo, r_hi, math.ceil(NODES_PER_SIGMA * (r_hi - r_lo) / sigma) + 1)
    law = _mode_law(rho0, params, MAX_GRID_SIDE // 4)  # 4 angular cells a mode
    log_a0 = _log_modes(law, np.array([0]), r)
    modes = 32
    while 4 * modes < MAX_GRID_SIDE:
        if (_log_modes(law, np.array([modes - 1]), r) - log_a0).real.max() < math.log(MODE_CUTOFF):
            break
        modes *= 2
    coef = np.zeros((r.size, 2 * modes + 1), dtype=complex)
    coef[:, 0] = 1.0
    coef[:, 1:modes] = np.exp(_log_modes(law, np.arange(1, modes), r) - log_a0)
    shift = np.unwrap(np.angle(coef[:, 1]))
    coef[:, 1:modes] *= np.exp(-1j * np.outer(shift, np.arange(1, modes)))
    profile = 4 * modes * np.fft.irfft(coef, 4 * modes, axis=1)
    if not np.isfinite(profile).all():  # ive is NaN beyond |z| = 2^30
        raise ValueError(f"signal-to-noise ratio too large for the exact law at |x| = {rho0:g}")
    log_a0, alpha0, beta0 = (float(v[0].real) for v in law)
    return _RingDensity(log_a0, alpha0, beta0, np.maximum(profile, DENSITY_FLOOR),
                        r_lo, float(r[1] - r[0]), shift)


@dataclass
class LikelihoodOracle:
    """The exact output law of a constellation on one channel, as
    `build_oracle` makes it; read it through `log_densities`.

    It holds one gridded law per distinct amplitude |x| and each symbol's
    index into them, not one law per symbol (see "Rings." above).
    """

    constellation: Constellation
    params: ChannelParams
    densities: list[_RingDensity]  # one per distinct |x|, in increasing order
    ring_of: np.ndarray  # the index in densities of each symbol's ring

    @property
    def m(self) -> int:
        return self.constellation.m


def build_oracle(constellation: Constellation, params: ChannelParams,
                 threads: int = 1) -> LikelihoodOracle:
    """Exact per-symbol output densities, one grid per amplitude ring; the
    rings are built on `threads`."""
    if params.noise_power_w == 0:
        raise ValueError("a noiseless channel has no output density")
    amplitudes, ring_of = np.unique(np.abs(constellation.points), return_inverse=True)
    densities = pool_map(partial(_ring_density, params=params), map(float, amplitudes), threads)
    return LikelihoodOracle(constellation, params, densities, ring_of)


def _outputs(y) -> np.ndarray:
    """y as a complex array of at least one dimension, every value finite."""
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    bad = y.size - np.count_nonzero(np.isfinite(y))
    if bad:
        raise ValueError(f"{bad} of {y.size} channel outputs are not finite")
    return y


def log_densities(oracle: LikelihoodOracle, y) -> np.ndarray:
    """(M, n) matrix of each symbol's log-density at the finite outputs y."""
    y = _outputs(y)
    rho, theta = np.abs(y), np.angle(y)
    phases = np.angle(oracle.constellation.points)
    out = np.empty((oracle.m,) + y.shape)
    for ring, d in enumerate(oracle.densities):
        symbols = np.flatnonzero(oracle.ring_of == ring)
        out[symbols] = d.log_radial(rho)
        cell = d.radial_cell(rho)  # once per ring, shared by its symbols
        for s in symbols:
            out[s] += d.log_profile(cell, theta - phases[s])
    return out


def ml_detect(oracle: LikelihoodOracle, y, threads: int = 1) -> np.ndarray:
    """Most likely symbol for each sample; ties break to the lowest index.

    Evaluates the samples in `in_blocks` slices on `threads`.
    """
    y = _outputs(y)
    return in_blocks(lambda yb: np.argmax(log_densities(oracle, yb), axis=0), y, threads=threads)


def _posterior_entropy(oracle: LikelihoodOracle, y) -> np.ndarray:
    """Entropy in nats of the exact posterior p(. | y) at each output."""
    dens = log_densities(oracle, y)
    # H = log sum e - sum e d / sum e over s, where d is the log-density less
    # its peak and e = exp(d), summed one symbol row at a time
    dens -= dens.max(axis=0)
    total = weighted = 0.0
    for d in dens:
        e = np.exp(d)
        total += e
        weighted += e * d
    return np.log(total) - weighted / total


def mutual_information(oracle: LikelihoodOracle, n_samples: int, seed: int, threads: int = 1) -> float:
    """Monte-Carlo mutual information in bits of the oracle's constellation.

    log2 M minus the mean entropy of the exact posterior p(. | y_i) over the
    outputs y_i that `simulate` gives for the oracle's constellation and
    channel: `evaluation.air` with p for the decoder's posterior, averaged
    over the message instead of read at the one sent.  The entropies are
    computed in `in_blocks` slices and averaged by one mean over all n;
    `threads` run the outputs' noise streams and the slices.
    """
    _, y = simulate(oracle.constellation.points, oracle.params, n_samples, seed, threads=threads)
    entropy = in_blocks(partial(_posterior_entropy, oracle), y, threads=threads)
    return float(np.mean(math.log2(oracle.m) - entropy / math.log(2.0)))
