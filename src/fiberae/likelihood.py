"""Sampled per-symbol channel densities: ML detection and mutual information.

The channel law p(y|x) has no closed form in this package; instead each
amplitude ring of the constellation (the points of exactly equal |x|) gets
a kernel density estimate built from S channel output samples.

Coordinates.  Rotating the input rotates the output law by the same angle,
for any gamma and K, because the noise is circularly symmetric.  So each
cloud is described by amplitude rho = |y| and phase offset psi = arg(y) -
alpha, wrapped to [-pi, pi), where alpha is the direction of the cloud's
centroid (the symbol's phase plus its mean nonlinear rotation), and one fit
serves a whole ring: the other points of the ring take the same density
with alpha turned by their phase difference from the fitted point.
Nonlinear phase noise makes psi grow with rho, so a crescent-shaped cloud
becomes a tilted ellipse in (rho, psi).

Bandwidth.  The kernel is a full-covariance Gaussian in (rho, psi) with
Silverman's d = 2 rule H = S^(-1/3) Sigma, Sigma the sample covariance of
(rho, psi); no bandwidth search.  The kernel thus tilts along the crescent.

Grid.  With Sigma = L L^T (Cholesky, rho first), the whitened coordinates
u = L^-1 (z - mean) make the kernel isotropic with standard deviation
S^(-1/6).  u1 is the standardized amplitude; u2 is the phase offset minus
its regression on amplitude, so one phase turn is a shift of 2 pi / L22
along u2, and u2 is reduced to the turn nearest the cloud.  The KDE is
accumulated on a u grid (bin width a third of the kernel width, padded 8
kernel widths past the samples) by binning the cloud and convolving with
the kernel; a cloud that covers a whole turn, as one near the origin does,
is gridded over exactly one turn with wrap-around smoothing.  Queries are
answered by bilinear interpolation.  The density in the output plane is
f(rho, psi) / rho; since the kernel blurs rho, the divisor is its
kernel-averaged positive part E[max(rho', 0)], which stays finite at the
origin and equals rho a few bandwidths away from it.

Tail.  The Gaussian fitted in the same coordinates (covariance Sigma) is
mixed in with the weight of one sample: p = (S * KDE + Gaussian) / (S + 1).
Inside a cloud this changes nothing visible; off the grid, where the KDE
is zero, each symbol keeps a tail ordered by the distance from its own
cloud, so every query has an ML decision rather than a tie.  ML decisions
and mutual information are computed from log-densities, which stay finite
even where the Gaussian tail underflows a double; `likelihood` returns
densities floored at the smallest positive normal double.

Mutual information is estimated by Monte Carlo with the same density in
the numerator and the mixture denominator, making it a mismatched-decoding
estimate that converges to the true value as the KDE sharpens.  Fresh
channel samples, drawn from a stream disjoint from the one that built the
oracle, are always used.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter
from scipy.special import ndtr

from fiberae.channel import ChannelParams, make_rng, propagate

__all__ = [
    "Constellation",
    "LikelihoodOracle",
    "build_oracle",
    "likelihood",
    "ml_detect",
    "mutual_information",
]

DENSITY_FLOOR = float(np.finfo(float).tiny)

GRID_PAD_BANDWIDTHS = 8.0
BINS_PER_BANDWIDTH = 3.0
MAX_GRID_SIDE = 1024
MIN_GRID_SIDE = 64

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Constellation:
    """M complex symbols with uniform prior and a declared mean power."""

    points: np.ndarray
    power_w: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("need at least two constellation points")
        if not np.isfinite(pts).all():
            raise ValueError("constellation points must be finite")
        if not 0 < self.power_w < math.inf:
            raise ValueError("power_w must be finite and > 0")
        mean_power = float(np.mean(np.abs(pts) ** 2))
        if abs(mean_power - self.power_w) > 1e-9 * self.power_w:
            raise ValueError(
                f"constellation mean power {mean_power} != declared {self.power_w}"
            )

    @property
    def m(self) -> int:
        return self.points.size


@dataclass
class _SymbolDensity:
    """Gridded KDE of one symbol's output law in whitened polar coordinates.

    Symbols of one amplitude ring share the grid; only `alpha` differs.
    """

    grid: np.ndarray  # (n_u1, n_u2) KDE of u at cell centers
    u0: tuple[float, float]  # u at cell (0, 0)
    du: tuple[float, float]  # cell widths
    periodic: bool  # the u2 axis spans exactly one phase turn
    alpha: float  # phase reference of psi
    mean: tuple[float, float]  # sample mean of (rho, psi)
    chol: tuple[float, float, float]  # (L11, L21, L22) of Sigma
    samples: int

    def kde(self, u1: np.ndarray, u2: np.ndarray):
        """(mask of the queries on the grid, bilinear KDE of u at them)."""
        n1, n2 = self.grid.shape
        a = (u1 - self.u0[0]) / self.du[0]
        b = (u2 - self.u0[1]) / self.du[1]
        if self.periodic:
            b = np.mod(b, n2)
            inside = (a >= 0) & (a <= n1 - 1)
        else:
            inside = (a >= 0) & (a <= n1 - 1) & (b >= 0) & (b <= n2 - 1)
        a, b = a[inside], b[inside]
        i0 = np.clip(np.floor(a).astype(int), 0, n1 - 2)
        j0 = np.clip(np.floor(b).astype(int), 0, n2 - (1 if self.periodic else 2))
        j1 = (j0 + 1) % n2
        fu = a - i0
        fv = b - j0
        g = self.grid
        return inside, (
            g[i0, j0] * (1 - fu) * (1 - fv)
            + g[i0 + 1, j0] * fu * (1 - fv)
            + g[i0, j1] * (1 - fu) * fv
            + g[i0 + 1, j1] * fu * fv
        )

    def log_density(self, rho: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """Natural log of the estimated density of y in the output plane."""
        l11, _, l22 = self.chol
        u1, u2 = _whiten(rho, phase - self.alpha, self.mean, self.chol)
        log_u = -0.5 * (u1 * u1 + u2 * u2) - _LOG_2PI  # the Gaussian
        inside, kde = self.kde(u1, u2)
        with np.errstate(divide="ignore"):
            log_u[inside] = np.logaddexp(np.log(self.samples * kde), log_u[inside])
        log_u -= math.log(self.samples + 1)
        # E[max(rho', 0)] for rho' ~ N(rho, h^2), h the kernel's rho width;
        # it equals rho to double precision from 9 h on
        h = l11 * self.samples ** (-1.0 / 6.0)
        rho_eff = rho.copy()
        near = rho < 9.0 * h
        t = rho[near] / h
        rho_eff[near] = rho[near] * ndtr(t) + h * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        return log_u - math.log(l11 * l22) - np.log(rho_eff)


@dataclass
class LikelihoodOracle:
    constellation: Constellation
    params: ChannelParams
    samples_per_symbol: int
    seed: int
    densities: list[_SymbolDensity]

    @property
    def m(self) -> int:
        return self.constellation.m


def _whiten(rho: np.ndarray, psi: np.ndarray, mean, chol):
    """Whitened coordinates (u1, u2) of (rho, psi), u2 on the turn nearest the cloud.

    Any psi + 2 pi k gives the same result: a turn of psi is a turn of u2.
    """
    l11, l21, l22 = chol
    u1 = (rho - mean[0]) / l11
    u2 = (psi - mean[1] - l21 * u1) / l22
    turn = 2.0 * np.pi / l22
    return u1, u2 - turn * np.rint(u2 / turn)


def _grid_axis(lo: float, hi: float, width: float):
    """(lo, bin width, bin count) of bins spanning [lo, hi] at about `width`."""
    n = int(np.clip(np.ceil((hi - lo) / width), MIN_GRID_SIDE, MAX_GRID_SIDE))
    return lo, (hi - lo) / n, n


def _bin_index(u: np.ndarray, axis) -> np.ndarray:
    lo, d, n = axis
    return np.clip(((u - lo) / d).astype(int), 0, n - 1)


def _fit_density(cloud: np.ndarray) -> _SymbolDensity:
    s = cloud.size
    rho = np.abs(cloud)
    alpha = float(np.angle(np.sum(cloud)))
    psi = np.mod(np.angle(cloud) - alpha + np.pi, 2.0 * np.pi) - np.pi
    mean = (float(rho.mean()), float(psi.mean()))
    cov = np.cov(rho, psi)
    # degenerate clouds get nominal spreads so the kernel stays proper
    floor_rho = 1e-9 * float(np.sqrt(np.mean(rho * rho))) + 1e-30
    l11 = math.sqrt(cov[0, 0] + floor_rho**2)
    l21 = cov[0, 1] / l11
    l22 = math.sqrt(max(cov[1, 1] - l21 * l21, 0.0) + 1e-18)
    u1, u2 = _whiten(rho, psi, mean, (l11, l21, l22))
    h = s ** (-1.0 / 6.0)
    pad = GRID_PAD_BANDWIDTHS * h
    width = h / BINS_PER_BANDWIDTH
    axis1 = _grid_axis(u1.min() - pad, u1.max() + pad, width)
    turn = 2.0 * np.pi / l22
    periodic = bool(u2.max() - u2.min() + 2.0 * pad >= turn)
    if periodic:
        axis2 = _grid_axis(-0.5 * turn, 0.5 * turn, width)
    else:
        axis2 = _grid_axis(u2.min() - pad, u2.max() + pad, width)
    (lo1, d1, n1), (lo2, d2, n2) = axis1, axis2
    cells = _bin_index(u1, axis1) * n2 + _bin_index(u2, axis2)
    counts = np.bincount(cells, minlength=n1 * n2).reshape(n1, n2).astype(float)
    smooth = gaussian_filter(
        counts, sigma=(h / d1, h / d2), truncate=8.0,
        mode=("constant", "wrap" if periodic else "constant"),
    )
    return _SymbolDensity(
        grid=smooth / (s * d1 * d2),
        u0=(lo1 + 0.5 * d1, lo2 + 0.5 * d2),
        du=(d1, d2),
        periodic=periodic,
        alpha=alpha,
        mean=mean,
        chol=(l11, l21, l22),
        samples=s,
    )


def build_oracle(
    constellation: Constellation,
    params: ChannelParams,
    samples_per_symbol: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> LikelihoodOracle:
    """Propagate S samples per amplitude ring and fit the gridded KDEs.

    Points of exactly equal amplitude form a ring, led by its lowest-index
    symbol i: the lead's cloud is propagated from points[i] with noise from
    child i of the stream (seed, 1), which is disjoint from the estimation
    stream (seed, 2) of `mutual_information`.  Every other ring member j
    shares the lead's density, rotated by angle(p_j) - angle(p_i); the
    channel law is exactly rotation-symmetric, so this is the same estimate
    a fit of j's own cloud would target.  A constellation whose amplitudes
    are all distinct gets one fit per symbol.  The result is independent of
    `threads`.
    """
    if samples_per_symbol < 1000:
        raise ValueError("need at least 1000 samples per symbol")
    points = constellation.points
    _, leads, ring_of = np.unique(np.abs(points), return_index=True, return_inverse=True)

    def fit_ring(i: int) -> _SymbolDensity:
        x = np.full(samples_per_symbol, points[i])
        return _fit_density(propagate(x, params, make_rng((seed, 1), i)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            fits = list(pool.map(fit_ring, leads))
    else:
        fits = [fit_ring(i) for i in leads]
    phase = np.angle(points)
    turns = phase - phase[leads[ring_of]]  # exactly 0 for a lead
    return LikelihoodOracle(
        constellation=constellation,
        params=params,
        samples_per_symbol=samples_per_symbol,
        seed=seed,
        densities=[
            replace(fits[r], alpha=fits[r].alpha + float(t)) for r, t in zip(ring_of, turns)
        ],
    )


def likelihood(oracle: LikelihoodOracle, symbol: int, y):
    """Estimated density of output y under the given symbol; strictly positive."""
    if not 0 <= symbol < oracle.m:
        raise IndexError(f"symbol {symbol} outside 0..{oracle.m - 1}")
    arr = np.asarray(y, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    log_p = oracle.densities[symbol].log_density(np.abs(arr), np.angle(arr))
    vals = np.maximum(np.exp(log_p), DENSITY_FLOOR)
    return float(vals[0]) if scalar else vals


def _log_density_matrix(oracle: LikelihoodOracle, y: np.ndarray) -> np.ndarray:
    """(M, n) matrix of per-symbol log-densities at the query points."""
    rho, phase = np.abs(y), np.angle(y)
    out = np.empty((oracle.m,) + y.shape)
    for s, density in enumerate(oracle.densities):
        out[s] = density.log_density(rho, phase)
    return out


def ml_detect(oracle: LikelihoodOracle, y):
    """Most likely symbol for each sample; ties break to the lowest index."""
    arr = np.asarray(y, dtype=complex)
    scalar = arr.ndim == 0
    idx = np.argmax(_log_density_matrix(oracle, np.atleast_1d(arr)), axis=0)
    return int(idx[0]) if scalar else idx


def mutual_information(
    oracle: LikelihoodOracle,
    constellation: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int = 0,
) -> float:
    """Monte-Carlo mutual information in bits under the estimated densities.

    Draws (x_i, y_i) with uniform messages and fresh channel noise, then
    averages log2 of the ratio between p_hat(y_i | x_i) and the uniform
    mixture over all symbols.  The same density serves numerator and
    denominator, so each term is at most log2 M; negative estimates are
    Monte Carlo noise and clamp to 0.
    """
    rng = make_rng((seed, 2))
    msgs = rng.integers(0, constellation.m, size=n_samples)
    y = propagate(constellation.points[msgs], params, rng)
    dens = _log_density_matrix(oracle, y)
    own = dens[msgs, np.arange(n_samples)]
    # log of the mixture, in place: the matrix is the largest array here
    peak = dens.max(axis=0)
    dens -= peak
    np.exp(dens, out=dens)
    mix = np.log(dens.mean(axis=0)) + peak
    est = float(np.mean(own - mix)) / math.log(2.0)
    return max(0.0, est)

