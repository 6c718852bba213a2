"""Tests for the exact-law oracle (per-ring densities, ML detection, MI)."""

import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.special import logsumexp
from scipy.stats import kstest, rice

from awgn_reference import awgn_mutual_information_bits
from fiberae.autoencoder import constellation_points, decode, load_checkpoint
from fiberae.channel import ChannelParams, make_rng, propagate, simulate, watts_from_dbm
from fiberae.evaluation import qam, ser
from fiberae.likelihood import (
    DENSITY_FLOOR,
    MAX_GRID_SIDE,
    Constellation,
    LikelihoodOracle,
    _ring_density,
    _log_modes,
    _mode_law,
    build_oracle,
    log_densities,
    ml_detect,
    mutual_information,
)
from fiberae import likelihood as likelihood_module


def qpsk(p_in_w: float) -> Constellation:
    pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * math.sqrt(p_in_w / 2.0)
    return Constellation(points=pts)


AWGN = ChannelParams(gamma=0.0)
NLPN = ChannelParams()
SIGMA = math.sqrt(AWGN.noise_power_w / 2.0)  # per-component noise std
P5 = watts_from_dbm(5.0)
FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "ae_m16_p+0.00dbm.json"


def fixture_constellation() -> Constellation:
    """The benchmark checkpoint's 16 symbols at 0 dBm; it was trained on NLPN."""
    return Constellation(points=constellation_points(load_checkpoint(FIXTURE)))


def mi_draws(oracle, n: int, seed: int):
    """The outputs, messages and log-densities that `mutual_information` scores."""
    msgs, y = simulate(oracle.constellation.points, oracle.params, n, seed)
    return y, msgs, log_densities(oracle, y)


def mesh_offsets(half_width: float, n: int) -> np.ndarray:
    """Flattened n x n square of complex offsets spanning +-half_width."""
    xs = np.linspace(-half_width, half_width, n)
    gx, gy = np.meshgrid(xs, xs)
    return (gx + 1j * gy).ravel()


MODE_MESH = mesh_offsets(2.0 * SIGMA, 161)


def density_mode(oracle, i: int) -> complex:
    """Argmax of symbol i's density over a fixed mesh around its point."""
    mesh = oracle.constellation.points[i] + MODE_MESH
    return complex(mesh[np.argmax(log_densities(oracle, mesh)[i])])


def grid_nodes(oracle, i: int) -> np.ndarray:
    """Symbol i's grid nodes in the output plane, (n_r, n_theta)."""
    d = oracle.densities[oracle.ring_of[i]]
    n_r, n_t = d.grid.shape
    r = d.r_lo + d.dr * np.arange(n_r)
    phase = np.angle(oracle.constellation.points[i])
    theta = phase - d.shift[:, None] + 2.0 * np.pi * np.arange(n_t) / n_t
    return r[:, None] * np.exp(1j * theta)


def mode_count(oracle, i: int) -> int:
    return oracle.densities[oracle.ring_of[i]].grid.shape[1] // 4


class TestConstellation:
    @pytest.mark.parametrize("points", [[math.nan, 1.0], [math.inf, 1.0]], ids=["nan", "inf"])
    def test_non_finite_rejected(self, points):
        with pytest.raises(ValueError):
            Constellation(points=np.array(points, dtype=complex))

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            Constellation(points=np.array([1 + 0j]))


class TestBuild:
    def test_rejects_noiseless_channel(self):
        with pytest.raises(ValueError):
            build_oracle(qpsk(1e-3), ChannelParams(gamma=0.0, noise_power_w=0.0))

    def test_rejects_snr_beyond_bessel_range(self):
        # at 100 dB the Bessel arguments pass 2^30, where scipy's ive gives NaN
        params = ChannelParams(gamma=0.0, noise_power_w=watts_from_dbm(-100.0))
        with pytest.raises(ValueError, match="signal-to-noise"):
            build_oracle(qpsk(1e-3), params)

    def test_modes_near_constellation_points(self):
        # gamma=0: each density is CN(point, P_N), so its argmax over the
        # mesh is the mesh point nearest the symbol (step 2.5% of sigma)
        oracle = build_oracle(qpsk(1e-3), AWGN)
        step = 4.0 * SIGMA / 160
        for i, point in enumerate(oracle.constellation.points):
            assert abs(density_mode(oracle, i) - point) < step

    def test_density_integrates_to_one(self):
        oracle = build_oracle(qpsk(1e-3), AWGN)
        for i, point in enumerate(oracle.constellation.points):
            span = 8.0 * SIGMA
            xs = np.linspace(point.real - span, point.real + span, 241)
            ys = np.linspace(point.imag - span, point.imag + span, 241)
            gx, gy = np.meshgrid(xs, ys)
            vals = np.exp(log_densities(oracle, gx.ravel() + 1j * gy.ravel())[i])
            integral = vals.sum() * (xs[1] - xs[0]) * (ys[1] - ys[0])
            assert integral == pytest.approx(1.0, abs=1e-3)

    def test_crescent_integrates_to_one(self):
        # 16-QAM at 5 dBm under NLPN, each ring on a polar mesh; a symbol's
        # row is read from an oracle of two copies of it on its ring's law,
        # which gives the 16-symbol oracle's row bit for bit
        const = qam(16, P5)
        oracle = build_oracle(const, NLPN)
        theta = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        for i in np.unique(np.abs(const.points), return_index=True)[1]:
            pair = LikelihoodOracle(Constellation(points=const.points[[i, i]]), NLPN,
                                    [oracle.densities[oracle.ring_of[i]]], np.array([0, 0]))
            rho0 = abs(const.points[i])
            r = np.linspace(max(rho0 - 10.0 * SIGMA, 0.0), rho0 + 10.0 * SIGMA, 801)
            mesh = r[:, None] * np.exp(1j * theta[None, :])
            probe = mesh[::40, ::40].ravel()
            assert np.array_equal(log_densities(pair, probe)[0], log_densities(oracle, probe)[i])
            dens = np.exp(log_densities(pair, mesh.ravel())[0]).reshape(mesh.shape)
            assert trapezoid(2.0 * np.pi * r * dens.mean(axis=1), r) == pytest.approx(1.0, abs=1e-3)

    def test_angular_grid_is_capped(self):
        # at -60 dBm noise the mode cutoff would need thousands of modes
        params = ChannelParams(gamma=0.0, noise_power_w=watts_from_dbm(-60.0))
        oracle = build_oracle(qpsk(1e-3), params)
        assert oracle.densities[0].grid.shape[1] == MAX_GRID_SIDE
        assert all(np.isfinite(d.grid).all() for d in oracle.densities)

    def test_symbol_at_origin_and_clouds_around_it(self):
        # a point at the origin has no phase, and the clouds of the points
        # two noise sigmas from it wrap around the origin; each density must
        # still integrate to one and stay finite at the origin
        params = ChannelParams()
        pts = np.array([0, 1, -1, 1j, -1j]) * 2.0 * SIGMA
        const = Constellation(points=pts)
        oracle = build_oracle(const, params)
        span = 8.0 * SIGMA
        mesh = mesh_offsets(span, 321)
        cell = (2.0 * span / 320) ** 2
        for vals in np.exp(log_densities(oracle, mesh)):
            assert vals.sum() * cell == pytest.approx(1.0, abs=1e-3)
        assert np.isfinite(log_densities(oracle, np.array([0j]))).all()
        assert np.array_equal(ml_detect(oracle, np.array([0j])), [0])


def per_symbol_oracle(oracle):
    """The oracle rebuilt with one ring per symbol, none shared."""
    const, params = oracle.constellation, oracle.params
    densities = [_ring_density(float(abs(p)), params) for p in const.points]
    return LikelihoodOracle(const, params, densities, np.arange(const.m))


@pytest.fixture(scope="module")
def qam5_oracle():
    return build_oracle(qam(16, P5), NLPN)


class TestAmplitudeRings:
    def test_distinct_amplitudes_fit_every_symbol(self):
        # no two amplitudes equal: every symbol gets a ring of its own, the
        # same bits as a ring built for that amplitude alone
        pts = np.array([0.5, 0.8j, -1.1, 1.3 * np.exp(2.0j)]) * math.sqrt(P5)
        const = Constellation(points=pts)
        oracle = build_oracle(const, NLPN)
        reference = per_symbol_oracle(oracle)
        assert len(oracle.densities) == const.m
        assert np.array_equal(oracle.ring_of, np.arange(const.m))  # amplitudes increase
        y = propagate(pts[np.arange(8000) % const.m], NLPN, make_rng(22))
        assert np.array_equal(log_densities(oracle, y), log_densities(reference, y))

    def test_qam16_fits_three_rings(self, qam5_oracle):
        assert len(qam5_oracle.densities) == 3
        ring_of = qam5_oracle.ring_of
        amplitudes = np.abs(qam5_oracle.constellation.points)
        assert np.array_equal(ring_of[:, None] == ring_of[None, :],
                              amplitudes[:, None] == amplitudes[None, :])
        assert np.array_equal(np.bincount(ring_of), [4, 8, 4])

    def test_ring_member_is_the_lead_rotated(self, qam5_oracle):
        # under NLPN, symbol j's density at y is its ring lead's at y turned
        # back by the phase between the two points
        points = qam5_oracle.constellation.points
        amplitudes = np.abs(points)
        rng = make_rng(23)
        members = 0
        for j, p in enumerate(points):
            lead = int(np.flatnonzero(amplitudes == amplitudes[j])[0])
            if lead == j:
                continue
            members += 1
            y = propagate(np.full(2000, p), NLPN, rng)
            turn = np.exp(-1j * (np.angle(p) - np.angle(points[lead])))
            np.testing.assert_allclose(
                log_densities(qam5_oracle, y)[j], log_densities(qam5_oracle, y * turn)[lead],
                rtol=0.0, atol=1e-12,
            )
        assert members == 13

    def test_shared_oracle_ser_matches_per_symbol_fits(self):
        # the channel law is exactly rotation-symmetric, so sharing a ring's
        # grid changes no decision
        const = qam(16, P5)
        shared = build_oracle(const, NLPN)
        own = per_symbol_oracle(shared)
        n = 48_000
        a = ser(const, partial(ml_detect, shared), NLPN, n, seed=25)
        b = ser(const, partial(ml_detect, own), NLPN, n, seed=25)
        assert a == pytest.approx(0.20, abs=0.02)
        assert a == b


class TestRician:
    # the amplitude chain is the AWGN chain: each segment's rotation does not
    # change |x|, and circular noise does not see the phase, so |y| given |x|
    # is Rician with sigma^2 = P_N / 2 for any gamma and K
    SIGMA = math.sqrt(NLPN.noise_power_w / 2.0)

    def law(self, amplitude):
        return rice(amplitude / self.SIGMA, scale=self.SIGMA)

    def test_simulated_amplitude_is_rician(self):
        n = 100_000
        a = math.sqrt(P5)
        rho = np.abs(propagate(np.full(n, a + 0j), NLPN, make_rng(26)))
        bound = 1.95 / math.sqrt(n)  # Kolmogorov-Smirnov, 0.1% level
        assert kstest(rho, self.law(a).cdf).statistic < bound
        # a 5% error in sigma would be caught
        wrong = rice(a / (1.05 * self.SIGMA), scale=1.05 * self.SIGMA)
        assert kstest(rho, wrong.cdf).statistic > bound

    @pytest.mark.parametrize("amplitude", [math.sqrt(P5), 2.0 * SIGMA])
    def test_oracle_radial_marginal_is_rician(self, amplitude):
        # p(y) integrated over the phase on a polar mesh, against the Rician
        # law: the gridded profile averages to one over the phase at every
        # radius, so only the quadrature's error remains
        const = Constellation(points=np.array([amplitude, -amplitude]) + 0j)
        oracle = build_oracle(const, NLPN)
        r = np.linspace(max(amplitude - 8.0 * self.SIGMA, 0.0), amplitude + 8.0 * self.SIGMA, 321)
        phase = np.linspace(-np.pi, np.pi, 2048, endpoint=False)
        mesh = r[:, None] * np.exp(1j * phase[None, :])
        for symbol in range(2):
            dens = np.exp(log_densities(oracle, mesh.ravel())[symbol]).reshape(mesh.shape)
            radial = 2.0 * np.pi * r * dens.mean(axis=1)
            cdf = cumulative_trapezoid(radial, r, initial=0.0)
            law = self.law(amplitude)
            assert np.max(np.abs(cdf - (law.cdf(r) - law.cdf(r[0])))) < 1e-3

    @pytest.mark.parametrize("amplitude", [math.sqrt(P5), 2.0 * SIGMA, 0.0])
    def test_mode_zero_is_the_rician_law(self, amplitude):
        # the m = 0 recursion is plain noise convolution: a_0(r) =
        # exp(-(r^2 + rho0^2)/P_N) I_0(2 rho0 r/P_N) / (pi P_N), whatever gamma
        pn = NLPN.noise_power_w
        log_a, alpha, beta = _mode_law(amplitude, NLPN, 4)
        assert log_a[0].imag == alpha[0].imag == beta[0].imag == 0.0
        assert log_a[0].real == pytest.approx(-amplitude**2 / pn - math.log(math.pi * pn), rel=1e-12)
        assert alpha[0].real == pytest.approx(1.0 / pn, rel=1e-12)
        assert beta[0].real == pytest.approx(2.0 * amplitude / pn, rel=1e-12, abs=1e-300)
        r = np.linspace(1e-6, amplitude + 8.0 * self.SIGMA, 500)
        radial = 2.0 * np.pi * r * np.exp(_ring_density(amplitude, NLPN).log_radial(r))
        np.testing.assert_allclose(radial, self.law(amplitude).pdf(r), rtol=1e-9)


class TestExactLaw:
    def test_gamma_zero_is_complex_gaussian(self):
        # on the grid nodes the profile is the Fourier sum itself, exact to
        # rounding wherever the density is within 1e-8 of its peak
        oracle = build_oracle(qpsk(1e-3), AWGN)
        pn = AWGN.noise_power_w
        for i, point in enumerate(oracle.constellation.points):
            y = grid_nodes(oracle, i).ravel()
            log_cn = -np.abs(y - point) ** 2 / pn - math.log(math.pi * pn)
            near = log_cn >= math.log(1e-8) + log_cn.max()
            np.testing.assert_allclose(log_densities(oracle, y[near])[i], log_cn[near],
                                       rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("segments, tol", [(1, 1e-12), (5, 1e-12), (50, 1e-12), (1000, 1e-10)])
    def test_mode_recursion_is_a_moebius_power(self, segments, tol):
        # one segment maps alpha = x/z by B = [[1, jmc], [s^2, 1 + jmc s^2]]
        # and divides beta by the new z, so K segments are B^(K-1) applied
        # to (1/s^2, 1): alpha_K = x/z and beta_K = beta_0/z.  Measured
        # 8.3e-14 up to K = 50 and 8.0e-12 at K = 1000.  As det B = 1, the
        # log(s^2 P) terms of log A telescope to log z and the beta^2/(4P)
        # terms to rho0^2 (1/s^2 - alpha_K), so log A_K = -rho0^2 alpha_K
        # - j m c rho0^2 - log(pi s^2 z); its phase is compared modulo 2 pi.
        # Measured 3.3e-13 up to K = 50 and 3.1e-11 at K = 1000.
        params = replace(NLPN, segments=segments)
        s2 = params.noise_power_w / segments
        jmc = 1j * np.arange(64) * params.phase_rate
        step = np.array([[np.ones(64), jmc], [np.full(64, s2), 1.0 + jmc * s2]]).transpose(2, 0, 1)
        x, z = (np.linalg.matrix_power(step, segments - 1) @ np.array([1.0 / s2, 1.0])).T
        for rho0 in (float(np.abs(qam(16, P5).points).max()), 0.01):
            log_a, alpha, beta = _mode_law(rho0, params, 64)
            np.testing.assert_allclose(alpha, x / z, rtol=tol, atol=0.0)
            np.testing.assert_allclose(beta, 2.0 * rho0 / s2 / z, rtol=tol, atol=0.0)
            err = log_a - (-rho0 * rho0 * x / z - jmc * rho0 * rho0 - np.log(np.pi * s2 * z))
            turn = (err.imag + np.pi) % (2.0 * np.pi) - np.pi
            assert np.all(np.abs(err.real + 1j * turn) <= tol * (1.0 + np.abs(log_a)))

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_mode_recursion_tends_to_its_continuum_law(self, m):
        # with L and P_N fixed, u = 1/alpha_m tends as K grows to the solution of
        # du/dz = P_N/L - j m gamma u^2, u(0) = 0: u(L) = sqrt(P_N/(j m gamma L))
        # tanh(sqrt(j m gamma P_N L)).  Its error halves with each doubling of K,
        # measured 1.987-1.999; at K = 800 it is 2.9e-5 (m = 1) to 1.5e-4 (m = 5)
        jmg = 1j * m * NLPN.gamma
        pn, length = NLPN.noise_power_w, NLPN.link_length_km
        u = np.sqrt(pn / (jmg * length)) * np.tanh(np.sqrt(jmg * pn * length))
        errs = []
        for segments in (25, 50, 100, 200, 400, 800):
            _, alpha, _ = _mode_law(0.0, replace(NLPN, segments=segments), m + 1)
            errs.append(abs(1.0 / alpha[m] - u) / abs(u))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all((ratios >= 1.9) & (ratios <= 2.1)), ratios
        assert errs[-1] < 2e-4

    def test_grid_matches_direct_mode_sum(self):
        # random points inside each ring's grid, 16-QAM at 5 dBm: bilinear
        # interpolation of the profile against the mode sum at the point.
        # Uniform points sit mostly in the tails, where the log-profile is
        # steep; measured max 0.08, and medians up to 0.008, over the rings.
        const = qam(16, P5)
        oracle = build_oracle(const, NLPN)
        rng = np.random.default_rng(30)
        for i in np.unique(np.abs(const.points), return_index=True)[1]:
            d = oracle.densities[oracle.ring_of[i]]
            r = d.r_lo + rng.uniform(0.0, (d.grid.shape[0] - 1) * d.dr, 5000)
            theta = rng.uniform(-np.pi, np.pi, 5000)
            modes = mode_count(oracle, i)
            m = np.arange(1, modes)
            law = _mode_law(abs(const.points[i]), NLPN, modes)
            ratio = np.exp(_log_modes(law, m, r) - _log_modes(law, np.array([0]), r))
            turned = theta - np.angle(const.points[i])
            profile = 1.0 + 2.0 * (ratio * np.exp(1j * np.outer(turned, m))).real.sum(axis=1)
            bulk = profile > 1e-6
            direct = d.log_radial(r[bulk]) + np.log(profile[bulk])
            y = r[bulk] * np.exp(1j * theta[bulk])
            err = np.abs(log_densities(oracle, y)[i] - direct)
            assert err.max() < 0.2 and np.median(err) < 0.02

    def test_finer_grid_changes_no_result(self, monkeypatch):
        # four times the radial nodes moves only outputs on a decision
        # boundary: measured 2 of 32k decisions and 2 errors at 5 dBm, and
        # 7e-7 bits of MI
        const = qam(16, P5)
        coarse = build_oracle(const, NLPN)
        monkeypatch.setattr(likelihood_module, "NODES_PER_SIGMA", 4 * likelihood_module.NODES_PER_SIGMA)
        fine = build_oracle(const, NLPN)
        msgs = np.arange(32_000) % 16
        y = propagate(const.points[msgs], NLPN, make_rng(31))
        a, b = ml_detect(coarse, y), ml_detect(fine, y)
        assert np.sum(a != b) <= 10
        assert abs(np.sum(a != msgs) - np.sum(b != msgs)) <= 5
        mi = [mutual_information(o, 32_000, seed=32) for o in (coarse, fine)]
        assert mi[0] == pytest.approx(mi[1], abs=1e-5)

    @pytest.mark.parametrize("power_dbm", [0.0, 5.0])
    def test_simulated_phase_given_amplitude(self, power_dbm):
        # probability integral transform of arg y given |y| under the exact
        # law: uniform for the K = 50 simulator, far from it with gamma 1%
        # too large.  Bound: Kolmogorov-Smirnov at the 0.1% level.
        n = 20_000
        rho0 = math.sqrt(watts_from_dbm(power_dbm))
        const = Constellation(points=np.array([rho0, -rho0]) + 0j)
        modes = mode_count(build_oracle(const, NLPN), 0)
        law = _mode_law(rho0, NLPN, modes)
        m = np.arange(1, modes)
        bound = 1.95 / math.sqrt(n)

        def ks(params):
            y = propagate(np.full(n, rho0 + 0j), params, make_rng(40))
            theta = np.angle(y)
            rho = np.abs(y)
            ratio = np.exp(_log_modes(law, m, rho) - _log_modes(law, np.array([0]), rho))
            turns = (np.exp(1j * np.outer(theta, m)) - np.exp(-1j * np.pi * m)) / (1j * m)
            pit = (theta + np.pi) / (2.0 * np.pi) + (ratio * turns).real.sum(axis=1) / np.pi
            return kstest(pit, "uniform").statistic

        assert ks(NLPN) < bound
        assert ks(replace(NLPN, gamma=1.01 * NLPN.gamma)) > bound


def reference_log_densities(oracle, y):
    """The lookup as first written (2-D gathers, np.mod, and the log of the
    bilinear sum), and the least of the four grid corners it read, each of
    shape (M, n)."""
    rho, theta = np.abs(y), np.angle(y)
    phases = np.angle(oracle.constellation.points)
    out, least = np.empty((2, oracle.m) + y.shape)
    for s, d in enumerate(oracle.densities[ring] for ring in oracle.ring_of):
        g = d.grid
        n_r, n_t = g.shape
        a = np.clip((rho - d.r_lo) / d.dr, 0.0, n_r - 1)
        i = np.minimum(a.astype(int), n_r - 2)
        fa = a - i
        shift = d.shift[i] + fa * (d.shift[i + 1] - d.shift[i])
        b = np.mod((theta - phases[s] + shift) * (n_t / (2.0 * np.pi)), n_t)
        j = b.astype(int)
        fb = b - j
        j %= n_t
        j1 = (j + 1) % n_t
        out[s] = d.log_radial(rho) + np.log(
            (g[i, j] * (1 - fb) + g[i, j1] * fb) * (1 - fa)
            + (g[i + 1, j] * (1 - fb) + g[i + 1, j1] * fb) * fa
        )
        least[s] = np.minimum.reduce([g[i, j], g[i, j1], g[i + 1, j], g[i + 1, j1]])
    return out, least


LOOKUP_CASES = {
    "qam16-m2dbm": (lambda: qam(16, watts_from_dbm(-2.0)), NLPN),
    "qam16-5dbm": (lambda: qam(16, P5), NLPN),
    "qam16-gamma0": (lambda: qam(16, P5), AWGN),
    "fixture-0dbm": (fixture_constellation, NLPN),
}


@pytest.fixture(scope="module", params=list(LOOKUP_CASES))
def lookup_case(request):
    """(oracle, the same oracle floored at the smallest normal double,
    outputs): simulated draws, then a raster over the whole constellation,
    which reaches each ring's floored cells."""
    make, params = LOOKUP_CASES[request.param]
    const = make()
    oracle = build_oracle(const, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihood_module, "DENSITY_FLOOR", float(np.finfo(float).tiny))
        tiny_floor = build_oracle(const, params)
    _, draws = simulate(const.points, params, 8192, seed=42)
    mesh = mesh_offsets(1.3 * float(np.abs(const.points).max()), 121)
    return oracle, tiny_floor, np.concatenate([draws, mesh])


class TestLookup:
    def test_lookup_stays_out_of_subnormal_arithmetic(self, lookup_case):
        # a floored corner times two interpolation weights of 2^-53 or more is
        # still a normal double, so no product takes the slow subnormal path
        oracle, _, y = lookup_case
        assert (reference_log_densities(oracle, y)[1] == DENSITY_FLOOR).any()
        with np.errstate(under="raise"):
            log_densities(oracle, y)
            ml_detect(oracle, y)
        assert DENSITY_FLOOR * 2.0**-106 >= np.finfo(float).tiny

    def test_lookup_is_the_bilinear_formula_bit_for_bit(self, lookup_case):
        # on the shipped grid the flat in-place pass is the formula to the
        # bit; against a grid floored at the smallest normal double, values
        # move only where a corner sits at the floor, and only up, by at most
        # log(DENSITY_FLOOR / tiny)
        oracle, tiny_floor, y = lookup_case
        assert all(d.grid.shape[1] & (d.grid.shape[1] - 1) == 0 for d in oracle.densities)
        dens = log_densities(oracle, y)
        assert np.array_equal(dens, reference_log_densities(oracle, y)[0])
        before, least = reference_log_densities(tiny_floor, y)
        above = least > DENSITY_FLOOR
        assert above.any() and not above.all()
        assert np.array_equal(dens[above], before[above])
        rise = dens[~above] - before[~above]
        assert rise.min() >= 0.0 and rise.max() <= math.log(DENSITY_FLOOR / np.finfo(float).tiny) + 1e-9
        assert np.array_equal(ml_detect(oracle, y), np.argmax(before, axis=0))

    def test_angle_whose_turn_underflows_reads_as_np_mod(self):
        # theta = -5e-324 and -1e-323 on an unturned row: theta n_t / (2 pi)
        # divided by n_t underflows to -0, the one input where the lookup's
        # wrap leaves np.mod's arithmetic
        const = Constellation(points=np.array([1.0, -1.0]) * math.sqrt(P5) + 0j)
        oracle = build_oracle(const, AWGN)
        d = oracle.densities[0]
        assert not d.shift.any()
        y = np.array([complex(1.0, -5e-324), complex(1.0, -1e-323), complex(1.0, -0.0), 1.0 + 0j])
        x = np.angle(y) * (d.grid.shape[1] / (2.0 * np.pi))
        assert np.sum((x < 0.0) & (x / d.grid.shape[1] == 0.0)) == 2
        assert np.array_equal(log_densities(oracle, y), reference_log_densities(oracle, y)[0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.inf, math.inf),
                                     complex(0.0, math.nan)],
                             ids=["nan", "inf", "-inf", "inf+infj", "nanj"])
    def test_non_finite_outputs_rejected(self, bad):
        # unchecked, a NaN fails in the index cast and an infinity gives a NaN
        # column, which argmax reads as symbol 0
        oracle = build_oracle(qpsk(1e-3), AWGN)
        y = np.array([0.01, bad, 0.02j])
        for lookup in (log_densities, ml_detect):
            with pytest.raises(ValueError, match="1 of 3 channel outputs are not finite"):
                lookup(oracle, y)


class TestLikelihood:
    def test_centroid_beats_far_offset(self):
        # gamma=0: the density peaks at the point itself
        oracle = build_oracle(qpsk(1e-3), AWGN)
        for i, point in enumerate(oracle.constellation.points):
            y = np.array([point, point + 5.0 * SIGMA])
            at_point, offset = log_densities(oracle, y)[i]
            assert at_point >= offset

    def test_deterministic_evaluation(self):
        oracle = build_oracle(qpsk(1e-3), AWGN)
        y = np.array([0.01 + 0.005j])
        assert np.array_equal(log_densities(oracle, y), log_densities(oracle, y))

    def test_strictly_positive_far_away(self):
        # about 1e5 sigma out, where every density underflows a double
        oracle = build_oracle(qpsk(1e-3), AWGN)
        assert np.isfinite(log_densities(oracle, np.array([100.0 + 100.0j]))).all()

    def test_likelihood_ratio_against_distant_symbol(self):
        # two antipodal points 10+ sigma apart: ratio at the true point > 1e3
        p = 1e-3
        pts = np.array([1 + 0j, -1 + 0j]) * math.sqrt(p)
        assert abs(pts[0] - pts[1]) > 10 * SIGMA
        oracle = build_oracle(Constellation(points=pts), AWGN)
        own, other = log_densities(oracle, pts[:1])[:, 0]
        assert own - other > math.log(1e3)


class TestMlDetect:
    def test_exact_points_detected(self):
        oracle = build_oracle(qpsk(1e-3), AWGN)
        points = oracle.constellation.points
        assert np.array_equal(ml_detect(oracle, points), np.arange(points.size))

    def test_tie_breaks_to_lowest_index(self):
        p = 1e-3
        pts = np.array([1 + 0j, -1 + 0j]) * math.sqrt(p)
        oracle = build_oracle(Constellation(points=pts), AWGN)
        # the log-densities of the equidistant point may differ in their last
        # bits, so check the argmax rule directly on a constructed tie
        dens = np.array([[2.5, 2.5]])
        assert int(np.argmax(dens[0])) == 0
        mid = np.array([0j])
        d0, d1 = log_densities(oracle, mid)[:, 0]
        (got,) = ml_detect(oracle, mid)
        assert got == (0 if d0 >= d1 else 1)

    @pytest.mark.parametrize("sigmas", [10.0, 100.0, 250.0, 300.0, 1000.0])
    def test_far_query_gets_a_decision_not_a_tie(self, sigmas):
        # a query far outside every cloud goes to the symbol it lies beyond;
        # from 100 sigma on every density underflows a double, so this needs
        # the decision to be taken on log-densities
        oracle = build_oracle(qpsk(1e-3), AWGN)
        point = oracle.constellation.points[3]
        y = np.array([point * (1.0 + sigmas * SIGMA / abs(point))])
        assert np.array_equal(ml_detect(oracle, y), [3])

    def test_scaling_densities_leaves_argmax_unchanged(self):
        oracle = build_oracle(qpsk(1e-3), AWGN)
        rng = make_rng(10)
        y = propagate(oracle.constellation.points[rng.integers(0, 4, 200)], AWGN, rng)
        dens = log_densities(oracle, y)
        assert np.array_equal(np.argmax(dens, axis=0), np.argmax(dens + math.log(7.3), axis=0))
        assert np.array_equal(np.argmax(dens, axis=0), ml_detect(oracle, y))


class TestMutualInformation:
    def test_antipodal_noiseless_limit(self):
        # binary antipodal at essentially no noise: 1 bit
        params = ChannelParams(gamma=0.0, noise_power_w=watts_from_dbm(-60.0))
        p = 1e-3
        pts = np.array([1 + 0j, -1 + 0j]) * math.sqrt(p)
        oracle = build_oracle(Constellation(points=pts), params)
        mi = mutual_information(oracle, 20_000, seed=12)
        assert mi == pytest.approx(1.0, abs=0.02)

    def test_degenerate_identical_points(self):
        p = 1e-3
        pts = np.array([1 + 0j, 1 + 0j]) * math.sqrt(p)
        const = Constellation(points=pts)
        oracle = build_oracle(const, AWGN)
        mi = mutual_information(oracle, 20_000, seed=14)
        assert 0.0 <= mi <= 0.02

    def test_matches_quadrature_in_linear_regime(self):
        # 16-QAM at -15 dBm with the default gamma: effectively linear, so the
        # estimate must sit within 0.1 bit of exact AWGN quadrature
        p = watts_from_dbm(-15.0)
        const = qam(16, p)
        params = ChannelParams()
        oracle = build_oracle(const, params)
        mi = mutual_information(oracle, 100_000, seed=16)
        exact = awgn_mutual_information_bits(const.points, params.noise_power_w)
        assert mi == pytest.approx(exact, abs=0.1)

    @pytest.mark.parametrize("const, params", [(qpsk(1e-3), AWGN), (qam(16, P5), NLPN)],
                             ids=["qpsk-awgn", "qam16-5dbm"])
    def test_is_log2m_minus_mean_posterior_entropy(self, const, params):
        # on the same draws, with the posterior normalised here rather than
        # row by row as in the estimator
        oracle = build_oracle(const, params)
        n, seed = 20_000, 34
        y, _, dens = mi_draws(oracle, n, seed)
        log_post = dens - logsumexp(dens, axis=0)
        entropy = -np.sum(np.exp(log_post) * log_post, axis=0) / math.log(2.0)
        expected = math.log2(const.m) - np.mean(entropy)
        assert mutual_information(oracle, n, seed) == pytest.approx(expected, rel=0.0, abs=1e-12)
        assert np.array_equal(ml_detect(oracle, y), np.argmax(dens, axis=0))

    @pytest.mark.parametrize("const, params", [
        (fixture_constellation(), NLPN),
        (qam(16, watts_from_dbm(-2.0)), NLPN),
    ], ids=["fixture-0dbm", "qam16-m2dbm"])
    def test_entropy_terms_spread_half_as_much_as_log_posteriors(self, const, params):
        # per-sample terms on shared draws: log2 M - H(p(. | y_i)), and the
        # log-posterior of the message sent, log2 M + log2 p(x_i | y_i); both
        # have mean MI, and the first has the smaller standard error
        oracle = build_oracle(const, params)
        n = 20_000
        _, msgs, dens = mi_draws(oracle, n, seed=36)
        log_post = (dens - logsumexp(dens, axis=0)) / math.log(2.0)
        entropy_terms = math.log2(const.m) + np.sum(np.exp2(log_post) * log_post, axis=0)
        own_terms = math.log2(const.m) + log_post[msgs, np.arange(n)]
        assert np.std(entropy_terms) <= 0.5 * np.std(own_terms)

    def test_decoder_gap_is_the_mean_kl_divergence(self):
        # the fixture's decoder q against the exact posterior p, on shared
        # draws: MI - AIR_RB is the mean KL(p || q), which is >= 0 per sample,
        # and AIR_RB = log2 M + mean sum_s p log2 q is the paper's one-hot AIR
        # averaged over the message, so the two agree within Monte Carlo noise
        model = load_checkpoint(FIXTURE)
        oracle = build_oracle(Constellation(points=constellation_points(model)), model.params)
        n, seed = 20_000, 38
        y, msgs, dens = mi_draws(oracle, n, seed)
        log_p = (dens - logsumexp(dens, axis=0)) / math.log(2.0)
        p = np.exp2(log_p)
        log_q = np.log2(decode(model, y).T)
        kl = np.sum(p * (log_p - log_q), axis=0)
        assert kl.min() >= 0.0
        air_rb = math.log2(model.m) + np.mean(np.sum(p * log_q, axis=0))
        gap = mutual_information(oracle, n, seed) - air_rb
        assert gap == pytest.approx(np.mean(kl), rel=0.0, abs=1e-12)
        diff = log_q[msgs, np.arange(n)] - np.sum(p * log_q, axis=0)
        assert abs(np.mean(diff)) <= 4.0 * np.std(diff) / math.sqrt(n)

    def test_bounds(self):
        oracle = build_oracle(qpsk(1e-3), AWGN)
        mi = mutual_information(oracle, 5000, seed=18)
        assert 0.0 <= mi <= 2.0 + 0.05
