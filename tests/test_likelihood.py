"""Tests for the sampled-likelihood oracle (KDE densities, ML detection, MI)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.stats import kstest, rice

from awgn_reference import awgn_mutual_information_bits
from fiberae.channel import ChannelParams, make_rng, propagate, watts_from_dbm
from fiberae.evaluation import ml_oracle_detector, qam, ser
from fiberae.likelihood import (
    Constellation,
    _fit_density,
    build_oracle,
    likelihood,
    ml_detect,
    mutual_information,
)


def qpsk(p_in_w: float) -> Constellation:
    pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * math.sqrt(p_in_w / 2.0)
    return Constellation(points=pts, power_w=p_in_w)


AWGN = ChannelParams(gamma=0.0)
SIGMA = math.sqrt(AWGN.noise_power_w / 2.0)  # per-component noise std


def mesh_offsets(half_width: float, n: int) -> np.ndarray:
    """Flattened n x n square of complex offsets spanning +-half_width."""
    xs = np.linspace(-half_width, half_width, n)
    gx, gy = np.meshgrid(xs, xs)
    return (gx + 1j * gy).ravel()


MODE_MESH = mesh_offsets(2.0 * SIGMA, 161)


def symbol_cloud(oracle, i: int) -> np.ndarray:
    """Symbol i's channel outputs from the stream a fit of its own would use."""
    x = np.full(oracle.samples_per_symbol, oracle.constellation.points[i])
    return propagate(x, oracle.params, make_rng((oracle.seed, 1), i))


def kde_mode(oracle, i: int) -> complex:
    """Argmax of symbol i's density over a fixed mesh around its point."""
    mesh = oracle.constellation.points[i] + MODE_MESH
    return complex(mesh[np.argmax(likelihood(oracle, i, mesh))])


class TestConstellation:
    def test_power_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Constellation(points=np.array([1 + 0j, -1 + 0j]), power_w=2.0)

    @pytest.mark.parametrize("points, power_w", [
        ([math.nan, 1.0], 1.0),
        ([1.0, -1.0], math.nan),
        ([math.inf, 1.0], math.inf),
        ([1.0, -1.0], 0.0),
    ])
    def test_non_finite_rejected(self, points, power_w):
        # the power check compares against NaN, so these all passed it
        with pytest.raises(ValueError):
            Constellation(points=np.array(points, dtype=complex), power_w=power_w)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            Constellation(points=np.array([1 + 0j]), power_w=1.0)


class TestBuild:
    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=100, seed=0)

    def test_modes_near_constellation_points(self):
        # gamma=0: each cloud is Gaussian around its point.  The centroid
        # fluctuates at the sqrt(P_N/S) scale; the KDE argmax is a noisier
        # statistic (up to ~26x that scale here, for the Silverman
        # full-covariance bandwidth in amplitude/phase coordinates and a
        # mesh step of 2.5x), so it gets a correspondingly wider radius.
        s = 20_000
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=s, seed=1)
        unit = math.sqrt(AWGN.noise_power_w / s)
        for i, point in enumerate(oracle.constellation.points):
            centroid = complex(np.mean(symbol_cloud(oracle, i)))
            assert abs(centroid - point) < 3.0 * unit
            assert abs(kde_mode(oracle, i) - point) < 60.0 * unit

    def test_density_integrates_to_one(self):
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=5000, seed=2)
        sigma = math.sqrt(AWGN.noise_power_w / 2.0)
        for i, point in enumerate(oracle.constellation.points):
            span = 8.0 * sigma
            xs = np.linspace(point.real - span, point.real + span, 241)
            ys = np.linspace(point.imag - span, point.imag + span, 241)
            gx, gy = np.meshgrid(xs, ys)
            vals = likelihood(oracle, i, gx.ravel() + 1j * gy.ravel())
            integral = vals.sum() * (xs[1] - xs[0]) * (ys[1] - ys[0])
            assert integral == pytest.approx(1.0, abs=0.02)

    def test_symbol_at_origin_and_clouds_around_it(self):
        # a point at the origin has no phase, and the clouds of the points
        # two noise sigmas from it wrap around the origin; each density must
        # still integrate to one and stay finite at the origin
        params = ChannelParams()
        pts = np.array([0, 1, -1, 1j, -1j]) * 2.0 * SIGMA
        const = Constellation(points=pts, power_w=float(np.mean(np.abs(pts) ** 2)))
        oracle = build_oracle(const, params, samples_per_symbol=20_000, seed=20)
        span = 8.0 * SIGMA
        mesh = mesh_offsets(span, 321)
        cell = (2.0 * span / 320) ** 2
        for i in range(const.m):
            vals = likelihood(oracle, i, mesh)
            assert vals.sum() * cell == pytest.approx(1.0, abs=0.02)
            assert np.isfinite(likelihood(oracle, i, 0j))
        assert ml_detect(oracle, 0j) == 0

    def test_mode_error_shrinks_with_sample_count(self):
        # quadrupling S should roughly halve the mode-location error
        def mean_mode_error(s, trials=10):
            errs = []
            for t in range(trials):
                oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=s, seed=100 + t)
                errs.append(abs(kde_mode(oracle, 0) - oracle.constellation.points[0]))
            return np.mean(errs)

        ratio = mean_mode_error(4000) / mean_mode_error(1000)
        assert ratio < 0.8

    def test_threads_do_not_change_result(self):
        a = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=2000, seed=3, threads=1)
        b = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=2000, seed=3, threads=2)
        for i, point in enumerate(a.constellation.points):
            mesh = point + MODE_MESH
            assert np.array_equal(likelihood(a, i, mesh), likelihood(b, i, mesh))


def per_symbol_oracle(oracle):
    """The oracle refitted with one cloud per symbol, none shared."""
    fits = [_fit_density(symbol_cloud(oracle, i)) for i in range(oracle.m)]
    return replace(oracle, densities=fits)


NLPN = ChannelParams()
P5 = watts_from_dbm(5.0)


@pytest.fixture(scope="module")
def qam5_oracle():
    return build_oracle(qam(16, P5), NLPN, samples_per_symbol=5000, seed=21)


class TestAmplitudeRings:
    def test_distinct_amplitudes_fit_every_symbol(self):
        # no two amplitudes equal: every symbol is its own ring's lead, so
        # each density is the fit of its own cloud, bit for bit
        pts = np.array([0.5, 0.8j, -1.1, 1.3 * np.exp(2.0j)]) * math.sqrt(P5)
        const = Constellation(points=pts, power_w=float(np.mean(np.abs(pts) ** 2)))
        oracle = build_oracle(const, NLPN, samples_per_symbol=5000, seed=22, threads=2)
        reference = per_symbol_oracle(oracle)
        y = np.concatenate([symbol_cloud(oracle, i) for i in range(const.m)])
        for i in range(const.m):
            assert np.array_equal(likelihood(oracle, i, y), likelihood(reference, i, y))

    def test_qam16_fits_three_rings(self, qam5_oracle):
        grids = [d.grid for d in qam5_oracle.densities]
        assert len({id(g) for g in grids}) == 3
        amplitudes = np.abs(qam5_oracle.constellation.points)
        for i, j in zip(*np.nonzero(amplitudes[:, None] == amplitudes[None, :])):
            assert grids[i] is grids[j]

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
                likelihood(qam5_oracle, j, y), likelihood(qam5_oracle, lead, y * turn),
                rtol=1e-12,
            )
        assert members == 13

    def test_shared_oracle_ser_matches_per_symbol_fits(self):
        # both detectors see the same 48k outputs, so only the oracles'
        # sampling noise separates them: measured |difference| <= 3.3e-4 on
        # seeds 0-4; the tolerance 2e-3 is about one binomial SD of the SER
        const = qam(16, P5)
        shared = build_oracle(const, NLPN, samples_per_symbol=20_000, seed=24, threads=2)
        own = per_symbol_oracle(shared)
        n = 48_000
        a = ser(const, ml_oracle_detector(shared), NLPN, n, seed=25)
        b = ser(const, ml_oracle_detector(own), NLPN, n, seed=25)
        assert a == pytest.approx(0.20, abs=0.02)
        assert a == pytest.approx(b, abs=2e-3)


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
        # law; the CDF sup-distance measured 0.006-0.010 at S = 20k (seeds
        # 0-2, both amplitudes), sampling noise plus kernel smoothing
        const = Constellation(points=np.array([amplitude, -amplitude]) + 0j,
                              power_w=amplitude**2)
        oracle = build_oracle(const, NLPN, samples_per_symbol=20_000, seed=27)
        r = np.linspace(max(amplitude - 8.0 * self.SIGMA, 0.0), amplitude + 8.0 * self.SIGMA, 321)
        phase = np.linspace(-np.pi, np.pi, 2048, endpoint=False)
        mesh = r[:, None] * np.exp(1j * phase[None, :])
        for symbol in range(2):
            dens = likelihood(oracle, symbol, mesh.ravel()).reshape(mesh.shape)
            radial = 2.0 * np.pi * r * dens.mean(axis=1)
            cdf = cumulative_trapezoid(radial, r, initial=0.0)
            law = self.law(amplitude)
            assert np.max(np.abs(cdf - (law.cdf(r) - law.cdf(r[0])))) < 0.02


class TestLikelihood:
    def test_centroid_beats_far_offset(self):
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=10_000, seed=4)
        sigma = math.sqrt(AWGN.noise_power_w / 2.0)
        for i in range(4):
            centroid = complex(np.mean(symbol_cloud(oracle, i)))
            assert likelihood(oracle, i, centroid) >= likelihood(
                oracle, i, centroid + 5.0 * sigma
            )

    def test_deterministic_evaluation(self):
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=2000, seed=5)
        y = 0.01 + 0.005j
        assert likelihood(oracle, 2, y) == likelihood(oracle, 2, y)

    def test_strictly_positive_far_away(self):
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=2000, seed=5)
        assert likelihood(oracle, 0, 100.0 + 100.0j) > 0.0

    def test_likelihood_ratio_against_distant_symbol(self):
        # two antipodal points 10+ sigma apart: ratio at the true point > 1e3
        p = 1e-3
        sigma = math.sqrt(AWGN.noise_power_w / 2.0)
        pts = np.array([1 + 0j, -1 + 0j]) * math.sqrt(p)
        assert abs(pts[0] - pts[1]) > 10 * sigma
        oracle = build_oracle(
            Constellation(points=pts, power_w=p), AWGN, samples_per_symbol=50_000, seed=6
        )
        ratio = likelihood(oracle, 0, pts[0]) / likelihood(oracle, 1, pts[0])
        assert ratio > 1e3

    def test_index_out_of_range(self):
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=2000, seed=5)
        with pytest.raises(IndexError):
            likelihood(oracle, 4, 0j)


class TestMlDetect:
    def test_exact_points_detected(self):
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=10_000, seed=7)
        for i, point in enumerate(oracle.constellation.points):
            assert ml_detect(oracle, point) == i

    def test_tie_breaks_to_lowest_index(self):
        p = 1e-3
        pts = np.array([1 + 0j, -1 + 0j]) * math.sqrt(p)
        oracle = build_oracle(
            Constellation(points=pts, power_w=p), AWGN, samples_per_symbol=5000, seed=8
        )
        # equidistant point: both densities are equal only in expectation, so
        # check the argmax rule directly on a constructed tie
        dens = np.array([[2.5, 2.5]])
        assert int(np.argmax(dens[0])) == 0
        mid = 0j
        d0 = likelihood(oracle, 0, mid)
        d1 = likelihood(oracle, 1, mid)
        got = ml_detect(oracle, mid)
        assert got == (0 if d0 >= d1 else 1)

    @pytest.mark.parametrize("sigmas", [10.0, 100.0])
    def test_far_query_gets_a_decision_not_a_tie(self, sigmas):
        # a query far outside every cloud goes to the symbol it lies beyond;
        # at 100 sigma every density underflows a double, so this needs the
        # decision to be taken on log-densities
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=2000, seed=5)
        point = oracle.constellation.points[3]
        y = point * (1.0 + sigmas * SIGMA / abs(point))
        assert ml_detect(oracle, y) == 3

    def test_scaling_densities_leaves_argmax_unchanged(self):
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=5000, seed=9)
        rng = make_rng(10)
        y = propagate(oracle.constellation.points[rng.integers(0, 4, 200)], AWGN, rng)
        dens = np.stack([likelihood(oracle, s, y) for s in range(4)])
        assert np.array_equal(np.argmax(dens, axis=0), np.argmax(7.3 * dens, axis=0))
        assert np.array_equal(np.argmax(dens, axis=0), ml_detect(oracle, y))


class TestMutualInformation:
    def test_antipodal_noiseless_limit(self):
        # binary antipodal at essentially no noise: 1 bit
        params = ChannelParams(gamma=0.0, noise_power_w=watts_from_dbm(-60.0))
        p = 1e-3
        pts = np.array([1 + 0j, -1 + 0j]) * math.sqrt(p)
        oracle = build_oracle(
            Constellation(points=pts, power_w=p), params, samples_per_symbol=20_000, seed=11
        )
        mi = mutual_information(oracle, oracle.constellation, params, 20_000, seed=12)
        assert mi == pytest.approx(1.0, abs=0.02)

    def test_degenerate_identical_points(self):
        p = 1e-3
        pts = np.array([1 + 0j, 1 + 0j]) * math.sqrt(p)
        const = Constellation(points=pts, power_w=p)
        oracle = build_oracle(const, AWGN, samples_per_symbol=20_000, seed=13)
        mi = mutual_information(oracle, const, AWGN, 20_000, seed=14)
        assert 0.0 <= mi <= 0.02

    def test_matches_quadrature_in_linear_regime(self):
        # 16-QAM at -15 dBm with the default gamma: effectively linear, so the
        # KDE estimate must sit within 0.1 bit of exact AWGN quadrature
        from fiberae.evaluation import qam

        p = watts_from_dbm(-15.0)
        const = qam(16, p)
        params = ChannelParams()
        oracle = build_oracle(const, params, samples_per_symbol=100_000, seed=15)
        mi = mutual_information(oracle, const, params, 100_000, seed=16)
        exact = awgn_mutual_information_bits(const.points, params.noise_power_w)
        assert mi == pytest.approx(exact, abs=0.1)

    def test_bounds(self):
        oracle = build_oracle(qpsk(1e-3), AWGN, samples_per_symbol=5000, seed=17)
        mi = mutual_information(oracle, oracle.constellation, AWGN, 5000, seed=18)
        assert 0.0 <= mi <= 2.0 + 0.05

