"""Tests for the per-sample nonlinear fiber channel."""

import math
import tracemalloc

import numpy as np
import pytest

from fiberae.channel import (
    STREAM,
    ChannelParams,
    backprop_channel,
    dbm_from_watts,
    draw_noise,
    make_rng,
    propagate,
    propagate_tape,
    simulate,
    watts_from_dbm,
)
from fiberae.gradcheck import channel_error, finite_difference_error

TWO_PI = 2.0 * math.pi


class TestUnits:
    def test_dbm_definition(self):
        assert watts_from_dbm(0.0) == pytest.approx(1.0e-3, rel=1e-15)
        assert watts_from_dbm(30.0) == pytest.approx(1.0, rel=1e-15)

    def test_noise_floor_value(self):
        # 10^((-21.3 - 30)/10), frozen from the closed form
        assert watts_from_dbm(-21.3) == pytest.approx(7.413102413009177e-06, abs=1e-18)
        assert abs(watts_from_dbm(-21.3) - 7.413e-6) < 1e-9

    def test_round_trip(self):
        for p in (-21.3, -15.0, 0.0, 10.0):
            assert dbm_from_watts(watts_from_dbm(p)) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("p_dbm", [math.nan, math.inf, -math.inf, 1e308, -1e4])
    def test_watts_must_be_finite_and_positive(self, p_dbm):
        # 1e308 dBm overflows a double in watts, -1e4 dBm underflows to 0 W
        with pytest.raises(ValueError):
            watts_from_dbm(p_dbm)

    def test_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dbm_from_watts(0.0)


class TestParams:
    def test_defaults_match_operating_point(self):
        p = ChannelParams()
        assert p.link_length_km == 5000.0
        assert p.gamma == 1.27
        assert p.segments == 50
        assert p.noise_power_w == pytest.approx(watts_from_dbm(-21.3), rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_length_km": 0.0},
            {"link_length_km": -1.0},
            {"gamma": -0.1},
            {"noise_power_w": -1e-9},
            {"segments": 0},
            {"link_length_km": math.nan},
            {"gamma": math.nan},
            {"noise_power_w": math.nan},
            {"link_length_km": math.inf},
            {"gamma": math.inf},
            {"noise_power_w": math.inf},
            {"segments": 5.0},
            {"segments": True},
            {"segments": "5"},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestNoiselessPropagation:
    @pytest.mark.parametrize("segments", [1, 7, 50])
    def test_magnitude_preserved_and_phase_law(self, segments):
        params = ChannelParams(noise_power_w=0.0, segments=segments)
        x = math.sqrt(1e-3) * np.exp(1j * 0.3)
        (y,) = propagate(np.array([x]), params, make_rng(0))
        assert abs(abs(y) - abs(x)) <= 1e-12 * abs(x)
        expected = params.link_length_km * params.gamma * abs(x) ** 2
        got = (np.angle(y) - np.angle(x)) % TWO_PI
        assert abs(got - expected % TWO_PI) <= 1e-9

    def test_unit_milliwatt_phase(self):
        # |x|^2 = 1e-3 W over the default link: 5000 * 1.27 * 1e-3 = 6.35 rad,
        # i.e. 0.06681469282041341 rad mod 2*pi, for any segment count.
        for segments in (1, 13, 50):
            params = ChannelParams(noise_power_w=0.0, segments=segments)
            (y,) = propagate(np.array([math.sqrt(1e-3) + 0j]), params, make_rng(0))
            assert np.angle(y) % TWO_PI == pytest.approx(0.06681469282041341, abs=1e-9)

    def test_zero_input(self):
        params = ChannelParams(noise_power_w=0.0)
        assert np.array_equal(propagate(np.array([0j]), params, make_rng(0)), [0j])


class TestRandomness:
    def test_draw_noise_matches_per_segment_draws(self):
        params = ChannelParams(segments=7)
        rng = make_rng(3)
        scale = np.sqrt(params.noise_power_w / (2.0 * params.segments))
        reference = np.empty((7, 4, 2), dtype=complex)
        for k in range(7):
            re = rng.standard_normal((4, 2))
            im = rng.standard_normal((4, 2))
            reference[k] = scale * (re + 1j * im)
        assert np.array_equal(draw_noise(params, (4, 2), make_rng(3)), reference)

    @pytest.mark.parametrize("shape", [(1,), (3,), (1024,), (100_000,)])
    def test_noise_is_the_complex_formula(self, shape):
        # the parts are written into the real and imaginary views of one
        # array; the bits are those of forming scale * (re + 1j*im)
        params = ChannelParams(segments=2)
        z = make_rng(4).standard_normal((2, 2) + shape)
        scale = np.sqrt(params.noise_power_w / (2.0 * params.segments))
        reference = scale * (z[:, 0] + 1j * z[:, 1])
        assert draw_noise(params, shape, make_rng(4)).tobytes() == reference.tobytes()

    def test_make_rng_tree(self):
        seq = np.random.SeedSequence
        assert make_rng(5).random() == np.random.Generator(np.random.Philox(5)).random()
        assert make_rng((5, 2)).random() == np.random.Generator(
            np.random.Philox(seq((5, 2)))).random()

    def test_simulate_is_one_stream_of_propagate(self):
        # each STREAM-sample slice b of the outputs is propagate of its
        # points on its own stream (seed, 1, b + 1)
        points = np.array([0.02, 0.03j, -0.01 - 0.02j])
        params, seed = ChannelParams(segments=3), 9
        for n in (1, 8193, 20_005):
            msgs, y = simulate(points, params, n, seed)
            assert np.array_equal(msgs, np.arange(n) % 3)
            for b, lo in enumerate(range(0, n, STREAM)):
                part = slice(lo, lo + STREAM)
                expected = propagate(points[msgs[part]], params, make_rng((seed, 1, b + 1)))
                assert y[part].tobytes() == expected.tobytes()

    def test_simulate_noise_is_not_the_root_stream(self):
        # (seed, 0) would mix to the root stream that training and
        # build_model read, and (seed, 1, 0) to (seed, 1); simulate's tags
        # keep its noise apart from both
        points = np.array([0.02, -0.02])
        params, seed = ChannelParams(segments=3), 9
        msgs, y = simulate(points, params, 64, seed)
        assert make_rng((seed, 0)).random() == make_rng(seed).random()
        assert make_rng((seed, 1, 0)).random() == make_rng((seed, 1)).random()
        for entropy in (seed, (seed, 1)):
            assert not np.allclose(y, propagate(points[msgs], params, make_rng(entropy)))

    @pytest.mark.parametrize("n", [0, -1])
    def test_simulate_rejects_no_samples(self, n):
        with pytest.raises(ValueError, match="at least one sample"):
            simulate(np.array([1.0, -1.0]), ChannelParams(), n, 0)


class TestNoiseStatistics:
    def test_awgn_reduction_mean_and_variance(self):
        # gamma = 0: y = x + sum of K independent CN(0, P_N/K) terms.
        params = ChannelParams(gamma=0.0, segments=50)
        x = 0.02 + 0.01j
        n = 1_000_000
        y = propagate(np.full(n, x), params, make_rng(7))
        d = y - x
        pn = params.noise_power_w
        # mean within 3 standard errors (per component, se = sqrt(PN/2/n))
        se = math.sqrt(pn / 2 / n)
        assert abs(d.real.mean()) < 3 * se
        assert abs(d.imag.mean()) < 3 * se
        var = np.mean(np.abs(d) ** 2)
        assert abs(var - pn) < 0.02 * pn

    def test_determinism_same_seed(self):
        params = ChannelParams()
        x = np.full(100, 0.01 + 0.02j)
        y1 = propagate(x, params, make_rng(123))
        y2 = propagate(x, params, make_rng(123))
        assert np.array_equal(y1, y2)


class TestTape:
    def test_zero_noise_matches_noiseless(self):
        params = ChannelParams(segments=20)
        x = math.sqrt(1e-3) + 0j
        noise = np.zeros((20, 1), dtype=complex)
        y, _ = propagate_tape(np.array([x]), noise, params)
        expected_phase = params.link_length_km * params.gamma * abs(x) ** 2
        assert abs(y[0]) == pytest.approx(abs(x), rel=1e-12)
        assert np.angle(y[0]) % TWO_PI == pytest.approx(expected_phase % TWO_PI, abs=1e-9)

    def test_single_segment_closed_form(self):
        params = ChannelParams(segments=1)
        x = 0.01 - 0.03j
        n = 0.001 + 0.002j
        y, _ = propagate_tape(np.array([x]), np.array([[n]]), params)
        lg = params.link_length_km * params.gamma
        expected = x * np.exp(1j * lg * abs(x) ** 2) + n
        assert y[0] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("shape", [(1,), (2,), (3, 5)], ids=["1", "2", "3x5"])
    def test_propagate_matches_tape_on_drawn_noise(self, shape):
        # propagate draws the noise segment by segment; draw_noise draws it
        # in one call from the same stream layout.  A one-element complex
        # product written into one of its operands rounds differently, so
        # the one-sample batch checks that no product is
        params = ChannelParams(segments=30)
        x = 0.03 * np.exp(1j * np.arange(math.prod(shape), dtype=float).reshape(shape))
        for seed in range(20):
            y = propagate(x, params, make_rng(seed))
            y_tape, _ = propagate_tape(x, draw_noise(params, x.shape, make_rng(seed)), params)
            assert y.tobytes() == y_tape.tobytes()

    def test_sample_bits_independent_of_batch_size(self):
        # numpy evaluates y * <temporary> as <temporary> * y from 256 KiB on,
        # and a complex product is not bitwise commutative; the first samples
        # of a 20,000-sample batch must still match a batch of 1, 2 or 10
        params = ChannelParams()
        rng = make_rng(31)
        n = 20_000
        x = 0.04 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        noise = draw_noise(params, x.shape, rng)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y_big, tape_big = propagate_tape(x, noise, params)
        g_big = backprop_channel(tape_big, g)
        for small in (1, 2, 10):
            y_small, tape_small = propagate_tape(x[:small], noise[:, :small], params)
            assert y_big[:small].tobytes() == y_small.tobytes()
            g_small = backprop_channel(tape_small, g[:small])
            assert g_big[:small].tobytes() == g_small.tobytes()

    def test_tape_memory_does_not_grow_with_segments(self):
        # the tape is two sample-sized arrays, not one array per segment:
        # 1024 samples through 50 segments and back stay far below the
        # 1.6 MB a (2K + 1, n) record of states and rotations would take
        params = ChannelParams()
        rng = make_rng(8)
        x = 0.04 * (rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        noise = draw_noise(params, x.shape, rng)
        g = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        tracemalloc.start()
        try:
            backprop_channel(propagate_tape(x, noise, params)[1], g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_segment_count_mismatch(self):
        params = ChannelParams(segments=5)
        with pytest.raises(ValueError):
            propagate_tape(np.array([0.01 + 0j]), np.zeros((4, 1), dtype=complex), params)


def _reverse_mode(x, noise, params, g):
    """(output, input gradient) by reverse mode: record each segment's input
    s and rotation rot, then from the last segment to the first
    g <- g*conj(rot) + 2c Im(g*conj(w))*s, w = s*rot."""
    c = params.phase_rate
    states, rotations = [x], []
    for n in noise:
        s = states[-1]
        rotations.append(np.exp(1j * c * (s.real**2 + s.imag**2)))
        states.append(s * rotations[-1] + n)
    for s, rot in zip(states[-2::-1], rotations[::-1]):
        w = s * rot
        g = g * np.conj(rot) + 2.0 * c * (g * np.conj(w)).imag * s
    return states[-1], g


class TestBackprop:
    def test_linear_channel_gradient_is_identity(self):
        params = ChannelParams(gamma=0.0, segments=10)
        rng = make_rng(3)
        x = 0.02 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        noise = draw_noise(params, x.shape, rng)
        _, tape = propagate_tape(x, noise, params)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.array_equal(backprop_channel(tape, g), g)

    @pytest.mark.parametrize("segments, n", [(1, 64), (5, 64), (50, 64), (50, 20_000)])
    def test_matches_reverse_mode_over_recorded_states(self, segments, n):
        # the forward-carried derivative against reverse mode over states
        # this test records; a sample whose gradient cancels can differ by
        # 1e-12 of itself, so the bound is on the batch's largest gradient
        params = ChannelParams(segments=segments)
        rng = make_rng(4)
        x = 0.04 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        noise = draw_noise(params, x.shape, rng)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y, tape = propagate_tape(x, noise, params)
        y_ref, g_ref = _reverse_mode(x, noise, params, g)
        assert params.gamma > 0
        assert np.array_equal(y, y_ref)
        assert np.max(np.abs(backprop_channel(tape, g) - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))

    def test_grad_output_broadcasts_over_batch(self):
        params = ChannelParams(segments=7)
        rng = make_rng(6)
        x = 0.04 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        _, tape = propagate_tape(x, draw_noise(params, x.shape, rng), params)
        g = 0.3 - 1.1j
        assert np.array_equal(backprop_channel(tape, g), backprop_channel(tape, np.full(5, g)))

    def test_single_segment_against_finite_differences(self):
        params = ChannelParams(segments=1, noise_power_w=0.0)
        x = np.array([0.005 + 0j])
        noise = np.zeros((1, 1), dtype=complex)

        def loss():
            return propagate_tape(x, noise, params)[0][0].real

        g = backprop_channel(propagate_tape(x, noise, params)[1], np.array([1.0 + 0j]))
        assert finite_difference_error([x.view(float)], [g.view(float)], loss) <= 1e-7

    @pytest.mark.parametrize("segments", [1, 5, 10, 50])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_tapes_against_finite_differences(self, segments, seed):
        assert channel_error((segments,), seed=seed) <= 1e-6
