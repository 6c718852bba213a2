"""Tests for QAM baselines, SER/AIR measurement, rasters, and sweeps."""

import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awgn_reference import awgn_qam_ser
import fiberae.channel
from fiberae.autoencoder import build_model, constellation_points, decode, detect
from fiberae.channel import (BLOCK, NET_BLOCK, ChannelParams, in_blocks, pool_map, simulate,
                             watts_from_dbm)
from fiberae.evaluation import (
    RasterSpec,
    air,
    decision_regions,
    detector_for,
    min_distance_detector,
    qam,
    ser,
    sweep,
)
from fiberae.likelihood import Constellation, build_oracle, ml_detect, mutual_information

AWGN = ChannelParams(gamma=0.0)
NLPN = ChannelParams()

# each Monte-Carlo estimate, as a function of its sample count
ESTIMATES = {
    "ser": lambda n: ser(qam(16, 1e-3), min_distance_detector(qam(16, 1e-3)), AWGN, n, seed=0),
    "air": lambda n: air(build_model(4, AWGN, 1e-3, seed=0), n, seed=1),
    "mutual_information": lambda n: mutual_information(build_oracle(qam(16, 1e-3), NLPN), n, 1),
}


@pytest.mark.parametrize("name", ESTIMATES)
def test_estimate_rejects_zero_samples(name):
    # with no samples every estimate would be the NaN mean of an empty array
    with pytest.raises(ValueError, match="at least one sample"):
        ESTIMATES[name](0)


class TestQam:
    def test_qpsk_points(self):
        const = qam(4, 1e-3)
        expected = math.sqrt(5e-4)
        assert np.allclose(np.abs(const.points.real), expected, rtol=1e-12)
        assert np.allclose(np.abs(const.points.imag), expected, rtol=1e-12)
        assert len(set(np.round(const.points, 15))) == 4

    def test_16qam_rings(self):
        const = qam(16, 1e-3)
        radii = np.sort(np.round(np.abs(const.points), 12))
        uniq, counts = np.unique(radii, return_counts=True)
        assert len(uniq) == 3
        assert counts.tolist() == [4, 8, 4]

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_mean_power_exact(self, m):
        p = watts_from_dbm(-3.0)
        const = qam(m, p)
        assert np.mean(np.abs(const.points) ** 2) == pytest.approx(p, rel=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            qam(8, 1e-3)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_gray_property(self, m):
        # messages of grid-adjacent points differ in exactly one bit
        const = qam(m, 1.0)
        pts = const.points
        side = int(round(math.sqrt(m)))
        spacing = 2.0 * math.sqrt(3.0 / (2.0 * (m - 1)))
        for a in range(m):
            for b in range(a + 1, m):
                d = pts[a] - pts[b]
                if abs(d) == pytest.approx(spacing, rel=1e-9):
                    assert bin(a ^ b).count("1") == 1


class TestSer:
    def test_noiseless_is_zero(self):
        const = qam(16, 1e-3)
        params = ChannelParams(gamma=0.0, noise_power_w=0.0)
        assert ser(const, min_distance_detector(const), params, 10_000, seed=0) == 0.0

    def test_constant_detector(self):
        const = qam(16, 1e-3)

        def always_one(y):
            return np.ones(len(np.asarray(y)), dtype=int)

        value = ser(const, always_one, AWGN, 16_000, seed=1)
        assert value == pytest.approx(15.0 / 16.0, abs=1e-12)

    @pytest.mark.parametrize("p_dbm", [-12.0, -10.0, 0.0])
    def test_matches_closed_form_awgn(self, p_dbm):
        p = watts_from_dbm(p_dbm)
        const = qam(16, p)
        n = 200_000
        est = ser(const, min_distance_detector(const), AWGN, n, seed=2)
        exact = awgn_qam_ser(16, p, AWGN.noise_power_w)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / n)
        assert abs(est - exact) <= 3 * se + 1e-12

    def test_two_seeds_agree(self):
        p = watts_from_dbm(-10.0)
        const = qam(16, p)
        n = 100_000
        a = ser(const, min_distance_detector(const), AWGN, n, seed=3)
        b = ser(const, min_distance_detector(const), AWGN, n, seed=4)
        se = math.sqrt(a * (1 - a) / n + b * (1 - b) / n)
        assert abs(a - b) <= 4 * se

    def test_model_on_other_channel_rejected(self, monkeypatch):
        # a model trained on NLPN must not be scored on AWGN, as in sweep
        def no_propagate(*args, **kwargs):
            pytest.fail("propagate ran on a conflicting source")

        monkeypatch.setattr("fiberae.channel.propagate", no_propagate)
        model = build_model(4, NLPN, 1e-3, seed=0)
        with pytest.raises(ValueError, match="trained on") as err:
            ser(model, detector_for("ae", model, AWGN), AWGN, 100, seed=0)
        assert str(NLPN) in str(err.value) and str(AWGN) in str(err.value)


class TestAir:
    def test_fresh_model_air_in_bounds(self):
        model = build_model(4, AWGN, 1e-3, seed=0)
        value = air(model, 2000, seed=5)
        assert 0.0 <= value <= 2.0 + 1e-9

    def test_never_exceeds_log2m(self):
        model = build_model(4, AWGN, 1e-3, seed=1)
        for seed in range(3):
            assert air(model, 1000, seed=seed) <= 2.0 + 1e-9

    def test_zero_true_posterior_gives_minus_inf(self):
        # message 0's sigmoid underflows to 0 everywhere: a quarter of the
        # samples have an infinite loss, so the bound is -inf
        model = build_model(4, AWGN, 1e-3, seed=0)
        model.rx.layers[-1].biases[0] = -1000.0
        assert air(model, 1000, seed=5) == -math.inf


class TestDecisionRegions:
    def test_qpsk_quadrants(self):
        const = qam(4, 1e-3)
        spec = RasterSpec(center=0j, half_width=3 * math.sqrt(1e-3), resolution=64)
        grid = decision_regions(min_distance_detector(const), spec)
        pts = const.points
        # probe one pixel deep inside each quadrant
        for target in range(4):
            probe = pts[target] * 1.5
            xs = np.linspace(-spec.half_width, spec.half_width, spec.resolution)
            j = np.argmin(np.abs(xs - probe.real))
            i = np.argmin(np.abs(xs - probe.imag))
            assert grid[i, j] == target

    def test_constant_detector_uniform_grid(self):
        spec = RasterSpec(center=0j, half_width=1.0, resolution=16)

        def det(y):
            return np.full(len(np.asarray(y)), 7, dtype=int)

        assert np.all(decision_regions(det, spec) == 7)

    def test_deterministic(self):
        const = qam(4, 1e-3)
        spec = RasterSpec(center=0j, half_width=0.05, resolution=32)
        a = decision_regions(min_distance_detector(const), spec)
        b = decision_regions(min_distance_detector(const), spec)
        assert np.array_equal(a, b)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RasterSpec(half_width=1.0, resolution=8)
        with pytest.raises(ValueError):
            RasterSpec(half_width=0.0, resolution=32)
        # an infinite or NaN window, or finite ones whose edges or width
        # overflow, gave an all-zero raster
        for window in (dict(half_width=math.inf), dict(half_width=math.nan),
                       dict(center=complex(math.nan, 0.0)), dict(center=complex(0.0, math.inf)),
                       dict(center=complex(0.0, 1e308), half_width=1e308),
                       dict(half_width=1.5e308)):
            with pytest.raises(ValueError):
                RasterSpec(**window)


def test_ae_detector_needs_a_trained_model():
    # a constellation has no decoder: refused when the detector is made,
    # not with an AttributeError when it is first called
    with pytest.raises(ValueError, match="trained model"):
        detector_for("ae", qam(16, 1e-3), NLPN)


def qpsk_sources(powers):
    return [(p, qam(4, watts_from_dbm(p))) for p in powers]


class TestSweep:
    def test_empty_power_list(self):
        assert sweep([], "ser", AWGN, 100, seed=0) == []

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-16.0, -8.0), st.floats(-16.0, -8.0))
    def test_ser_sweep_rows(self, seed, p_a, p_b):
        # one seed gives every power the same noise, and on AWGN the output
        # is the input plus that noise, so a minimum-distance QPSK decision
        # right at one power is right at every higher one: sample by sample,
        # less power means no fewer errors
        powers = sorted([p_a, p_b])
        values = sweep(qpsk_sources(powers), "ser", AWGN, 10_000, seed=seed, detector="mindist")
        assert len(values) == len(powers)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[0] >= values[1]

    @pytest.mark.parametrize("metric", ["ser", "air", "mi"])
    def test_row_is_the_direct_call_at_any_position(self, metric):
        # every point runs at the sweep's own seed, whatever its index
        n, seed = 3000, 7
        powers = [-6.0, -3.0, 0.0]
        if metric == "air":
            sources = [(p, build_model(4, AWGN, watts_from_dbm(p), seed=0)) for p in powers]
        else:
            sources = qpsk_sources(powers)
        direct = {
            "ser": lambda s: ser(s, min_distance_detector(s), AWGN, n, seed),
            "air": lambda s: air(s, n, seed),
            "mi": lambda s: mutual_information(build_oracle(s, AWGN), n, seed),
        }[metric]
        expected = [direct(s) for _, s in sources]
        assert sweep(sources, metric, AWGN, n, seed) == expected
        assert sweep(sources[::-1], metric, AWGN, n, seed, threads=2) == expected[::-1]
        assert sweep(sources[1:2], metric, AWGN, n, seed) == expected[1:2]

    def test_threads_do_not_change_values(self):
        sources = qpsk_sources([-10.0, -8.0, -6.0])
        a = sweep(sources, "ser", AWGN, 20_000, seed=4, detector="mindist", threads=1)
        b = sweep(sources, "ser", AWGN, 20_000, seed=4, detector="mindist", threads=3)
        assert a == b

    @pytest.mark.parametrize("metric, estimate", [("ser", "ser"), ("air", "air"),
                                                  ("mi", "mutual_information")])
    def test_every_point_gets_every_thread(self, metric, estimate, monkeypatch):
        # the points run in turn, each on all the threads, so the pools
        # inside each estimate are the only parallel layer
        seen = []

        def record(*args):
            seen.append(args[-1])  # each estimate takes its threads last
            return 0.0

        monkeypatch.setattr(f"fiberae.evaluation.{estimate}", record)
        powers = [-6.0, -3.0]
        if metric == "air":
            sources = [(p, build_model(4, AWGN, watts_from_dbm(p), seed=0)) for p in powers]
        else:
            sources = qpsk_sources(powers)
        sweep(sources[:1], metric, AWGN, 100, seed=0, threads=3)
        sweep(sources, metric, AWGN, 100, seed=0, threads=3)
        assert seen == [3, 3, 3]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            sweep([(0.0, qam(4, 1e-3))], "ber", AWGN, 100, seed=0)

    @pytest.mark.parametrize("metric", ["air", "ser"])
    def test_constellation_for_ae_decoder_rejected(self, metric, monkeypatch):
        # air and the ae detector read a trained decoder; a constellation
        # has none, and is refused before any simulation
        def no_propagate(*args, **kwargs):
            pytest.fail("propagate ran on a source without a decoder")

        monkeypatch.setattr("fiberae.channel.propagate", no_propagate)
        model = build_model(4, AWGN, 1e-3, seed=0)
        sources = [(-3.0, model), (0.0, qam(4, 1e-3))]
        with pytest.raises(ValueError, match=r"trained model at \[0.0\] dBm"):
            sweep(sources, metric, AWGN, 100, seed=0, detector="ae", threads=2)

    @pytest.mark.parametrize("metric", ["air", "ser", "mi"])
    def test_model_on_other_channel_rejected(self, metric, monkeypatch):
        # a model trained on NLPN must not be run on AWGN by one metric and
        # on its own channel by another
        def no_propagate(*args, **kwargs):
            pytest.fail("propagate ran on a conflicting source")

        monkeypatch.setattr("fiberae.channel.propagate", no_propagate)
        model = build_model(4, NLPN, 1e-3, seed=0)
        with pytest.raises(ValueError, match="trained on"):
            sweep([(0.0, model)], metric, AWGN, 100, seed=0, detector="ae")


@pytest.fixture(scope="module")
def m16():
    """An untrained M = 16 model and the 16-QAM oracle, both at 0 dBm on NLPN."""
    p = watts_from_dbm(0.0)
    return build_model(16, NLPN, p, seed=3), build_oracle(qam(16, p), NLPN)


def raster_spec(resolution: int) -> RasterSpec:
    return RasterSpec(half_width=3 * math.sqrt(watts_from_dbm(0.0)), resolution=resolution)


class TestBlocks:
    """Evaluation runs in `channel.in_blocks` slices: no value may depend on
    where the block edges fall, and working memory must not grow with n."""

    ESTIMATES = {
        # the posteriors whose losses air scores; a one-row block would
        # change their last bits (numpy's one-row matmul is BLAS gemv),
        # though not air's value
        "decode": lambda model, oracle, n: in_blocks(
            partial(decode, model), simulate(constellation_points(model), NLPN, n, 5)[1],
            block=fiberae.channel.NET_BLOCK),
        "ser_ae": lambda model, oracle, n: ser(model, partial(detect, model), NLPN, n, 5),
        "ser_ml": lambda model, oracle, n: ser(oracle.constellation, partial(ml_detect, oracle),
                                               NLPN, n, 5),
        "ser_mindist": lambda model, oracle, n: ser(oracle.constellation,
                                                    min_distance_detector(oracle.constellation),
                                                    NLPN, n, 5),
        "air": lambda model, oracle, n: air(model, n, 5),
        "mutual_information": lambda model, oracle, n: mutual_information(oracle, n, 5),
    }
    DETECTORS = {
        "ae": lambda model, oracle: partial(detect, model),
        "ml": lambda model, oracle: partial(ml_detect, oracle),
        "mindist": lambda model, oracle: min_distance_detector(oracle.constellation),
    }

    @pytest.mark.parametrize("n", [1, 7, 8, 1000, 1001, 2 * 1000 + 17])
    @pytest.mark.parametrize("name", ESTIMATES)
    def test_block_boundaries_are_invisible(self, name, n, m16, monkeypatch):
        values = []
        for block in (7, 1000, n):
            monkeypatch.setattr(fiberae.channel, "BLOCK", block)
            monkeypatch.setattr(fiberae.channel, "NET_BLOCK", block)
            values.append(self.ESTIMATES[name](*m16, n))
        bits = [np.asarray(v).tobytes() for v in values]
        assert bits == [bits[-1]] * 3

    @pytest.mark.parametrize("kind", DETECTORS)
    def test_raster_block_boundaries_are_invisible(self, kind, m16, monkeypatch):
        spec = raster_spec(32)
        rasters = []
        for block in (7, 1000, spec.resolution**2):
            monkeypatch.setattr(fiberae.channel, "BLOCK", block)
            monkeypatch.setattr(fiberae.channel, "NET_BLOCK", block)
            rasters.append(decision_regions(self.DETECTORS[kind](*m16), spec))
        assert all(np.array_equal(r, rasters[-1]) for r in rasters)

    @staticmethod
    def peak_mib(fn) -> float:
        """Peak traced memory of fn() above what was allocated before it, in MiB."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - before) / 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", ["ae", "ml"])
    def test_raster_memory_is_bounded(self, kind, m16):
        # 160k pixels; detecting all at once peaked at 193 (ae) and 43 (ml) MiB
        detector = self.DETECTORS[kind](*m16)
        assert self.peak_mib(lambda: decision_regions(detector, raster_spec(400))) <= 16

    def test_mutual_information_memory_is_bounded(self, m16):
        # with the log-densities of all 100k outputs at once it peaked at 26 MiB
        assert self.peak_mib(lambda: mutual_information(m16[1], 100_000, 5)) <= 16

    def test_air_memory_is_bounded(self, m16):
        # keeping the (n, M) posteriors peaked at 27 MiB, one decode of all
        # 100k outputs at 122 MiB
        assert self.peak_mib(lambda: air(m16[0], 100_000, 5)) <= 16

    @pytest.mark.parametrize("threads", [1, 2])
    def test_simulate_memory_is_bounded(self, threads):
        # one noise stream for all 100k outputs peaked at 9.9 (1 thread) and
        # 11.5 MiB (2 threads)
        points = qam(16, watts_from_dbm(0.0)).points
        assert self.peak_mib(lambda: simulate(points, NLPN, 100_000, 5, threads)) <= 6


class TestThreads:
    """`threads` runs the channel's noise streams, blocks and rings on a
    pool: no value may depend on the thread count, and no thread may outlive
    the call that started it."""

    @staticmethod
    def outputs(oracle, n, threads=1):
        return simulate(oracle.constellation.points, NLPN, n, 5, threads=threads)[1]

    ESTIMATES = {
        "outputs": lambda model, oracle, n, t: TestThreads.outputs(oracle, n, t),
        "detect_ae": lambda model, oracle, n, t: detector_for("ae", model, NLPN, t)(
            TestThreads.outputs(oracle, n)),
        "detect_ml": lambda model, oracle, n, t: ml_detect(
            oracle, TestThreads.outputs(oracle, n), threads=t),
        "detect_mindist": lambda model, oracle, n, t: detector_for(
            "mindist", oracle.constellation, NLPN, t)(TestThreads.outputs(oracle, n)),
        "ser_ae": lambda model, oracle, n, t: ser(model, detector_for("ae", model, NLPN, t),
                                                  NLPN, n, 5, t),
        "ser_ml": lambda model, oracle, n, t: ser(oracle.constellation,
                                                  partial(ml_detect, oracle, threads=t),
                                                  NLPN, n, 5, t),
        "ser_mindist": lambda model, oracle, n, t: ser(
            oracle.constellation, detector_for("mindist", oracle.constellation, NLPN, t),
            NLPN, n, 5, t),
        "air": lambda model, oracle, n, t: air(model, n, 5, t),
        "mutual_information": lambda model, oracle, n, t: mutual_information(oracle, n, 5, t),
    }

    # k * block + 1 samples end in a one-row tail, which BLAS would evaluate
    # as gemv, not gemm, if it were a block of its own
    @pytest.mark.parametrize("n", [1, 2, NET_BLOCK + 1, 3 * NET_BLOCK + 1, BLOCK + 1, 3 * BLOCK + 1])
    @pytest.mark.parametrize("name", ESTIMATES)
    def test_threads_leave_every_value_unchanged(self, name, n, m16):
        bits = [np.asarray(self.ESTIMATES[name](*m16, n, t)).tobytes() for t in (1, 2, 3)]
        assert bits == [bits[0]] * 3

    @pytest.mark.parametrize("kind", ["ae", "ml", "mindist"])
    def test_raster_does_not_depend_on_threads(self, kind, m16):
        # 130^2 = 16 900 pixels: three BLOCK and seventeen NET_BLOCK slices
        model, oracle = m16
        source = model if kind == "ae" else oracle.constellation
        rasters = [decision_regions(detector_for(kind, source, NLPN, t), raster_spec(130))
                   for t in (1, 2, 3)]
        assert all(np.array_equal(r, rasters[0]) for r in rasters)

    def test_oracle_grids_do_not_depend_on_threads(self, m16):
        # 16-QAM has three rings, built on the pool at 2 and 3 threads
        const = m16[1].constellation
        oracles = [build_oracle(const, NLPN, t) for t in (1, 2, 3)]
        fields = [[[np.asarray(v).tobytes() for v in vars(d).values()] for d in o.densities]
                  for o in oracles]
        assert fields == [fields[0]] * 3
        assert all(np.array_equal(o.ring_of, oracles[0].ring_of) for o in oracles)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_pool_map_has_run_every_call_when_it_returns(self, threads):
        calls = []

        def record(i):
            calls.append(i)
            return -i

        result = pool_map(record, range(5), threads)
        assert sorted(calls) == [0, 1, 2, 3, 4]
        assert result == [0, -1, -2, -3, -4]

    def test_no_thread_outlives_an_evaluation(self, m16):
        model, oracle = m16
        before = threading.active_count()
        mutual_information(oracle, 3 * BLOCK + 1, 5, threads=3)
        ser(model, detector_for("ae", model, NLPN, 3), NLPN, 3 * BLOCK + 1, 5, threads=3)
        decision_regions(detector_for("ml", oracle.constellation, NLPN, 3), raster_spec(130))
        assert threading.active_count() == before

    def test_only_the_calling_thread_builds_pools(self, monkeypatch):
        # one parallel layer: no pool task starts a pool of its own
        builders = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                builders.append(threading.get_ident())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fiberae.channel, "ThreadPoolExecutor", RecordingPool)
        powers = [-3.0, 0.0]
        qams = [(p, qam(16, watts_from_dbm(p))) for p in powers]
        models = [(p, build_model(16, NLPN, watts_from_dbm(p), seed=3)) for p in powers]
        n = 2 * BLOCK  # two noise streams and two slices at each point
        runs = {
            "ser": lambda: sweep(qams, "ser", NLPN, n, seed=0, detector="ml", threads=3),
            "mi": lambda: sweep(qams, "mi", NLPN, n, seed=0, threads=3),
            "air": lambda: sweep(models, "air", NLPN, n, seed=0, threads=3),
            "regions": lambda: decision_regions(detector_for("ml", qams[0][1], NLPN, 3),
                                                raster_spec(130)),
        }
        for name, run in runs.items():
            before = len(builders)
            run()
            assert len(builders) > before, f"{name} built no pool"
        assert set(builders) == {threading.get_ident()}

    def test_no_thread_outlives_a_raising_block(self):
        def fail_on_second_block(y):
            if y[0] == BLOCK:
                raise ValueError("block 2 failed")
            return y

        before = threading.active_count()
        with pytest.raises(ValueError, match="block 2 failed"):
            in_blocks(fail_on_second_block, np.arange(3 * BLOCK + 1), threads=3)
        assert threading.active_count() == before

    def test_underflow_error_keeps_its_message(self):
        # every sigmoid output underflows: the first dense-net block's count
        # is reported, whatever the thread count
        model = build_model(4, AWGN, 1e-3, seed=2)
        model.rx.layers[-1].biases[:] = -1000.0
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^{NET_BLOCK} of {NET_BLOCK} receiver output rows in one "
                                             "decoded batch underflow to 0$"):
            sweep([(0.0, model)], "ser", AWGN, 3 * BLOCK + 1, seed=0, detector="ae", threads=3)
        assert threading.active_count() == before
