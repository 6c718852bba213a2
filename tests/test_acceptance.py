"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy fixtures (two
trained M=16 models, trained side by side in two worker processes, and the
16-QAM detector sweep) are shared across criteria.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from awgn_reference import awgn_mutual_information_bits, awgn_qam_ser
from fiberae.autoencoder import TrainConfig, build_model, constellation_points, detect, train
from fiberae.channel import ChannelParams, make_rng, propagate, watts_from_dbm
from fiberae.cli import main as cli_main
from fiberae.evaluation import (
    RasterSpec,
    air,
    decision_regions,
    min_distance_detector,
    qam,
    ser,
    sweep,
)
from fiberae.gradcheck import channel_error, dense_network_error, end_to_end_error
from fiberae.likelihood import Constellation, build_oracle, ml_detect, mutual_information

NLPN = ChannelParams()  # 5000 km, gamma 1.27, -21.3 dBm noise, 50 segments
AWGN = ChannelParams(gamma=0.0)

TRAIN_BATCHES = 16_000
TRAIN_SEED = 42
INIT_SEED = 0
THREADS = 2


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def train_model(power_dbm: float):
    model = build_model(16, NLPN, watts_from_dbm(power_dbm), seed=INIT_SEED)
    train(
        model,
        TrainConfig(
            batch_size=1024,
            batches=TRAIN_BATCHES,
            learning_rate=1e-3,
            seed=TRAIN_SEED,
            power_dbm=power_dbm,
        ),
    )
    return model


@pytest.fixture(scope="module")
def trained_models():
    """The 5 and 0 dBm models, trained at the same time in two processes.

    Training is deterministic and draws from its own seeded streams, so
    each model is the one serial training in this process gives.
    """
    powers = (5.0, 0.0)
    with ProcessPoolExecutor(max_workers=len(powers)) as pool:
        return dict(zip(powers, pool.map(train_model, powers)))


@pytest.fixture(scope="module")
def model_5dbm(trained_models):
    return trained_models[5.0]


@pytest.fixture(scope="module")
def model_0dbm(trained_models):
    return trained_models[0.0]


@pytest.fixture(scope="module")
def oracle_0dbm(model_0dbm):
    const = Constellation(points=constellation_points(model_0dbm))
    return build_oracle(const, NLPN)


@pytest.fixture(scope="module")
def qam_ml_sweep():
    """16-QAM + exact-likelihood ML detector SER by power, -15..10 dBm step 1."""
    sources = [(float(p), qam(16, watts_from_dbm(p))) for p in range(-15, 11)]
    values = sweep(
        sources,
        "ser",
        NLPN,
        n_samples=100_000,
        seed=31,
        detector="ml",
        threads=THREADS,
    )
    return {p: v for (p, _), v in zip(sources, values)}


def test_criterion_1_gradient_suite():
    t0 = time.time()
    errors = {
        "dense": dense_network_error(seed=0),
        "channel_k_1_5_50": channel_error((1, 5, 50), seed=0),
        "end_to_end_m4_k5_n8": end_to_end_error(m=4, segments=5, batch=8, seed=0),
    }
    elapsed = time.time() - t0
    worst = max(errors.values())
    report(
        1,
        "gradient suite",
        worst <= 1e-5 and elapsed < 60.0,
        f"max rel errors {', '.join(f'{k}={v:.2e}' for k, v in errors.items())}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_2_physics_sanity():
    t0 = time.time()
    ok = True
    details = []
    x = math.sqrt(2e-3) * np.exp(1j * 0.7)
    for segments in (1, 5, 50):
        p = ChannelParams(noise_power_w=0.0, segments=segments)
        (y,) = propagate(np.array([x]), p, make_rng(0))
        mag_err = abs(abs(y) - abs(x)) / abs(x)
        phase = (np.angle(y) - np.angle(x)) % (2 * math.pi)
        expected = (p.link_length_km * p.gamma * abs(x) ** 2) % (2 * math.pi)
        phase_err = abs(phase - expected)
        ok = ok and mag_err <= 1e-12 and phase_err <= 1e-9
    details.append(f"noiseless mag/phase ok over K in {{1,5,50}}")
    n = 1_000_000
    y = propagate(np.full(n, 0.01 + 0.02j), AWGN, make_rng(1))
    var = float(np.mean(np.abs(y - (0.01 + 0.02j)) ** 2))
    rel = abs(var - AWGN.noise_power_w) / AWGN.noise_power_w
    ok = ok and rel < 0.02
    details.append(f"gamma=0 variance off by {100 * rel:.2f}%")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(2, "physics sanity", ok, "; ".join(details) + f", runtime {elapsed:.1f}s")


def test_criterion_3_awgn_cross_validation():
    t0 = time.time()
    details = []

    # (a) closed-form SER at two powers with nontrivial error rates
    ok_a = True
    n = 200_000
    for p_dbm in (-12.0, -10.0):
        p = watts_from_dbm(p_dbm)
        const = qam(16, p)
        est = ser(const, min_distance_detector(const), AWGN, n, seed=11)
        exact = awgn_qam_ser(16, p, AWGN.noise_power_w)
        se = math.sqrt(exact * (1 - exact) / n)
        ok_a = ok_a and abs(est - exact) <= 3 * se
        details.append(f"SER@{p_dbm}: |{est:.4f}-{exact:.4f}|<={3 * se:.4f}")

    # (b) exact ML vs min-distance agreement
    p = watts_from_dbm(0.0)
    const = qam(16, p)
    oracle = build_oracle(const, AWGN)
    msgs = np.arange(100_000) % 16
    y = propagate(const.points[msgs], AWGN, make_rng(13))
    agree = float(np.mean(
        ml_detect(oracle, y) == min_distance_detector(const)(y)
    ))
    ok_b = agree >= 0.99
    details.append(f"ml-vs-mindist agreement {100 * agree:.3f}%")

    # (c) oracle MI vs 2D quadrature at -15 dBm
    p = watts_from_dbm(-15.0)
    const = qam(16, p)
    oracle = build_oracle(const, AWGN)
    mi = mutual_information(oracle, 100_000, seed=15)
    exact = awgn_mutual_information_bits(const.points, AWGN.noise_power_w)
    ok_c = abs(mi - exact) <= 0.1
    details.append(f"MI {mi:.3f} vs quadrature {exact:.3f}")

    elapsed = time.time() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    report(3, "AWGN cross-validation", ok, "; ".join(details) + f", runtime {elapsed:.0f}s")


def test_criterion_4_qam_ser_minimum(qam_ml_sweep):
    values = qam_ml_sweep
    best_power = min(values, key=values.get)
    ser_min = values[best_power]
    ser_top = values[10.0]
    interior = -4.0 <= best_power <= 0.0
    ratio_ok = ser_top >= 10.0 * ser_min
    report(
        4,
        "16-QAM ML optimum power",
        interior and ratio_ok,
        f"minimum SER {ser_min:.4g} at {best_power:+.0f} dBm, SER(10 dBm) {ser_top:.4g}",
    )


def test_criterion_5_ae_beats_qam(model_5dbm, qam_ml_sweep):
    qam_ser_5 = qam_ml_sweep[5.0]
    ae_ser = ser(model_5dbm, partial(detect, model_5dbm), NLPN, 200_000, seed=21)
    report(
        5,
        "AE beats 16-QAM under NLPN at 5 dBm",
        ae_ser <= 0.5 * qam_ser_5,
        f"AE SER {ae_ser:.4g} vs 16-QAM ML SER {qam_ser_5:.4g}",
    )


def test_criterion_6_air_flattens(model_5dbm, model_0dbm):
    air_5 = air(model_5dbm, 100_000, seed=22)
    air_0 = air(model_0dbm, 100_000, seed=23)

    mi_qam = {}
    for p_dbm, seed in ((-2.0, 24), (5.0, 25)):
        const = qam(16, watts_from_dbm(p_dbm))
        oracle = build_oracle(const, NLPN)
        mi_qam[p_dbm] = mutual_information(oracle, 100_000, seed=seed + 100)

    ok = (
        air_5 >= 3.5
        and air_5 >= air_0 - 0.1  # non-decreasing trend across the trained powers
        and mi_qam[5.0] < mi_qam[-2.0]
    )
    report(
        6,
        "AE AIR flattens near log2 M while QAM MI falls",
        ok,
        f"AE AIR {air_0:.3f}@0dBm -> {air_5:.3f}@5dBm; "
        f"16-QAM MI {mi_qam[-2.0]:.3f}@-2dBm -> {mi_qam[5.0]:.3f}@5dBm",
    )


def test_criterion_7_bound_ordering(model_5dbm, model_0dbm):
    ok = True
    details = []
    for label, model, seeds in (("5dBm", model_5dbm, (26, 27)), ("0dBm", model_0dbm, (28, 29))):
        value = air(model, 100_000, seed=seeds[0])
        const = Constellation(points=constellation_points(model))
        oracle = build_oracle(const, NLPN)
        mi = mutual_information(oracle, 100_000, seed=seeds[1] + 100)
        ok = ok and 0.0 <= value <= 4.0 + 1e-9 and value <= mi + 0.1
        details.append(f"{label}: AIR {value:.3f} <= MI {mi:.3f} + 0.1")
    report(7, "bound ordering", ok, "; ".join(details))


def output_radius(const: Constellation, params: ChannelParams, n_samples: int = 100_000,
                  seed: int = 0, quantile: float = 0.99) -> float:
    """Radius containing the given fraction of channel output magnitude."""
    msgs = np.arange(n_samples) % const.m
    y = propagate(const.points[msgs], params, make_rng(seed))
    return float(np.quantile(np.abs(y), quantile))


class TestOutputRadius:
    def test_noiseless_radius_is_max_point(self):
        const = qam(16, 1e-3)
        params = ChannelParams(gamma=0.0, noise_power_w=0.0)
        r = output_radius(const, params, n_samples=16_000, seed=0)
        assert r == pytest.approx(float(np.abs(const.points).max()), rel=1e-9)

    def test_radius_grows_with_noise(self):
        const = qam(16, 1e-3)
        r0 = output_radius(const, ChannelParams(gamma=0.0, noise_power_w=0.0), 16_000, seed=0)
        r1 = output_radius(const, AWGN, 16_000, seed=0)
        assert r1 > r0


def reached_pixels(points, spec: RasterSpec, per_symbol: int, seed: int) -> np.ndarray:
    """(res, res) mask of the raster pixels that at least one output falls in.

    Sends `per_symbol` samples of every point through the NLPN channel
    (balanced messages) and marks the pixel nearest each output.
    """
    rng = make_rng(seed)
    res = spec.resolution
    step = 2.0 * spec.half_width / (res - 1)
    hit = np.zeros((res, res), dtype=bool)
    for point in points:
        y = propagate(np.full(per_symbol, point), NLPN, rng) - spec.center
        col = np.rint((y.real + spec.half_width) / step).astype(int)
        row = np.rint((y.imag + spec.half_width) / step).astype(int)
        ok = (col >= 0) & (col < res) & (row >= 0) & (row < res)
        hit[row[ok], col[ok]] = True
    return hit


def test_criterion_8_decision_regions(model_0dbm, oracle_0dbm):
    const = oracle_0dbm.constellation
    spec = RasterSpec(
        center=0j,
        half_width=3.0 * math.sqrt(model_0dbm.input_power_w),
        resolution=201,
    )
    ae_grid = decision_regions(partial(detect, model_0dbm), spec)
    ml_grid = decision_regions(partial(ml_detect, oracle_0dbm), spec)
    radius = output_radius(const, NLPN, n_samples=100_000, seed=33, quantile=0.99)
    mesh = spec.mesh()
    disc = np.abs(mesh) <= radius
    # Only pixels that channel outputs reach are compared: elsewhere neither
    # decoder is trained or estimated from data, and even two sound ML
    # oracles disagree there.
    mask = disc & reached_pixels(const.points, spec, per_symbol=100_000, seed=36)
    same = ae_grid == ml_grid
    agreement = float(np.mean(same[mask]))
    report(
        8,
        "AE regions match ML regions",
        agreement >= 0.90,
        f"pixel agreement {100 * agreement:.2f}% on {int(mask.sum())} reached pixels "
        f"within radius {radius:.4f} ({100 * float(np.mean(same[disc])):.2f}% on all "
        f"{int(disc.sum())} disc pixels)",
    )


def test_ml_oracle_not_beaten_by_ae(model_0dbm, oracle_0dbm):
    # a detector called ML must not lose to the learned decoder it bounds
    ae_ser = ser(model_0dbm, partial(detect, model_0dbm), NLPN, 200_000, seed=21)
    ml_ser = ser(model_0dbm, partial(ml_detect, oracle_0dbm), NLPN, 200_000, seed=21)
    print(f"\nML oracle SER {ml_ser:.4g} vs AE SER {ae_ser:.4g} at 0 dBm", flush=True)
    assert ml_ser <= ae_ser, f"ML oracle SER {ml_ser:.4g} > AE SER {ae_ser:.4g}"


def test_criterion_9_cli_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "channel": {"gamma": 0.0},
        "model": {"m": 4, "tx_hidden_layers": 1, "rx_hidden_layers": 1},
        "train": {"batches": 40, "batch_size": 16},
        "eval": {"n_samples": 4000, "oracle_samples": 2000, "raster_resolution": 24},
    }))

    runs = []

    def run_twice(*argv, outputs):
        runs.append(len(runs))
        tag = runs[-1]
        first_dir = None
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / f"run{tag}_{sub}"
            first_dir = first_dir or out
            rc = cli_main([str(a) for a in argv] + ["--out", str(out)])
            assert rc == 0, f"command {argv} failed"
            blobs.append(b"".join((out / name).read_bytes() for name in outputs))
        return blobs[0] == blobs[1], first_dir

    base = ["--config", config_path, "--seed", "5"]
    same, train_dir = run_twice("train", *base, "--power", "-3",
                                outputs=["ae_m4_p-3.00dbm.json", "train_loss_m4_p-3.00dbm.csv"])
    ok = same
    ckpt = train_dir / "ae_m4_p-3.00dbm.json"
    assert ckpt.is_file()
    ok &= run_twice("ser", *base, "--source", "qam", "--detector", "ml",
                    "--power", "-10", "--samples", "4000",
                    outputs=["ser_qam_ml.csv"])[0]
    ok &= run_twice("mi", *base, "--source", "qam", "--power", "-10",
                    "--samples", "4000", outputs=["mi_qam.csv"])[0]
    ok &= run_twice("air", *base, "--checkpoint", ckpt, "--samples", "4000",
                    outputs=["air.csv"])[0]
    ok &= run_twice("regions", *base, "--source", ckpt, "--detector", "ae",
                    outputs=["regions_ae_p-3.00dbm.txt"])[0]
    ok &= run_twice("export-constellation", *base, "--checkpoint", ckpt,
                    outputs=["constellation.csv"])[0]
    ok &= run_twice("gradcheck", *base, outputs=["gradcheck.txt"])[0]
    report(9, "CLI determinism", ok, "all seven commands byte-identical on rerun")
