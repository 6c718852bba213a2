"""The benchmark's workloads: fixed sequences of ``fiberae.cli.main`` calls.

A job is one pass over a workload's calls; a run repeats the job in one
process.  Every call receives a seed derived from the workload seed, never
the workload seed itself.  After each job the output files are checked:
every call must succeed, values must lie in their ranges, and values must
agree with the references recorded below within the stated Monte-Carlo
tolerances.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = BENCH_DIR / "fiberae_config.json"
FIXTURE = BENCH_DIR / "fixture" / "ae_m16_p+0.00dbm.json"

M = 16
LOG2_M = math.log2(M)
TRAIN_BATCHES = 120
TRAIN_BATCH_SIZE = json.loads(CONFIG.read_text())["train"]["batch_size"]
RASTER_RESOLUTION = 400

# The ae_eval fixture was made once by `python3 perfbench/make_fixture.py`,
# which runs this command from the repository root and keeps only the
# checkpoint.  Its digest is checked at set-up so the inputs of ae_eval do
# not drift when the training code changes.
FIXTURE_COMMAND = [
    "train", "--config", "perfbench/fiberae_config.json", "--power", "0",
    "--batches", "8000", "--seed", "11", "--threads", "1",
]
FIXTURE_SHA256 = "a926bfd8a972fbc1c9d96f5518ee45ba6477dbae58d2b1646fdc7ed4b7738a28"


def derive_seed(seed: int, workload: str, call: str) -> int:
    """Seed handed to one call, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{workload}/{call}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass(frozen=True)
class Ref:
    """Reference value of an output and how far it may stray.

    side "both" bounds both ways; "upper" bounds only from above and
    "lower" only from below, for values that a better sampled-ML oracle
    would move in one direction (ML SER down; MI and ML/AE agreement up).
    """

    value: float
    tol: float
    side: str = "both"

    def admits(self, v: float) -> bool:
        if self.side in ("both", "upper") and v > self.value + self.tol:
            return False
        if self.side in ("both", "lower") and v < self.value - self.tol:
            return False
        return True


# Reference values at the benchmark's sizes, from 35 to 48 runs on distinct
# seeds of the commit that added the benchmark.  Each tolerance is at least
# six seed-to-seed standard deviations of those runs (and four Monte-Carlo
# standard errors of one estimate), so a correct program fails them only
# with negligible probability.
REFS = {
    "train.final_loss": Ref(2.334, 0.1),
    "ser_ml.-2.0": Ref(0.0395, 0.004, "upper"),
    "ser_ml.5.0": Ref(0.3914, 0.01, "upper"),
    "mi.-2.0": Ref(3.834, 0.04, "lower"),
    "mi.5.0": Ref(2.731, 0.03, "lower"),
    "air": Ref(3.953, 0.01),
    "ser_ae": Ref(0.0134, 0.003),
    "mi_ae": Ref(3.931, 0.03, "lower"),
    "regions_ml.agreement": Ref(0.597, 0.01, "lower"),
}
# share of the AE raster's pixels given to each message; seed-independent
REGIONS_AE_SHARES = [
    0.012425,
    0.10425,
    0.0089625,
    0.23675625,
    0.01153125,
    0.5064625,
    0.01664375,
    0.0178375,
    0.0067375,
    0.0135,
    0.00565625,
    0.02318125,
    0.00605625,
    0.01121875,
    0.0084125,
    0.01036875,
]
REGIONS_AE_TOL = 0.01


@dataclass(frozen=True)
class Call:
    name: str
    argv: tuple[str, ...]
    warmup: tuple[str, ...]  # flags appended to make the set-up call small


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    needs_fixture: bool = False

    def argv(self, call: Call, seed: int, out: Path, threads: int, warmup: bool) -> list[str]:
        args = [call.argv[0], "--config", str(CONFIG), *call.argv[1:]]
        args += ["--seed", str(derive_seed(seed, self.name, call.name)),
                 "--threads", str(threads), "--out", str(out)]
        return args + list(call.warmup) if warmup else args


SMALL = ("--samples", "2000", "--oracle-samples", "1000")
FIX = str(FIXTURE)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", (
            Call("train", ("train", "--power", "5", "--batches", str(TRAIN_BATCHES)),
                 ("--batches", "2")),
        )),
        Workload("qam_ml_sweep", (
            Call("ser_ml", ("ser", "--source", "qam", "--detector", "ml", "--powers=-2:7:5"), SMALL),
            Call("mi", ("mi", "--source", "qam", "--powers=-2:7:5"), SMALL),
        )),
        Workload("ae_eval", (
            Call("air", ("air", "--checkpoint", FIX), ("--samples", "2000")),
            Call("ser_ae", ("ser", "--source", FIX, "--detector", "ae"), ("--samples", "2000")),
            Call("mi", ("mi", "--source", FIX), SMALL),
            Call("regions_ae", ("regions", "--source", FIX, "--detector", "ae",
                                "--resolution", str(RASTER_RESOLUTION)), ("--resolution", "16")),
            Call("regions_ml", ("regions", "--source", FIX, "--detector", "ml",
                                "--resolution", str(RASTER_RESOLUTION)),
                 ("--resolution", "16", "--oracle-samples", "1000")),
        ), needs_fixture=True),
    )
}


def check_fixture() -> None:
    """Raise if the committed ae_eval checkpoint is not the recorded one."""
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise RuntimeError(f"fixture {FIXTURE.name} has digest {digest}, expected {FIXTURE_SHA256}")


# ---------------------------------------------------------------------------
# reading and checking outputs


def _csv_values(path: Path) -> dict[float, float]:
    out = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith(("#", "power_dbm")):
            continue
        fields = line.split(",")
        out[float(fields[0])] = float(fields[2])
    return out


def _raster(path: Path) -> list[list[int]]:
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    res = int(lines[0])
    rows = [[int(v) for v in l.split()] for l in lines[1:]]
    if len(rows) != res or any(len(r) != res for r in rows):
        raise ValueError(f"{path.name} is not a {res}x{res} raster")
    return rows


def _one(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {out.name}, found {len(found)}")
    return found[0]


class Checker:
    """Collects the output checks of one job: (name, passed, detail)."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.values: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def value(self, name: str, v: float, lo: float, hi: float) -> None:
        """Range check, then reference check when a reference is recorded."""
        self.values[name] = v
        self.check(f"{name} in [{lo:g}, {hi:g}]", lo <= v <= hi, repr(v))
        ref = REFS.get(name)
        if ref is not None:
            self.check(f"{name} near reference {ref.value:g} ({ref.side} tol {ref.tol:g})",
                       ref.admits(v), repr(v))


def check_job(workload: str, outs: dict[str, Path], codes: dict[str, int]) -> Checker:
    """Check every output of one job; each call's output sits in outs[call]."""
    c = Checker()
    for call, code in codes.items():
        c.check(f"{call} exit status 0", code == 0, str(code))
    try:
        _CHECKS[workload](c, outs)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        c.check(f"{workload} outputs readable", False, f"{type(exc).__name__}: {exc}")
    return c


def _check_train(c: Checker, outs):
    text = _one(outs["train"], "train_loss_*.csv").read_text()
    losses = [float(l.split(",")[1]) for l in text.splitlines()
              if l and not l.startswith(("#", "batch"))]
    c.check("train loss trace has one row per batch", len(losses) == TRAIN_BATCHES, str(len(losses)))
    c.check("train losses finite", all(math.isfinite(v) for v in losses))
    final = sum(losses[-10:]) / 10
    c.check("train loss falls", final < sum(losses[:10]) / 10)
    # the posterior floor of 1e-12 caps the cross-entropy at -ln(1e-12)
    c.value("train.final_loss", final, 0.0, math.log(1e12))


def _check_sweep(c: Checker, outs):
    for call, pattern, hi in (("ser_ml", "ser_qam_ml.csv", 1.0), ("mi", "mi_qam.csv", LOG2_M)):
        values = _csv_values(_one(outs[call], pattern))
        c.check(f"{call} has powers -2 and 5", sorted(values) == [-2.0, 5.0], str(sorted(values)))
        for p, v in values.items():
            c.value(f"{call}.{p}", v, 0.0, hi)


def _check_ae_eval(c: Checker, outs):
    (air,) = _csv_values(_one(outs["air"], "air.csv")).values()
    c.value("air", air, -math.inf, LOG2_M)
    (ser,) = _csv_values(_one(outs["ser_ae"], "ser_ae-const_ae.csv")).values()
    c.value("ser_ae", ser, 0.0, 1.0)
    (mi,) = _csv_values(_one(outs["mi"], "mi_ae-const.csv")).values()
    c.value("mi_ae", mi, 0.0, LOG2_M)

    ae = _raster(_one(outs["regions_ae"], "regions_ae_*.txt"))
    ml = _raster(_one(outs["regions_ml"], "regions_ml_*.txt"))
    for name, grid in (("regions_ae", ae), ("regions_ml", ml)):
        c.check(f"{name} is {RASTER_RESOLUTION}x{RASTER_RESOLUTION}", len(grid) == RASTER_RESOLUTION)
        c.check(f"{name} labels in [0, {M})", all(0 <= v < M for row in grid for v in row))
    pixels = RASTER_RESOLUTION * RASTER_RESOLUTION
    counts = Counter(v for row in ae for v in row)
    shares = [counts[i] / pixels for i in range(M)]
    c.values["regions_ae.shares"] = shares
    dist = sum(abs(a - b) for a, b in zip(shares, REGIONS_AE_SHARES))
    c.check(f"regions_ae label shares within L1 {REGIONS_AE_TOL:g} of reference",
            dist <= REGIONS_AE_TOL, repr(dist))
    agree = sum(a == b for ra, rb in zip(ae, ml) for a, b in zip(ra, rb)) / pixels
    c.value("regions_ml.agreement", agree, 0.0, 1.0)


_CHECKS = {"train": _check_train, "qam_ml_sweep": _check_sweep, "ae_eval": _check_ae_eval}
