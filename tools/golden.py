"""Digest the output files of a fixed set of fiberae commands.

Run from anywhere:  python3 tools/golden.py OUT_DIR

OUT_DIR must be empty or absent.  The script runs every command of the set
below once with --threads 1 and once with --threads 2, in-process against
the package under src/ of this checkout, each into its own directory under
OUT_DIR/t1 and OUT_DIR/t2.  It then prints one "sha256  relative/path" line
per file written, sorted by path.  A change that promises byte-identical
outputs is checked by running the script on the commit before it and on
the change, and comparing the two listings with diff.

Results must not depend on the thread count: when a file under t1/ and its
counterpart under t2/ differ (or one is missing), the script names them on
stderr after the listing and exits with status 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from fiberae.cli import main  # noqa: E402

PERF_CONFIG = ROOT / "perfbench" / "fiberae_config.json"
FIXTURE = ROOT / "perfbench" / "fixture" / "ae_m16_p+0.00dbm.json"

# the gamma = 0 config of the acceptance suite's CLI-determinism criterion
GAMMA0_CONFIG = {
    "channel": {"gamma": 0.0},
    "model": {"m": 4, "tx_hidden_layers": 1, "rx_hidden_layers": 1},
    "train": {"batches": 40, "batch_size": 16},
    "eval": {"n_samples": 4000, "oracle_samples": 2000, "raster_resolution": 24},
}
OVERLAY = "power_dbm,metric,value\n-3.0,upper_bound,1.9\n-2.0,lower_bound,1.7,10,3\n"


def commands(inputs: Path) -> list[tuple[str, list]]:
    """(output directory, argv) of every command, in the order they run."""
    g0 = ["--config", inputs / "gamma0.json", "--seed", "5"]
    perf = ["--config", PERF_CONFIG, "--seed", "5"]
    ckpt_dir = "gamma0/ckpt"
    return [
        # criterion 9, plus a second checkpoint for the directory sweeps
        (ckpt_dir, ["train", *g0, "--power", "-3"]),
        (ckpt_dir, ["train", *g0, "--power", "-2"]),
        # the -3 dBm weights, trained on at -1 dBm
        ("gamma0/warm", ["train", *g0, "--power", "-1", "--warm-start", "{ckpt}"]),
        ("gamma0/ser_qam_ml", ["ser", *g0, "--source", "qam", "--detector", "ml",
                               "--power", "-10", "--samples", "4000"]),
        ("gamma0/mi_qam", ["mi", *g0, "--source", "qam", "--power", "-10", "--samples", "4000"]),
        ("gamma0/air", ["air", *g0, "--checkpoint", "{ckpt}", "--samples", "4000"]),
        ("gamma0/regions_ae", ["regions", *g0, "--source", "{ckpt}", "--detector", "ae"]),
        ("gamma0/export", ["export-constellation", *g0, "--checkpoint", "{ckpt}"]),
        ("gamma0/gradcheck", ["gradcheck", *g0]),
        ("gamma0/dir_ser_ae", ["ser", *g0, "--source", "{dir}", "--detector", "ae",
                               "--powers=-3:1:-2"]),
        ("gamma0/dir_air", ["air", *g0, "--checkpoint", "{dir}", "--powers=-3:1:-2"]),
        ("gamma0/air_overlay", ["air", *g0, "--checkpoint", "{ckpt}", "--samples", "4000",
                                "--overlay", inputs / "overlay.csv"]),
        ("perf/train", ["train", *perf, "--power", "5", "--batches", "60"]),
        ("perf/ser_qam_ml", ["ser", *perf, "--source", "qam", "--detector", "ml",
                             "--powers=-2:7:5", "--samples", "20000"]),
        ("perf/mi_qam", ["mi", *perf, "--source", "qam", "--powers=-2:7:5", "--samples", "20000"]),
        ("fixture/air", ["air", *perf, "--checkpoint", FIXTURE]),
        ("fixture/ser_ae", ["ser", *perf, "--source", FIXTURE, "--detector", "ae"]),
        ("fixture/ser_mindist", ["ser", *perf, "--source", FIXTURE, "--detector", "mindist"]),
        # one sample past a block edge of channel.in_blocks
        ("fixture/ser_mindist_8193", ["ser", *perf, "--source", FIXTURE, "--detector", "mindist",
                                      "--samples", "8193"]),
        ("fixture/mi", ["mi", *perf, "--source", FIXTURE]),
        *((f"fixture/regions_{d}", ["regions", *perf, "--source", FIXTURE, "--detector", d,
                                    "--resolution", "200", "--ppm"])
          for d in ("ae", "ml", "mindist")),
        ("fixture/export", ["export-constellation", *perf, "--checkpoint", FIXTURE]),
    ]


def run_set(out: Path, inputs: Path, threads: int) -> None:
    ckpt_dir = out / "gamma0" / "ckpt"
    fill = {"ckpt": ckpt_dir / "ae_m4_p-3.00dbm.json", "dir": ckpt_dir}
    for sub, argv in commands(inputs):
        argv = [str(a).format(**fill) for a in argv]
        argv += ["--threads", str(threads), "--out", str(out / sub)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"fiberae {' '.join(argv)} exited with {code}")


def thread_mismatches(digests: dict[str, str]) -> list[str]:
    """Paths, relative to t1/ and t2/, whose two digests differ or are not both there."""
    runs = [{rel[3:]: d for rel, d in digests.items() if rel.startswith(f"t{t}/")} for t in (1, 2)]
    return sorted(p for p in runs[0].keys() | runs[1].keys() if runs[0].get(p) != runs[1].get(p))


def main_golden(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/golden.py OUT_DIR", file=sys.stderr)
        return 2
    top = Path(argv[0])
    if top.exists() and any(top.iterdir()):
        print(f"{top} is not empty", file=sys.stderr)
        return 2
    inputs = top / "inputs"
    inputs.mkdir(parents=True)
    (inputs / "gamma0.json").write_text(json.dumps(GAMMA0_CONFIG))
    (inputs / "overlay.csv").write_text(OVERLAY)
    for threads in (1, 2):
        run_set(top / f"t{threads}", inputs, threads)
    digests = {}
    for path in sorted(p for p in top.rglob("*") if p.is_file() and inputs not in p.parents):
        rel = path.relative_to(top).as_posix()
        digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digests[rel]}  {rel}")
    mismatches = thread_mismatches(digests)
    for rel in mismatches:
        print(f"t1/{rel} and t2/{rel} differ", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main_golden(sys.argv[1:]))
