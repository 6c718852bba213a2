"""Command-line front end: one subcommand per experiment stage.

Commands carry no hidden state between invocations; checkpoints are the
only carrier.  A flag that sets a run value has the dest "block.key" of the
config field it overrides; `load_config` checks it like a file value, and
commands read the config only.  Each output file starts with header
comments (tool version, config hash, seed), and the resolved config, flags
included, is echoed beside it, so identical invocations give identical bytes.

Subcommands: train, ser, air, mi, regions, gradcheck, export-constellation.
"""

from __future__ import annotations

import argparse
import colorsys
import math
import os
import sys
from pathlib import Path

import numpy as np

from fiberae import __version__
from fiberae.autoencoder import (
    AutoencoderModel,
    TrainingDivergedError,
    build_model,
    constellation_points,
    load_checkpoint,
    save_checkpoint,
    train,
)
from fiberae.channel import dbm_from_watts, watts_from_dbm
from fiberae.config import RunConfig, config_hash, load_config, resolved_json
from fiberae.evaluation import RasterSpec, decision_regions, detector_for, qam, sweep
from fiberae.gradcheck import TOLERANCE, run_all

MAX_SWEEP_POINTS = 10_000


class CliError(ValueError):
    """User-facing command failure (bad arguments, missing files)."""


# ---------------------------------------------------------------------------
# shared plumbing


def _checked_power(p_dbm: float) -> float:
    """p_dbm, if it is the dBm value of a finite positive power."""
    try:
        watts_from_dbm(p_dbm)
    except ValueError as exc:
        raise CliError(f"bad input power: {exc}") from exc
    return p_dbm + 0.0  # -0 names the same file and row as 0


def _parse_powers(args) -> list[float]:
    if args.powers is None:
        return [] if args.power is None else [_checked_power(float(args.power))]
    try:
        start, step, stop = (float(f) for f in args.powers.split(":"))
    except ValueError as exc:
        raise CliError(f"--powers must be start:step:stop, got {args.powers!r}") from exc
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise CliError(f"--powers fields must be finite, got {args.powers!r}")
    if step <= 0:
        raise CliError("--powers step must be positive")
    out = []
    v = start
    while v <= stop + 1e-9:
        # the cap also ends a sweep whose step is below the resolution of v
        if len(out) == MAX_SWEEP_POINTS:
            raise CliError(f"--powers {args.powers} gives more than {MAX_SWEEP_POINTS} points")
        out.append(_checked_power(round(v, 10)))
        v += step
    if not out:
        raise CliError(f"--powers {args.powers} gives no power: its start is above its stop")
    return out


def checkpoint_name(m: int, power_dbm: float) -> str:
    return f"ae_m{m}_p{power_dbm:+.2f}dbm.json"


def _setup(args, out_field: str) -> tuple[RunConfig, Path]:
    """The config with every dotted-dest flag as an override, and the output directory."""
    overrides = {k: v for k, v in vars(args).items() if "." in k and v is not None}
    config = load_config(args.config, overrides)
    return config, Path(args.out or getattr(config.paths, out_field))


def _write_text(path: Path, config: RunConfig, seed: int, lines: list[str]) -> None:
    """Write a header (version, config hash, seed) and lines; echo the config
    beside as config-<hash>.json."""
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = config_hash(config)
    (path.parent / f"config-{digest}.json").write_text(resolved_json(config))
    header = [
        f"# fiberae {__version__}",
        f"# config-hash: {digest}",
        f"# seed: {seed}",
    ]
    path.write_text("\n".join(header + lines) + "\n")


def _write_ppm(path: Path, grid, m: int) -> None:
    # P3 pixmap, top row = highest imaginary part
    palette = []
    for i in range(m):
        r, g, b = colorsys.hsv_to_rgb(i / m, 0.65, 0.95)
        palette.append(f"{int(255 * r)} {int(255 * g)} {int(255 * b)}")
    res = len(grid)
    lines = ["P3", f"{res} {res}", "255"]
    lines += [" ".join(palette[v] for v in row) for row in grid[::-1].tolist()]
    path.write_text("\n".join(lines) + "\n")


def _load_checkpoint_file(path: Path) -> AutoencoderModel:
    if not path.is_file():
        problem = "is a directory, not a checkpoint file" if path.is_dir() else "does not exist"
        raise CliError(f"checkpoint {path} {problem}")
    return load_checkpoint(path)


def _checkpoint_on_channel(path: Path, config: RunConfig) -> AutoencoderModel:
    """Load a checkpoint that is to run on the config's channel.

    A checkpoint records the channel it was trained on; rather than pick
    one of two disagreeing channels, refuse the pair.
    """
    model = _load_checkpoint_file(path)
    expected = config.channel.params()
    if model.params != expected:
        raise CliError(
            f"checkpoint {path} was trained on {model.params}, but the config gives "
            f"{expected}; pass the config it was trained with"
        )
    return model


def _trained_at(model: AutoencoderModel, path: Path, p_dbm: float) -> AutoencoderModel:
    """The model, if it was trained at p_dbm: a sweep never relabels one."""
    trained = dbm_from_watts(model.input_power_w)
    if abs(trained - p_dbm) > 1e-6:
        raise CliError(
            f"checkpoint {path} was trained at {trained:.2f} dBm, not {p_dbm} dBm; "
            f"a sweep needs one checkpoint per power"
        )
    return model


def _resolve_sources(args, config: RunConfig) -> list[tuple[float, object]]:
    """(power_dbm, source) pairs of 'qam' or a checkpoint, every file loaded.

    A checkpoint directory holds one file per power; a single checkpoint
    file is loaded once and serves only its own trained power, its default.
    """
    powers = _parse_powers(args)
    source = Path(args.source)
    if args.source == "qam":
        pairs = [(p, qam(config.model.m, watts_from_dbm(p))) for p in powers]
    elif source.is_dir():
        pairs = []
        for p in powers:
            path = source / checkpoint_name(config.model.m, p)
            pairs.append((p, _trained_at(_checkpoint_on_channel(path, config), path, p)))
    else:
        model = _checkpoint_on_channel(source, config)
        default = round(dbm_from_watts(model.input_power_w), 10)
        pairs = [(p, _trained_at(model, source, p)) for p in powers or [default]]
    if not pairs:
        raise CliError("need an input power (--power; ser, mi and air also take --powers)")
    return pairs


def _layer_plan(model: AutoencoderModel) -> list:
    return [(l.weights.shape, l.activation) for net in (model.tx, model.rx) for l in net.layers]


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    power = _checked_power(float(args.power))
    config, out_dir = _setup(args, "checkpoints")
    # the config's model at --power; a warm start with its layer plan lends it its weights
    model = build_model(
        config.model.m,
        config.channel.params(),
        watts_from_dbm(power),
        seed=config.model.init_seed,
        tx_hidden=config.model.tx_hidden_layers,
        rx_hidden=config.model.rx_hidden_layers,
        hidden_width=config.model.hidden_width,
    )
    if args.warm_start is not None:
        path = Path(args.warm_start)
        warm = _checkpoint_on_channel(path, config)
        if _layer_plan(warm) != _layer_plan(model):
            raise CliError(f"warm-start checkpoint {path} has a different layer plan than the config")
        model.tx, model.rx = warm.tx, warm.rx
    settings = {
        "batch_size": config.batch_size(),
        "batches": config.train.batches,
        "learning_rate": config.train.learning_rate,
        "seed": config.train.seed,
    }
    losses = train(model, **settings)
    trace_path = out_dir / f"train_loss_m{config.model.m}_p{power:+.2f}dbm.csv"
    rows = [f"{i},{v}" for i, v in enumerate(losses)]
    _write_text(trace_path, config, config.train.seed, ["batch,loss", *rows])
    ckpt_path = out_dir / checkpoint_name(config.model.m, power)
    save_checkpoint(model, ckpt_path, {**settings, "power_dbm": power})
    print(f"trained {ckpt_path} (final loss {losses[-1]:.6g})")
    return 0


def cmd_sweep(args) -> int:
    """ser, mi and air: one metric over input powers, one CSV row per power."""
    config, out_dir = _setup(args, "outputs")
    sources = _resolve_sources(args, config)
    extra = _overlay_rows(args.overlay) if args.overlay else []
    seed, n_samples = config.eval.seed, config.eval.n_samples
    values = sweep(
        sources,
        args.command,
        config.channel.params(),
        n_samples,
        seed,
        detector=args.detector,
        threads=args.threads,
    )
    lines = ["power_dbm,metric,value,n_samples,seed"]
    lines += [f"{float(p)},{args.command},{v},{n_samples},{seed}"
              for (p, _), v in zip(sources, values)]
    tag = "qam" if args.source == "qam" else "ae-const"
    name = {"ser": f"ser_{tag}_{args.detector}", "mi": f"mi_{tag}", "air": "air"}[args.command]
    path = out_dir / f"{name}.csv"
    _write_text(path, config, seed, lines + extra)
    print(f"wrote {path}")
    return 0


def _overlay_rows(overlay_path: str) -> list[str]:
    """External bound curves for the output CSV; 3-field rows get n_samples,seed 0,0."""
    path = Path(overlay_path)
    if not path.is_file():
        raise CliError(f"overlay file {path} does not exist")
    rows = []
    for line in path.read_text().splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if parts[0] == "power_dbm":
            continue
        try:
            ok = (len(parts) in (3, 5) and all(math.isfinite(float(parts[k])) for k in (0, 2))
                  and all(f.isascii() and f.isdigit() for f in parts[3:]))
        except ValueError:
            ok = False
        if not ok:
            raise CliError(f"overlay row needs finite power_dbm,metric,value[,n_samples,seed as digits]: {line!r}")
        rows.append(stripped if len(parts) == 5 else stripped + ",0,0")
    return rows


def cmd_regions(args) -> int:
    config, out_dir = _setup(args, "outputs")
    ((power, source),) = _resolve_sources(args, config)
    detector = detector_for(args.detector, source, config.channel.params(), args.threads)

    # a configured half width is positive, so `or` only replaces None
    half_width = config.eval.raster_half_width or 3.0 * float(np.sqrt(watts_from_dbm(power)))
    center = 0j
    if args.center is not None:
        try:
            re_s, im_s = args.center.split(",")
            center = complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise CliError(f"--center must be re,im: {args.center!r}") from exc
    spec = RasterSpec(
        center=center,
        half_width=float(half_width),
        resolution=config.eval.raster_resolution,
    )
    grid = decision_regions(detector, spec)
    path = out_dir / f"regions_{args.detector}_p{power:+.2f}dbm.txt"
    _write_text(path, config, config.eval.seed, [
        f"# window: center={spec.center.real},{spec.center.imag} "
        f"half_width={spec.half_width} (rows run along ascending imaginary part)",
        str(spec.resolution),
        *(" ".join(map(str, row)) for row in grid.tolist()),
    ])
    written = [str(path)]
    if args.ppm:
        ppm_path = path.with_suffix(".ppm")
        _write_ppm(ppm_path, grid, config.model.m)
        written.append(str(ppm_path))
    print("wrote " + " ".join(written))
    return 0


def cmd_gradcheck(args) -> int:
    config, out_dir = _setup(args, "outputs")
    report = run_all(seed=config.eval.seed)
    lines = [f"{name}: max relative error {err:.3e} (tolerance {TOLERANCE:g}) "
             f"{'PASS' if err <= TOLERANCE else 'FAIL'}" for name, err in report.items()]
    print("\n".join(lines))
    _write_text(out_dir / "gradcheck.txt", config, config.eval.seed, lines)
    return 0 if all(err <= TOLERANCE for err in report.values()) else 1


def cmd_export_constellation(args) -> int:
    config, out_dir = _setup(args, "outputs")
    model = _load_checkpoint_file(Path(args.checkpoint))
    lines = [f"# input_power_w: {model.input_power_w}", "index,re,im"]
    lines += [f"{i},{p.real},{p.imag}" for i, p in enumerate(constellation_points(model))]
    path = out_dir / "constellation.csv"
    _write_text(path, config, config.eval.seed, lines)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _add_common(p: argparse.ArgumentParser, seed: str = "eval.seed") -> None:
    p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    p.add_argument("--seed", type=int, dest=seed, help=f"override config {seed}")
    p.add_argument("--threads", type=int, default=_usable_cpus(),
                   help="worker threads, by default the CPUs this process may use: evaluations "
                        "pool independent work on them, and no result depends on the count (see "
                        "fiberae.evaluation's Threads paragraph); train, gradcheck and "
                        "export-constellation accept and ignore it")
    p.add_argument("--out", help="output directory (overrides config paths)")


def _add_sweep(p: argparse.ArgumentParser) -> None:
    power = p.add_mutually_exclusive_group()
    power.add_argument("--power", type=float)
    power.add_argument("--powers", help="start:step:stop in dBm (use --powers=-15:1:10 for negative starts)")
    p.add_argument("--samples", type=int, dest="eval.n_samples", help="Monte Carlo samples per power")
    p.set_defaults(func=cmd_sweep, overlay=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberae",
        description="Autoencoder constellation shaping over a nonlinear fiber channel",
    )
    parser.add_argument("--version", action="version", version=f"fiberae {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model at one input power")
    _add_common(p, seed="train.seed")
    p.add_argument("--power", type=float, required=True, help="input power in dBm")
    p.add_argument("--batches", type=int, dest="train.batches", help="override config train.batches")
    p.add_argument("--warm-start", help="checkpoint to initialize from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ser", help="symbol error rate over input powers")
    _add_common(p)
    p.add_argument("--source", required=True, help="'qam' or a checkpoint file/directory")
    p.add_argument("--detector", choices=("mindist", "ml", "ae"), default="mindist")
    _add_sweep(p)
    p.add_argument("--oracle-samples", type=int, dest="eval.oracle_samples", help="unused")

    p = sub.add_parser("air", help="decoder information rate of trained models")
    _add_common(p)
    p.add_argument("--checkpoint", dest="source", required=True,
                   help="checkpoint file or directory")
    _add_sweep(p)
    p.add_argument("--overlay", help="external bound curves CSV merged into the output")
    p.set_defaults(detector="ae")

    p = sub.add_parser("mi", help="oracle mutual information of a constellation")
    _add_common(p)
    p.add_argument("--source", required=True, help="'qam' or a checkpoint file/directory")
    _add_sweep(p)
    p.add_argument("--oracle-samples", type=int, dest="eval.oracle_samples", help="unused")
    p.set_defaults(detector="ml")

    p = sub.add_parser("regions", help="decision-region raster")
    _add_common(p)
    p.add_argument("--source", required=True, help="'qam' or a checkpoint file")
    p.add_argument("--detector", choices=("ae", "ml", "mindist"), default="ae")
    p.add_argument("--power", type=float)
    p.add_argument("--center", help="window center as re,im (default 0,0)")
    p.add_argument("--half-width", type=float, dest="eval.raster_half_width",
                   help="window half width in sqrt(W)")
    p.add_argument("--resolution", type=int, dest="eval.raster_resolution")
    p.add_argument("--oracle-samples", type=int, dest="eval.oracle_samples", help="unused")
    p.add_argument("--ppm", action="store_true", help="also write a portable pixmap")
    p.set_defaults(func=cmd_regions, powers=None)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-constellation", help="dump a checkpoint's symbols as CSV")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_export_constellation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, TrainingDivergedError) as exc:
        # CliError, ConfigError and CheckpointError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
