"""Run configuration: nested blocks, strict validation, stable hashing.

A config file is a JSON document with up to five blocks (channel, model,
train, eval, paths); every field is optional and missing ones take the
defaults below, which reproduce the standard operating point (5000 km,
gamma 1.27, noise -21.3 dBm, 50 segments, M=16).  Unknown blocks or keys
are rejected so typos cannot silently change an experiment, and so is a
value of the wrong type: a bool or 5.0 for an int field, or a non-finite
number for a float field.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields

from fiberae.channel import ChannelParams, watts_from_dbm

__all__ = [
    "ChannelBlock",
    "ModelBlock",
    "TrainBlock",
    "EvalBlock",
    "PathsBlock",
    "RunConfig",
    "ConfigError",
    "load_config",
    "resolved_json",
    "config_hash",
]


class ConfigError(ValueError):
    """Raised for unreadable, unknown-key, or invalid-value configs."""


@dataclass
class ChannelBlock:
    """The "channel" block: the link, with its noise power in dBm."""

    link_length_km: float = 5000.0
    gamma: float = 1.27
    noise_power_dbm: float = -21.3
    segments: int = 50

    def params(self) -> ChannelParams:
        return ChannelParams(
            link_length_km=self.link_length_km,
            gamma=self.gamma,
            noise_power_w=watts_from_dbm(self.noise_power_dbm),
            segments=self.segments,
        )


@dataclass
class ModelBlock:
    """The "model" block: M, the layer plan (hidden_width None means M) and
    the weights' init seed."""

    m: int = 16
    tx_hidden_layers: int = 5
    rx_hidden_layers: int = 6
    hidden_width: int | None = None
    init_seed: int = 7


@dataclass
class TrainBlock:
    """The "train" block: Adam's learning rate, the batch size and count,
    and the noise seed."""

    learning_rate: float = 1e-3
    batch_size: int | None = None  # defaults to 64 * m
    batches: int = 10_000
    seed: int = 100


@dataclass
class EvalBlock:
    """The "eval" block: Monte-Carlo samples and seed, and the raster's
    resolution and half width."""

    n_samples: int = 100_000
    oracle_samples: int = 100_000  # unused: the oracle is exact; still checked >= 1000
    seed: int = 200
    raster_resolution: int = 200
    raster_half_width: float | None = None  # defaults to 3 * sqrt(P_in)


@dataclass
class PathsBlock:
    """The "paths" block: where `train` writes checkpoints and the other
    commands their outputs when --out is not given."""

    checkpoints: str = "out"
    outputs: str = "out"


@dataclass
class RunConfig:
    """A whole config, one field per block; `load_config` builds and
    validates one."""

    channel: ChannelBlock = field(default_factory=ChannelBlock)
    model: ModelBlock = field(default_factory=ModelBlock)
    train: TrainBlock = field(default_factory=TrainBlock)
    eval: EvalBlock = field(default_factory=EvalBlock)
    paths: PathsBlock = field(default_factory=PathsBlock)

    def batch_size(self) -> int:
        return self.train.batch_size if self.train.batch_size is not None else 64 * self.model.m

    def validate(self) -> "RunConfig":
        try:
            self.channel.params()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid channel block: {exc}") from exc
        if self.model.m < 2:
            raise ConfigError("model.m must be at least 2")
        if self.model.tx_hidden_layers < 0 or self.model.rx_hidden_layers < 0:
            raise ConfigError("model.tx_hidden_layers and rx_hidden_layers must be nonnegative")
        if self.model.hidden_width is not None and self.model.hidden_width < 1:
            raise ConfigError("model.hidden_width must be positive")
        if not self.train.learning_rate >= 0:
            raise ConfigError("train.learning_rate must be nonnegative")
        if self.train.batches < 1:
            raise ConfigError("train.batches must be at least 1")
        if self.batch_size() < 1 or self.batch_size() % self.model.m != 0:
            raise ConfigError("train.batch_size must be a positive multiple of model.m")
        for name, seed in (("model.init_seed", self.model.init_seed), ("train.seed", self.train.seed),
                           ("eval.seed", self.eval.seed)):
            if seed < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.eval.n_samples < 1:
            raise ConfigError("eval.n_samples must be at least 1")
        if self.eval.oracle_samples < 1000:
            raise ConfigError("eval.oracle_samples must be at least 1000")
        if self.eval.raster_resolution < 16:
            raise ConfigError("eval.raster_resolution must be at least 16")
        if self.eval.raster_half_width is not None and not self.eval.raster_half_width > 0:
            raise ConfigError("eval.raster_half_width must be positive")
        return self


_BLOCKS = {f.name: f.default_factory for f in fields(RunConfig)}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a block field annotated `annotation`.

    An int field takes only a JSON integer (no bool, no 4.0); a float field
    takes any finite number.  Values are kept as given, never converted.
    """
    if value is None:
        return annotation.endswith("| None")
    kind = annotation.split(" |")[0]
    if isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, str)


def _build_block(cls, data: dict, name: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name} block: {sorted(unknown)}")
    for f in fields(cls):
        if f.name in data and not _fits(data[f.name], f.type):
            raise ConfigError(f"{name}.{f.name}: {data[f.name]!r} is not a valid {f.type}")
    return cls(**data)


def load_config(path=None, overrides=None) -> RunConfig:
    """Read a config file (None: all defaults), lay `overrides` ({"block.key":
    value}) over it, and check the result; an override is checked as a file value."""
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object of blocks")
    layered = {}
    for dotted, value in (overrides or {}).items():
        name, key = dotted.split(".")
        layered.setdefault(name, {})[key] = value
    unknown = (set(doc) | set(layered)) - set(_BLOCKS)
    if unknown:
        raise ConfigError(f"unknown config block(s): {sorted(unknown)}")
    kwargs = {}
    for name, cls in _BLOCKS.items():
        block = doc.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config block {name!r} must be an object")
        kwargs[name] = _build_block(cls, {**block, **layered.get(name, {})}, name)
    return RunConfig(**kwargs).validate()


def resolved_json(config: RunConfig) -> str:
    """Canonical JSON of the fully resolved config (defaults applied)."""
    return json.dumps(asdict(config), sort_keys=True, indent=1) + "\n"


def config_hash(config: RunConfig) -> str:
    """First 16 hex digits of the SHA-256 of the config's compact canonical
    JSON: the `# config-hash:` of result files, and the <hash> of their
    config-<hash>.json echo."""
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
