"""Command-line surface: corpus synthesis, training, evaluation, sweeps,
and attention dumps.

Exit codes: 0 success, 2 usage or input error, 3 checkpoint/model mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .data import (
    InputError,
    ParseError,
    FormatError,
    _truncate,
    encode_sample,
    load_dataset,
    load_embeddings,
    make_directories,
    synth_generate,
    text_lines,
    write_files,
)
from .layers import ConfigError
from .model import CheckpointMismatch, EFNetParams, ModelConfig, forward, load_checkpoint
from .tensor import MaskError, ShapeError
from .train import TrainError, _check_finite, evaluate, head_sweep, train

_FILE_KEY = {"head_count": "heads"}  # field -> its key in the file, where they differ
_NOT_IN_FILE = {"model", "precision"}


@dataclasses.dataclass
class RunConfig:
    """Typed view of a ``key = value`` run configuration file: the model's
    settings plus the run's. Each field of both is a file key, except
    ``precision``; ``head_count`` is written ``heads``."""

    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 10
    embeddings: str | None = None
    train: str | None = None
    val: str | None = None
    test: str | None = None

    def file_fields(self) -> dict:
        """Each file key mapped to the (object, field) it sets."""
        return {_FILE_KEY.get(f.name, f.name): (obj, f.name)
                for obj in (self.model, self) for f in dataclasses.fields(obj)
                if f.name not in _NOT_IN_FILE}

    @classmethod
    def load(cls, path) -> "RunConfig":
        """Parse and validate the file at ``path``. Each error starts with
        the path, then the line, then the key. A field's type is its
        default's; relative paths resolve against the file's directory."""
        cfg = cls()
        slots = cfg.file_fields()
        base = Path(path).resolve().parent
        lines = {}

        def where(key):
            return f"{path}: line {lines[key]}: {key}" if key in lines else f"{path}: {key}"

        for lineno, raw in text_lines(path, ConfigError):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep or not key or not value:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            if key not in slots:
                raise ConfigError(f"{path}: line {lineno}: unknown config key '{key}'")
            if key in lines:
                raise ConfigError(f"{path}: line {lineno}: duplicate key '{key}'")
            lines[key] = lineno
            obj, name = slots[key]
            setattr(obj, name, _parse(where(key), value, getattr(obj, name), base))
        cfg.validate(where)
        return cfg

    def validate(self, where=str) -> None:
        """Range-check every setting; raises ``ConfigError``. ``where`` maps
        a file key to the text its error starts with."""
        self.model.validate(lambda field: where(_FILE_KEY.get(field, field)))
        for key, ok, rule in (("epochs", self.epochs >= 0, ">= 0"),
                              ("batch_size", self.batch_size >= 1, ">= 1"),
                              ("lr", 0.0 < self.lr < math.inf, "finite and > 0")):
            if not ok:
                raise ConfigError(f"{where(key)} must be {rule}, got {getattr(self, key)!r}")


def _parse(where: str, value: str, default, base: Path):
    """``value`` as the type of ``default``; a path when the default is None."""
    if default is None:
        if "\0" in value:
            raise ConfigError(f"{where}: a path cannot hold a NUL character")
        return str((base / value).resolve())
    if isinstance(default, bool):
        lowered = value.lower()
        if lowered not in ("true", "1", "yes", "false", "0", "no"):
            raise ConfigError(f"{where}: not a boolean: {value!r}")
        return lowered in ("true", "1", "yes")
    try:
        return type(default)(value)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(f"{where}: not {kind}: {value!r}") from None


def _read(config_path, cfg: RunConfig, key: str, load):
    """``load`` the file that config key ``key`` names. A missing key, or a
    file that cannot be opened, is an ``InputError`` naming the config file
    and the key."""
    path = getattr(cfg, key)
    if path is None:
        raise InputError(f"{config_path}: missing required key '{key}'")
    try:
        return load(path)
    except OSError as e:
        raise InputError(f"{config_path}: {key} = {path}: {e.strerror or e}") from None


def _prepare(args, splits):
    """Load and check the run config, its embedding table and ``splits``,
    and build the model, before anything is written. A split with no
    samples is an ``InputError`` naming the config file and the key."""
    cfg = RunConfig.load(args.config)
    table = _read(args.config, cfg, "embeddings", load_embeddings)
    if table.dim != cfg.model.embed_dim:
        raise ConfigError(f"{args.config}: embed_dim = {cfg.model.embed_dim}, but "
                          f"{cfg.embeddings} has {table.dim} values per token")
    data = [_read(args.config, cfg, s, load_dataset) for s in splits]
    for key, samples in zip(splits, data):
        if not samples:
            raise InputError(f"{args.config}: {key} = {getattr(cfg, key)}: no samples")
    params = EFNetParams.create(cfg.model, np.random.default_rng(cfg.model.seed),
                                table.matrix)
    return cfg, table, data, params


def cmd_synth(args) -> int:
    rule = synth_generate(args.out, seed=args.seed, n=args.n,
                          vocab_size=args.vocab, grid_rule=args.rule,
                          embed_dim=args.embed_dim)
    print(f"wrote {args.n} samples under {args.out} (rule: {rule['grid_rule']})")
    return 0


def cmd_train(args) -> int:
    cfg, table, (train_set, val_set), params = _prepare(args, ("train", "val"))
    out = Path(args.out)
    make_directories(out)
    train(params, table, train_set, val_set, cfg.model,
          epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size,
          checkpoint_path=out / "model.efck", log_path=out / "metrics.csv",
          on_epoch=print)
    print(f"checkpoint: {out / 'model.efck'}")
    return 0


def cmd_eval(args) -> int:
    cfg, table, (samples,), params = _prepare(args, (args.split,))
    load_checkpoint(args.checkpoint, params)
    try:
        report = evaluate(params, table, samples, cfg.model)
    except TrainError as e:
        raise TrainError(f"{args.checkpoint}: {e}") from None
    print(f"{args.split} accuracy={report.accuracy:.6f} "
          f"macro_f1={report.macro_f1:.6f}")
    write_files([(args.out, json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")])
    return 0


def cmd_sweep_heads(args) -> int:
    try:
        heads = [int(h) for h in args.heads.split(",") if h.strip()]
    except ValueError:
        raise ConfigError(f"--heads: not a comma-separated integer list: {args.heads!r}")
    cfg, table, (train_set, val_set), _ = _prepare(args, ("train", "val"))
    for count in heads:
        # every count is checked before any training, and named as the flag
        dataclasses.replace(cfg.model, head_count=count).validate(
            lambda field: "--heads" if field == "head_count" else field)
    rows = head_sweep(table, train_set, val_set, cfg.model, heads,
                      epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size,
                      out_path=args.out)
    for count, accuracy, macro_f1 in rows:
        print(f"heads={count} accuracy={accuracy:.6f} macro_f1={macro_f1:.6f}")
    return 0


def cmd_dump_attention(args) -> int:
    cfg, table, _, params = _prepare(args, ())
    mc = cfg.model
    samples = (s for key in ("train", "val", "test") if getattr(cfg, key) is not None
               for s in _read(args.config, cfg, key, load_dataset))
    sample = next((s for s in samples if s.id == args.sample_id), None)
    if sample is None:
        raise InputError(f"sample id '{args.sample_id}' not found in any configured split")
    load_checkpoint(args.checkpoint, params)
    encoded = encode_sample(sample, table, mc.max_len, not mc.text_only)
    with np.errstate(all="ignore"):
        out = forward(encoded, params, mc)
    try:
        _check_finite(out, encoded, params, mc)
    except TrainError as e:
        raise TrainError(f"{args.checkpoint}: {e}") from None
    tokens, _ = _truncate(sample.tokens, sample.target_span, mc.max_len)
    payload = {
        "id": encoded.id,
        "tokens": tokens,
        "interaction_heads": out.interaction_weights.tolist(),
        "fusion_heads": out.fusion_weights.tolist(),
        "image_grid": None if out.region_weights is None
        else out.region_weights.reshape(7, 7).tolist(),
    }
    write_files([(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")])
    print(f"attention dump: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efnet",
        description="Targeted aspect-based multimodal sentiment model tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a planted-rule corpus")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--n", type=int, required=True, help="sample count")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--rule", default="both", choices=("none", "cell", "both"),
                       help="label rule: text cue, bright cell, or their sum")
    synth.add_argument("--vocab", type=int, default=40)
    synth.add_argument("--embed-dim", type=int, default=50, dest="embed_dim")
    synth.set_defaults(func=cmd_synth)

    train_p = sub.add_parser("train", help="train a model from a config file")
    train_p.add_argument("--config", required=True)
    train_p.add_argument("--out", required=True,
                         help="directory for model.efck and metrics.csv")
    train_p.set_defaults(func=cmd_train)

    eval_p = sub.add_parser("eval", help="score a checkpoint on one split")
    eval_p.add_argument("--config", required=True)
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--split", required=True, choices=("train", "val", "test"))
    eval_p.add_argument("--out", required=True, help="report file (JSON)")
    eval_p.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep-heads", help="train once per head count")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--heads", required=True, help="comma-separated counts")
    sweep.add_argument("--out", required=True, help="results table (CSV)")
    sweep.set_defaults(func=cmd_sweep_heads)

    dump = sub.add_parser("dump-attention", help="write attention weights for one sample")
    dump.add_argument("--config", required=True)
    dump.add_argument("--checkpoint", required=True)
    dump.add_argument("--sample-id", required=True, dest="sample_id")
    dump.add_argument("--out", required=True, help="dump file (JSON)")
    dump.set_defaults(func=cmd_dump_attention)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except CheckpointMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, FormatError, InputError, ParseError, TrainError,
            ShapeError, MaskError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
