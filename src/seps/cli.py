"""Command-line entry point.

Commands: gen (synthetic bank), train, eval, score (one pair), inspect
(per-patch selection dump).  Options come from a flat key=value config file
(`#` starts a comment) with command-line flags taking precedence; unknown
keys are rejected and every value is checked against `errors.RANGES` before
any output file is touched.

Exit codes: 0 success, 2 usage or input error (an out-of-range or
non-finite value names its key), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from . import autodiff as ad, evaluator, objective, selection, trainer
from .bank import FeatureBank, SynthConfig, generate_synthetic, read_bank, write_bank
from .errors import RANGES, ConfigError, NumericalError, SepsError, check_fields, check_range

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunConfig:
    train: trainer.TrainConfig | None = None  # None: a section the command does not read
    synth: SynthConfig | None = None
    folds: int = 1
    bank: str = ""
    val_bank: str = ""
    checkpoint: str = ""
    out: str = ""
    history: str = ""

    def __post_init__(self) -> None:
        check_fields(self)


# config keys and flags are the fields of the two sections and of RunConfig
# itself; a field shared by both sections (dim, n_patches, seed) is one key,
# parsed by its declared type (int, float or str)
_SECTIONS = {"train": trainer.TrainConfig, "synth": SynthConfig}
_ALIASES = {"n_samples": "samples", "n_relevant_patches": "n_relevant",
            "concept_count": "concepts"}
_FIELD_OF_KEY = {key: name for name, key in _ALIASES.items()}
KEY_TYPES = {_ALIASES.get(name, name): kind
             for cls in (*_SECTIONS.values(), RunConfig)
             for name, kind in get_type_hints(cls).items() if name not in _SECTIONS}


def _parse_value(key: str, raw: str):
    kind = KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key: {key}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, raw = (part.strip() for part in text.split("=", 1))
                values[key] = _parse_value(key, raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def build_config(args: argparse.Namespace, sections=tuple(_SECTIONS)) -> RunConfig:
    """Defaults <- config file <- explicit flags. Every key is checked
    against its range, but only the named sections are built, so a rule
    across one section's keys binds only the commands that read it."""
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for key in KEY_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        if key in merged and (name := _FIELD_OF_KEY.get(key, key)) in RANGES:
            check_range(name, merged[key])

    def pick(cls) -> dict:
        keys = {f.name: _ALIASES.get(f.name, f.name) for f in fields(cls)}
        return {name: merged[key] for name, key in keys.items() if key in merged}

    built = {name: cls(**pick(cls)) for name, cls in _SECTIONS.items() if name in sections}
    return RunConfig(**built, **pick(RunConfig))


def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")


def _load_bank(path: str) -> FeatureBank:
    try:
        return read_bank(path)
    except OSError as exc:
        raise ConfigError(f"cannot read bank {path}: {exc}") from exc


def _load_model(cfg: RunConfig) -> tuple[FeatureBank, trainer.ModelParams]:
    """The bank and the checkpoint, checked to share one feature dimension."""
    _require(cfg, "bank", "checkpoint")
    bank = _load_bank(cfg.bank)
    params = trainer.load_checkpoint(cfg.checkpoint)
    evaluator.check_dims(bank, params)
    return bank, params


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: RunConfig) -> int:
    _require(cfg, "out")
    bank = generate_synthetic(cfg.synth)
    try:
        write_bank(bank, cfg.out)
    except OSError as exc:
        raise ConfigError(f"cannot write bank {cfg.out}: {exc}") from exc
    print(f"wrote {cfg.out}: {len(bank.samples)} samples, dim {bank.dim}, "
          f"{cfg.synth.n_relevant_patches} relevant of {cfg.synth.n_patches} patches")
    return EXIT_OK


def _history_line(stats: trainer.EpochStats) -> str:
    line = (f"{stats.epoch},{stats.loss:.6f},"
            f"{stats.keep_sparse:.4f},{stats.keep_dense:.4f}")
    if stats.val_r1 is not None:
        line += f",{stats.val_r1:.4f}"
    return line


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "bank", "out")
    bank = _load_bank(cfg.bank)
    val_bank = _load_bank(cfg.val_bank) if cfg.val_bank else None
    tcfg = replace(cfg.train, dim=bank.dim, n_patches=bank.samples[0].n_patches)
    for what, path in (("checkpoint", cfg.out), ("history", cfg.history)):
        if path and os.path.isdir(path):
            raise ConfigError(f"cannot write {what} {path}: Is a directory")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {what} {path}: no such directory")
    try:
        _, history = trainer.fit(bank, tcfg, val_bank=val_bank, checkpoint_path=cfg.out)
    except OSError as exc:  # fit writes the checkpoint and nothing else
        raise ConfigError(f"cannot write checkpoint {cfg.out}: {exc.strerror or exc}") from exc
    lines = [_history_line(h) for h in history]
    for line in lines:
        print(line)
    if cfg.history:
        try:
            with open(cfg.history, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write history {cfg.history}: {exc}") from exc
    print(f"checkpoint written to {cfg.out}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    bank, params = _load_model(cfg)
    report = evaluator.retrieval_eval(bank, params, folds=cfg.folds)
    print(report.table())
    print(report.machine_line())
    return EXIT_OK


def cmd_score(cfg: RunConfig, image_id: str, caption_id: str) -> int:
    bank, params = _load_model(cfg)
    image = bank.by_id(image_id)
    caption = bank.by_id(caption_id)
    with ad.no_grad():
        _, (score,) = next(objective.score_grid([image], [caption], params.selection,
                                                params.alignment))
    mean_p2w, head_p2w, mean_w2p, head_w2p = score.components()
    print(f"S({image_id},{caption_id}) = {score.total.item():.6f}")
    print(f"mean_p2w = {mean_p2w:.6f}")
    print(f"topk_p2w = {head_p2w:.6f}")
    print(f"mean_w2p = {mean_w2p:.6f}")
    print(f"topk_w2p = {head_w2p:.6f}")
    return EXIT_OK


def cmd_inspect(cfg: RunConfig, sample_id: str) -> int:
    """Reads only the scores and masks, so it works when both branches keep nothing."""
    bank, params = _load_model(cfg)
    sample = bank.by_id(sample_id)
    with ad.no_grad():
        bundle, decisions = selection.score_and_decide(sample, params.selection, "eval")
    pred, hard, score = bundle.predicted.data, decisions.hard, decisions.score
    print(f"# sample {sample_id}: {sample.n_patches} patches")
    print("# idx s_p s_st s_dt s_im s_sparse s_dense keep(sd) gt")
    for i in range(sample.n_patches):
        gt = "?" if sample.relevance_mask is None else str(int(sample.relevance_mask[i]))
        keep = f"{int(hard[0, i])}{int(hard[1, i])}"
        print(f"{i} {pred[i]:.4f} {bundle.sparse_text[i]:.4f} "
              f"{bundle.dense_text[i]:.4f} {bundle.image_self[i]:.4f} "
              f"{score[0, i]:.4f} {score[1, i]:.4f} {keep} {gt}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


# command -> (help, config sections read, required flags, handler taking both)
_COMMANDS = {
    "gen": ("generate a synthetic feature bank", ("synth",), (), cmd_gen),
    "train": ("train on a bank and write a checkpoint", ("train",), (), cmd_train),
    "eval": ("retrieval metrics for a checkpoint on a bank", (), (), cmd_eval),
    "score": ("score one image-caption pair", (), ("image", "caption"), cmd_score),
    "inspect": ("per-patch selection dump for one sample", (), ("sample",), cmd_inspect),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seps",
        description="patch selection and patch-word alignment on feature banks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, required, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="key=value config file")
        for key, kind in KEY_TYPES.items():
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)
        for flag in required:
            cmd.add_argument(f"--{flag}", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _, sections, required, run = _COMMANDS[args.command]
    try:
        return run(build_config(args, sections), *(getattr(args, flag) for flag in required))
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SepsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
