"""Flat key=value configuration shared by the CLI and the engine.

Config files are plain text: one ``key=value`` per line, ``#`` comments and
blank lines ignored.  Values are typed by the field they set.  The same
``key=value`` syntax is accepted as CLI overrides, which win over the file.
``format_config(parse_config(text))`` round-trips losslessly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import BadConfig, read_text
from .schema import LevelMode


@dataclass
class Config:
    # sequence budgets
    max_len: int = 512
    max_prompt_len: int = 256
    max_depth: int = 8
    # decoding thresholds
    delta_ie: float = 0.0
    delta_cls: float = 0.9
    # model dimensions
    d: int = 64
    d_head: int = 64
    layers: int = 2
    heads: int = 4
    ffn_mult: int = 4
    # optimization
    lr: float = 1e-3
    weight_decay: float = 0.01
    warmup_ratio: float = 0.1
    grad_clip: float = 2.0
    epochs: int = 20
    seed: int = 0
    early_stop_f1: float = 0.0
    # task shape
    level_modes: str = ""      # comma list of extract|cls_single|cls_multi
    eval_tasks: str = "entity"  # comma list of metric task names
    # paths
    schema: str = ""
    data: str = ""
    vocab: str = ""
    checkpoint: str = ""


_FIELDS = {f.name: f.type for f in dataclasses.fields(Config)}


def _coerce(key: str, value: str):
    kind = _FIELDS[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        return value
    except ValueError:
        raise BadConfig(f"value for {key} must be {kind}: {value!r}") from None


def _set(cfg: Config, item: str, where: str) -> None:
    """Apply one ``key=value`` string; ``where`` opens every error message."""
    if "=" not in item:
        raise BadConfig(f"{where}: expected key=value, got {item!r}")
    key, value = item.split("=", 1)
    key = key.strip()
    if key not in _FIELDS:
        raise BadConfig(f"{where}: unknown config key {key!r}")
    setattr(cfg, key, _coerce(key, value.strip()))


def apply_overrides(cfg: Config, overrides) -> Config:
    """Apply ``key=value`` strings on top of a config, left to right."""
    for item in overrides:
        _set(cfg, item, "override")
    return cfg


def parse_config(text: str) -> Config:
    cfg = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            _set(cfg, line, f"line {lineno}")
    return cfg


def format_config(cfg: Config) -> str:
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in dataclasses.fields(Config)]
    return "\n".join(lines) + "\n"


def load_config(path) -> Config:
    return parse_config(read_text(path, BadConfig))


def validate_config(cfg: Config) -> None:
    for key in ("delta_ie", "lr", "weight_decay", "warmup_ratio", "grad_clip",
                "early_stop_f1"):
        if not math.isfinite(getattr(cfg, key)):
            raise BadConfig(f"{key} must be finite, got {getattr(cfg, key)}")
    for key in ("schema", "data", "vocab", "checkpoint"):
        if "\0" in getattr(cfg, key):
            raise BadConfig(f"{key} path contains a NUL byte")
    if cfg.max_prompt_len >= cfg.max_len:
        raise BadConfig("max_prompt_len must be smaller than max_len")
    if not 0.0 <= cfg.delta_cls <= 1.0:
        raise BadConfig("delta_cls must lie in [0, 1]")
    if min(cfg.d, cfg.d_head, cfg.heads, cfg.max_depth) < 1:
        raise BadConfig("dimensions and depth limits must be positive")
    if cfg.d_head % 2 != 0:
        raise BadConfig("d_head must be even for rotary scoring")
    if cfg.layers < 0 or cfg.epochs < 0:
        raise BadConfig("layers and epochs must be non-negative")
    level_mode_list(cfg)
    eval_task_list(cfg)


def level_mode_list(cfg: Config) -> list[LevelMode]:
    """Per-level modes from the config's comma list; unnamed levels extract."""
    if not cfg.level_modes.strip():
        return []
    modes = []
    for item in cfg.level_modes.split(","):
        item = item.strip()
        try:
            modes.append(LevelMode(item))
        except ValueError:
            raise BadConfig(
                f"level mode must be one of "
                f"{[m.value for m in LevelMode]}, got {item!r}"
            ) from None
    return modes


def eval_task_list(cfg: Config) -> list[str]:
    return [t.strip() for t in cfg.eval_tasks.split(",") if t.strip()]
