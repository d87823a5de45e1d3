"""Flat key=value run configuration: file parsing, overrides, validation, echo.

Config files hold one ``key = value`` per line; ``#`` starts a comment and
blank lines are ignored. Unknown keys are rejected before any compute. The
fully resolved configuration is echoed to the output directory before
training starts.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, fields

from .training import TrainConfig
from .util import ConfigError, atomic_write_text


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


_PATH_KEYS = ("tree", "dataset", "vocab", "embeddings", "out_dir")


@dataclass
class RunConfig:
    """Every training hyperparameter plus the input/output paths."""

    train: TrainConfig
    tree: str = ""
    dataset: str = ""
    vocab: str = ""
    embeddings: str = ""
    out_dir: str = ""

    def items(self):
        for key in _PATH_KEYS:
            yield key, getattr(self, key)
        for f in fields(TrainConfig):
            yield f.name, getattr(self.train, f.name)

    def echo_text(self) -> str:
        lines = [f"{key} = {value}" for key, value in sorted(self.items())]
        return "\n".join(lines) + "\n"

    def echo(self) -> None:
        """Write the resolved configuration into the output directory."""
        if not self.out_dir:
            raise ConfigError("out_dir is required")
        os.makedirs(self.out_dir, exist_ok=True)
        atomic_write_text(os.path.join(self.out_dir, "config.txt"), self.echo_text())


def _known_keys() -> dict:
    keys = {key: str for key in _PATH_KEYS}
    for f in fields(TrainConfig):
        keys[f.name] = {"int": int, "float": float, "bool": bool, "str": str}[f.type]
    return keys


KNOWN_KEYS = _known_keys()


def parse_config_lines(lines) -> dict:
    """Raw key -> string value pairs from config-file lines; rejects unknown keys."""
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        values[key] = value
    return values


def resolve_config(path: str | None = None, overrides: dict | None = None,
                   seed: int | None = None) -> RunConfig:
    """Build a RunConfig from an optional file, key=value overrides, and a seed flag."""
    values = {}
    if path is not None:
        with io.open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_lines(fh))
    for key, value in (overrides or {}).items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        values[key] = value

    paths = {}
    train_kwargs = {}
    for key, raw in values.items():
        typ = KNOWN_KEYS[key]
        try:
            if typ is bool:
                value = _parse_bool(str(raw))
            else:
                value = typ(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
        if key in _PATH_KEYS:
            paths[key] = value
        else:
            train_kwargs[key] = value
    if seed is not None:
        train_kwargs["seed"] = seed
    return RunConfig(train=TrainConfig(**train_kwargs), **paths)


def parse_overrides(pairs) -> dict:
    """--set key=value flags into a dict."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out
