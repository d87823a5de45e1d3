"""Flat key=value run configuration: file parsing, overrides, validation, echo.

Config files hold one ``key = value`` per line; ``#`` starts a comment and
blank lines are ignored. ``--set key=value`` overrides take the same form
without comments. Unknown keys are rejected before any compute, naming
``<path>:<line>`` or the command-line option. The fully resolved configuration
is echoed to the output directory before training starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .training import TrainConfig
from .util import ConfigError, atomic_write_text, text_lines


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
        os.makedirs(self.out_dir, exist_ok=True)
        atomic_write_text(os.path.join(self.out_dir, "config.txt"), self.echo_text())


def _known_keys() -> dict:
    keys = {key: str for key in _PATH_KEYS}
    for f in fields(TrainConfig):
        keys[f.name] = {"int": int, "float": float, "bool": bool, "str": str}[f.type]
    return keys


KNOWN_KEYS = _known_keys()


def _setting(where: str, text: str) -> tuple[str, tuple[str, str]]:
    """(key, (where, value)) of one ``key = value`` text; ``where`` names its source in
    errors."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if key not in KNOWN_KEYS:
        raise ConfigError(f"{where}: unknown configuration key {key!r}")
    return key, (where, value)


def resolve_config(path: str | None = None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file, then key=value overrides, each given
    as ``(source, text)`` with the source that errors name (``--set``, ``--seed``);
    a later override of a key wins."""
    values = {}
    if path is not None:
        lines = ((f"{path}:{n}", raw.split("#", 1)[0].strip()) for n, raw in text_lines(path))
        values.update(_setting(where, line) for where, line in lines if line)
    values.update(_setting(where, text) for where, text in overrides)

    paths = {}
    train_kwargs = {}
    for key, (where, raw) in values.items():
        typ = KNOWN_KEYS[key]
        try:
            value = _parse_bool(raw) if typ is bool else typ(raw)
        except ValueError:
            raise ConfigError(f"{where}: bad value for {key!r}: {raw!r}") from None
        if key in _PATH_KEYS:
            paths[key] = value
            continue
        # each TrainConfig check reads one field, so a value checked beside the
        # defaults fails exactly when it fails in the full config
        try:
            TrainConfig(**{key: value})
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        train_kwargs[key] = value
    return RunConfig(train=TrainConfig(**train_kwargs), **paths)
